(** A grouped column store: the physical storage of both
    {!Aux_state} (an auxiliary view) and {!View_state} (a GPSJ view).

    Algorithm 3.2's smart duplicate compression makes every auxiliary view
    a generalized projection — a group key, its ["COUNT(*)"] and the
    CSMAS replacement columns — the same shape as the view it serves. The
    store keeps such groups and nothing else: one typed {!Column} per key
    attribute, the component columns, a dense count column, one journal
    mark per row and a {!Relational.Rowmap} from group key to row. A
    group is a row id into those columns; deletion swaps the last row into
    the hole, so row ids are internal to the owner.

    What the components mean is the owner's business: it appends a new
    group's key and component cells itself, then registers the row with
    {!add_row}, and reads and writes cells in place. The store owns what
    every owner needs the same way: probes, swap-with-last deletion that
    reports the row it moved, the typed undo log with its two-phase
    rollback, row-order-independent equality and byte accounting. *)

module VMap : Map.S with type key = Relational.Value.t

(** A column of per-row value multisets (value -> multiplicity). Being
    persistent, a map is its own before-image: journaling one costs a
    pointer, never a copy. *)
type sets = { mutable maps : int VMap.t array; mutable len : int }

(** [sets_append c m] appends a row holding [m]. *)
val sets_append : sets -> int VMap.t -> unit

(** The undo log: group images laid out as the store lays out its
    groups. *)
type log

type t = private {
  keys : Column.t array;  (** the group key, one column per attribute *)
  cells : Column.t array;  (** typed component columns *)
  ints : Column.Icol.t array;  (** integer component columns *)
  sets : sets array;  (** multiset component columns *)
  cnts : Column.Icol.t;  (** the group's count: base rows folded in *)
  touched : Column.Marks.t;
      (** row-parallel: marked when the open transaction has journaled
          the row's group *)
  map : Relational.Rowmap.t;  (** group key -> row *)
  mutable log : log;
  mutable start : int;
      (** the log length at {!begin_txn}; [-1] outside a transaction *)
  mutable untracked : bool;
      (** a group changed outside a transaction, or the log was dropped,
          since the last {!clear_log}: the log does not name every
          changed group *)
}

(** [create ~keys ~cells ~ints ~sets] is an empty store over the owner's
    empty key and cell columns, with [ints] integer and [sets] multiset
    component columns. *)
val create :
  keys:Column.t array -> cells:Column.t array -> ints:int -> sets:int -> t

(** Number of groups (= rows). *)
val group_count : t -> int

(** [find g ~hash key] is the row of group [key], or [-1]. *)
val find : t -> hash:int -> Relational.Tuple.t -> int

(** Fresh boxed key of row [r]. *)
val key_at : t -> int -> Relational.Tuple.t

(** [Tuple.hash] of row [r]'s key, read from its cells. *)
val row_hash : t -> int -> int

(** [add_row g ~hash cnt] registers the row whose key and component
    cells the owner has just appended, with count [cnt]; returns it. *)
val add_row : t -> hash:int -> int -> int

(** [load_rows g ~into ~pairs n] registers rows [0 .. n - 1] of an empty
    store outside a transaction, as {!add_row}s would, once a build has
    appended their keys: item [k] of the build folds into row [into.(k)]
    ([-1]: none), which counts it once, and the key map takes [pairs], the
    build's probe table of the rows and their key hashes
    ({!Relational.Rowmap.load}). The count and the mark columns are sized
    once, at the capacity the appends would have reached.
    @raise Invalid_argument if [g] holds a group or is in a transaction. *)
val load_rows : t -> into:int array -> pairs:int array -> int -> unit

(** [delete_row g ~hash r] removes row [r] ([hash] is its key's) by
    swapping the last row into its place. Returns the moved row's old id,
    now at [r], or [-1] when [r] was the last row. *)
val delete_row : t -> hash:int -> int -> int

(** [rekey g r ~hash ~key ~new_hash] re-keys group [r] (key hash [hash])
    as [key] (hash [new_hash]) in place: the row, its components and its
    count stay. Not journaled: see {!note_created}. *)
val rekey : t -> int -> hash:int -> key:Relational.Tuple.t -> new_hash:int -> unit

(** {2 Undo journal}

    An entry is the before-image of a group's first mutation in a
    transaction, or the record that the transaction created the group. A
    row already journaled is known by its [touched] mark, without a
    probe; {!begin_txn} unmarks every row. *)

val in_txn : t -> bool
val begin_txn : t -> unit

(** Before the first mutation of row [r] in a transaction: logs its image
    once. Outside a transaction it marks the store [untracked]. *)
val note_row : t -> hash:int -> int -> unit

(** After the creation of row [r]. *)
val note_created : t -> hash:int -> int -> unit

(** Closes the transaction; the log keeps its entries. *)
val commit : t -> unit

(** Undoes the transaction's entries and closes it: first every group it
    created is removed through [delete] (default {!delete_row}), then
    every before-image is restored — in place, or re-appended when its
    group is gone — and passed to [restored]. A key can carry both, when
    the transaction deleted a group and created it again. Entries logged
    before {!begin_txn} are kept. *)
val rollback :
  ?delete:(hash:int -> int -> unit) ->
  ?restored:(appended:bool -> int -> unit) ->
  t ->
  unit

(** Empties the log: it names no group from now on. It keeps its
    capacity for the next transactions unless that is well beyond what it
    just held: then its storage is released, so one large batch does not
    pin a large log. *)
val clear_log : t -> unit

(** {!clear_log}, remembering that changed groups went unnamed. *)
val drop_log : t -> unit

val log_length : t -> int

(** The key and the key hash of log entry [e]. *)
val log_key : t -> int -> Relational.Tuple.t

val log_hash : t -> int -> int

(** {2 Whole store} *)

(** Same groups with equal counts and components, independent of row
    order. *)
val equal : t -> t -> bool

(** Resident bytes: columns, count and integer columns, multisets (map
    nodes and boxed values), marks, key maps and string dictionaries,
    each dictionary counted once. The log is working memory of the
    transactions and is not counted. *)
val byte_size : t -> int

(** Off-heap (Bigarray payload) bytes only. *)
val offheap_bytes : t -> int
