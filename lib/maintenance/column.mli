(** Typed, growable column segments — the physical storage of auxiliary and
    view state.

    A column stores one cell per resident row. Storage specializes on the
    first value appended: [Int] cells go to a native-int {!Bigarray},
    [Float] cells to a float64 {!Bigarray}, [String] cells to int32
    dictionary codes (see {!Dict}); anything else — or a later type
    mismatch, which the relational layer's typed schemas make rare — falls
    back to a boxed [Value.t array]. Growth is by doubling; deletion is
    swap-with-last, keeping segments dense (row ids are not stable across
    deletes — indexes are repaired by the owner).

    Cells are read/written through [Value.t] at the API boundary, but the
    probe hot paths use {!equal_cell} / {!hash_cell} / {!add_cell} /
    {!sub_cell}, which avoid boxing entirely on specialized storage. *)

module Icol : sig
  (** A dense unboxed [int] column (counts, row positions). *)

  type t

  val create : unit -> t

  (** [reserve n] is empty, with the capacity that [n] appends to
      [create ()] would have reached: no append up to the [n]th grows it. *)
  val reserve : int -> t
  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit

  (** [add c i d] is [set c i (get c i + d)]. *)
  val add : t -> int -> int -> unit

  val append : t -> int -> unit

  (** [swap_delete c i] moves the last cell into [i] and shrinks by one. *)
  val swap_delete : t -> int -> unit

  val byte_size : t -> int

  (** The cells allocated: [length] plus the appends that fit unresized. *)
  val capacity : t -> int

  (** [truncate c n] drops every cell from [n] on, keeping the capacity. *)
  val truncate : t -> int -> unit
end

module Marks : sig
  (** One mark per row, a byte each: which rows were marked since the last
      {!next_epoch}. The undo journals mark a row when they log its group,
      so a second write to it in the same transaction skips the journal. *)

  type t

  val create : unit -> t
  val length : t -> int

  (** Unmarks every row, in O(1) on 254 calls of 255. *)
  val next_epoch : t -> unit

  val marked : t -> int -> bool
  val mark : t -> int -> unit

  (** [append c] adds an unmarked row. *)
  val append : t -> unit

  (** [swap_delete c i] moves the last row's mark into [i] and shrinks by
      one. *)
  val swap_delete : t -> int -> unit

  val byte_size : t -> int
end

type t

(** [create ?dict ()] is an empty, as-yet-untyped column. [dict] is used if
    the column turns out to hold strings; otherwise a private dictionary is
    made on demand. *)
val create : ?dict:Dict.t -> unit -> t

(** [create_boxed ()] forces boxed storage — used for columns that must
    represent an absent value ([Value.Null] as the [None] sentinel, e.g.
    pending MIN/MAX components of the view state). *)
val create_boxed : unit -> t

(** An empty column created as [c] was (same dictionary, same boxing). *)
val empty_like : t -> t

val length : t -> int
val append : t -> Relational.Value.t -> unit
val get : t -> int -> Relational.Value.t
val set : t -> int -> Relational.Value.t -> unit

(** [swap_delete c i] moves the last cell into [i] and shrinks by one. *)
val swap_delete : t -> int -> unit

(** [truncate c n] drops every cell from [n] on, keeping the capacity (and
    the storage: the next appends reuse it). *)
val truncate : t -> int -> unit

(** [equal_cell c i v] is [Value.equal (get c i) v] without materializing
    the cell. *)
val equal_cell : t -> int -> Relational.Value.t -> bool

(** [hash_cell c i] is [Value.hash (get c i)] without materializing the
    cell (string cells use the hash precomputed at intern time). *)
val hash_cell : t -> int -> int

(** [add_cell c i v n] folds [Value.add (get c i) (Value.scale v n)] into
    the cell — unboxed when storage and [v] agree on a numeric type.
    [sub_cell] is the subtractive mirror.
    @raise Invalid_argument on non-numeric operands (matching [Value.add]). *)
val add_cell : t -> int -> Relational.Value.t -> int -> unit

val sub_cell : t -> int -> Relational.Value.t -> int -> unit

(** {2 Cell to cell}

    The operations above with the cell [j] of a second column [src] as the
    operand: matching storages meet without boxing either cell, and each
    result is exactly that of the boxed operation on [get src j]. *)

(** [equal_cells c i src j] is [equal_cell c i (get src j)]. *)
val equal_cells : t -> int -> t -> int -> bool

(** [append_cell c src j] is [append c (get src j)]. *)
val append_cell : t -> t -> int -> unit

(** [add_cells c i src j n] is [add_cell c i (get src j) n]; [sub_cells]
    likewise. *)
val add_cells : t -> int -> t -> int -> int -> unit

val sub_cells : t -> int -> t -> int -> int -> unit

(** [zero_like_cell c i] is [Value.zero_like (get c i)]. *)
val zero_like_cell : t -> int -> Relational.Value.t

(** [is_numeric_cell c i] is [Value.is_numeric (get c i)]. *)
val is_numeric_cell : t -> int -> bool

(** [combine_ext c i v ~is_min] folds an append-only extremum:
    cell := min/max(cell, v) under [Value.compare]. *)
val combine_ext : t -> int -> Relational.Value.t -> is_min:bool -> unit

(** {2 Stored cell to cell}

    The operations above with cell [j] of the row under a shadow cursor as
    the operand: where storage and column type agree the cell is read from
    its word, boxing nothing, and each result is exactly that of the boxed
    operation on [Cursor.cell cur j]. *)

(** [equal_stored c i cur j] is [equal_cell c i (Cursor.cell cur j)]. *)
val equal_stored : t -> int -> Relational.Database.Cursor.t -> int -> bool

(** [append_stored c cur j] is [append c (Cursor.cell cur j)], and
    [append_scaled_stored c cur j n] appends it scaled by [n]
    ([Value.scale]). *)
val append_stored : t -> Relational.Database.Cursor.t -> int -> unit

val append_scaled_stored : t -> Relational.Database.Cursor.t -> int -> int -> unit

(** [add_stored c i cur j n] is [add_cell c i (Cursor.cell cur j) n]. *)
val add_stored : t -> int -> Relational.Database.Cursor.t -> int -> int -> unit

(** [combine_ext_stored c i cur j ~is_min] is [combine_ext c i
    (Cursor.cell cur j) ~is_min]. *)
val combine_ext_stored :
  t -> int -> Relational.Database.Cursor.t -> int -> is_min:bool -> unit

(** Bytes held by this column's cells: Bigarray payloads (which
    [Obj.reachable_words] cannot see — they live off-heap) plus an estimate
    of boxed storage. Excludes the dictionary (shared; account it once via
    {!dict}). *)
val byte_size : t -> int

(** Estimated heap bytes of one boxed value, as {!byte_size} counts a
    boxed cell. *)
val boxed_bytes : Relational.Value.t -> int

(** Off-heap (Bigarray payload) bytes only — the complement of what
    [Obj.reachable_words] measures. *)
val offheap_bytes : t -> int

(** The dictionary backing string cells, if the column holds any. *)
val dict : t -> Dict.t option

(** Storage kind, for diagnostics: "empty" | "int" | "float" | "dict" |
    "boxed". *)
val kind : t -> string
