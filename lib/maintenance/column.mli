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

  val copy : t -> t
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

val length : t -> int
val append : t -> Relational.Value.t -> unit
val get : t -> int -> Relational.Value.t
val set : t -> int -> Relational.Value.t -> unit

(** [swap_delete c i] moves the last cell into [i] and shrinks by one. *)
val swap_delete : t -> int -> unit

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

(** [combine_ext c i v ~is_min] folds an append-only extremum:
    cell := min/max(cell, v) under [Value.compare]. *)
val combine_ext : t -> int -> Relational.Value.t -> is_min:bool -> unit

(** Deep copy of the cells; a shared dictionary stays shared (codes are
    append-only, so they remain valid in both copies). *)
val copy : t -> t

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
