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

  (** [buckets ~ids ~values] is, for each value [0 .. values - 1], the
      rows [r] with [ids.(r)] that value, ascending, each at the capacity
      its appends would have reached ({!reserve}); and, row-parallel,
      each row's offset within its bucket. *)
  val buckets : ids:int array -> values:int -> t array * t

  (** [add_at c ~into ~by] is [add c into.(k) by.(k)] for every [k] with
      [into.(k) >= 0]. *)
  val add_at : t -> into:int array -> by:int array -> unit

  (** The cells, copied. *)
  val to_array : t -> int array

  (** [append_counts c ~into n] appends [n] cells, cell [r] of them the
      number of items [k] with [into.(k) = r], growing [c] once to the
      capacity [n] {!append}s would have reached. *)
  val append_counts : t -> into:int array -> int -> unit

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

  (** [append_n c n] adds [n] unmarked rows, growing [c] once to the
      capacity [n] {!append}s would have reached. *)
  val append_n : t -> int -> unit

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

(** [append_stored c cur j] is [append c (Cursor.cell cur j)]. *)
val append_stored : t -> Relational.Database.Cursor.t -> int -> unit

(** Whether every cell of [c] is numeric by its storage: an integer or
    float column. *)
val numeric : t -> bool

(** Whether every cell of [c] has a {!code}: an integer or dictionary
    column. *)
val coded : t -> bool

(** [code c i] names cell [i]'s value by an int: two cells of [c] hold
    equal values exactly when their codes are equal.
    @raise Invalid_argument unless [coded c]. *)
val code : t -> int -> int

(** [number c n] numbers the values of cells [0 .. n - 1] of a coded
    column in order of first appearance: each cell's number, and how many
    values there are.
    @raise Invalid_argument unless [coded c] (or [n = 0]). *)
val number : t -> int -> int array * int

(** {2 Bulk builds}

    A build's loops, one column at a time, with the storage match made
    once a column: each folds its cells in the order of the row-at-a-time
    operations above, with their arithmetic, so results agree bit for
    bit. [into.(k)] is the group (the row of the column) that item [k]
    folds into, [-1] for none. *)

type fold = Sum | Min | Max

(** [fold_stored c cur j ~into ~groups op] fills the empty column [c]
    with one cell per group [0 .. groups - 1] from cell [j] of the rows of
    [cur]'s table, [into.(r)] being row [r]'s group; groups are numbered
    in the order of their first rows. A group's cell is its first row's
    cell ({!append} of it scaled by 1 for [Sum], {!append_stored}
    otherwise), folded with each later row of the group in row order by
    {!add_cell} by 1 or {!combine_ext}. [c] ends with the capacity those
    appends reach.
    @raise Invalid_argument if [c] is not empty. *)
val fold_stored :
  t ->
  Relational.Database.Cursor.t ->
  int ->
  into:int array ->
  groups:int ->
  fold ->
  unit

(** [fold_add c ~into src ~at ~by] is {!add_cells} [c into.(k) src at.(k)
    by.(k)] for each [k] in order ([by = [||]]: by 1). *)
val fold_add : t -> into:int array -> t -> at:int array -> by:int array -> unit

(** [fold_ext c ~into src ~at ~is_min] folds cell [at.(k)] of [src] into
    the extremum cell [into.(k)] of the boxed column [c] for each [k] in
    order: a [Null] cell takes the first value, then a strictly smaller
    ([is_min]) or greater one under [Value.compare]. An integer source is
    compared unboxed, and each cell boxed once. *)
val fold_ext : t -> into:int array -> t -> at:int array -> is_min:bool -> unit

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
