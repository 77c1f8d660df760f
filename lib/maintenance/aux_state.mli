(** In-memory state of one materialized auxiliary view.

    Rows are grouped by the spec's [Plain] columns; each group carries its
    ["COUNT(*)"] and the running [Sum_of] values. Degenerate (uncompressed)
    PSJ views use the same representation — their grouping key is the whole
    kept tuple and the count is the tuple multiplicity.

    Physically, groups live in a {!Groups} store, the one {!View_state}
    also keeps its groups in: typed columnar segments ({!Column}), one
    column per view attribute plus a dense count column, with integer
    cells in 4-byte cells that widen to 8 only when a value needs it
    ({!Column.Icol}), float cells unboxed in Bigarrays and string cells
    dictionary-encoded ({!Dict}).
    Groups are row ids into those columns; deletion swaps the last row into
    the hole so segments stay dense. All of this is invisible at this
    interface — accessors materialize the boxed {!row} record on demand —
    but it is why resident bytes per row are a fraction of the boxed
    representation (see DESIGN.md "Physical representation" and
    [bench columnar]). *)

type t

(** One group of the auxiliary view — a cursor into the columnar segments,
    not a materialized record. The group's count is snapshotted when the
    handle is produced (so it survives later mutations); every other cell
    is fetched on demand and a handle is positionally invalidated by the
    next mutation of the owning state (deletion swaps rows). Read what you
    need, then let the handle go: a count-only scan allocates nothing per
    group beyond the handle itself. *)
type row

(** Snapshot of the group's ["COUNT(*)"] at handle creation. *)
val cnt : row -> int

(** Fresh boxed group key, in {!Mindetail.Auxview.group_columns} order. *)
val plains : t -> row -> Relational.Tuple.t

(** Fresh boxed running sums, in {!Mindetail.Auxview.summed_columns}
    order. *)
val sums : t -> row -> Relational.Value.t array

(** Fresh boxed extrema, in {!Mindetail.Auxview.ext_columns} order. *)
val exts : t -> row -> Relational.Value.t array

(** [create ?indexed_columns spec schema] prepares empty state.
    [indexed_columns] (plain columns: the foreign keys of a view, and the
    root group columns of a MIN/MAX view) get secondary indexes so
    {!rows_with} and {!iter_where} are O(matching groups) instead of a scan
    — the engine uses this to make dimension-update propagation and
    dirty-group recomputation proportional to the affected rows.

    [dict_pool] shares string dictionaries per (base table, column) with
    other states built from the same pool (the engine passes one pool per
    warehouse so e.g. a dimension attribute kept in both an auxiliary view
    and the view state interns each distinct string once). Without a pool,
    string columns use private dictionaries.
    @raise Invalid_argument if an indexed column is not a plain column of
    [spec] — a misspelled index column must not become a silent full scan. *)
val create :
  ?indexed_columns:string list ->
  ?dict_pool:Dict.pool ->
  Mindetail.Auxview.t ->
  Relational.Schema.t ->
  t

val spec : t -> Mindetail.Auxview.t

(** Structural equality of the resident state: groups (count, sums, extrema),
    by-key map, secondary-index membership, and the base-row total. Open
    transactions are ignored. *)
val equal : t -> t -> bool

(** {2 Batch transactions}

    The undo journal records a first-touch before-image of every group a
    batch mutates (creation, count/sum/extremum changes — and with them the
    implied by-key and index membership). [rollback] restores exactly the
    touched groups, so aborting a batch costs O(delta), never O(state). *)

(** Opens an undo journal; subsequent mutations are journaled.
    @raise Invalid_argument if a transaction is already open. *)
val begin_txn : t -> unit

(** Discards the journal, keeping all mutations.
    @raise Invalid_argument if no transaction is open. *)
val commit : t -> unit

(** Restores every group touched since {!begin_txn} to its before-image
    (removing created groups, reinstating deleted ones, and repairing by-key
    and secondary-index membership) and closes the journal.
    @raise Invalid_argument if no transaction is open. *)
val rollback : t -> unit

(** [insert_base ?count s tup] folds [count] (default 1) identical base
    tuples in; the caller has already checked local conditions and semijoin
    reductions. Weighted insertion is exact: COUNT gains [count] and each
    SUM gains the value scaled by [count] — the compactor relies on this to
    replay a merged duplicate class as one operation.
    @raise Invalid_argument (before any mutation — the group stays intact)
    if a summed column holds a non-numeric value, a MIN/MAX column holds
    NULL, or [count < 1]. *)
val insert_base : ?count:int -> t -> Relational.Tuple.t -> unit

(** [delete_base ?count s tup] removes [count] (default 1) identical base
    tuples' contributions.
    @raise Invalid_argument if the tuple's group is absent or underflows, if
    the view carries append-only MIN/MAX columns (which are not
    maintainable under deletions — the engine never lets this happen), if
    [count < 1], or — before any mutation — if a summed column holds a
    non-numeric value. *)
val delete_base : ?count:int -> t -> Relational.Tuple.t -> unit

(** [adjust s ~before ~after] applies an update of one base tuple whose
    images agree on every plain column: one probe, then each running sum
    moves by [after - before] (the before value subtracted first, as
    {!delete_base} then {!insert_base} would). The count, the base-row
    total and the group's row stay as they are. Journaled like any write.
    @raise Invalid_argument, before any mutation, wherever {!delete_base}
    of [before] then {!insert_base} of [after] would raise: the group is
    absent, a summed column holds a non-numeric value, or the view carries
    append-only MIN/MAX columns; and if the images differ on a plain
    column. *)
val adjust :
  t -> before:Relational.Tuple.t -> after:Relational.Tuple.t -> unit

(** [load s cur ~keep ~admit] is the initial load: the state {!insert_base}
    of each row of the cursor's table that [keep] and [admit] accept, in
    row order, would reach — built a column at a time. One pass over the
    rows finds each kept row's group, hashing and matching its key in the
    stored cells; then the groups' counts, key map and component columns
    are filled, each column in its own typed loop over the rows, in row
    order, with the arithmetic of single writes; and then the secondary
    indexes, bucket by bucket. The key columns grow as groups are found;
    every other structure is allocated once, at the capacity appends
    would have reached (DESIGN.md "Physical representation"). Both read the row under [cur]. [admit] is asked only
    of a row whose group is not there yet, so it must depend only on the
    columns [s] keeps plainly: a row that joins an existing group has
    those of a row it admitted. A semijoin on a kept foreign key is such a
    condition, and is then probed once per group instead of once per row.
    @raise Invalid_argument if [s] already holds a group or has an open
    transaction. *)
val load :
  t ->
  Relational.Database.Cursor.t ->
  keep:(Relational.Database.Cursor.t -> bool) ->
  admit:(Relational.Database.Cursor.t -> bool) ->
  unit

(** {2 Base rows wherever they are}

    The probe path of a base row, over the cell sources of {!Cells}: one
    implementation, read from a delta's tuple ({!Tuples}) or a shadow row
    under a cursor ({!Stored}). *)

module type ROWS = sig
  type row

  (** [locate_key s row pos] is {!locate_key} of the row's cell [pos]. *)
  val locate_key : t -> row -> int -> int
end

module Tuples : ROWS with type row = Relational.Tuple.t
module Stored : ROWS with type row = Relational.Database.Cursor.t

(** Number of groups (= stored rows). O(1). *)
val row_count : t -> int

(** Total base tuples folded in (Σ counts). O(1): a running total. *)
val base_count : t -> int

(** Whether a group holds base key [k] (see {!locate_key}).
    @raise Invalid_argument when the key is not kept. *)
val mem_key : t -> Relational.Value.t -> bool

val iter : t -> (row -> unit) -> unit

(** {2 Locators}

    A locator names one group as an [int] — its row in the columns below —
    so that a reader can hold a group, read its cells where they are
    stored and probe with them, and allocate nothing. Like a {!row}, a
    locator is invalidated by the next mutation of the state. *)

(** [locate_key s k] is the group holding base key [k], [-1] when absent:
    a key-indexed lookup, available when the base key is kept plainly
    (always true for semijoin targets and join destinations).
    @raise Invalid_argument when the key is not kept. *)
val locate_key : t -> Relational.Value.t -> int

(** [locate_key_cell s col j] is [locate_key s (Column.get col j)], without
    boxing the cell. *)
val locate_key_cell : t -> Column.t -> int -> int

val loc_of_row : t -> row -> int

(** The group's ["COUNT(*)"]. *)
val loc_cnt : t -> int -> int

(** Every group's ["COUNT(*)"], by locator: the store's own column, to be
    read, not written. *)
val counts : t -> Column.Icol.t

(** The columns holding every group's [i]-th plain cell, running sum and
    extremum, read at a locator: [i] is a position among the view's plain
    columns ({!Mindetail.Auxview.plain_position}), running sums
    ({!Mindetail.Auxview.sum_position}) or extrema
    ({!Mindetail.Auxview.min_position} / {!Mindetail.Auxview.max_position}). *)
val plain_column : t -> int -> Column.t

val sum_column : t -> int -> Column.t
val ext_column : t -> int -> Column.t

(** [iter_where s conds f] visits every group whose plain [column] takes one
    of the listed values, for every [(column, values)] of [conds] ([[]]
    visits every group). Cells are compared where they are stored, without
    boxing; when a condition column was indexed at {!create}, only its
    value buckets are walked, so the cost is O(matching groups) instead of a
    scan. [f] must not mutate [s]. Returns the number of groups examined:
    the entries of the walked buckets, or every group when no condition
    column is indexed.
    @raise Not_found if a condition column is not kept plainly. *)
val iter_where :
  t -> (string * Relational.Value.t list) list -> (row -> unit) -> int

(** [rows_with s ~column v] are the groups whose plain [column] equals [v]
    ({!iter_where} with one single-valued condition). *)
val rows_with : t -> column:string -> Relational.Value.t -> row list

(** [plain_of s row col] reads the projection of base column [col] (column
    positions are resolved once, at {!create}).
    @raise Not_found if the column is not kept plainly. *)
val plain_of : t -> row -> string -> Relational.Value.t

(** Positional read for callers that resolved a column once: [plain_at row
    i] is the [i]-th plain cell ({!Mindetail.Auxview.plain_position}). *)
val plain_at : row -> int -> Relational.Value.t

(** Project one base tuple to the grouping key of this view. *)
val group_key_of_base : t -> Relational.Tuple.t -> Relational.Tuple.t

(** Contents in spec column order, as a relation (degenerate views expand the
    count into tuple multiplicity). *)
val to_relation : t -> Relational.Relation.t

(** {2 Byte accounting}

    The columnar layout makes resident size measurable instead of estimated:
    every column knows its allocated cell bytes. *)

(** Resident bytes of this state: column cells (including off-heap Bigarray
    payloads), the count column, key map, by-key map, secondary indexes,
    string dictionaries (each dictionary counted once per state, even when
    shared across columns) and the journal's row marks. The undo log is
    working memory of the transactions, not counted: emptied by {!commit}
    and {!rollback}, it keeps its capacity only while that is within four
    times what it held. *)
val byte_size : t -> int

(** Off-heap (Bigarray payload) bytes only — the part of {!byte_size} that
    [Obj.reachable_words] cannot see. *)
val offheap_bytes : t -> int
