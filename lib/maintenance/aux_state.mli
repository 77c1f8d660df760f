(** In-memory state of one materialized auxiliary view.

    Rows are grouped by the spec's [Plain] columns; each group carries its
    ["COUNT(*)"] and the running [Sum_of] values. Degenerate (uncompressed)
    PSJ views use the same representation — their grouping key is the whole
    kept tuple and the count is the tuple multiplicity.

    Physically, groups live in typed columnar segments ({!Column}): one
    column per view attribute plus a dense count column, with numeric cells
    unboxed in Bigarrays and string cells dictionary-encoded ({!Dict}).
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

(** [create ?indexed_columns ?shards spec schema] prepares empty state.
    [indexed_columns] (plain columns, typically the foreign keys of a root
    view) get secondary indexes so {!rows_with} is O(matching groups) instead
    of a scan — the engine uses this to make dimension-update propagation
    proportional to the affected rows.

    [shards] (a power of two, default 1) splits every group-keyed structure
    — groups, by-key map, secondary indexes, undo journal, totals — into
    hash shards so a parallel applier can hand disjoint shards to disjoint
    domains. Sharding is invisible to every accessor and to {!equal};
    states with different shard counts compare structurally.

    [dict_pool] shares string dictionaries per (base table, column) with
    other states built from the same pool (the engine passes one pool per
    warehouse so e.g. a dimension attribute kept in both an auxiliary view
    and the view state interns each distinct string once). Without a pool,
    string columns use private dictionaries.
    @raise Invalid_argument if an indexed column is not a plain column of
    [spec] — a misspelled index column must not become a silent full scan —
    or if [shards] is not a positive power of two. *)
val create :
  ?indexed_columns:string list ->
  ?shards:int ->
  ?dict_pool:Dict.pool ->
  Mindetail.Auxview.t ->
  Relational.Schema.t ->
  t

val shard_count : t -> int

(** Shard that owns the group of base tuple [tup] (computed without
    materializing the projection). *)
val shard_of_base : t -> Relational.Tuple.t -> int

(** Shard that owns group key [key]. *)
val shard_of_key : t -> Relational.Tuple.t -> int

val spec : t -> Mindetail.Auxview.t

(** Deep copy: groups, key index and secondary indexes are duplicated so the
    copy and the original evolve independently (snapshot checkpoints). The
    copy carries no open transaction. *)
val copy : t -> t

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

(** Number of groups (= stored rows). *)
val row_count : t -> int

(** Total base tuples folded in (Σ counts). *)
val base_count : t -> int

(** Key-indexed lookup, available when the base key is kept plainly (always
    true for semijoin targets and join destinations).
    @raise Invalid_argument when the key is not kept. *)
val find_by_key : t -> Relational.Value.t -> row option

val mem_key : t -> Relational.Value.t -> bool

val iter : t -> (row -> unit) -> unit

(** [iter_where s conds f] visits every group whose plain [column] takes one
    of the listed values, for every [(column, values)] of [conds] ([[]]
    visits every group). Cells are compared where they are stored, without
    boxing; when a condition column was indexed at {!create}, only its
    value buckets are walked, so the cost is O(matching groups) instead of a
    scan. [f] must not mutate [s].
    @raise Not_found if a condition column is not kept plainly. *)
val iter_where :
  t -> (string * Relational.Value.t list) list -> (row -> unit) -> unit

(** [rows_with s ~column v] are the groups whose plain [column] equals [v]
    ({!iter_where} with one single-valued condition). *)
val rows_with : t -> column:string -> Relational.Value.t -> row list

(** [plain_of s row col] reads the projection of base column [col] (column
    positions are resolved once, at {!create}).
    @raise Not_found if the column is not kept plainly. *)
val plain_of : t -> row -> string -> Relational.Value.t

(** Positional reads for callers that resolved a column once: [plain_at row
    i] is the [i]-th plain cell ({!Mindetail.Auxview.plain_position}),
    [sum_at] the [i]-th running sum ({!Mindetail.Auxview.sum_position}) and
    [ext_at] the [i]-th extremum ({!Mindetail.Auxview.min_position} /
    {!Mindetail.Auxview.max_position}). *)
val plain_at : row -> int -> Relational.Value.t

val sum_at : row -> int -> Relational.Value.t
val ext_at : row -> int -> Relational.Value.t

(** Project one base tuple to the grouping key of this view. *)
val group_key_of_base : t -> Relational.Tuple.t -> Relational.Tuple.t

(** Contents in spec column order, as a relation (degenerate views expand the
    count into tuple multiplicity). *)
val to_relation : t -> Relational.Relation.t

(** {2 Byte accounting}

    The columnar layout makes resident size measurable instead of estimated:
    every column knows its allocated cell bytes. *)

(** Resident bytes of this state: column cells (including off-heap Bigarray
    payloads), the count column, key map, by-key map, secondary indexes and
    string dictionaries (each dictionary counted once per state, even when
    shared across shards). *)
val byte_size : t -> int

(** Off-heap (Bigarray payload) bytes only — the part of {!byte_size} that
    [Obj.reachable_words] cannot see. *)
val offheap_bytes : t -> int
