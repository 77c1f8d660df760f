(** The self-maintenance engine.

    Given a derivation (Algorithm 3.2's auxiliary-view specs), the engine
    holds the materialized view and its auxiliary views and keeps both
    consistent under the source delta stream — {e without ever touching the
    base tables} after {!init} (the engine retains no reference to the
    store; this is the paper's self-maintainability in an executable form).

    Handled changes:
    - insertions/deletions/updates of the root (fact) table — an update
      that changes only arguments of non-DISTINCT SUM/AVG items and the
      root auxiliary view's summed columns is applied in place, one probe
      per store (see {!updates_in_place}); any other update splits into
      deletion + insertion (Section 2.1);
    - insertions/deletions of dimension tables (no view effect, by
      referential integrity);
    - dimension updates, including {e exposed} ones, by contribution diffing
      against the root auxiliary view, or — when the root auxiliary view was
      eliminated — by group rewriting through the nearest key-annotated
      ancestor;
    - DISTINCT aggregates are kept in O(delta) from per-group value
      multisets ({!View_state}); they never fall back to the auxiliary
      views;
    - MIN/MAX whose current extremum is deleted is recomputed for the
      affected groups from the auxiliary views, per Section 3.2 — once per
      batch, visiting only root auxiliary rows that can belong to a dirty
      group (see {!group_walk} for the three paths and their costs).

    The engine also serves the PSJ (Quass et al.) baseline: it accepts any
    derivation whose specs are uncompressed. *)

type t

(** Raised when the engine's invariants are violated — e.g. a deletion
    reaches an append-only warehouse, or the auxiliary state contradicts the
    derivation. A correct derivation plus a legal delta stream never raises. *)
exception Invariant of string

(** Load the initial state from the store. This is the only moment base data
    is read (Figure 1's initial extract): each auxiliary view is loaded from
    its base table, and the view is then seeded from the root auxiliary
    view, each stored row once, weighted by its count — or, when the root
    auxiliary view is eliminated, from the root base rows.

    [fk_index] (default true) builds secondary indexes on the foreign-key
    columns of every auxiliary view, making dimension-update propagation
    proportional to the affected rows instead of the detail size; disable it
    only for the ablation benchmark. Independently of it, a view with MIN or
    MAX aggregates and no driving join (see {!group_walk}) indexes its root
    auxiliary view on the root group columns. *)
val init : ?fk_index:bool -> Relational.Database.t -> Mindetail.Derive.t -> t

(** Log the INFO line "initializing <view>: N auxiliary view(s), ..." for an
    engine {!init} built. [init] itself logs nothing and only reads the
    store, so several engines may be initialized on one shared store from
    several domains at once; the caller announces them afterwards, from one
    domain (the Logs reporter is not domain-safe). *)
val announce : t -> unit

val derivation : t -> Mindetail.Derive.t

(** Structural equality of the mutable state (auxiliary views and view
    groups) of two engines over the same derivation. *)
val equal_state : t -> t -> bool

(** {2 Batch transactions}

    Batches run in place: {!begin_txn} opens undo journals in every
    auxiliary view and the view state; {!rollback} restores exactly the
    groups the batch touched. *)

(** Whether undo journals are currently open. *)
val in_txn : t -> bool

(** Opens undo journals across all state.
    @raise Invalid_argument if a transaction is already open. *)
val begin_txn : t -> unit

(** Discards the journals, keeping all mutations.
    @raise Invalid_argument if no transaction is open. *)
val commit : t -> unit

(** Restores every touched group to its before-image and closes the
    journals. @raise Invalid_argument if no transaction is open. *)
val rollback : t -> unit

(** Process a batch; non-CSMAS recomputation is flushed once at the end.

    The engine trusts the stream: changes are assumed already validated and
    applied by the source store (key uniqueness, referential integrity,
    updatable columns, existing before-images). Violations of that contract
    are detected best-effort — an underflow or a missing group raises
    [Invalid_argument] / {!Invariant} — but a fabricated change that happens
    to match existing state is indistinguishable from a legal one.

    Every batch is netted: deltas are netted per (table, key)
    ({!net}), dimension changes are applied in join-tree order, and the
    netted root-table changes are applied directly, positive changes
    first. The final state is structurally equal to applying the batch's
    deltas one at a time, in order, for any batch that is legal against
    the pre-batch state, and {!begin_txn}/{!rollback} semantics are
    preserved.

    [?netted] is [deltas] already netted by {!net}, shared by every view
    maintained from the batch: it must cover at least the view's tables,
    and the engine takes only those from it. Without it, the engine nets
    its own tables through a key table it keeps. Append-only checks always
    run on the raw [deltas]. *)
val apply_batch :
  ?netted:Relational.Delta_batch.t -> t -> Relational.Delta.t list -> unit

(** [net keys ~key_index deltas] is {!Relational.Delta_batch.net}, timed as
    the [compact] maintenance phase: the one netting of a batch, whether an
    engine nets its own batch or a caller nets one batch for several
    views. *)
val net :
  Relational.Delta_batch.keys ->
  key_index:(string -> int option) ->
  Relational.Delta.t list ->
  Relational.Delta_batch.t

(** What {!apply_batch} would do to a batch, without
    applying it: [input] deltas of the view's tables, [netted] after
    per-key compaction, [applied] operations actually issued — the netted
    deltas as they are, a root update counting once when it goes in place
    ({!updates_in_place}) and otherwise as a deletion and an insertion.
    The profile's netting is not timed as the [compact] phase. *)
type batch_profile = { input : int; netted : int; applied : int }

val net_profile : t -> Relational.Delta.t list -> batch_profile

(** [updates_in_place t ~before ~after] is whether {!apply_batch} applies
    the root-table update from [before] to [after] in place. They do when the two images agree on every {e exposing}
    position: every root column the engine reads — group-by columns,
    aggregate arguments, local-condition columns, join foreign keys and
    the root auxiliary view's kept, extremum, semijoin and condition
    columns — except the arguments of non-DISTINCT SUM/AVG items and the
    root auxiliary view's summed columns. Such an update keeps its row in
    the same auxiliary and view group; it makes one probe into the root
    auxiliary view and one into the view state, where each SUM/AVG cell
    loses the before value and gains the after value, and no count
    changes. Any other update is a deletion then an insertion. The test
    reads only positions resolved at {!init}, not the engine's state. *)
val updates_in_place :
  t -> before:Relational.Tuple.t -> after:Relational.Tuple.t -> bool

(** Current view contents, in select-list order. *)
val view_contents : t -> Relational.Relation.t

(** The view's rows in canonical order, advanced from the previous call by
    the groups the batches committed since then touched — see
    {!View_state.publish}. An engine fresh from {!init} renders
    in full on its first call.
    @raise Invalid_argument if a transaction is open. *)
val publish : t -> (Relational.Tuple.t * int) array

(** Current auxiliary-view contents, in spec column order. *)
val aux_contents : t -> (string * Relational.Relation.t) list

(** (name, rows, fields-per-row) for every stored object: the view itself and
    each auxiliary view. Input to the storage model. *)
val storage_profile : t -> (string * int * int) list

(** (name, resident bytes) for every stored object, in {!storage_profile}
    order. Unlike the storage model's rows x fields x bytes-per-field
    estimate, this is measured from the columnar segments' per-column byte
    accounting ({!Aux_state.byte_size}, {!View_state.byte_size}). *)
val measured_bytes : t -> (string * int) list

(** Off-heap (Bigarray) bytes across the view state and every auxiliary
    view — the columnar payloads the GC heap gauges cannot see. *)
val offheap_bytes : t -> int

(** {2 Dirty-group recomputation} *)

(** The path by which the root auxiliary rows of a set of groups are found —
    for the end-of-batch recomputation of the groups whose MIN or MAX lost
    its extremum ([View_state.take_dirty]; DISTINCT aggregates never need
    it) and for {!audit} — if that walk happened now. One rule picks it,
    with no knob:

    - [`Driving_join tbl] when a first-hop join from the root to [tbl] has
      its foreign key kept plainly and indexed in the root auxiliary view
      ([fk_index]), [tbl]'s subtree holds every non-root group column and
      determines at least one group-key position (a dimension column, or
      the foreign key itself when grouped on), and [tbl]'s auxiliary view
      has fewer rows than the root's. The walk iterates [tbl]'s auxiliary
      rows, joins each one's subtree once and skips it unless its part of
      the key matches a wanted group; for the rest it walks the root rows
      in that foreign key's index bucket, joining only the other subtrees.
      Cost: O(|X_tbl|) plus O(root rows of the matching [tbl] rows).
    - [`Group_index col] otherwise, when the root group column [col] is
      indexed in the root auxiliary view: a view with MIN or MAX
      aggregates and no driving join gets that index on every root group
      column its root auxiliary view keeps plainly ([col] is the first),
      whatever [fk_index] says. The walk visits only the index buckets of
      the values the wanted groups take in [col], compares the other root
      group columns' cells, and joins only the rows that pass. Cost:
      O(root rows holding those values of [col]) — for a view grouped on
      root columns only, exactly the rows the wanted groups own.
    - [`Filtered_scan] otherwise: one pass over the root auxiliary view
      that compares each root group column's stored cell with the values
      the wanted groups take there, and joins and probes only the rows
      that pass. Cost: O(|X_root|) cell compares (each hashes the cell)
      plus O(matching rows) joins; with no root group column, every row is
      joined.

    [None] when the root auxiliary view was eliminated: the view is then
    determined by its keys and nothing is ever recomputed. *)
val group_walk :
  t ->
  [ `Driving_join of string | `Group_index of string | `Filtered_scan ] option

(** Root auxiliary rows examined by the dirty-group recomputation of the
    latest batch (0 when it dirtied no group): the index-bucket entries
    walked, or every root row on the filtered scan. It is the walk's cost
    as a count, independent of the machine's speed. *)
val walk_rows : t -> int

(** The materialized view state, for white-box checks of {!audit}. The
    engine owns it: a change made through this handle is drift by
    definition. *)
val view_state : t -> View_state.t

(** {2 Lineage and drift auditing} *)

(** Lineage flow of the most recent {!apply_batch}: deltas in -> netted ->
    applied, plus the per-auxview net change in resident and represented
    detail rows. [None] before the first batch and while telemetry is
    disabled (capture reads two O(1) counts per auxiliary view per batch,
    nothing on the per-row hot path). *)
val last_flow : t -> Telemetry.Lineage.view_flow option

(** [audit ~sample t] recomputes up to [sample] maintained group keys from
    the retained detail (the root auxiliary rows of those groups, found by
    the {!group_walk} path and joined through the dimension auxiliary views
    exactly like the initial load — only the sampled groups' rows are
    joined) and
    cross-checks the maintained view rows and, for every DISTINCT
    aggregate, the maintained value multiset (so a drifted count that
    leaves the result unchanged still diverges), via
    {!Telemetry.Lineage.audit}
    — which emits the [minview_lineage_audit_*] counters and a
    [lineage.audit] trace event. Returns [(checked, divergences)], or
    [None] when the root auxiliary view was eliminated (there is no
    retained detail to recompute from). Float aggregates are compared with
    a relative tolerance of 1e-9 to absorb accumulation-order drift. *)
val audit : sample:int -> t -> (int * int) option
