(** The self-maintenance engine.

    Given a derivation (Algorithm 3.2's auxiliary-view specs), the engine
    holds the materialized view and its auxiliary views and keeps both
    consistent under the source delta stream — {e without ever touching the
    base tables} after {!init} (the engine retains no reference to the
    store; this is the paper's self-maintainability in an executable form).

    Handled changes:
    - insertions/deletions/updates of the root (fact) table — updates split
      into deletion + insertion (Section 2.1);
    - insertions/deletions of dimension tables (no view effect, by
      referential integrity);
    - dimension updates, including {e exposed} ones, by contribution diffing
      against the root auxiliary view, or — when the root auxiliary view was
      eliminated — by group rewriting through the nearest key-annotated
      ancestor;
    - non-CSMAS components (MIN/MAX under deletion, DISTINCT) are recomputed
      for affected groups from the auxiliary views, per Section 3.2 — once
      per batch, visiting only root auxiliary rows that can belong to a
      dirty group (see {!group_walk} for the two paths and their costs).

    The engine also serves the PSJ (Quass et al.) baseline: it accepts any
    derivation whose specs are uncompressed. *)

type t

(** Raised when the engine's invariants are violated — e.g. a deletion
    reaches an append-only warehouse, or the auxiliary state contradicts the
    derivation. A correct derivation plus a legal delta stream never raises. *)
exception Invariant of string

(** Load the initial state from the store. This is the only moment base data
    is read (Figure 1's initial extract).

    [fk_index] (default true) builds secondary indexes on the foreign-key
    columns of every auxiliary view, making dimension-update propagation
    proportional to the affected rows instead of the detail size; disable it
    only for the ablation benchmark. *)
val init : ?fk_index:bool -> Relational.Database.t -> Mindetail.Derive.t -> t

val derivation : t -> Mindetail.Derive.t

(** Deep copy of the engine's mutable state (auxiliary views and view
    groups); the derivation and plans are shared. Snapshot-grade (O(state)):
    used for checkpoints, never on the batch path — batches run in place
    under {!begin_txn}. *)
val copy : t -> t

(** Structural equality of the mutable state (auxiliary views and view
    groups) of two engines over the same derivation. *)
val equal_state : t -> t -> bool

(** {2 Batch transactions}

    O(delta) alternative to [copy]-and-swap: {!begin_txn} opens undo
    journals in every auxiliary view and the view state; {!rollback}
    restores exactly the groups the batch touched. *)

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

(** Process one source change; non-CSMAS recomputation is flushed before
    returning.

    The engine trusts the stream: changes are assumed already validated and
    applied by the source store (key uniqueness, referential integrity,
    updatable columns, existing before-images). Violations of that contract
    are detected best-effort — an underflow or a missing group raises
    [Invalid_argument] / {!Invariant} — but a fabricated change that happens
    to match existing state is indistinguishable from a legal one. *)
val apply : t -> Relational.Delta.t -> unit

(** Process a batch; recomputation is flushed once at the end.

    With [?parallel], the batch takes the compacted fast path: deltas are
    netted per (table, key) ({!Relational.Delta_batch}), root-table changes
    are merged into weighted operations keyed by the engine's read-set
    projection (the paper's duplicate compression applied to the delta
    stream), and the merged operations are applied across the given domain
    pool — each domain owning a disjoint set of hash shards of the root
    auxiliary view and the view state. Dimension changes and cross-group
    work (key changes, regrouping updates, eliminated-root rewrites) run on
    the calling domain. The final state is structurally equal to the serial
    replay for any batch that is legal against the pre-batch state, and
    {!begin_txn}/{!rollback} semantics are preserved: shard undo journals
    are only ever touched by the shard's owning domain. *)
val apply_batch : ?parallel:Shard.pool -> t -> Relational.Delta.t list -> unit

(** What {!apply_batch}'s fast path would do to a batch, without applying
    it: [input] raw deltas, [netted] after per-key compaction, [applied]
    operations actually issued — net dimension deltas plus merged weighted
    root operations, or the netted root deltas as-is when the batch sits
    below the auto dispatcher's serial floor (where the fast path applies
    them directly, skipping the weighted merge). *)
type batch_profile = { input : int; netted : int; applied : int }

val net_profile : t -> Relational.Delta.t list -> batch_profile

(** Current view contents, in select-list order. *)
val view_contents : t -> Relational.Relation.t

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
    for dirty-group recomputation at the end of every batch and for
    {!audit} — if that walk happened now. One rule picks it, with no knob:

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
    - [`Filtered_scan] otherwise: one pass over the root auxiliary view
      that compares each root group column's stored cell with the values
      the wanted groups take there — no join, no boxing — and joins and
      probes only the rows that pass (an indexed root group column walks
      its buckets instead of scanning). Cost: O(|X_root|) cell compares
      plus O(matching rows) joins; with no root group column, every row is
      joined.

    [None] when the root auxiliary view was eliminated: the view is then
    determined by its keys and nothing is ever recomputed. *)
val group_walk : t -> [ `Driving_join of string | `Filtered_scan ] option

(** {2 Lineage and drift auditing} *)

(** Lineage flow of the most recent {!apply_batch}: deltas in -> netted ->
    applied, plus the per-auxview net change in resident and represented
    detail rows. [None] before the first batch and while telemetry is
    disabled (capture costs two O(auxviews x shards) row-count sweeps per
    batch, nothing on the per-row hot path). *)
val last_flow : t -> Telemetry.Lineage.view_flow option

(** [audit ~sample t] recomputes up to [sample] maintained group keys from
    the retained detail (the root auxiliary rows of those groups, found by
    the {!group_walk} path and joined through the dimension auxiliary views
    exactly like the initial load — only the sampled groups' rows are
    joined) and
    cross-checks the maintained view rows, via {!Telemetry.Lineage.audit}
    — which emits the [minview_lineage_audit_*] counters and a
    [lineage.audit] trace event. Returns [(checked, divergences)], or
    [None] when the root auxiliary view was eliminated (there is no
    retained detail to recompute from). Float aggregates are compared with
    a relative tolerance of 1e-9 to absorb accumulation-order drift. *)
val audit : sample:int -> t -> (int * int) option
