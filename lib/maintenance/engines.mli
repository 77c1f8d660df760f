(** The warehouse configurations the evaluation compares.

    - [minimal] — the paper's contribution: Algorithm 3.2 auxiliary views,
      incrementally maintained.
    - [psj] — Quass et al. tuple-level auxiliary views (no duplicate
      compression), incrementally maintained by the same engine.
    - [recompute] — a full replica of the sources; the view is recomputed
      from scratch whenever it is read.

    Each is one implementation of a single engine signature ({!Engine} or
    the replica baseline) packed with its state, so benchmarks, tests and
    the warehouse treat them uniformly and no caller asks which one it
    holds. *)

type t

val name : t -> string

val minimal : Relational.Database.t -> Algebra.View.t -> t
val psj : Relational.Database.t -> Algebra.View.t -> t
val recompute : Relational.Database.t -> Algebra.View.t -> t

(** Incremental configuration with explicit derivation options — used by the
    ablation experiments (each reduction technique switchable) and by the
    append-only old-detail mode of Section 4. *)
val with_options :
  name:string ->
  Mindetail.Derive.options ->
  Relational.Database.t ->
  Algebra.View.t ->
  t

(** Incremental configuration for append-only (old) detail data: MIN/MAX are
    pre-aggregated in the auxiliary views; deletions/updates of the root
    (fact) table are rejected, while dimension tables stay mutable. *)
val append_only : Relational.Database.t -> Algebra.View.t -> t

(** The builders above only read the store they are given and log
    nothing, so several configurations may be built on one shared store
    from several domains at once ({!Shard.fan_out}). [announce] then logs
    each engine's "initializing <view>" INFO line ({!Engine.announce}),
    from one domain; the recompute baseline logs nothing. *)
val announce : t -> unit

(** Structural equality of the mutable state of two same-shaped
    configurations (auxiliary views, view groups, replica contents). *)
val equal_state : t -> t -> bool

(** {2 Batch transactions}

    O(delta) all-or-nothing batches: {!begin_txn} opens undo journals
    across the configuration's state, {!apply_batch} records before-images
    of exactly the groups (or replica rows) it touches, and {!rollback}
    restores them; {!commit} discards the journals. A failure mid-batch can
    therefore never leave views disagreeing about which deltas they have
    seen, without cloning untouched state. *)

(** Whether a batch transaction is currently open. *)
val in_txn : t -> bool

(** @raise Invalid_argument if a transaction is already open. *)
val begin_txn : t -> unit

(** @raise Invalid_argument if no transaction is open. *)
val commit : t -> unit

(** @raise Invalid_argument if no transaction is open. *)
val rollback : t -> unit

(** Process a batch of source changes. Incremental engines net every
    batch — see {!Engine.apply_batch}; the recompute baseline admits the
    deltas one by one into its replica. [?netted] is the batch netted once
    for several views ({!Engine.net}); an incremental configuration takes
    its tables from it and the baseline ignores it.
    [?parallel] is ignored: it is kept, as a no-op, for callers written
    when a pool selected the netted path. *)
val apply_batch :
  ?parallel:Shard.pool ->
  ?netted:Relational.Delta_batch.t ->
  t ->
  Relational.Delta.t list ->
  unit

(** Current contents of the materialized view, freshly built on every call.
    Its hash-iteration order depends on insertion history (the same
    deltas cut into batches differently can leave it different); a consumer
    that needs a deterministic row order must use the canonical order,
    {!Relational.Relation.to_sorted_list}. *)
val view_contents : t -> Relational.Relation.t

(** [capture t] is {!view_contents} as of the last commit: the full render,
    a fresh relation that never aliases engine state. It is the oracle
    {!publish} is tested against, and does not advance {!publish}'s basis.
    @raise Invalid_argument if a transaction is open. *)
val capture : t -> Relational.Relation.t

(** [publish t] is the view's rows in canonical order
    ([Relational.Relation.to_sorted_array] of {!capture}), for read-epoch
    publication. An incremental engine keeps the rows it last published and
    advances them by the groups the transactions committed since then
    touched — O(k log k) for k touched groups plus one pass over the rows;
    its first call (after construction) and the recompute baseline render
    in full. The array is never mutated afterwards, so it may be shared
    with concurrent readers for as long as they like.
    @raise Invalid_argument if a transaction is open. *)
val publish : t -> (Relational.Tuple.t * int) array

(** (object name, rows, fields per row) of all detail data this
    configuration stores besides the view itself. *)
val detail_profile : t -> (string * int * int) list

(** Measured resident bytes per stored object (view first, then auxiliary
    views), from the columnar segments' byte accounting. [None] for the
    recompute baseline, whose boxed replica has no measured size — callers
    fall back to the bytes-per-field estimate. *)
val measured_bytes : t -> (string * int) list option

(** Off-heap (Bigarray) bytes held by this configuration's columnar
    storage; [0] for the recompute baseline. *)
val offheap_bytes : t -> int

(** The derivation backing an incremental configuration, if any. *)
val derivation : t -> Mindetail.Derive.t option

(** Lineage flow of the most recent batch — see {!Engine.last_flow}.
    [None] for the recompute baseline. *)
val last_flow : t -> Telemetry.Lineage.view_flow option

(** Sampled drift audit against retained detail — see {!Engine.audit}.
    [None] when the configuration cannot recompute from retained detail
    (recompute baseline, or an eliminated root auxview). *)
val self_audit : sample:int -> t -> (int * int) option
