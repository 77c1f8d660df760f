(** Workload intelligence: per-view access accounting backed by the
    {!Sketch} structures, shard heat accounting, and a schema-versioned
    persisted workload profile.

    The maintenance engine feeds group-key touches and batch netting stats,
    the serve front-end feeds reads and epoch lag, and [Shard.run] feeds
    per-worker busy time. Everything aggregates into one process-global
    registry (keyed by view name, bounded cardinality) that renders as
    [workload_profile.json] — the cost-model artifact view selection will
    consume. The per-view figures are read there (and through [minview
    profile], serve's [PROFILE] and the exporter's [/workload]). The
    metrics registry holds only the [minview_workload_epoch_lag_batches]
    histogram behind the profile's epoch-lag percentiles.

    All note functions are cheap no-ops while {!Metrics.enabled} is
    false. *)

type view_stats
(** Per-view accumulator: hot-key sketches plus read/write/netting
    counters. Handles are stable for the process lifetime — {!reset} zeroes
    them in place, so engines and servers may cache one per view. *)

val view : string -> view_stats
(** Registry lookup-or-create. At most 64 distinct views are tracked;
    later names share one ["_other"] accumulator (bounded cardinality). *)

val view_name : view_stats -> string

val sample_mask : int
(** Sketch feeds are sampled: a producer keeps its own plain event
    counter and calls {!note_hot_key} only when
    [counter land sample_mask = 0] (one event in thirty-two), so unsampled
    events pay for no key hashing, no label closure, and nothing
    shared. *)

val note_hot_key :
  ?weight:int -> view_stats -> hash:int -> label:(unit -> string) -> unit
(** Feed one {e sampled} group-key touch of [weight] netted operations
    (the sampling scale-up happens here, keeping frequency estimates
    unbiased) into the Space-Saving top-k and count-min sketches. [label]
    is only forced when the key first enters the top-k summary. *)

val note_batch :
  view_stats ->
  deltas_in:int ->
  netted:int ->
  applied:int ->
  writes:int ->
  events:int ->
  unit
(** One maintenance batch, recorded once: its netting outcome ([netted <=
    deltas_in]; their ratio is the skew-driven compaction win) and the
    producer's locally accumulated exact totals, [writes] netted
    operations over [events] group-key touches. *)

val note_read :
  view_stats -> verb:[ `Query | `Reconstruct ] -> lag:int -> unit
(** One serve-path read pinned [lag] epochs behind the published head. *)

val note_shard_run : workers:int -> busy:float array -> unit
(** Per-worker busy seconds of one parallel shard dispatch; accumulates
    the heat map and appends max/mean imbalance to the time-series ring. *)

val note_shard_ops : int array -> unit
(** Per-shard applied-operation counts for one batch (index = shard id). *)

(** {1 Profile} *)

val profile_schema : int

val profile_json : unit -> string
(** The full workload profile as one line of JSON: per-view write/read
    counts and rates, update/read ratio, skew (hot-key share, compaction
    ratio), top-k hot keys with estimate and error bound, the count-min
    matrix, the epoch-lag distribution, and the shard heat map. Sketch
    hashes are serialized as strings — OCaml ints exceed exact-double
    range. *)

val write_profile : path:string -> unit
(** Atomically (tmp + rename) write {!profile_json} to [path]. *)

val load_profile : path:string -> bool
(** Additively merge a persisted profile (same schema) back into the live
    registry: sketch contents, counters and observed elapsed time all
    accumulate, so restore-then-replay matches the snapshot + WAL
    discipline. [false] when the file is missing or unreadable. *)

val elapsed_s : unit -> float
(** Observed workload seconds: time since the first recorded event in this
    process plus any elapsed time restored by {!load_profile}. *)

val reset : unit -> unit
(** Zero all accumulators in place (handles stay valid). *)
