(** Workload intelligence: per-view access accounting backed by a
    {!Sketch.Space_saving} top-k, and a schema-versioned persisted workload
    profile.

    The maintenance engine feeds group-key touches and batch netting stats,
    and the serve front-end feeds reads and epoch lag. Everything
    aggregates into one process-global registry (keyed by view name,
    bounded cardinality) that renders as [workload_profile.json]. The per-view figures are read there (and
    through [minview profile], serve's [PROFILE] and the exporter's
    [/workload]). The metrics registry holds only the
    [minview_workload_epoch_lag_batches] histogram behind the profile's
    epoch-lag percentiles.

    All note functions are cheap no-ops while {!Metrics.enabled} is
    false. *)

type view_stats
(** Per-view accumulator: a hot-key sketch plus read/write/netting
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
    unbiased) into the view's Space-Saving top-k. [label] is only forced
    when the key first enters the summary. *)

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

(** {1 Profile} *)

val profile_schema : int

val profile_json : unit -> string
(** The full workload profile as one line of JSON: per-view write/read
    counts and rates, update/read ratio, skew (hot-key share, compaction
    ratio), top-k hot keys with estimate and error bound and the sketch's
    stream total, and the epoch-lag distribution.
    Sketch hashes are serialized as strings — OCaml ints exceed
    exact-double range. *)

val write_profile : path:string -> unit
(** Atomically (tmp + rename) write {!profile_json} to [path]. *)

val load_profile : path:string -> bool
(** Additively merge a persisted profile (same schema) back into the live
    registry: sketch contents, counters and observed elapsed time all
    accumulate, so restore-then-replay matches the snapshot + WAL
    discipline. Fields it does not know are ignored, so a schema-1 file
    that still carries a per-view ["cms"] matrix or a ["shards"] heat map
    loads. [false] when the
    file is missing or unreadable. *)

val elapsed_s : unit -> float
(** Observed workload seconds: time since the first recorded event in this
    process plus any elapsed time restored by {!load_profile}. *)

val reset : unit -> unit
(** Zero all accumulators in place (handles stay valid). *)
