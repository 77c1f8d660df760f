(** Domain-safe metrics registry: counters, gauges and fixed log-scale
    histograms.

    Each metric is one set of atomics, so concurrent writers stay correct
    without locks. Metrics are registered in a process-global registry
    keyed by (name, labels); registration is idempotent, so call sites may
    create handles eagerly or lazily without coordination. *)

(** {1 Global switch} *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** When disabled, every write is an atomic flag check and an early return.
    Registration and reads are unaffected. *)

val now_s : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]); the clock every duration
    is read from. *)

(** {1 Metric kinds} *)

module Counter : sig
  type t

  val make : ?help:string -> ?labels:(string * string) list -> string -> t
  (** Register (or fetch) the counter [(name, labels)]. Raises
      [Invalid_argument] if the name is already registered with a different
      kind. *)

  val inc : t -> int -> unit
  val one : t -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val make : ?help:string -> ?labels:(string * string) list -> string -> t
  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val make :
    ?help:string ->
    ?labels:(string * string) list ->
    ?lo:float ->
    ?factor:float ->
    ?buckets:int ->
    string ->
    t
  (** Log-scale buckets: bucket 0 holds values [<= lo], bucket [i] holds
      [(lo*factor^(i-1), lo*factor^i]], the last bucket is the +Inf
      overflow. Defaults: [lo = 1e-6] (1 µs), [factor = 2.],
      [buckets = 40]. The layout is fixed at registration. *)

  val observe : t -> float -> unit

  val count : t -> int
  val sum : t -> float

  val min_value : t -> float
  (** [nan] when no observation was recorded. *)

  val max_value : t -> float
  (** [nan] when no observation was recorded. *)

  val bucket_bounds : t -> float array
  (** Inclusive upper bound per bucket; the last is [infinity]. *)

  val bucket_counts : t -> int array
  (** Per-bucket (non-cumulative) observation counts. *)
end

(** {1 Snapshots} *)

type histogram_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** [nan] when empty *)
  h_max : float;  (** [nan] when empty *)
  h_buckets : (float * int) array;
      (** (inclusive upper bound, count) per bucket, non-cumulative; the
          last bound is [infinity] *)
}

val percentile : histogram_snapshot -> float -> float
(** [percentile h q] estimates the [q]-th ([0..1]) percentile from the
    bucket counts by linear interpolation inside the bucket holding the
    target rank. The estimate is clamped to the tracked [h_min]/[h_max]
    (which also stand in for the unknown edges of the first and overflow
    buckets); [nan] when the histogram is empty. *)

val histogram_snapshot : Histogram.t -> histogram_snapshot

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of histogram_snapshot

type snap = {
  s_name : string;
  s_labels : (string * string) list;  (** sorted by label name *)
  s_help : string;
  s_value : value;
}

val snapshot : unit -> snap list
(** Every registered metric with its current value, sorted by (name, labels)
    for deterministic output. *)

val reset : unit -> unit
(** Zero all registered metrics (registration survives). Intended for
    tests and benchmarks, not production paths. *)
