(** Minview telemetry: domain-safe metrics + span tracing, rendered as
    JSON lines or Prometheus text.

    See {!Metrics} for the registry semantics (one set of atomics per
    metric, idempotent registration, global enable switch) and {!Trace}
    for the span ring and sinks. This module re-exports both plus the renderers
    used by [minview metrics] / [minview trace], the {!Runtime} profiling
    gauges, and the {!Http_exporter} scrape endpoint. *)

module Metrics = Metrics
module Trace = Trace
module Lineage = Lineage
module Jsonl_sink = Jsonl_sink
module Render = Render
module Runtime = Runtime
module Http_exporter = Http_exporter

module Json = Json
(** Minimal JSON reader for the repo's own machine output. *)

module Sketch = Sketch
(** Streaming heavy-hitter sketch. *)

module Workload = Workload
(** Per-view access accounting and the persisted workload profile. *)

(** Shorthand for {!Metrics.Counter} etc. *)

module Counter = Metrics.Counter
module Gauge = Metrics.Gauge
module Histogram = Metrics.Histogram

val enabled : unit -> bool
val set_enabled : bool -> unit

val now_s : unit -> float

val with_phase :
  ?attrs:(string * string) list ->
  ?alloc:Metrics.Histogram.t ->
  Metrics.Histogram.t ->
  string ->
  (unit -> 'a) ->
  'a
(** Time the thunk once and record the duration both as a histogram
    observation and as a span named [name] (also on exception). When
    [alloc] is given, additionally observe the calling domain's
    [Gc.allocated_bytes] delta over the thunk into it — the per-phase
    allocation profile. Runs the thunk untimed when telemetry is
    disabled. *)

val snapshot : unit -> Metrics.snap list

val reset : unit -> unit
(** Zero all metrics (for tests/benchmarks). *)

val dump_json : unit -> string
(** {!Render.dump_json}. *)

val to_prometheus : unit -> string
(** {!Render.to_prometheus}. *)
