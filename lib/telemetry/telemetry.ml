(* Library entry point: re-export the registry, tracer, renderers, and the
   runtime/export surfaces added for the performance observatory. *)

module Metrics = Metrics
module Trace = Trace
module Lineage = Lineage
module Jsonl_sink = Jsonl_sink
module Render = Render
module Runtime = Runtime
module Http_exporter = Http_exporter
module Json = Json
module Sketch = Sketch
module Workload = Workload
module Counter = Metrics.Counter
module Gauge = Metrics.Gauge
module Histogram = Metrics.Histogram

let enabled = Metrics.enabled

let with_phase = Trace.with_phase
let set_enabled = Metrics.set_enabled
let now_s = Metrics.now_s
let snapshot = Metrics.snapshot
let reset = Metrics.reset

(* Renderers live in [Render] (so [Http_exporter] can use them without a
   cycle through this facade); the historical names stay. *)
let dump_json = Render.dump_json
let to_prometheus = Render.to_prometheus
