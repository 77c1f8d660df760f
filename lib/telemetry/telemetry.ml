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

(* Time [f] once and record it both as a histogram observation and as a
   span — the common shape for pipeline phases. When [alloc] is given, the
   calling domain's [Gc.allocated_bytes] delta over the thunk is observed
   too, so phases report bytes-allocated next to latency. *)
let with_phase ?(attrs = []) ?alloc hist name f =
  if not (Metrics.enabled ()) then f ()
  else begin
    let t0 = Metrics.now_s () in
    let a0 = match alloc with Some _ -> Gc.allocated_bytes () | None -> 0. in
    let finish () =
      let dur_s = Metrics.now_s () -. t0 in
      Metrics.Histogram.observe hist dur_s;
      (match alloc with
      | Some h -> Metrics.Histogram.observe h (Gc.allocated_bytes () -. a0)
      | None -> ());
      Trace.record { Trace.name; start_s = t0; dur_s; attrs }
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let set_enabled = Metrics.set_enabled
let configure_from_env = Metrics.configure_from_env
let now_s = Metrics.now_s
let snapshot = Metrics.snapshot
let reset = Metrics.reset

(* Renderers live in [Render] (so [Http_exporter] can use them without a
   cycle through this facade); the historical names stay. *)
let dump_json = Render.dump_json
let to_prometheus = Render.to_prometheus
