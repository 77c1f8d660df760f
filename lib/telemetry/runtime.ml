(* Runtime (heap + off-heap) profiling gauges.

   [sample] publishes the major heap size and the registered off-heap
   source as plain gauges; nothing here runs on its own. Two call paths
   feed it:

   - the warehouse commit hook ([tick], armed with [set_auto_sample true])
     samples from the writer domain on every published epoch, so the
     gauges describe the domain actually doing the maintenance work;
   - a scrape ([scrape_sample], the HTTP exporter) samples only when no
     commit hook is armed — a scrape runs on the exporter's domain, so its
     sample would overwrite the writer's commit-time values.

   The full [Gc.quick_stat] (collection counts, allocated words) is on the
   exporter's [/profile]; only the two sizes an operator alerts on are
   gauges. They are registered lazily at the first sample: binaries that
   never sample (every CLI verb except export/serve --metrics-port) keep
   their metric dumps unchanged. *)

type handles = { heap_words : Metrics.Gauge.t; offheap_bytes : Metrics.Gauge.t }

let handles =
  lazy
    {
      heap_words =
        Metrics.Gauge.make ~help:"Major heap size in words"
          "minview_runtime_gc_heap_words";
      offheap_bytes =
        Metrics.Gauge.make
          ~help:
            "Off-heap (Bigarray) bytes held by the columnar auxiliary-view \
             storage"
          "minview_runtime_offheap_bytes";
    }

(* The off-heap source walks live engine storage, which only the writer
   domain may do safely — it is read exclusively from [sample], which the
   precedence rule above keeps on the writer (or an idle) domain. *)
let offheap_source : (unit -> int) option ref = ref None
let set_offheap_source f = offheap_source := f

let auto = Atomic.make false
let set_auto_sample b = Atomic.set auto b

let sample () =
  if Metrics.enabled () then begin
    let h = Lazy.force handles in
    Metrics.Gauge.set h.heap_words
      (float_of_int (Gc.quick_stat ()).Gc.heap_words);
    match !offheap_source with
    | Some f -> (
      match f () with
      | bytes -> Metrics.Gauge.set h.offheap_bytes (float_of_int bytes)
      | exception _ -> ())
    | None -> ()
  end

let tick () = if Atomic.get auto then sample ()
let scrape_sample () = if not (Atomic.get auto) then sample ()
