(* Runtime (heap + off-heap) profiling gauges, each sampled where reading
   it is safe:

   - heap words at every scrape ([sample_heap], the HTTP exporter): the
     major heap is the process's, so any domain may read its size;
   - off-heap bytes when a source is registered and at each publication
     ([sample_offheap], the warehouse's commit): the source walks live
     engine storage, which only the writer domain may do.

   The full [Gc.quick_stat] (collection counts, allocated words) is on the
   exporter's [/profile]; only the two sizes an operator alerts on are
   gauges. Both are registered at the first sample of either: binaries that
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

let offheap_source : (unit -> int) option ref = ref None

let sample_heap () =
  if Metrics.enabled () then
    Metrics.Gauge.set (Lazy.force handles).heap_words
      (float_of_int (Gc.quick_stat ()).Gc.heap_words)

let sample_offheap () =
  match !offheap_source with
  | Some f when Metrics.enabled () -> (
    match f () with
    | bytes ->
      Metrics.Gauge.set (Lazy.force handles).offheap_bytes
        (float_of_int bytes)
    | exception _ -> ())
  | Some _ | None -> ()

let set_offheap_source f =
  offheap_source := f;
  sample_offheap ()
