(** Runtime profiling gauges: the major heap size
    ([minview_runtime_gc_heap_words]) and the columnar store's off-heap
    bytes ([minview_runtime_offheap_bytes]). The rest of [Gc.quick_stat]
    is served by the HTTP exporter's [/profile], not as gauges.

    One rule: heap words are sampled at each scrape, off-heap bytes when
    a source is registered and at each publication, so the off-heap walk
    stays on the writer domain. Registration is lazy (the first sample of
    either registers both), so binaries that never sample keep their
    metric dumps unchanged. No-ops while telemetry is disabled. *)

val sample_heap : unit -> unit
(** Publish the current major heap size — the scrape-time hook. *)

val sample_offheap : unit -> unit
(** Publish the registered source's off-heap bytes, nothing when none is
    registered — the per-publication hook, run by the writer domain. *)

val set_offheap_source : (unit -> int) option -> unit
(** Register the off-heap byte source (the warehouse's summed columnar
    Bigarray payload) and sample it once. The thunk runs on the domain
    that registers it and on the one that publishes epochs, and must be
    safe there; exceptions it raises are swallowed. Process-global: the
    last registration wins. *)
