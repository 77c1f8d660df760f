(** Runtime profiling gauges: the major heap size
    ([minview_runtime_gc_heap_words]) and the columnar store's off-heap
    bytes ([minview_runtime_offheap_bytes]). The rest of [Gc.quick_stat]
    is served by the HTTP exporter's [/profile], not as gauges.

    Registration is lazy (first {!sample}), so binaries that never sample
    keep their metric dumps unchanged. Two call paths feed the gauges:
    the warehouse commit hook ({!tick}, armed via {!set_auto_sample})
    samples from the writer domain on every published epoch, and a scrape
    ({!scrape_sample}) samples only when no commit hook is armed, so a
    scrape-domain sample never overwrites a commit-time one. *)

val sample : unit -> unit
(** Publish the current heap size (and off-heap bytes, when a source is
    registered) unconditionally. No-op when telemetry is
    disabled. *)

val tick : unit -> unit
(** {!sample} if auto-sampling is armed, else nothing — the per-commit
    hook. *)

val scrape_sample : unit -> unit
(** {!sample} if auto-sampling is {e not} armed, else nothing — the
    scrape-time hook (see the precedence rule above). *)

val set_auto_sample : bool -> unit
(** Arm/disarm the per-commit hook. Armed by [minview serve
    --metrics-port]; everything else leaves it off. *)

val set_offheap_source : (unit -> int) option -> unit
(** Register the off-heap byte source (the warehouse's summed columnar
    Bigarray payload). The thunk runs during {!sample} on the sampling
    domain and must therefore be safe there; exceptions it raises are
    swallowed. Process-global: the last registration wins. *)
