(** Snapshot renderers: JSON lines and Prometheus text exposition.

    Factored out of the [Telemetry] facade so {!Http_exporter} can render
    scrapes without a dependency cycle; the facade re-exports everything
    here under its historical names. *)

val json_float : float -> string
(** JSON-safe float: nan maps to [null], infinities to signed ["Inf"]
    strings, integers render without an exponent. *)

val snap_to_json : Metrics.snap -> string
(** One-line JSON object for a single metric. Histograms carry
    [count]/[sum]/[avg] next to [min]/[max], the [p50]/[p95]/[p99]
    percentile estimates and the raw buckets, so external tooling can
    compute averages without rebinning. *)

val dump_json : unit -> string
(** All metrics, one JSON object per line, sorted by (name, labels). *)

val to_prometheus : unit -> string
(** Prometheus text exposition. Every family gets [# HELP] (with a
    placeholder when no help text was registered) and [# TYPE] lines;
    histograms emit cumulative [_bucket{le=...}] series plus
    [_sum]/[_count], followed by [NAME_p50]/[_p95]/[_p99] gauge families
    with per-label-set percentile estimates. The output opens with a
    [minview_build_info{ocaml_version,sha}] gauge (sha as last
    {!set_build_sha}, ["unknown"] until then) so scrapes are
    self-describing. *)

val set_build_sha : string -> unit
(** The [sha] label of [minview_build_info]. *)
