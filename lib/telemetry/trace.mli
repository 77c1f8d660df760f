(** Span/phase tracer: a bounded ring of recent spans plus a pluggable
    sink.

    Spans are recorded when they {e finish}; the ring keeps the most recent
    {!capacity} of them for [minview trace] and tests. Sinks: [Null] drops
    everything, [Memory] keeps the ring only, [Jsonl path] additionally
    appends one JSON object per span to [path]. Tracing honours the global
    {!Metrics.enabled} switch.

    The tracer is for phase-level events (tens per batch) and is guarded by
    a single mutex; do not call it per row. *)

type span = {
  name : string;
  start_s : float;  (** wall-clock start, seconds *)
  dur_s : float;  (** duration, seconds; [0.] for point events *)
  attrs : (string * string) list;
}

type sink = Null | Memory | Jsonl of string

val capacity : int
(** Ring size (512). *)

val set_sink : sink -> unit
(** Default is [Memory]. Switching away from [Jsonl] closes the file;
    [Jsonl] opens it in append mode, size-capped and rotated at
    {!Jsonl_sink}'s defaults (64 MiB per file, 4 files). *)

val sink : unit -> sink

val record : span -> unit
(** Record a finished span as is (ignores the enabled switch; prefer
    {!with_span} unless the caller already measured the duration). *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk and record a span covering it (also on exception). When
    telemetry is disabled the thunk runs unrecorded. *)

val event : ?attrs:(string * string) list -> string -> unit
(** Record a zero-duration point event. *)

val recent : unit -> span list
(** Up to {!capacity} most recent spans, oldest first. *)

val total : unit -> int
(** Spans recorded since the last {!clear} (may exceed {!capacity}). *)

val clear : unit -> unit

val span_to_json : span -> string
(** One-line JSON object (the JSONL sink's wire format). *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal. *)
