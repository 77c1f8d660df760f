(** Span/phase tracer: a bounded in-memory ring of recent spans, and the
    one timer every phase, span and timed histogram goes through.

    Spans are recorded when they {e finish}; the ring keeps the most recent
    {!capacity} of them for [minview trace] and tests. Tracing honours the
    global {!Metrics.enabled} switch.

    The tracer is for phase-level events (tens per batch) and is guarded by
    a single mutex; do not call it per row. *)

type span = {
  name : string;
  start_s : float;  (** wall-clock start, seconds *)
  dur_s : float;  (** duration, seconds; [0.] for point events *)
  attrs : (string * string) list;
}

(** A bounded ring under a mutex: the newest items pushed, up to its
    size. The trace's spans and {!Lineage}'s records each keep one. *)
module Ring : sig
  type 'a t

  val create : int -> 'a -> 'a t
  (** [create n empty]: a ring of [n] slots; [empty] fills the unused
      ones and is never returned. *)

  val push : 'a t -> 'a -> unit

  val recent : 'a t -> 'a list
  (** Up to [n] most recent items, oldest first. *)

  val total : 'a t -> int
  (** Items pushed since the last {!clear} (may exceed [n]). *)

  val clear : 'a t -> unit
end

val capacity : int
(** Ring size (512). *)

val record : span -> unit
(** Record a finished span as is (ignores the enabled switch; prefer
    {!with_span} unless the caller already measured the duration). *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk and record a span covering it (also on exception). When
    telemetry is disabled the thunk runs unrecorded. *)

val with_phase :
  ?attrs:(string * string) list ->
  ?alloc:Metrics.Histogram.t ->
  Metrics.Histogram.t ->
  string ->
  (unit -> 'a) ->
  'a
(** {!with_span}, timed once, whose duration is also observed into the
    histogram; [name = ""] records the observation and no span. When
    [alloc] is given, the calling domain's [Gc.allocated_bytes] delta
    over the thunk is observed into it too — the per-phase allocation
    profile. *)

val event : ?attrs:(string * string) list -> string -> unit
(** Record a zero-duration point event. *)

val recent : unit -> span list
(** Up to {!capacity} most recent spans, oldest first. *)

val total : unit -> int
(** Spans recorded since the last {!clear} (may exceed {!capacity}). *)

val clear : unit -> unit

val span_to_json : span -> string
(** One-line JSON object ([minview trace --json]). *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal. *)
