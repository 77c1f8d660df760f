(** A zero-dependency HTTP exporter for metric scrapes.

    Serves three GET routes from a single-domain accept loop, one request
    per connection ([Connection: close]):

    {ul
    {- [/metrics] — Prometheus text exposition ({!Render.to_prometheus}),
       preceded by a heap sample ({!Runtime.sample_heap}).}
    {- [/healthz] — runs the health thunk; [200] with
       [{"status":"ok",...}] when every check passes, [503] with
       [{"status":"degraded",...}] otherwise. Each check appears as
       [{"name","ok","detail"}].}
    {- [/profile] — on-demand profile: current [Gc.quick_stat] plus every
       histogram snapshot as JSON.}}

    Unknown paths get 404; non-GET methods get 405. *)

type check = { check_name : string; check_ok : bool; check_detail : string }

val healthy : check list -> bool
(** All checks ok (vacuously true when empty). *)

type t

val create : port:int -> health:(unit -> check list) -> unit -> t
(** Bind and listen on [127.0.0.1:port] with a backlog of 16 ([port = 0]
    picks an ephemeral port — read it back with {!port}). [health] is
    evaluated per [/healthz] request, on the exporter's domain: it must
    only read atomics/immutable state. Registers no metric: {!requests}
    counts the requests served, and {!run} logs the count at shutdown.
    @raise Sys_error when binding fails. *)

val port : t -> int

val run : t -> unit
(** Accept and serve until {!request_stop}; then close the listening
    socket and return. Run it on a dedicated domain next to a serve loop,
    or directly for a standalone exporter. *)

val request_stop : t -> unit
(** Ask a running {!run} to stop after the current poll (async-signal-safe:
    one atomic store). *)

val requests : t -> int
(** Requests handled so far. *)
