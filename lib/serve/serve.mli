(** The warehouse query front-end: a line-protocol TCP server over the
    epoch read path.

    One server owns one {!Warehouse.t} and serves any number of client
    connections from a single-domain [select] loop. Every read is served
    from a published read epoch ({!Warehouse.read_view}), so the serving
    loop — and every client — runs safely concurrent with a writer domain
    ingesting into the same warehouse: readers never block the writer and
    never observe torn state.

    {2 Protocol}

    Requests are single lines, [VERB [argument]], case-insensitive verbs.
    Responses start with [+] (success) or [-ERR kind: detail] (failure,
    one line). Multi-line response bodies are terminated by a line holding
    a single [.].

    {ul
    {- [PING] → [+PONG]}
    {- [EPOCH] → [+EPOCH <epoch> <seq>] — the connection's pinned epoch.}
    {- [PIN] → [+EPOCH <epoch> <seq>] — re-pin to the latest published
       epoch. A connection is pinned at accept time: all its queries read
       one consistent commit point until it asks to advance.}
    {- [VIEWS] → [+VIEWS <n>], one view name per line, [.].}
    {- [QUERY <view>] → [+ROWS <n> <epoch> <seq>], a header line
       [#<TAB><col>...], then [n] rows in canonical order
       ([Tuple.compare] ascending), each [<multiplicity><TAB><val>...]
       with every value as [Relational.Value.to_string] prints it, then
       [.]. Served from the connection's pinned epoch, whose rows come
       rendered ({!Warehouse.read_lines}): the reply is the header, the
       epoch's bytes and the terminator, and renders no cell. The first
       QUERY of a view renders its rows on the fly; every epoch published
       after it carries them.}
    {- [RECONSTRUCT <view>] → [+SQL <n>], the reconstruction query of
       Section 3.2 ({!Mindetail.Reconstruct.to_sql}) as [n] lines, [.].}
    {- [METRICS] → [+METRICS <n>], the telemetry dump as [n] JSON lines,
       [.].}
    {- [QUIT] → [+BYE], connection closed.}
    {- [SHUTDOWN] → [+BYE], then the whole server shuts down gracefully
       (every connection closed, {!run} returns).}} *)

type t

(** [create ~port wh] binds and listens on [127.0.0.1:port] with a
    backlog of 16 ([port = 0] picks an ephemeral port — read it back with
    {!port}). Registers
    [minview_serve_slow_queries_total], the one serve metric.

    Every [QUERY]/[RECONSTRUCT] records a [serve.query] /
    [serve.reconstruct] span (attrs: verb, view, epoch, seq, rows) and a
    per-view read with its epoch lag in the workload profile
    ({!Telemetry.Workload.note_read}). A
    request taking at least [?slow_threshold_s] seconds (default 0.1)
    additionally bumps [minview_serve_slow_queries_total] and — when
    [?slowlog] is given — appends one JSON line
    [{"ts","verb","view","epoch","seq","rows","dur_s"}] to the sink,
    whose size cap/rotation the caller controls
    ({!Telemetry.Jsonl_sink.open_}). The sink is written from the serving
    domain only; the caller remains its owner and closes it after {!run}
    returns.
    @raise Warehouse.Error ([Io_error]) when binding fails. *)
val create :
  ?slowlog:Telemetry.Jsonl_sink.t ->
  ?slow_threshold_s:float ->
  port:int ->
  Warehouse.t ->
  t

(** The bound port (the actual one when created with [port = 0]). *)
val port : t -> int

(** [run t] accepts and serves connections until {!request_stop} is called
    or a client sends [SHUTDOWN]; then closes every connection and the
    listening socket and returns. [?tick] is invoked between polls, at
    most every 0.05 seconds — the hook [minview serve --simulate] uses to
    ingest batches on the serving domain, so readers see epochs advance
    while they are connected (test/test_serve.ml drives it). *)
val run : ?tick:(unit -> unit) -> t -> unit

(** Ask a running {!run} to stop after the current poll. Async-signal-safe
    (one atomic store): wire it to SIGINT/SIGTERM for graceful shutdown. *)
val request_stop : t -> unit

(** Requests served so far (across all connections). *)
val requests : t -> int
