module Relation = Relational.Relation
module Value = Relational.Value
module View = Algebra.View

let log_src = Logs.Src.create "minview.serve" ~doc:"warehouse query front-end"

module Log = (val Logs.src_log log_src : Logs.LOG)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (** bytes received ahead of the last complete line *)
  mutable pinned : Warehouse.snapshot;
  mutable closing : bool;
}

type t = {
  wh : Warehouse.t;
  listen_fd : Unix.file_descr;
  out : Buffer.t;
      (** the response being built; reused, so a read allocates no
          response-sized block once it has grown to the largest one *)
  chunk : Bytes.t;  (** staging for socket reads, and for writes out of [out] *)
  bound_port : int;
  slow_queries : Telemetry.Counter.t;
  stop : bool Atomic.t;
  slowlog : Telemetry.Jsonl_sink.t option;
  slow_threshold_s : float;
  mutable conns : conn list;
  mutable served : int;
}

let port t = t.bound_port
let requests t = t.served
let request_stop t = Atomic.set t.stop true

let backlog = 16

let create ?slowlog ?(slow_threshold_s = 0.1) ~port wh =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd backlog
   with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Warehouse.(
      raise
        (Error
           {
             kind = Io_error;
             detail =
               Printf.sprintf "serve: cannot listen on 127.0.0.1:%d: %s" port
                 (Unix.error_message e);
           })));
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  {
    wh;
    listen_fd = fd;
    out = Buffer.create 4096;
    chunk = Bytes.create 65_536;
    bound_port;
    (* registered here, not at module load: binaries that link the
       warehouse library but never serve should not grow serve metrics in
       their dumps; repeated [create]s share the handle *)
    slow_queries =
      Telemetry.Counter.make
        ~help:"QUERY/RECONSTRUCT requests at or above the slow threshold"
        "minview_serve_slow_queries_total";
    stop = Atomic.make false;
    slowlog;
    slow_threshold_s;
    conns = [];
    served = 0;
  }

(* --- responses ----------------------------------------------------------- *)

(* Responses to loopback clients: a blocking [write] is fine (the kernel
   buffer absorbs them); a peer that vanished surfaces as EPIPE /
   ECONNRESET and marks the connection for closing. *)
let write conn b len =
  if not conn.closing then
    match
      let rec go off =
        if off < len then go (off + Unix.write conn.fd b off (len - off))
      in
      go 0
    with
    | () -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      conn.closing <- true

(* [write] only reads its bytes. *)
let send conn s = write conn (Bytes.unsafe_of_string s) (String.length s)

(* [t.out], staged through [t.chunk]: no copy of the response is
   allocated. *)
let send_out t conn =
  let n = Buffer.length t.out in
  let rec go off =
    if off < n then begin
      let len = min (n - off) (Bytes.length t.chunk) in
      Buffer.blit t.out off t.chunk 0 len;
      write conn t.chunk len;
      go (off + len)
    end
  in
  go 0

let line conn fmt = Printf.ksprintf (fun s -> send conn (s ^ "\n")) fmt

(* A multi-line body sent as one write: the line count up front, the body,
   and the [.] terminator. *)
let body conn head lines =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%s %d\n" head (List.length lines));
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    lines;
  Buffer.add_string b ".\n";
  send conn (Buffer.contents b)

let err_line conn kind detail =
  line conn "-ERR %s: %s" (Warehouse.kind_label kind) detail

let epoch_line conn s =
  line conn "+EPOCH %d %d" (Warehouse.snapshot_epoch s)
    (Warehouse.snapshot_seq s)

(* One row as [mult<TAB>cell...<LF>], each cell the bytes of
   [Value.to_string]. *)
let add_row b ((tup : Relational.Tuple.t), mult) =
  Value.add_int_to_buffer b mult;
  for i = 0 to Array.length tup - 1 do
    Buffer.add_char b '\t';
    Value.add_to_buffer b tup.(i)
  done;
  Buffer.add_char b '\n'

(* The epoch's rows are already in canonical order: the response is one
   walk over them into the reused buffer. *)
let query_response conn t name =
  let s = conn.pinned in
  let columns, rows = Warehouse.read_sorted ~snapshot:s t.wh name in
  let n = Array.length rows in
  let b = t.out in
  Buffer.clear b;
  Printf.bprintf b "+ROWS %d %d %d\n#\t%s\n" n (Warehouse.snapshot_epoch s)
    (Warehouse.snapshot_seq s)
    (String.concat "\t" columns);
  Array.iter (add_row b) rows;
  Buffer.add_string b ".\n";
  send_out t conn;
  n

let split_lines s = String.split_on_char '\n' (String.trim s)

(* Per-query observability: a span per QUERY/RECONSTRUCT, plus a slowlog
   line when the request crossed the threshold and a sink is configured.
   Slowlog writes must never take the connection down with them. *)
let note_query t conn ~span ~verb ~view ~rows ~start_s =
  let dur_s = Telemetry.now_s () -. start_s in
  let epoch = Warehouse.snapshot_epoch conn.pinned in
  let seq = Warehouse.snapshot_seq conn.pinned in
  if Telemetry.enabled () then begin
    (* read-epoch lag: commits published since this connection pinned *)
    let head = Warehouse.snapshot_seq (Warehouse.current_snapshot t.wh) in
    Telemetry.Workload.note_read
      (Telemetry.Workload.view view)
      ~verb:(if String.equal verb "QUERY" then `Query else `Reconstruct)
      ~lag:(head - seq);
    Telemetry.Trace.record
      {
        Telemetry.Trace.name = span;
        start_s;
        dur_s;
        attrs =
          [
            ("verb", verb);
            ("view", view);
            ("epoch", string_of_int epoch);
            ("seq", string_of_int seq);
            ("rows", string_of_int rows);
          ];
      }
  end;
  if dur_s >= t.slow_threshold_s then begin
    Telemetry.Counter.one t.slow_queries;
    Option.iter
      (fun sink ->
        try
          Telemetry.Jsonl_sink.write_line sink
            (Printf.sprintf
               "{\"ts\":%.6f,\"verb\":\"%s\",\"view\":\"%s\",\"epoch\":%d,\"seq\":%d,\"rows\":%d,\"dur_s\":%.6f}"
               start_s verb
               (Telemetry.Trace.json_escape view)
               epoch seq rows dur_s)
        with Sys_error _ -> ())
      t.slowlog
  end

(* --- request dispatch ---------------------------------------------------- *)

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let handle_request t conn raw =
  let req = strip_cr raw in
  let verb, arg =
    match String.index_opt req ' ' with
    | Some i ->
      ( String.uppercase_ascii (String.sub req 0 i),
        String.trim (String.sub req i (String.length req - i)) )
    | None -> (String.uppercase_ascii (String.trim req), "")
  in
  if verb <> "" then begin
    t.served <- t.served + 1;
    match verb with
    | "PING" -> line conn "+PONG"
    | "EPOCH" -> epoch_line conn conn.pinned
    | "PIN" ->
      conn.pinned <- Warehouse.current_snapshot t.wh;
      epoch_line conn conn.pinned
    | "VIEWS" ->
      body conn "+VIEWS"
        (List.map
           (fun v -> v.View.name)
           (Warehouse.snapshot_views conn.pinned))
    | "QUERY" -> (
      let start_s = Telemetry.now_s () in
      match query_response conn t arg with
      | rows ->
        note_query t conn ~span:"serve.query" ~verb:"QUERY" ~view:arg ~rows
          ~start_s
      | exception Warehouse.Error { kind; detail } -> err_line conn kind detail)
    | "RECONSTRUCT" -> (
      let start_s = Telemetry.now_s () in
      match Warehouse.derivation_of t.wh arg with
      | Some d -> (
        match Mindetail.Reconstruct.to_sql d with
        | sql ->
          let lines = split_lines sql in
          body conn "+SQL" lines;
          note_query t conn ~span:"serve.reconstruct" ~verb:"RECONSTRUCT"
            ~view:arg ~rows:(List.length lines) ~start_s
        | exception Mindetail.Reconstruct.Not_reconstructible m ->
          err_line conn Warehouse.Invalid_request ("not reconstructible: " ^ m))
      | None ->
        err_line conn Warehouse.Invalid_request
          (Printf.sprintf
             "view %s has no derivation (Replicate/Aged strategies cannot \
              reconstruct)"
             arg)
      | exception Warehouse.Error { kind; detail } -> err_line conn kind detail)
    | "METRICS" -> body conn "+METRICS" (split_lines (Telemetry.dump_json ()))
    | "PROFILE" ->
      body conn "+PROFILE" [ Telemetry.Workload.profile_json () ]
    | "QUIT" ->
      line conn "+BYE";
      conn.closing <- true
    | "SHUTDOWN" ->
      line conn "+BYE";
      Atomic.set t.stop true
    | _ -> err_line conn Warehouse.Invalid_request ("unknown verb " ^ verb)
  end

(* --- the serving loop ---------------------------------------------------- *)

let close_conn t conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c -> c != conn) t.conns

let accept_conn t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, _addr ->
    (* pinned at accept: the connection reads one consistent commit point
       until it sends PIN *)
    let conn =
      {
        fd;
        buf = Buffer.create 256;
        pinned = Warehouse.current_snapshot t.wh;
        closing = false;
      }
    in
    t.conns <- conn :: t.conns
  | exception Unix.Unix_error _ -> ()

let drain_conn t conn =
  match Unix.read conn.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> conn.closing <- true
  | n ->
    Buffer.add_subbytes conn.buf t.chunk 0 n;
    (* consume every complete line in the buffer *)
    let data = Buffer.contents conn.buf in
    let rec consume start =
      match String.index_from_opt data start '\n' with
      | Some i when not (Atomic.get t.stop) ->
        handle_request t conn (String.sub data start (i - start));
        consume (i + 1)
      | Some _ | None ->
        Buffer.clear conn.buf;
        Buffer.add_substring conn.buf data start (String.length data - start)
    in
    consume 0
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> conn.closing <- true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let run ?tick ?(tick_period = 0.05) t =
  (* a client that disconnects mid-response must surface as EPIPE on the
     write, not kill the process *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let timeout = if tick = None then 0.25 else tick_period in
  let last_tick = ref (Unix.gettimeofday ()) in
  Log.info (fun m -> m "listening on 127.0.0.1:%d" t.bound_port);
  while not (Atomic.get t.stop) do
    let fds = t.listen_fd :: List.map (fun c -> c.fd) t.conns in
    (match Unix.select fds [] [] timeout with
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if fd = t.listen_fd then accept_conn t
          else
            match List.find_opt (fun c -> c.fd = fd) t.conns with
            | Some conn -> drain_conn t conn
            | None -> ())
        ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    List.iter (fun c -> if c.closing then close_conn t c) t.conns;
    match tick with
    | Some f when Unix.gettimeofday () -. !last_tick >= tick_period ->
      last_tick := Unix.gettimeofday ();
      f ()
    | Some _ | None -> ()
  done;
  List.iter (fun c -> close_conn t c) t.conns;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Log.info (fun m ->
      m "shutdown: %d request(s) served on port %d" t.served t.bound_port)
