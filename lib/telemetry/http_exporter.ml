(* A zero-dependency HTTP exporter for scrapes: GET /metrics (Prometheus
   text), GET /healthz (JSON, 200/503), GET /profile (on-demand GC +
   histogram dump), GET /workload (the workload profile JSON). Same single-domain [Unix.select] style as the serve
   front-end, but strictly request/response: one request per connection,
   [Connection: close], no keep-alive — exactly what Prometheus and curl
   need, and nothing that can wedge the loop. *)

let log_src = Logs.Src.create "minview.export" ~doc:"metrics HTTP exporter"

module Log = (val Logs.src_log log_src : Logs.LOG)

type check = { check_name : string; check_ok : bool; check_detail : string }

let healthy checks = List.for_all (fun c -> c.check_ok) checks

type t = {
  health : unit -> check list;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stop : bool Atomic.t;
  mutable served : int;
}

let port t = t.bound_port
let requests t = t.served
let request_stop t = Atomic.set t.stop true

let backlog = 16

let create ~port ~health () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd backlog
   with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise
      (Sys_error
         (Printf.sprintf "export: cannot listen on 127.0.0.1:%d: %s" port
            (Unix.error_message e))));
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  { health; listen_fd = fd; bound_port; stop = Atomic.make false; served = 0 }

(* --- responses ----------------------------------------------------------- *)

let status_text = function
  | 200 -> "OK"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 503 -> "Service Unavailable"
  | _ -> "Error"

let write_all fd s =
  match
    let b = Bytes.of_string s in
    let rec go off =
      if off < Bytes.length b then
        go (off + Unix.write fd b off (Bytes.length b - off))
    in
    go 0
  with
  | () -> ()
  | exception Unix.Unix_error _ -> ()

let respond fd ~status ~content_type body =
  write_all fd
    (Printf.sprintf
       "HTTP/1.1 %d %s\r\n\
        Content-Type: %s\r\n\
        Content-Length: %d\r\n\
        Connection: close\r\n\
        \r\n\
        %s"
       status (status_text status) content_type (String.length body) body)

let checks_json checks =
  let one c =
    Printf.sprintf "{\"name\":\"%s\",\"ok\":%b,\"detail\":\"%s\"}"
      (Trace.json_escape c.check_name)
      c.check_ok
      (Trace.json_escape c.check_detail)
  in
  Printf.sprintf "{\"status\":\"%s\",\"checks\":[%s]}\n"
    (if healthy checks then "ok" else "degraded")
    (String.concat "," (List.map one checks))

let profile_json () =
  let s = Gc.quick_stat () in
  let histograms =
    Metrics.snapshot ()
    |> List.filter_map (fun (snap : Metrics.snap) ->
           match snap.s_value with
           | Metrics.Histogram_v _ -> Some (Render.snap_to_json snap)
           | _ -> None)
  in
  Printf.sprintf
    "{\"gc\":{\"minor_words\":%s,\"promoted_words\":%s,\"major_words\":%s,\"minor_collections\":%d,\"major_collections\":%d,\"compactions\":%d,\"heap_words\":%d,\"top_heap_words\":%d},\"histograms\":[%s]}\n"
    (Render.json_float s.Gc.minor_words)
    (Render.json_float s.Gc.promoted_words)
    (Render.json_float s.Gc.major_words)
    s.Gc.minor_collections s.Gc.major_collections s.Gc.compactions
    s.Gc.heap_words s.Gc.top_heap_words
    (String.concat "," histograms)

(* --- request handling ---------------------------------------------------- *)

(* Read until the blank line ending the header block (we ignore bodies —
   every route is a GET). Bounded: a peer that streams junk without a
   blank line is cut off at 16 KiB or at the socket timeout. *)
let read_request fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let byte i = Buffer.nth buf i in
  (* a terminator, "\n\n" or "\r\n\r\n", whose last byte is at [i] *)
  let ends_at i =
    byte i = '\n'
    && i >= 1
    && (byte (i - 1) = '\n'
       || i >= 3
          && byte (i - 1) = '\r'
          && byte (i - 2) = '\n'
          && byte (i - 3) = '\r')
  in
  let rec go () =
    if Buffer.length buf <= 16 * 1024 then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        (* earlier reads held no terminator, so one ends in the bytes this
           read added: scan those, looking back at most 3 bytes *)
        let rec scan i = i < Buffer.length buf && (ends_at i || scan (i + 1)) in
        let from = Buffer.length buf in
        Buffer.add_subbytes buf chunk 0 n;
        if not (scan from) then go ()
      | exception Unix.Unix_error _ -> ()
  in
  go ();
  Buffer.contents buf

let handle t fd =
  let raw = read_request fd in
  let request_line =
    match String.index_opt raw '\n' with
    | Some i -> String.trim (String.sub raw 0 i)
    | None -> String.trim raw
  in
  let meth, path =
    match String.split_on_char ' ' request_line with
    | m :: p :: _ -> (String.uppercase_ascii m, p)
    | _ -> ("", "")
  in
  (* strip any query string: curl 'http://.../metrics?x=1' still scrapes *)
  let path =
    match String.index_opt path '?' with
    | Some i -> String.sub path 0 i
    | None -> path
  in
  t.served <- t.served + 1;
  if meth <> "GET" && meth <> "HEAD" then
    respond fd ~status:405 ~content_type:"text/plain; charset=utf-8"
      "only GET is supported\n"
  else
    match path with
    | "/metrics" ->
      Runtime.sample_heap ();
      respond fd ~status:200
        ~content_type:"text/plain; version=0.0.4; charset=utf-8"
        (Render.to_prometheus ())
    | "/healthz" ->
      let checks = try t.health () with _ -> [] in
      respond fd
        ~status:(if healthy checks then 200 else 503)
        ~content_type:"application/json" (checks_json checks)
    | "/profile" ->
      respond fd ~status:200 ~content_type:"application/json" (profile_json ())
    | "/workload" ->
      respond fd ~status:200 ~content_type:"application/json"
        (Workload.profile_json () ^ "\n")
    | _ ->
      respond fd ~status:404 ~content_type:"text/plain; charset=utf-8"
        (Printf.sprintf
           "no route for %s (try /metrics, /healthz, /profile, /workload)\n"
           path)

(* --- the accept loop ----------------------------------------------------- *)

let run t =
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  Log.info (fun m -> m "exporting metrics on 127.0.0.1:%d" t.bound_port);
  while not (Atomic.get t.stop) do
    match Unix.select [ t.listen_fd ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _addr ->
        (* a stalled client must not wedge the scrape loop *)
        (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0
         with Unix.Unix_error _ -> ());
        (try handle t fd with _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Log.info (fun m ->
      m "exporter shutdown: %d request(s) served on port %d" t.served
        t.bound_port)
