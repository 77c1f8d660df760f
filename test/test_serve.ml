(* Tests for the line-protocol query front-end: protocol smoke over a real
   socket, per-connection epoch pinning against live ingest, error replies,
   and graceful shutdown. The server runs on its own domain on an ephemeral
   loopback port; the tests are the client. *)

let test case fn = Alcotest.test_case case `Quick fn

let build () =
  let db = Workload.Retail.load Workload.Retail.small_params in
  let wh = Warehouse.create db in
  Warehouse.add_view wh Workload.Retail.product_sales;
  Warehouse.add_view wh Workload.Retail.sales_by_time;
  (db, wh)

(* [with_server f] runs a server on an ephemeral port and hands [f] the
   warehouse and port; the server is shut down (via the protocol) and its
   domain joined before returning, even when [f] raises. *)
let with_server f =
  let db, wh = build () in
  let srv = Serve.create ~port:0 wh in
  let d = Domain.spawn (fun () -> Serve.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Serve.request_stop srv;
      Domain.join d)
    (fun () -> f db wh (Serve.port srv))

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* a wedged server must fail the test, not hang it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let disconnect (fd, _, _) = try Unix.close fd with Unix.Unix_error _ -> ()

let send (_, _, oc) line =
  output_string oc (line ^ "\n");
  flush oc

let recv (_, ic, _) = input_line ic

(* Read a body response: the head line, then lines until the [.]
   terminator (excluded). *)
let recv_body conn =
  let head = recv conn in
  let rec go acc =
    match recv conn with "." -> List.rev acc | l -> go (l :: acc)
  in
  (head, go [])

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let check_prefix what prefix s =
  if not (starts_with prefix s) then
    Alcotest.failf "%s: expected %S..., got %S" what prefix s

let protocol_tests =
  [
    test "PING, EPOCH, VIEWS, QUERY, RECONSTRUCT over one connection"
      (fun () ->
        with_server @@ fun _db wh port ->
        let c = connect port in
        Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
        send c "PING";
        Alcotest.(check string) "pong" "+PONG" (recv c);
        send c "EPOCH";
        let e =
          Warehouse.snapshot_epoch (Warehouse.current_snapshot wh)
        in
        Alcotest.(check string) "epoch echoes the published epoch"
          (Printf.sprintf "+EPOCH %d 0" e)
          (recv c);
        send c "VIEWS";
        let head, names = recv_body c in
        Alcotest.(check string) "views head" "+VIEWS 2" head;
        Alcotest.(check (list string)) "view names"
          [ "product_sales"; "sales_by_time" ]
          names;
        send c "QUERY product_sales";
        let head, body = recv_body c in
        check_prefix "query head" "+ROWS " head;
        (match body with
        | header :: rows ->
          check_prefix "column header" "#\t" header;
          let n =
            match String.split_on_char ' ' head with
            | _ :: n :: _ -> int_of_string n
            | _ -> -1
          in
          Alcotest.(check int) "row count matches the head" n
            (List.length rows);
          let _, expected = Warehouse.query_sorted wh "product_sales" in
          Alcotest.(check int) "every row served" (List.length expected) n
        | [] -> Alcotest.fail "QUERY returned no header");
        send c "RECONSTRUCT product_sales";
        let head, sql = recv_body c in
        check_prefix "sql head" "+SQL " head;
        Alcotest.(check bool) "a SELECT came back" true
          (List.exists (fun l -> starts_with "SELECT" (String.trim l)) sql);
        send c "QUIT";
        Alcotest.(check string) "bye" "+BYE" (recv c));
    test "unknown views and unknown verbs answer -ERR" (fun () ->
        with_server @@ fun _db _wh port ->
        let c = connect port in
        Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
        send c "QUERY no_such_view";
        check_prefix "unknown view" "-ERR unknown-view:" (recv c);
        send c "FROBNICATE now";
        check_prefix "unknown verb" "-ERR invalid-request:" (recv c);
        (* the connection survives errors *)
        send c "PING";
        Alcotest.(check string) "still alive" "+PONG" (recv c));
  ]

let pinning_tests =
  [
    test "connections pin their accept-time epoch until PIN" (fun () ->
        with_server @@ fun db wh port ->
        let a = connect port in
        Fun.protect ~finally:(fun () -> disconnect a) @@ fun () ->
        send a "EPOCH";
        let before = recv a in
        (* rows served from the pinned epoch *)
        send a "QUERY sales_by_time";
        let _, body_before = recv_body a in
        (* commit a batch while the connection stays open *)
        let rng = Workload.Prng.create 11 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:100);
        send a "EPOCH";
        Alcotest.(check string) "pinned epoch unchanged by the commit" before
          (recv a);
        send a "QUERY sales_by_time";
        let _, body_after = recv_body a in
        Alcotest.(check (list string)) "pinned rows unchanged by the commit"
          body_before body_after;
        (* a fresh connection sees the new epoch *)
        let b = connect port in
        Fun.protect ~finally:(fun () -> disconnect b) @@ fun () ->
        send b "EPOCH";
        let fresh = recv b in
        Alcotest.(check bool) "a new connection pins the new epoch" true
          (fresh <> before);
        (* PIN re-pins the old connection to it *)
        send a "PIN";
        Alcotest.(check string) "PIN catches the connection up" fresh (recv a));
    test "run ~tick ingests on the serving domain while a client reads"
      (fun () ->
        let db, wh = build () in
        let srv = Serve.create ~port:0 wh in
        (* nothing else ingests: an epoch past the first one was published
           by a tick *)
        let rng = Workload.Prng.create 12 in
        let tick () =
          Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:20)
        in
        let d = Domain.spawn (fun () -> Serve.run ~tick srv) in
        Fun.protect
          ~finally:(fun () ->
            Serve.request_stop srv;
            Domain.join d)
        @@ fun () ->
        let c = connect (Serve.port srv) in
        Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
        let epoch line = Scanf.sscanf line "+EPOCH %d %d" (fun e _ -> e) in
        send c "EPOCH";
        let first = epoch (recv c) in
        (* PIN re-reads the current epoch; ticks come every 0.05 s, so
           10 s without a new one is a server that never ticked *)
        let deadline = Unix.gettimeofday () +. 10. in
        let rec advance () =
          send c "PIN";
          let e = epoch (recv c) in
          if e <= first then
            if Unix.gettimeofday () > deadline then
              Alcotest.failf "the epoch stayed at %d for 10 s of ticks" first
            else (
              Unix.sleepf 0.01;
              advance ())
        in
        advance ();
        send c "SHUTDOWN";
        Alcotest.(check string) "bye" "+BYE" (recv c));
  ]

let shutdown_tests =
  [
    test "SHUTDOWN answers +BYE and stops the server" (fun () ->
        let _db, wh = build () in
        let srv = Serve.create ~port:0 wh in
        let d = Domain.spawn (fun () -> Serve.run srv) in
        let c = connect (Serve.port srv) in
        send c "PING";
        Alcotest.(check string) "served" "+PONG" (recv c);
        send c "SHUTDOWN";
        Alcotest.(check string) "bye" "+BYE" (recv c);
        (* the run loop exits on its own: no request_stop from outside *)
        Domain.join d;
        disconnect c;
        Alcotest.(check bool) "requests were counted" true
          (Serve.requests srv >= 2);
        match connect (Serve.port srv) with
        | c2 ->
          disconnect c2;
          Alcotest.fail "the listening socket should be closed"
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
  ]

let slowlog_tests =
  [
    test "slow queries are logged with rotation and traced as spans"
      (fun () ->
        let dir = Filename.temp_file "minview_slowlog" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o700;
        let path = Filename.concat dir "slowlog.jsonl" in
        (* a tiny cap so a short burst of queries forces a rotation *)
        let sink = Telemetry.Jsonl_sink.open_ ~max_bytes:2048 path in
        let _db, wh = build () in
        (* threshold 0: every query counts as slow *)
        let srv = Serve.create ~slowlog:sink ~slow_threshold_s:0. ~port:0 wh in
        let d = Domain.spawn (fun () -> Serve.run srv) in
        Fun.protect
          ~finally:(fun () ->
            Serve.request_stop srv;
            Domain.join d;
            Telemetry.Jsonl_sink.close sink)
          (fun () ->
            let c = connect (Serve.port srv) in
            Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
            for _ = 1 to 60 do
              send c "QUERY product_sales";
              let _head, _body = recv_body c in
              ()
            done);
        Alcotest.(check bool) "active slowlog exists" true
          (Sys.file_exists path);
        Alcotest.(check bool) "sixty ~100-byte lines rotated a 2 KiB cap"
          true
          (Sys.file_exists (path ^ ".1"));
        (* the newest line parses and carries the query's identity *)
        let last_line =
          let ic = open_in path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () ->
              let rec go last =
                match input_line ic with
                | l -> go (Some l)
                | exception End_of_file -> last
              in
              match go None with
              | Some l -> l
              | None -> Alcotest.fail "active slowlog is empty")
        in
        let j = Telemetry.Json.parse_exn last_line in
        let str k =
          match Option.bind (Telemetry.Json.member k j) Telemetry.Json.to_string
          with
          | Some s -> s
          | None -> Alcotest.failf "slowlog line lacks string %S: %s" k last_line
        in
        let num k =
          match Option.bind (Telemetry.Json.member k j) Telemetry.Json.to_float
          with
          | Some f -> f
          | None -> Alcotest.failf "slowlog line lacks number %S: %s" k last_line
        in
        Alcotest.(check string) "verb" "QUERY" (str "verb");
        Alcotest.(check string) "view" "product_sales" (str "view");
        Alcotest.(check bool) "rows counted" true (num "rows" >= 0.);
        Alcotest.(check bool) "duration recorded" true (num "dur_s" >= 0.);
        Alcotest.(check bool) "epoch recorded" true (num "epoch" >= 0.);
        (* the serving path also traced the query *)
        Alcotest.(check bool) "a serve.query span was recorded" true
          (List.exists
             (fun (s : Telemetry.Trace.span) -> s.name = "serve.query")
             (Telemetry.Trace.recent ()));
        Alcotest.(check bool) "slow-query counter bumped" true
          (List.exists
             (fun (snap : Telemetry.Metrics.snap) ->
               snap.s_name = "minview_serve_slow_queries_total"
               &&
               match snap.s_value with
               | Telemetry.Metrics.Counter_v n -> n >= 60
               | _ -> false)
             (Telemetry.Metrics.snapshot ())));
  ]

(* --- allocation ------------------------------------------------------------ *)

(* fact(id, k, x FLOAT) with [groups] groups of one fact each, summarized
   per group with a FLOAT mean: every row has a cell that is not an int. *)
let mean_db groups =
  let open Helpers in
  let db = Database.create () in
  Database.add_table db
    (Schema.make ~name:"fact" ~key:"id"
       [ { Schema.col_name = "id"; col_type = Datatype.TInt };
         { Schema.col_name = "k"; col_type = Datatype.TInt };
         { Schema.col_name = "x"; col_type = Datatype.TFloat } ])
    ~updatable:[ "x" ];
  for g = 1 to groups do
    Database.insert db "fact" (row [ i g; i g; f (float_of_int g /. 3.) ])
  done;
  db

let mean_by_k =
  let open Helpers in
  {
    View.name = "mean_by_k";
    select =
      [ group (a "fact" "k"); avg ~alias:"mean" (a "fact" "x");
        count_star ~alias:"cnt" () ];
    tables = [ "fact" ];
    locals = [];
    joins = [];
    having = [];
  }

(* Minor-heap words the serving domain allocates over one connection that
   sends [queries] QUERYs of [view], then SHUTDOWN. *)
let serve_words wh view ~queries =
  let srv = Serve.create ~port:0 wh in
  let d =
    Domain.spawn (fun () ->
        let w0 = Gc.minor_words () in
        Serve.run srv;
        Gc.minor_words () -. w0)
  in
  let c = connect (Serve.port srv) in
  for _ = 1 to queries do
    send c ("QUERY " ^ view);
    ignore (recv_body c)
  done;
  send c "SHUTDOWN";
  ignore (recv c);
  let words = Domain.join d in
  disconnect c;
  words

(* A warehouse over [groups] groups whose latest epoch was published after
   a first QUERY of the view. *)
let read_warehouse groups =
  let db = mean_db groups in
  let wh = Warehouse.create db in
  Warehouse.add_view wh mean_by_k;
  ignore (serve_words wh "mean_by_k" ~queries:1);
  Warehouse.ingest wh
    Helpers.
      [ Delta.update "fact"
          ~before:(row [ i 1; i 1; f (1. /. 3.) ])
          ~after:(row [ i 1; i 1; f 0.5 ]) ];
  wh

let alloc_tests =
  [
    test "a QUERY of a rendered epoch allocates words independent of its rows"
      (fun () ->
        let queries = 20 in
        let per_query groups =
          serve_words (read_warehouse groups) "mean_by_k" ~queries
          /. float_of_int queries
        in
        let small = per_query 20 and large = per_query 2_000 in
        (* rendering each FLOAT cell alone would cost thousands of words on
           2,000 rows; the allowance covers the select loop's jitter *)
        if large -. small > 200. then
          Alcotest.failf
            "a QUERY of 2,000 rows allocated %.0f words, of 20 rows %.0f"
            large small);
  ]

let () =
  Alcotest.run "serve"
    [
      ("protocol", protocol_tests);
      ("pinning", pinning_tests);
      ("shutdown", shutdown_tests);
      ("slowlog", slowlog_tests);
      ("alloc", alloc_tests);
    ]
