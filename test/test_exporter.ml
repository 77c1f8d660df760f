(* Socket-level tests for the metrics HTTP exporter: /metrics serves
   Prometheus text with the runtime and allocation families, /healthz flips
   to 503 while the warehouse's log is failed and not replaced, /profile
   dumps GC stats, and the router answers 404/405. The exporter runs on its
   own domain on an ephemeral loopback port; the tests speak raw HTTP. *)

open Helpers
module Exporter = Telemetry.Http_exporter

let test case fn = Alcotest.test_case case `Quick fn

let tiny =
  {
    Workload.Retail.days = 6;
    stores = 2;
    products = 10;
    sold_per_store_day = 3;
    tx_per_product = 2;
    brands = 3;
    seed = 31;
  }

let build () =
  let db = Workload.Retail.load tiny in
  let wh = Warehouse.create db in
  Warehouse.add_view wh Workload.Retail.product_sales;
  Warehouse.add_view wh Workload.Retail.sales_by_time;
  (db, wh)

(* Batch [k] of 512 distinct sale inserts: past the engine's serial floor
   on the tiny store, so a pooled batch fans out over worker domains. *)
let sale_batch k = sale_inserts tiny ~first:(4_000_000 + (k * 512)) 512

let with_exporter ~health f =
  let exp = Exporter.create ~port:0 ~health () in
  let d = Domain.spawn (fun () -> Exporter.run exp) in
  Fun.protect
    ~finally:(fun () ->
      Exporter.request_stop exp;
      Domain.join d)
    (fun () -> f (Exporter.port exp))

(* One raw HTTP exchange: returns (status code, whole response text). *)
let http_request ?(meth = "GET") port path =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      (* a wedged exporter must fail the test, not hang it *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      let req =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\nConnection: \
                        close\r\n\r\n"
          meth path
      in
      let b = Bytes.of_string req in
      let rec send off =
        if off < Bytes.length b then
          send (off + Unix.write fd b off (Bytes.length b - off))
      in
      send 0;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec recv () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          recv ()
      in
      recv ();
      let response = Buffer.contents buf in
      let code =
        try Scanf.sscanf response "HTTP/1.1 %d" Fun.id with _ -> -1
      in
      (code, response))

let http_get port path = http_request port path

let check_contains what response needle =
  if not (contains response needle) then
    Alcotest.failf "%s: expected %S in the response:\n%s" what needle response

let metrics_tests =
  [
    test "/metrics serves self-describing Prometheus text" (fun () ->
        let db, wh = build () in
        (* a committed batch populates the phase latency + allocation
           histograms *)
        let rng = Workload.Prng.create 7 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:50);
        Warehouse.publish_offheap wh;
        with_exporter ~health:(fun () -> Warehouse.health wh) @@ fun port ->
        let code, resp = http_get port "/metrics" in
        Alcotest.(check int) "status" 200 code;
        check_contains "content type" resp "text/plain; version=0.0.4";
        check_contains "build info" resp "minview_build_info{";
        check_contains "typed families" resp "# TYPE";
        check_contains "help lines" resp "# HELP";
        (* heap words sampled by the scrape, off-heap bytes when
           [publish_offheap] registered the source *)
        check_contains "gc gauge" resp "minview_runtime_gc_heap_words ";
        check_contains "offheap gauge" resp "minview_runtime_offheap_bytes ";
        (* per-phase allocation next to latency *)
        check_contains "alloc histogram" resp
          "minview_engine_phase_alloc_bytes_count{phase=\"view-update\"}";
        check_contains "ingest alloc" resp
          "minview_warehouse_ingest_alloc_bytes_count");
    test "/profile dumps GC stats and histograms" (fun () ->
        let _db, wh = build () in
        with_exporter ~health:(fun () -> Warehouse.health wh) @@ fun port ->
        let code, resp = http_get port "/profile" in
        Alcotest.(check int) "status" 200 code;
        check_contains "gc section" resp "\"gc\":{\"minor_words\":";
        (* the Gc.quick_stat fields that are not published as gauges *)
        List.iter
          (fun field ->
            check_contains field resp (Printf.sprintf "\"%s\":" field))
          [
            "promoted_words"; "major_words"; "minor_collections";
            "major_collections"; "compactions"; "heap_words"; "top_heap_words";
          ];
        check_contains "histograms section" resp "\"histograms\":[");
    test "a header block split across two writes is read whole" (fun () ->
        let _db, wh = build () in
        with_exporter ~health:(fun () -> Warehouse.health wh) @@ fun port ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        @@ fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
        (* the terminator's first "\r\n" in one write, its second in the
           next: the exporter must see the blank line across reads *)
        let t0 = Unix.gettimeofday () in
        send "GET /healthz HTTP/1.1\r\nHost: localhost\r\n";
        Unix.sleepf 0.05;
        send "\r\n";
        let buf = Buffer.create 512 and chunk = Bytes.create 512 in
        let rec recv () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            recv ()
        in
        recv ();
        (* a missed terminator would only end at the exporter's 2 s read
           timeout, with the same response *)
        let waited = Unix.gettimeofday () -. t0 in
        if waited > 1.5 then
          Alcotest.failf "answered after %.2f s: the terminator was missed"
            waited;
        let resp = Buffer.contents buf in
        check_contains "status line" resp "HTTP/1.1 200";
        check_contains "health body" resp "\"status\":\"ok\"");
    test "unknown paths 404, non-GET 405" (fun () ->
        let _db, wh = build () in
        with_exporter ~health:(fun () -> Warehouse.health wh) @@ fun port ->
        let code, resp = http_get port "/nope" in
        Alcotest.(check int) "404" 404 code;
        check_contains "hint" resp "/metrics";
        let code, _ = http_request ~meth:"POST" port "/metrics" in
        Alcotest.(check int) "405" 405 code);
  ]

let health_tests =
  [
    test "/healthz answers 200 ok, then 503 while the log is failed"
      (fun () ->
        let _db, wh = build () in
        let dir =
          Filename.concat (Filename.get_temp_dir_name ()) "exporter_failed_log"
        in
        Crash_model.rm_rf dir;
        Warehouse.attach wh ~dir;
        with_exporter ~health:(fun () -> Warehouse.health wh) @@ fun port ->
        let code, resp = http_get port "/healthz" in
        Alcotest.(check int) "healthy status" 200 code;
        check_contains "ok body" resp "\"status\":\"ok\"";
        check_contains "wal check" resp "{\"name\":\"wal\",\"ok\":true";
        (* the batch's barrier fails, and so does the fsync of the snapshot
           that would replace the log: the warehouse keeps no log *)
        let tmp = Filename.concat dir "snapshot.bin.new.tmp" in
        (match
           Crash_model.with_hook
             (function
               | Warehouse.Durable.Barrier _ -> Crash_model.eio ()
               | Warehouse.Durable.Fsync p when p = tmp -> Crash_model.eio ()
               | _ -> ())
             (fun () -> Warehouse.ingest wh (sale_batch 0))
         with
        | exception Warehouse.Error { kind = Warehouse.Io_error; _ } -> ()
        | () -> Alcotest.fail "expected Io_error");
        let code, resp = http_get port "/healthz" in
        Alcotest.(check int) "degraded status" 503 code;
        check_contains "degraded body" resp "\"status\":\"degraded\"";
        check_contains "failing check" resp "{\"name\":\"wal\",\"ok\":false";
        check_contains "detail names the cause" resp "not replaced";
        Warehouse.checkpoint wh;
        let code, _ = http_get port "/healthz" in
        Alcotest.(check int) "healthy after a checkpoint" 200 code;
        Warehouse.close wh;
        Crash_model.rm_rf dir);
    test "/healthz stays 200 when a failed log was replaced" (fun () ->
        let _db, wh = build () in
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            "exporter_replaced_log"
        in
        Crash_model.rm_rf dir;
        Warehouse.attach wh ~dir;
        with_exporter ~health:(fun () -> Warehouse.health wh) @@ fun port ->
        (* only the barrier fails: the checkpoint behind it opens a fresh
           log, so ingest accepts the next batch and health has no cause
           to fail *)
        (match
           Crash_model.with_hook
             (function
               | Warehouse.Durable.Barrier _ -> Crash_model.eio ()
               | _ -> ())
             (fun () -> Warehouse.ingest wh (sale_batch 0))
         with
        | exception Warehouse.Error { kind = Warehouse.Io_error; _ } -> ()
        | () -> Alcotest.fail "expected Io_error");
        Alcotest.(check bool) "a fresh log" true (Warehouse.wal_attached wh);
        let code, resp = http_get port "/healthz" in
        Alcotest.(check int) "healthy status" 200 code;
        check_contains "wal check" resp
          "{\"name\":\"wal\",\"ok\":true,\"detail\":\"attached\"";
        Warehouse.ingest wh (sale_batch 1);
        Alcotest.(check int) "the next batch commits" 2
          (Warehouse.ingested_batches wh);
        Warehouse.close wh;
        Crash_model.rm_rf dir);
    test "/healthz has one check, which an unattached warehouse passes"
      (fun () ->
        let _db, wh = build () in
        let one_check what =
          match Warehouse.health wh with
          | [ c ] ->
            Alcotest.(check string) (what ^ ": the check") "wal"
              c.Exporter.check_name;
            Alcotest.(check bool) (what ^ ": passes") true c.Exporter.check_ok;
            c.Exporter.check_detail
          | cs -> Alcotest.failf "%s: %d checks" what (List.length cs)
        in
        Alcotest.(check string) "never attached" "not attached"
          (one_check "never attached");
        let dir =
          Filename.concat (Filename.get_temp_dir_name ()) "exporter_unattached"
        in
        Crash_model.rm_rf dir;
        Warehouse.attach wh ~dir;
        Alcotest.(check string) "attached" "attached" (one_check "attached");
        Warehouse.close wh;
        Alcotest.(check string) "closed" "not attached" (one_check "closed");
        (* an in-memory warehouse ingests without a log *)
        Warehouse.ingest wh (sale_batch 2);
        with_exporter ~health:(fun () -> Warehouse.health wh) @@ fun port ->
        let code, resp = http_get port "/healthz" in
        Alcotest.(check int) "status" 200 code;
        check_contains "wal check" resp
          "{\"name\":\"wal\",\"ok\":true,\"detail\":\"not attached\"";
        Crash_model.rm_rf dir);
    test "a pinned snapshot's lag reaches /metrics, not /healthz" (fun () ->
        let _db, wh = build () in
        let pinned = Warehouse.current_snapshot wh in
        Warehouse.ingest wh (sale_batch 3);
        Warehouse.ingest wh (sale_batch 4);
        ignore
          (Warehouse.read_sorted ~snapshot:pinned wh
             Workload.Retail.product_sales.View.name);
        with_exporter ~health:(fun () -> Warehouse.health wh) @@ fun port ->
        let code, resp = http_get port "/metrics" in
        Alcotest.(check int) "metrics status" 200 code;
        check_contains "two batches behind" resp
          "\nminview_warehouse_epoch_lag_batches 2";
        let code, _ = http_get port "/healthz" in
        Alcotest.(check int) "lag never fails health" 200 code);
  ]

let () =
  Alcotest.run "exporter"
    [ ("metrics", metrics_tests); ("health", health_tests) ]
