(* Every metric has a reader. One representative run reaches every
   registration site in lib/ (ingest with no pool and on a two-domain
   eager pool, an injected worker failure, checkpoint and recover, a
   self-audit, a slow serve QUERY, exporter scrapes and the attribution
   reconciliation), then the registry is walked against
   [readers]: a registered name without an entry fails, and so does an
   entry the run never registered. This file is its own test executable,
   so no other test's ad-hoc metrics reach the registry it walks.

   A reader is whatever pins the metric: a test or cram file that checks
   it, a CLI verb or bench that reads it, or the TUTORIAL section that
   answers an operator question with it. CI greps lib/ for metric name
   literals and fails on one missing here, which also covers names only
   registered on paths this run cannot reach. *)

open Helpers
module Shard = Maintenance.Shard
module Faults = Maintenance.Faults

let readers =
  [
    ("minview_aux_compression_ratio", "minview metrics; test/cram/metrics.t");
    ( "minview_aux_detail_rows",
      "Warehouse.reconcile_attribution; test_lineage.ml" );
    ( "minview_aux_resident_rows",
      "Warehouse.reconcile_attribution; test_lineage.ml" );
    ("minview_compression_specs_total", "test/cram/metrics.t");
    ("minview_derive_decisions_total", "test/cram/metrics.t");
    ("minview_engine_apply_seconds", "test/cram/metrics.t");
    ("minview_engine_batches_total", "test/cram/metrics.t; TUTORIAL.md");
    ( "minview_engine_deltas_netted_total",
      "test_parallel.ml; test_telemetry.ml" );
    ("minview_engine_deltas_total", "test_parallel.ml; test_telemetry.ml");
    ("minview_engine_merge_folds_total", "test/cram/metrics.t");
    ("minview_engine_ops_applied_total", "test_lineage.ml; test_telemetry.ml");
    ("minview_engine_phase_alloc_bytes", "test_exporter.ml; TUTORIAL.md");
    ("minview_engine_phase_seconds", "perfbench/pipeline.ml; bench/main.ml");
    ("minview_faults_crashes_total", "test_telemetry.ml; TUTORIAL.md");
    ("minview_lineage_audit_checked_total", "test_lineage.ml");
    ("minview_lineage_audit_divergences_total", "test_lineage.ml");
    ("minview_lineage_records_total", "test_lineage.ml; test/cram/metrics.t");
    ("minview_need_members_total", "test/cram/metrics.t");
    ("minview_reduction_columns_dropped_total", "test/cram/metrics.t");
    ("minview_reduction_conditions_pushed_total", "test/cram/metrics.t");
    ("minview_reduction_semijoins_planned_total", "test/cram/metrics.t");
    ("minview_runtime_gc_heap_words", "test_exporter.ml; TUTORIAL.md");
    ("minview_runtime_offheap_bytes", "test_exporter.ml; TUTORIAL.md");
    ("minview_serve_slow_queries_total", "test_serve.ml");
    ("minview_shard_imbalance_ratio", "test/cram/metrics.t");
    ( "minview_shard_run_seconds",
      "test/helpers.ml fanned_out; test/cram/metrics.t" );
    ("minview_shard_worker_busy_seconds_total", "test_parallel.ml");
    ("minview_view_groups", "test_telemetry.ml; test/cram/metrics.t");
    ("minview_wal_appends_total", "test_telemetry.ml; test/cram/metrics.t");
    ("minview_wal_bytes_written_total", "test/cram/metrics.t");
    ("minview_wal_fsync_seconds", "perfbench/pipeline.ml; test/cram/metrics.t");
    ("minview_wal_syncs_total", "test_recovery.ml; test/cram/metrics.t");
    ("minview_warehouse_checkpoint_seconds", "test/cram/metrics.t");
    ("minview_warehouse_dead_letters_dropped_total", "test/cram/metrics.t");
    ("minview_warehouse_epoch_lag_batches", "test/cram/metrics.t");
    ( "minview_warehouse_epoch_publications_total",
      "test/cram/metrics.t; TUTORIAL.md" );
    ("minview_warehouse_ingest_alloc_bytes", "test_exporter.ml");
    ("minview_warehouse_ingest_seconds", "test/cram/metrics.t");
    ("minview_warehouse_parallel_degradations_total", "test/cram/metrics.t");
    ("minview_warehouse_parallel_degraded", "test/cram/metrics.t");
    ("minview_warehouse_parallel_promotions_total", "test/cram/metrics.t");
    ( "minview_warehouse_parallel_resets_total",
      "test_telemetry.ml; TUTORIAL.md" );
    ("minview_warehouse_quarantined_deltas_total", "test_telemetry.ml");
    ("minview_warehouse_read_seconds", "bench/main.ml; TUTORIAL.md");
    ("minview_warehouse_reads_total", "test/cram/metrics.t");
    ("minview_warehouse_recoveries_total", "test_telemetry.ml; TUTORIAL.md");
    ("minview_warehouse_replayed_batches_total", "test_telemetry.ml");
    ("minview_warehouse_snapshot_fallbacks_total", "test/cram/metrics.t");
    ("minview_warehouse_txn_commits_total", "test_telemetry.ml; TUTORIAL.md");
    ( "minview_warehouse_txn_rollbacks_total",
      "test_lineage.ml; test_telemetry.ml" );
    ( "minview_workload_epoch_lag_batches",
      "minview profile's epoch_lag percentiles (Workload.lag_snapshot)" );
  ]

let test case fn = Alcotest.test_case case `Quick fn

let tiny =
  {
    Workload.Retail.days = 6;
    stores = 2;
    products = 10;
    sold_per_store_day = 3;
    tx_per_product = 2;
    brands = 3;
    seed = 41;
  }

let sale_batch k = sale_inserts tiny ~first:(5_000_000 + (k * 64)) 64

let fresh_dir () =
  let dir = Filename.temp_file "metric_readers" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let on_domain run stop f =
  let d = Domain.spawn run in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      Domain.join d)
    f

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* a wedged server must fail the test, not hang it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  fd

(* Send [request], then read until the peer closes or [stop] holds. *)
let exchange port request ~stop =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let b = Bytes.of_string request in
      ignore (Unix.write fd b 0 (Bytes.length b));
      let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let rec recv () =
        if not (stop (Buffer.contents buf)) then
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            recv ()
      in
      recv ();
      Buffer.contents buf)

let http_get port path =
  exchange port
    (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path)
    ~stop:(fun _ -> false)

let registered =
  lazy
    (let db = Workload.Retail.load tiny in
     let wh = Warehouse.create db in
     Warehouse.add_view wh Workload.Retail.product_sales;
     Warehouse.add_view wh Workload.Retail.sales_by_time;
     let dir = fresh_dir () in
     Warehouse.attach wh ~dir;
     Warehouse.ingest wh (sale_batch 0);
     Warehouse.set_parallel wh (Some (Shard.eager ~domains:2));
     fanned_out "the pooled batch" (fun () ->
         Warehouse.ingest wh (sale_batch 1));
     (* a recoverable worker failure: rolled back, re-applied serially *)
     Faults.arm ~mode:Faults.Fail Faults.In_shard_worker;
     Fun.protect ~finally:Faults.disarm (fun () ->
         Warehouse.ingest wh (sale_batch 2));
     Warehouse.checkpoint wh;
     Warehouse.ingest wh (sale_batch 3);
     Warehouse.close wh;
     let wh = Warehouse.recover ~dir in
     ignore (Warehouse.self_audit wh ~sample:4);
     let srv = Serve.create ~slow_threshold_s:0. ~port:0 wh in
     on_domain
       (fun () -> Serve.run srv)
       (fun () -> Serve.request_stop srv)
       (fun () ->
         let resp =
           exchange (Serve.port srv) "QUERY product_sales\n"
             ~stop:(fun s -> contains s "\n.\n")
         in
         if not (contains resp "+ROWS") then
           Alcotest.failf "QUERY answered %S" resp);
     let exp =
       Telemetry.Http_exporter.create ~port:0
         ~health:(fun () -> Warehouse.health wh)
         ()
     in
     on_domain
       (fun () -> Telemetry.Http_exporter.run exp)
       (fun () -> Telemetry.Http_exporter.request_stop exp)
       (fun () ->
         List.iter
           (fun path ->
             let resp = http_get (Telemetry.Http_exporter.port exp) path in
             if not (contains resp "HTTP/1.1 200") then
               Alcotest.failf "%s answered %S" path resp)
           [ "/metrics"; "/profile"; "/workload" ]);
     if List.exists (fun r -> not r.Warehouse.consistent)
          (Warehouse.reconcile_attribution wh)
     then Alcotest.fail "attribution does not reconcile";
     Warehouse.close wh;
     remove dir;
     Telemetry.snapshot ()
     |> List.map (fun (s : Telemetry.Metrics.snap) -> s.s_name)
     |> List.sort_uniq String.compare)

let walk_tests =
  [
    test "every registered metric has a reader" (fun () ->
        match
          List.filter
            (fun name -> not (List.mem_assoc name readers))
            (Lazy.force registered)
        with
        | [] -> ()
        | unread ->
          Alcotest.failf
            "registered with no reader (add a reader to the table or \
             delete the metric): %s"
            (String.concat ", " unread));
    test "every reader's metric is registered by the run" (fun () ->
        let names = Lazy.force registered in
        match
          List.filter (fun (name, _) -> not (List.mem name names)) readers
        with
        | [] -> ()
        | stale ->
          Alcotest.failf "listed but never registered: %s"
            (String.concat ", " (List.map fst stale)));
  ]

let () = Alcotest.run "metric_readers" [ ("registry walk", walk_tests) ]
