(* Every metric has a reader. One representative run reaches every
   registration site in lib/ (ingest with no pool and on the netted
   path, an injected engine failure, checkpoint and recover, a
   self-audit, a slow serve QUERY, exporter scrapes and the attribution
   reconciliation), then the registry is walked against
   [readers]: a registered name without an entry fails, and so does an
   entry the run never registered. This file is its own test executable,
   so no other test's ad-hoc metrics reach the registry it walks.

   A reader is whatever pins the metric: a test or cram file that checks
   it, a CLI verb or bench that reads it, or the TUTORIAL section that
   answers an operator question with it. CI greps lib/ for metric name
   literals and fails on one missing here, which also covers names only
   registered on paths this run cannot reach. The fields of the workload
   profile and of the lineage records are walked the same way against
   [field_readers]. *)

open Helpers
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
    ("minview_engine_ops_applied_total", "test_lineage.ml; test_telemetry.ml");
    ("minview_engine_phase_alloc_bytes", "test_exporter.ml; TUTORIAL.md");
    ("minview_engine_phase_seconds", "perfbench/pipeline.ml");
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

(* Every field of the two JSON documents telemetry writes, with its
   reader: the workload profile ([Workload.profile_json] and [view_json],
   prefix "profile.") and a lineage record ([Lineage.record_to_json],
   prefix "lineage."). The run below walks both documents against this
   table as it walks the registry against [readers]; CI greps those
   writers for field names missing here. A lineage record's "tables"
   object is keyed by table name, so its keys are data, not fields. *)
let field_readers =
  [
    ("profile.schema", "Workload.load_profile; minview profile");
    ( "profile.generated_unix_s",
      "minview profile --json (masked in test/cram/profile.t)" );
    ("profile.elapsed_s", "Workload.load_profile; minview profile");
    ("profile.views", "Workload.load_profile; minview profile");
    ("profile.view", "Workload.load_profile; minview profile");
    ("profile.writes", "Workload.load_profile; minview profile");
    ("profile.write_events", "Workload.load_profile; test_workload_profile.ml");
    ("profile.batches", "Workload.load_profile; test_workload_profile.ml");
    ("profile.deltas_in", "Workload.load_profile; test/cram/profile.t");
    ("profile.netted", "Workload.load_profile; test/cram/profile.t");
    ("profile.applied", "Workload.load_profile; test/cram/profile.t");
    ("profile.reads", "Workload.load_profile; minview profile");
    ("profile.query", "Workload.load_profile; minview profile");
    ("profile.reconstruct", "Workload.load_profile; minview profile");
    ("profile.write_rate_per_s", "test_workload_profile.ml");
    ("profile.read_rate_per_s", "test_workload_profile.ml");
    ("profile.update_read_ratio", "minview profile; test/cram/profile.t");
    ("profile.skew", "minview profile; test/cram/profile.t");
    ("profile.hot_key_share", "minview profile; CI's workload-profile job");
    ("profile.compaction_ratio", "minview profile; test/cram/profile.t");
    ("profile.hot_keys", "Workload.load_profile; minview profile");
    ("profile.key", "Workload.load_profile; minview profile");
    ("profile.hash", "Workload.load_profile; test/cram/profile.t");
    ("profile.est", "Workload.load_profile; minview profile");
    ("profile.err", "Workload.load_profile; minview profile");
    ("profile.sketch_total", "Workload.load_profile; test_workload_profile.ml");
    ("profile.epoch_lag", "minview profile; test_workload_profile.ml");
    ("profile.count", "minview profile; test_workload_profile.ml");
    ("profile.p50", "minview profile");
    ("profile.p95", "minview profile");
    ("profile.p99", "minview profile");
    ("profile.max", "minview profile");
    ("lineage.txn", "Lineage.recent ~txn; test/cram/lineage.t");
    ("lineage.tables", "Lineage.recent ~table; test/cram/lineage.t");
    ("lineage.flows", "minview lineage; test/cram/lineage.t");
    ("lineage.view", "minview lineage; test/cram/lineage.t");
    ("lineage.mode", "minview lineage; test_lineage.ml");
    ("lineage.deltas_in", "perfbench/pipeline.ml; test_lineage.ml");
    ("lineage.netted", "perfbench/pipeline.ml; test_lineage.ml");
    ("lineage.applied", "perfbench/pipeline.ml; test_lineage.ml");
    ("lineage.group_delta", "minview lineage; test_lineage.ml");
    ("lineage.aux", "minview lineage; test/cram/lineage.t");
    ("lineage.base", "minview lineage; test/cram/lineage.t");
    ("lineage.resident_delta", "minview lineage; test_lineage.ml");
    ("lineage.detail_delta", "minview lineage; test_lineage.ml");
    ("lineage.folded", "minview lineage; test_lineage.ml");
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

(* Every field name of a document, prefixed; a lineage record's "tables"
   object is keyed by data. *)
let rec fields prefix acc = function
  | Telemetry.Json.Obj kvs ->
    List.fold_left
      (fun acc (k, v) ->
        let acc = (prefix ^ "." ^ k) :: acc in
        if prefix = "lineage" && k = "tables" then acc else fields prefix acc v)
      acc kvs
  | Telemetry.Json.Arr l -> List.fold_left (fields prefix) acc l
  | Null | Bool _ | Num _ | Str _ -> acc

let registered =
  lazy
    (let db = Workload.Retail.load tiny in
     let wh = Warehouse.create db in
     Warehouse.add_view wh Workload.Retail.product_sales;
     Warehouse.add_view wh Workload.Retail.sales_by_time;
     let dir = fresh_dir () in
     Warehouse.attach wh ~dir;
     Warehouse.ingest wh (sale_batch 0);
     Warehouse.ingest wh (sale_batch 1);
     (* a recoverable engine failure: rolled back and quarantined *)
     Faults.arm ~mode:Faults.Fail Faults.Mid_engine_apply;
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
     let documents =
       ("profile", Telemetry.Workload.profile_json ())
       :: List.map
            (fun r -> ("lineage", Telemetry.Lineage.record_to_json r))
            (Telemetry.Lineage.recent ())
     in
     Warehouse.close wh;
     remove dir;
     ( Telemetry.snapshot ()
       |> List.map (fun (s : Telemetry.Metrics.snap) -> s.s_name)
       |> List.sort_uniq String.compare,
       List.concat_map
         (fun (prefix, json) ->
           fields prefix [] (Telemetry.Json.parse_exn json))
         documents
       |> List.sort_uniq String.compare ))

let registered_metrics = lazy (fst (Lazy.force registered))
let written_fields = lazy (snd (Lazy.force registered))

let walk_tests =
  [
    test "every registered metric has a reader" (fun () ->
        match
          List.filter
            (fun name -> not (List.mem_assoc name readers))
            (Lazy.force registered_metrics)
        with
        | [] -> ()
        | unread ->
          Alcotest.failf
            "registered with no reader (add a reader to the table or \
             delete the metric): %s"
            (String.concat ", " unread));
    test "every reader's metric is registered by the run" (fun () ->
        let names = Lazy.force registered_metrics in
        match
          List.filter (fun (name, _) -> not (List.mem name names)) readers
        with
        | [] -> ()
        | stale ->
          Alcotest.failf "listed but never registered: %s"
            (String.concat ", " (List.map fst stale)));
    test "every field of the profile and of a lineage record has a reader"
      (fun () ->
        match
          List.filter
            (fun name -> not (List.mem_assoc name field_readers))
            (Lazy.force written_fields)
        with
        | [] -> ()
        | unread ->
          Alcotest.failf
            "written with no reader (add a reader to field_readers or \
             delete the field): %s"
            (String.concat ", " unread));
    test "every field reader's field is written by the run" (fun () ->
        let names = Lazy.force written_fields in
        match
          List.filter
            (fun (name, _) -> not (List.mem name names))
            field_readers
        with
        | [] -> ()
        | stale ->
          Alcotest.failf "listed but never written: %s"
            (String.concat ", " (List.map fst stale)));
  ]

let () = Alcotest.run "metric_readers" [ ("registry walk", walk_tests) ]
