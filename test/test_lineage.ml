(* The lineage & attribution layer: per-batch lineage records agree with
   the engine counters under serial and netted apply, rolled-back
   transactions never emit a record, the drift auditor and the savings
   attribution reconcile against live maintenance state, and the
   rotation/percentile satellites behave. *)

open Helpers
module Metrics = Telemetry.Metrics
module Counter = Telemetry.Counter
module Histogram = Telemetry.Histogram
module Lineage = Telemetry.Lineage
module Jsonl_sink = Telemetry.Jsonl_sink
module Attribution = Mindetail.Attribution
module Engine = Maintenance.Engine
module Faults = Maintenance.Faults

let test case fn = Alcotest.test_case case `Quick fn
let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name
let counter_value ?labels name = Counter.value (Counter.make ?labels name)

let tiny =
  {
    Workload.Retail.days = 6;
    stores = 2;
    products = 10;
    sold_per_store_day = 3;
    tx_per_product = 2;
    brands = 3;
    seed = 7;
  }

let fresh_id = ref 3_000_000

let next_id () =
  incr fresh_id;
  !fresh_id

let valid_sale () =
  Delta.insert "sale" (row [ i (next_id ()); i 1; i 1; i 1; i 12 ])

(* --- per-batch records vs. engine counters ------------------------------- *)

let record_tests =
  [
    test "a committed batch leaves one record matching the counters"
      (fun () ->
        Metrics.reset ();
        Lineage.clear ();
        let db = Workload.Retail.load tiny in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.monthly_revenue;
        let mirror =
          Engine.init db
            (Mindetail.Derive.derive db Workload.Retail.monthly_revenue)
        in
        Metrics.reset ();
        Lineage.clear ();
        let rng = Workload.Prng.create 5 in
        let deltas = Workload.Delta_gen.stream rng db ~n:25 in
        let profile = Engine.net_profile mirror deltas in
        let r = Warehouse.ingest_report wh deltas in
        Alcotest.(check int) "all applied" 25 r.Warehouse.applied;
        match Lineage.recent () with
        | [ rc ] -> (
          Alcotest.(check int) "keyed by WAL seq" r.Warehouse.batch rc.Lineage.txn;
          Alcotest.(check int)
            "table counts cover the batch" 25
            (List.fold_left (fun acc (_, n) -> acc + n) 0 rc.Lineage.tables);
          Alcotest.(check int)
            "records counter" 1
            (counter_value "minview_lineage_records_total");
          match rc.Lineage.flows with
          | [ flow ] ->
            Alcotest.(check string) "mode" "netted" flow.Lineage.mode;
            Alcotest.(check int)
              "deltas_in equals the engine counter"
              (counter_value "minview_engine_deltas_total")
              flow.Lineage.deltas_in;
            Alcotest.(check int)
              "netted equals the compaction profile" profile.Engine.netted
              flow.Lineage.netted;
            Alcotest.(check int)
              "applied equals the compaction profile" profile.Engine.applied
              flow.Lineage.applied
          | l -> Alcotest.fail (Printf.sprintf "got %d flows" (List.length l)))
        | l -> Alcotest.fail (Printf.sprintf "got %d records" (List.length l)));
    test "aux flow deltas track the storage gauges between batches" (fun () ->
        Metrics.reset ();
        Lineage.clear ();
        let db = Workload.Retail.load tiny in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.monthly_revenue;
        let rng = Workload.Prng.create 11 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:10);
        let gauge_of base name =
          List.find_map
            (fun s ->
              match s.Metrics.s_value with
              | Metrics.Gauge_v v
                when String.equal s.Metrics.s_name name
                     && List.assoc_opt "base" s.Metrics.s_labels = Some base ->
                Some (int_of_float v)
              | _ -> None)
            (Metrics.snapshot ())
        in
        let flows_of_last () =
          match Lineage.recent () with
          | [] -> Alcotest.fail "no record"
          | l -> (
            match (List.nth l (List.length l - 1)).Lineage.flows with
            | [ flow ] -> flow.Lineage.aux_flows
            | _ -> Alcotest.fail "expected one flow")
        in
        let before =
          List.map
            (fun (a : Lineage.aux_flow) ->
              ( a.Lineage.base,
                gauge_of a.Lineage.base "minview_aux_resident_rows",
                gauge_of a.Lineage.base "minview_aux_detail_rows" ))
            (flows_of_last ())
        in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:30);
        List.iter
          (fun (a : Lineage.aux_flow) ->
            let _, res0, det0 =
              List.find (fun (b, _, _) -> String.equal b a.Lineage.base) before
            in
            let res1 = gauge_of a.Lineage.base "minview_aux_resident_rows" in
            let det1 = gauge_of a.Lineage.base "minview_aux_detail_rows" in
            Alcotest.(check (option int))
              (a.Lineage.base ^ " resident delta")
              (Option.map (fun v -> v + a.Lineage.resident_delta) res0)
              res1;
            Alcotest.(check (option int))
              (a.Lineage.base ^ " detail delta")
              (Option.map (fun v -> v + a.Lineage.detail_delta) det0)
              det1;
            Alcotest.(check int)
              (a.Lineage.base ^ " folded")
              (max 0 (a.Lineage.detail_delta - a.Lineage.resident_delta))
              a.Lineage.folded)
          (flows_of_last ()));
    test "netted apply records the same flow as serial and the counters"
      (fun () ->
        Metrics.reset ();
        Lineage.clear ();
        let db = Workload.Retail.load tiny in
        let build () =
          Engine.init db
            (Mindetail.Derive.derive db Workload.Retail.monthly_revenue)
        in
        let ser = build () in
        let rng = Workload.Prng.create 13 in
        apply_each Engine.apply_batch ser
          (Workload.Delta_gen.stream rng db ~n:40);
        (* the netted twin is built from the source the serial engine
           has absorbed *)
        let par = build () in
        let batch = Workload.Delta_gen.stream rng db ~n:120 in
        let profile = Engine.net_profile ser batch in
        (* the serial flow: the sum of one flow per delta *)
        let serial_flow =
          List.fold_left
            (fun (acc : Lineage.view_flow option) d ->
              Engine.apply_batch ser [ d ];
              let f = Option.get (Engine.last_flow ser) in
              match acc with
              | None -> Some f
              | Some a ->
                Some
                  {
                    a with
                    Lineage.deltas_in = a.Lineage.deltas_in + f.Lineage.deltas_in;
                    group_delta = a.Lineage.group_delta + f.Lineage.group_delta;
                    aux_flows =
                      List.map2
                        (fun (x : Lineage.aux_flow) (y : Lineage.aux_flow) ->
                          {
                            x with
                            Lineage.resident_delta =
                              x.Lineage.resident_delta + y.Lineage.resident_delta;
                            detail_delta =
                              x.Lineage.detail_delta + y.Lineage.detail_delta;
                          })
                        a.Lineage.aux_flows f.Lineage.aux_flows;
                  })
            None batch
          |> Option.get
        in
        Metrics.reset ();
        Engine.apply_batch par batch;
        let flow = Option.get (Engine.last_flow par) in
        Alcotest.(check string) "mode" "netted" flow.Lineage.mode;
        Alcotest.(check int)
          "deltas_in equals the engine counter"
          (counter_value "minview_engine_deltas_total")
          flow.Lineage.deltas_in;
        Alcotest.(check int)
          "netted equals the engine counter"
          (counter_value "minview_engine_deltas_netted_total")
          flow.Lineage.netted;
        Alcotest.(check int)
          "netted equals the compaction profile" profile.Engine.netted
          flow.Lineage.netted;
        Alcotest.(check int)
          "applied equals the engine counter"
          (counter_value "minview_engine_ops_applied_total")
          flow.Lineage.applied;
        Alcotest.(check int)
          "applied equals the compaction profile" profile.Engine.applied
          flow.Lineage.applied;
        (* the net flow through the auxviews and the view is mode-invariant *)
        Alcotest.(check int)
          "group delta agrees with serial" serial_flow.Lineage.group_delta
          flow.Lineage.group_delta;
        Alcotest.(check int)
          "deltas_in agrees with serial" serial_flow.Lineage.deltas_in
          flow.Lineage.deltas_in;
        List.iter2
          (fun (a : Lineage.aux_flow) (b : Lineage.aux_flow) ->
            Alcotest.(check string) "same aux" a.Lineage.aux b.Lineage.aux;
            Alcotest.(check int)
              (a.Lineage.base ^ " resident agrees") a.Lineage.resident_delta
              b.Lineage.resident_delta;
            Alcotest.(check int)
              (a.Lineage.base ^ " detail agrees") a.Lineage.detail_delta
              b.Lineage.detail_delta)
          serial_flow.Lineage.aux_flows flow.Lineage.aux_flows);
    test "a rolled-back transaction emits no record" (fun () ->
        Metrics.reset ();
        Lineage.clear ();
        let db = paper_example_db () in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.product_sales;
        Warehouse.add_view wh Workload.Retail.sales_by_time;
        Metrics.reset ();
        Lineage.clear ();
        let r1 = Warehouse.ingest_report wh [ valid_sale () ] in
        Alcotest.(check int) "clean batch applies" 1 r1.Warehouse.applied;
        Alcotest.(check int) "one record" 1 (List.length (Lineage.recent ()));
        let repricing =
          Delta.update "sale"
            ~before:(row [ i 1; i 1; i 1; i 1; i 10 ])
            ~after:(row [ i 1; i 1; i 1; i 1; i 50 ])
        in
        (* an engine fails after the first view has applied the batch *)
        Faults.arm ~mode:Faults.Fail Faults.Mid_engine_apply;
        let r2 =
          Fun.protect ~finally:Faults.disarm @@ fun () ->
          Warehouse.ingest_report wh [ repricing ]
        in
        Alcotest.(check int) "poisoned batch aborts" 0 r2.Warehouse.applied;
        Alcotest.(check int)
          "one rollback" 1
          (counter_value "minview_warehouse_txn_rollbacks_total");
        (match Lineage.recent () with
        | [ rc ] ->
          Alcotest.(check int)
            "the surviving record is the committed txn" r1.Warehouse.batch
            rc.Lineage.txn
        | l -> Alcotest.fail (Printf.sprintf "got %d records" (List.length l)));
        Alcotest.(check int)
          "records counter untouched by the rollback" 1
          (counter_value "minview_lineage_records_total"));
    test "the ring filters by transaction and by table" (fun () ->
        Metrics.reset ();
        Lineage.clear ();
        let db = paper_example_db () in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.product_sales;
        ignore (Warehouse.ingest_report wh [ valid_sale () ]);
        ignore
          (Warehouse.ingest_report wh
             [ Delta.insert "time" (row [ i 9; i 9; i 3; i 1997 ]) ]);
        ignore (Warehouse.ingest_report wh [ valid_sale (); valid_sale () ]);
        Alcotest.(check int) "all records" 3 (List.length (Lineage.recent ()));
        (match Lineage.recent ~txn:2 () with
        | [ rc ] ->
          Alcotest.(check (list (pair string int)))
            "txn 2 touched time" [ ("time", 1) ] rc.Lineage.tables
        | l -> Alcotest.fail (Printf.sprintf "got %d records" (List.length l)));
        Alcotest.(check int)
          "two batches touched sale" 2
          (List.length (Lineage.recent ~table:"sale" ()));
        Alcotest.(check int)
          "none touched product" 0
          (List.length (Lineage.recent ~table:"product" ())));
    test "the ring keeps the newest records past its capacity" (fun () ->
        Lineage.clear ();
        let extra = 37 in
        let n = Lineage.ring_capacity + extra in
        (* odd transactions touch "a", even ones "b" *)
        for txn = 1 to n do
          Lineage.emit
            {
              Lineage.txn;
              tables = [ ((if txn mod 2 = 1 then "a" else "b"), 1) ];
              flows = [];
            }
        done;
        let txns = List.map (fun (r : Lineage.record) -> r.txn) in
        Alcotest.(check (list int))
          "the newest ring_capacity, oldest first"
          (List.init Lineage.ring_capacity (fun k -> extra + 1 + k))
          (txns (Lineage.recent ()));
        Alcotest.(check (list int))
          "~txn finds a kept record" [ n ]
          (txns (Lineage.recent ~txn:n ()));
        Alcotest.(check (list int))
          "~txn misses an overwritten one" []
          (txns (Lineage.recent ~txn:extra ()));
        Alcotest.(check (list int))
          "~table filters the kept records"
          (List.filter
             (fun t -> t mod 2 = 0)
             (List.init Lineage.ring_capacity (fun k -> extra + 1 + k)))
          (txns (Lineage.recent ~table:"b" ()));
        Lineage.clear ();
        Alcotest.(check int) "clear empties the ring" 0
          (List.length (Lineage.recent ()));
        Lineage.emit { Lineage.txn = 1; tables = []; flows = [] };
        Alcotest.(check (list int))
          "the ring refills from empty" [ 1 ]
          (txns (Lineage.recent ())));
    test "records append to the sink as one JSON object per line" (fun () ->
        Metrics.reset ();
        Lineage.clear ();
        let path = tmp "tele_lineage_sink.jsonl" in
        if Sys.file_exists path then Sys.remove path;
        Lineage.set_sink (Some path);
        Alcotest.(check (option string))
          "sink path" (Some path) (Lineage.sink_path ());
        let rc =
          { Lineage.txn = 42; tables = [ ("t", 1) ]; flows = [] }
        in
        Lineage.emit rc;
        Lineage.emit { rc with Lineage.txn = 43 };
        Lineage.set_sink None;
        let ic = open_in path in
        let l1 = input_line ic in
        let l2 = input_line ic in
        close_in ic;
        Alcotest.(check string)
          "line 1" {|{"txn":42,"tables":{"t":1},"flows":[]}|} l1;
        Alcotest.(check bool) "line 2 is txn 43" true (contains l2 {|"txn":43|}));
    test "disabled telemetry emits nothing" (fun () ->
        Metrics.reset ();
        Lineage.clear ();
        Telemetry.set_enabled false;
        Fun.protect
          ~finally:(fun () -> Telemetry.set_enabled true)
          (fun () ->
            Lineage.emit { Lineage.txn = 1; tables = []; flows = [] });
        Alcotest.(check int) "ring empty" 0 (List.length (Lineage.recent ())));
  ]

(* --- drift auditor -------------------------------------------------------- *)

let audit_tests =
  [
    test "sample_indices is deterministic, evenly spaced and clamped" (fun () ->
        Alcotest.(check (list int))
          "3 of 9" [ 0; 3; 6 ]
          (Lineage.sample_indices ~sample:3 ~total:9);
        Alcotest.(check (list int))
          "oversampling takes everything" [ 0; 1; 2 ]
          (Lineage.sample_indices ~sample:10 ~total:3);
        Alcotest.(check (list int))
          "zero sample" []
          (Lineage.sample_indices ~sample:0 ~total:9);
        Alcotest.(check (list int))
          "empty population" []
          (Lineage.sample_indices ~sample:4 ~total:0));
    test "the harness counts checks and divergences per view" (fun () ->
        Metrics.reset ();
        let checked, divergences =
          Lineage.audit ~view:"v1" ~sample:5 ~total:5 ~check:(fun idx ->
              idx <> 2)
        in
        Alcotest.(check (pair int int)) "result" (5, 1) (checked, divergences);
        Alcotest.(check int)
          "checked counter" 5
          (counter_value
             ~labels:[ ("view", "v1") ]
             "minview_lineage_audit_checked_total");
        Alcotest.(check int)
          "divergence counter" 1
          (counter_value
             ~labels:[ ("view", "v1") ]
             "minview_lineage_audit_divergences_total");
        (* a clean audit registers its divergence series at 0, so a scrape
           tells it from no audit at all *)
        ignore
          (Lineage.audit ~view:"v2" ~sample:3 ~total:3 ~check:(fun _ -> true));
        Alcotest.(check (list int))
          "clean audit's divergence series" [ 0 ]
          (List.filter_map
             (fun (m : Metrics.snap) ->
               match m.Metrics.s_value with
               | Metrics.Counter_v n
                 when String.equal m.Metrics.s_name
                        "minview_lineage_audit_divergences_total"
                      && m.Metrics.s_labels = [ ("view", "v2") ] ->
                 Some n
               | _ -> None)
             (Metrics.snapshot ())));
    test "a maintained warehouse self-audits clean" (fun () ->
        Metrics.reset ();
        Lineage.clear ();
        let db = Workload.Retail.load tiny in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.monthly_revenue;
        let rng = Workload.Prng.create 3 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:60);
        (match Warehouse.self_audit wh ~sample:8 with
        | [ (name, checked, divergences) ] ->
          Alcotest.(check string) "view" "monthly_revenue" name;
          Alcotest.(check bool) "something checked" true (checked > 0);
          Alcotest.(check int) "no divergence" 0 divergences
        | l -> Alcotest.fail (Printf.sprintf "got %d audits" (List.length l)));
        Alcotest.(check (list (pair string bool)))
          "sampled audit passes"
          [ ("monthly_revenue", true) ]
          (Warehouse.audit ~sample:8 wh
             ~reference:(Warehouse.believed_source wh)));
    test "views without retained detail fall back to the full comparison"
      (fun () ->
        let db = Workload.Retail.load tiny in
        let wh = Warehouse.create db in
        Warehouse.add_view ~strategy:Warehouse.Replicate wh
          Workload.Retail.monthly_revenue;
        Alcotest.(check (list (pair string bool)))
          "replica audits through reference"
          [ ("monthly_revenue", true) ]
          (Warehouse.audit ~sample:4 wh
             ~reference:(Warehouse.believed_source wh));
        Alcotest.(check int)
          "no self-audit entry" 0
          (List.length (Warehouse.self_audit wh ~sample:4)));
  ]

(* --- savings attribution -------------------------------------------------- *)

let attribution_tests =
  [
    test "the waterfall telescopes exactly on the paper's example" (fun () ->
        let db = paper_example_db () in
        let d = Mindetail.Derive.derive db Workload.Retail.product_sales in
        let attrs = Attribution.measure db d in
        Alcotest.(check int) "one entry per view table" 3 (List.length attrs);
        List.iter
          (fun (a : Attribution.t) ->
            let b = Attribution.bytes a in
            Alcotest.(check int)
              (a.Attribution.table ^ " telescopes")
              b.Attribution.raw_bytes
              (b.Attribution.local_selection + b.Attribution.local_projection
              + b.Attribution.join_reduction + b.Attribution.compression
              + b.Attribution.elimination + b.Attribution.stored_bytes);
            if not a.Attribution.retained then
              Alcotest.(check int)
                (a.Attribution.table ^ " omitted stores nothing")
                0 b.Attribution.stored_bytes)
          attrs;
        let sale =
          List.find
            (fun (a : Attribution.t) ->
              String.equal a.Attribution.table "sale")
            attrs
        in
        (* 7 sales fold into 4 distinct (timeid, productid) groups — price
           is absorbed into a SUM by Algorithm 3.1, so it does not split
           the groups *)
        Alcotest.(check int) "7 raw sales" 7 sale.Attribution.raw_rows;
        Alcotest.(check int) "7 survive the joins" 7
          sale.Attribution.rows_after_join;
        Alcotest.(check int) "4 resident groups" 4
          sale.Attribution.resident_rows;
        Alcotest.(check (float 1e-9))
          "fold factor" (7. /. 4.)
          (Attribution.fold_factor sale);
        let time =
          List.find
            (fun (a : Attribution.t) ->
              String.equal a.Attribution.table "time")
            attrs
        in
        Alcotest.(check int)
          "the 1996 row falls to local selection" 3
          time.Attribution.rows_after_local);
    test "attribution reconciles with the live gauges after ingestion"
      (fun () ->
        Metrics.reset ();
        Lineage.clear ();
        let db = Workload.Retail.load tiny in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.monthly_revenue;
        let rng = Workload.Prng.create 17 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:80);
        let recs = Warehouse.reconcile_attribution wh in
        Alcotest.(check bool) "has auxviews" true (recs <> []);
        List.iter
          (fun (r : Warehouse.reconciliation) ->
            Alcotest.(check bool)
              (r.Warehouse.rec_aux ^ " reconciles within one row")
              true r.Warehouse.consistent;
            Alcotest.(check int)
              (r.Warehouse.rec_aux ^ " resident matches exactly")
              r.Warehouse.gauge_resident r.Warehouse.measured_resident;
            Alcotest.(check int)
              (r.Warehouse.rec_aux ^ " detail matches exactly")
              r.Warehouse.gauge_detail r.Warehouse.measured_detail)
          recs);
    test "rendering carries the technique columns and the row flow" (fun () ->
        let db = paper_example_db () in
        let d = Mindetail.Derive.derive db Workload.Retail.product_sales in
        let attrs = Attribution.measure db d in
        let table = Attribution.render ~view:"product_sales" attrs in
        List.iter
          (fun needle ->
            Alcotest.(check bool) (needle ^ " present") true
              (contains table needle))
          [ "local sel"; "dup comp"; "eliminated"; "TOTAL"; "row flow:" ];
        let js = Attribution.to_json ~view:"product_sales" (List.hd attrs) in
        Alcotest.(check bool) "json has bytes" true (contains js "\"bytes\""));
  ]

(* --- satellite: jsonl sink rotation --------------------------------------- *)

let rotation_tests =
  [
    test "the sink rotates at the byte cap and keeps N files" (fun () ->
        let path = tmp "tele_rotate.jsonl" in
        List.iter
          (fun p -> if Sys.file_exists p then Sys.remove p)
          [ path; path ^ ".1"; path ^ ".2"; path ^ ".3" ];
        let s = Jsonl_sink.open_ ~max_bytes:100 ~keep:3 path in
        let line = Printf.sprintf "{\"n\":%d,\"pad\":\"0123456789012345\"}" in
        for n = 1 to 20 do
          Jsonl_sink.write_line s (line n)
        done;
        Jsonl_sink.close s;
        Alcotest.(check bool) "live file" true (Sys.file_exists path);
        Alcotest.(check bool) "first rotation" true
          (Sys.file_exists (path ^ ".1"));
        Alcotest.(check bool) "second rotation" true
          (Sys.file_exists (path ^ ".2"));
        Alcotest.(check bool) "keep=3 bounds the set" false
          (Sys.file_exists (path ^ ".3"));
        (* newest data stays in the live file *)
        let ic = open_in path in
        let last = ref "" in
        (try
           while true do
             last := input_line ic
           done
         with End_of_file -> ());
        close_in ic;
        Alcotest.(check string) "newest line last" (line 20) !last);
    test "a zero cap disables rotation" (fun () ->
        let path = tmp "tele_norotate.jsonl" in
        List.iter
          (fun p -> if Sys.file_exists p then Sys.remove p)
          [ path; path ^ ".1" ];
        let s = Jsonl_sink.open_ ~max_bytes:0 ~keep:3 path in
        for n = 1 to 200 do
          Jsonl_sink.write_line s (Printf.sprintf "{\"n\":%d}" n)
        done;
        Jsonl_sink.close s;
        Alcotest.(check bool) "no rotation" false
          (Sys.file_exists (path ^ ".1")));
  ]

(* --- satellite: histogram percentiles ------------------------------------- *)

let hist_snapshot name =
  List.find_map
    (fun s ->
      match s.Metrics.s_value with
      | Metrics.Histogram_v h when String.equal s.Metrics.s_name name -> Some h
      | _ -> None)
    (Metrics.snapshot ())

let percentile_tests =
  [
    test "percentiles interpolate inside the log-scale buckets" (fun () ->
        Metrics.reset ();
        let h = Histogram.make ~lo:1. ~factor:2. ~buckets:4 "lin_test_pct" in
        for _ = 1 to 50 do
          Histogram.observe h 1.0
        done;
        for _ = 1 to 50 do
          Histogram.observe h 4.0
        done;
        let snap = Option.get (hist_snapshot "lin_test_pct") in
        Alcotest.(check (float 1e-9))
          "p50 sits at the low edge" 1.0
          (Metrics.percentile snap 0.50);
        Alcotest.(check (float 1e-9))
          "p95 interpolates (2,4]" 3.8
          (Metrics.percentile snap 0.95);
        Alcotest.(check (float 1e-9))
          "p99 interpolates (2,4]" 3.96
          (Metrics.percentile snap 0.99);
        Alcotest.(check (float 1e-9))
          "p100 is the bucket top" 4.0
          (Metrics.percentile snap 1.0);
        Alcotest.(check bool)
          "empty histogram has no percentile" true
          (Float.is_nan
             (Metrics.percentile
                (Option.get (hist_snapshot "lin_test_pct"))
                Float.nan)));
    test "the exports carry the percentile estimates" (fun () ->
        Metrics.reset ();
        let h = Histogram.make "lin_test_export" in
        Histogram.observe h 0.5;
        Alcotest.(check bool) "json dump" true
          (contains (Telemetry.dump_json ()) "\"p50\":");
        let prom = Telemetry.to_prometheus () in
        Alcotest.(check bool) "prometheus p50 family" true
          (contains prom "lin_test_export_p50");
        Alcotest.(check bool) "prometheus p99 family" true
          (contains prom "lin_test_export_p99"));
  ]

let () =
  Alcotest.run "lineage"
    [
      ("records", record_tests); ("drift-audit", audit_tests);
      ("attribution", attribution_tests); ("sink-rotation", rotation_tests);
      ("percentiles", percentile_tests);
    ]
