(* The telemetry layer: histogram bucket geometry, registry semantics,
   concurrent writes from many domains, the per-delta-vs-netted logical-counter
   property, the warehouse rollback/recovery/fault counters, the trace
   ring, and the exact allocation cost of telemetry on an ingest. *)

open Helpers
module Metrics = Telemetry.Metrics
module Counter = Telemetry.Counter
module Gauge = Telemetry.Gauge
module Histogram = Telemetry.Histogram
module Trace = Telemetry.Trace
module Engine = Maintenance.Engine
module Engines = Maintenance.Engines
module Faults = Maintenance.Faults

let test case fn = Alcotest.test_case case `Quick fn
let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let fresh_dir name =
  let dir = tmp name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

(* fetch-by-make: registration is idempotent, so re-making a metric with the
   same (name, labels) returns the live handle *)
let counter_value ?labels name = Counter.value (Counter.make ?labels name)

(* --- histogram bucket geometry ------------------------------------------ *)

let histogram_tests =
  [
    test "bucket edges are inclusive upper bounds" (fun () ->
        Metrics.reset ();
        let h =
          Histogram.make ~lo:1. ~factor:2. ~buckets:4 "tele_test_edges"
        in
        Alcotest.(check (array (float 1e-9)))
          "bounds" [| 1.; 2.; 4.; infinity |] (Histogram.bucket_bounds h);
        (* bucket 0 holds v <= lo, including everything below *)
        List.iter (Histogram.observe h) [ 0.0; 0.5; 1.0 ];
        (* bucket 1 is (1, 2] — both edges checked *)
        List.iter (Histogram.observe h) [ 1.0000001; 2.0 ];
        (* bucket 2 is (2, 4] *)
        List.iter (Histogram.observe h) [ 2.1; 4.0 ];
        (* the last bucket is the +Inf overflow *)
        List.iter (Histogram.observe h) [ 4.1; 1e12 ];
        Alcotest.(check (array int))
          "per-bucket counts" [| 3; 2; 2; 2 |] (Histogram.bucket_counts h);
        Alcotest.(check int) "count" 9 (Histogram.count h);
        Alcotest.(check (float 1e-9)) "min" 0.0 (Histogram.min_value h);
        Alcotest.(check (float 1e-3)) "max" 1e12 (Histogram.max_value h));
    test "sum and emptiness" (fun () ->
        Metrics.reset ();
        let h = Histogram.make "tele_test_sum" in
        Alcotest.(check int) "empty count" 0 (Histogram.count h);
        Alcotest.(check bool)
          "empty min is nan" true
          (Float.is_nan (Histogram.min_value h));
        Histogram.observe h 0.25;
        Histogram.observe h 0.75;
        Alcotest.(check (float 1e-9)) "sum" 1.0 (Histogram.sum h));
    test "time observes the thunk duration, also on exception" (fun () ->
        Metrics.reset ();
        let h = Histogram.make "tele_test_time" in
        Alcotest.(check int) "result" 7 (Histogram.time h (fun () -> 7));
        (match Histogram.time h (fun () -> failwith "boom") with
        | _ -> Alcotest.fail "exception must propagate"
        | exception Failure _ -> ());
        Alcotest.(check int) "both runs observed" 2 (Histogram.count h));
    test "default layout has 40 buckets from 1 microsecond" (fun () ->
        Metrics.reset ();
        let h = Histogram.make "tele_test_default" in
        let bounds = Histogram.bucket_bounds h in
        Alcotest.(check int) "bucket count" 40 (Array.length bounds);
        Alcotest.(check (float 1e-12)) "first bound" 1e-6 bounds.(0));
  ]

(* --- registry semantics -------------------------------------------------- *)

let registry_tests =
  [
    test "make is idempotent: same handle state" (fun () ->
        Metrics.reset ();
        let a = Counter.make ~labels:[ ("k", "v") ] "tele_test_idem" in
        let b = Counter.make ~labels:[ ("k", "v") ] "tele_test_idem" in
        Counter.inc a 3;
        Counter.one b;
        Alcotest.(check int) "shared" 4 (Counter.value a);
        Alcotest.(check int) "shared" 4 (Counter.value b));
    test "label order does not split the metric" (fun () ->
        Metrics.reset ();
        let a =
          Counter.make ~labels:[ ("a", "1"); ("b", "2") ] "tele_test_order"
        in
        let b =
          Counter.make ~labels:[ ("b", "2"); ("a", "1") ] "tele_test_order"
        in
        Counter.one a;
        Alcotest.(check int) "same cell" 1 (Counter.value b));
    test "a kind clash is refused" (fun () ->
        let _ = Counter.make "tele_test_clash" in
        match Gauge.make "tele_test_clash" with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    test "disabled writes are dropped, reads still work" (fun () ->
        Metrics.reset ();
        let c = Counter.make "tele_test_off" in
        Telemetry.set_enabled false;
        Fun.protect
          ~finally:(fun () -> Telemetry.set_enabled true)
          (fun () -> Counter.inc c 5);
        Counter.one c;
        Alcotest.(check int) "only the enabled write" 1 (Counter.value c));
    test "snapshot sorts by name then labels and sorts label lists" (fun () ->
        Metrics.reset ();
        let _ = Counter.make ~labels:[ ("z", "1"); ("a", "2") ] "tele_test_snap" in
        let snaps =
          List.filter
            (fun s -> s.Metrics.s_name = "tele_test_snap")
            (Metrics.snapshot ())
        in
        match snaps with
        | [ s ] ->
          Alcotest.(check (list (pair string string)))
            "labels sorted" [ ("a", "2"); ("z", "1") ] s.Metrics.s_labels
        | l -> Alcotest.fail (Printf.sprintf "got %d snaps" (List.length l)));
  ]

(* --- concurrent writers -------------------------------------------------- *)

let concurrent_tests =
  [
    test "concurrent writes from many domains into one cell add up" (fun () ->
        Metrics.reset ();
        let c = Counter.make "tele_test_domains" in
        let h = Histogram.make ~lo:1. ~factor:2. ~buckets:4 "tele_test_dhist" in
        let per_domain = 10_000 in
        let worker () =
          for k = 1 to per_domain do
            Counter.one c;
            Histogram.observe h (float_of_int (k mod 5))
          done
        in
        let domains = List.init 4 (fun _ -> Domain.spawn worker) in
        worker ();
        List.iter Domain.join domains;
        Alcotest.(check int) "counter total" (5 * per_domain) (Counter.value c);
        Alcotest.(check int) "histogram count" (5 * per_domain)
          (Histogram.count h);
        Alcotest.(check (float 1e-9)) "min across domains" 0.
          (Histogram.min_value h);
        Alcotest.(check (float 1e-9)) "max across domains" 4.
          (Histogram.max_value h));
  ]

(* --- serial vs parallel: identical logical counters ---------------------- *)

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

(* storage gauges under a name prefix, as (name, labels, value) triples *)
let storage_gauges () =
  List.filter_map
    (fun s ->
      match s.Metrics.s_value with
      | Metrics.Gauge_v v
        when String.starts_with ~prefix:"minview_aux_" s.Metrics.s_name
             || String.equal s.Metrics.s_name "minview_view_groups" ->
        Some (s.Metrics.s_name, s.Metrics.s_labels, v)
      | _ -> None)
    (Metrics.snapshot ())

(* The property: the logical counters — deltas seen, deltas surviving
   compaction, operations applied, and the storage gauges after the flush —
   must describe the same deltas identically whether they were applied one
   per batch or as one netted batch. Timing histograms differ; the logic
   must not. It is checked for monthly revenue (SUM, AVG, COUNT), product
   sales (with a DISTINCT count) and sales by day, under each of
   [op_mixes]. *)
let serial_parallel_counters view mix seed n () =
  let db = Workload.Retail.load { tiny with seed } in
  let build () = Engine.init db (Mindetail.Derive.derive db view) in
  let serial = build () in
  let rng = Workload.Prng.create ((seed * 31) + 1) in
  apply_each Engine.apply_batch serial
    (Workload.Delta_gen.stream ~mix rng db ~n:40);
  (* the netted twin is built from the source the serial engine has
     absorbed *)
  let par = build () in
  let batch = Workload.Delta_gen.stream ~mix rng db ~n in
  let profile = Engine.net_profile par batch in
  Metrics.reset ();
  apply_each Engine.apply_batch serial batch;
  let serial_deltas = counter_value "minview_engine_deltas_total" in
  let serial_gauges = storage_gauges () in
  Metrics.reset ();
  Engine.apply_batch par batch;
  Alcotest.(check int)
    "deltas_total agrees across modes" serial_deltas
    (counter_value "minview_engine_deltas_total");
  Alcotest.(check int)
    "netted counter = compaction profile" profile.Engine.netted
    (counter_value "minview_engine_deltas_netted_total");
  Alcotest.(check int)
    "applied counter = compaction profile" profile.Engine.applied
    (counter_value "minview_engine_ops_applied_total");
  Alcotest.(check
              (list (triple string (list (pair string string)) (float 1e-9))))
    "storage gauges agree across modes" serial_gauges (storage_gauges ());
  Alcotest.(check bool)
    "states equal" true
    (Engine.equal_state serial par)

let counter_views =
  Workload.Retail.[ ("", monthly_revenue);
                    (" of product_sales", product_sales);
                    (" of sales_by_time", sales_by_time) ]

let property_tests =
  List.concat_map
    (fun (vlabel, view) ->
      List.concat_map
        (fun (mlabel, mix) ->
          List.concat_map
            (fun seed ->
              List.map
                (fun n ->
                  test
                    (Printf.sprintf "logical counters%s: seed %d, batch %d%s"
                       vlabel seed n
                       (if String.equal mlabel "" then "" else ", " ^ mlabel))
                    (serial_parallel_counters view mix seed n))
                [ 10; 120 ])
            [ 3; 11 ])
        op_mixes)
    counter_views

(* --- warehouse counters: rollback, recovery, faults ---------------------- *)

let fresh_id = ref 2_000_000

let next_id () =
  incr fresh_id;
  !fresh_id

let valid_sale () =
  Delta.insert "sale" (row [ i (next_id ()); i 1; i 1; i 1; i 12 ])

let warehouse_tests =
  [
    test "an engine failure bumps the rollback counter" (fun () ->
        Metrics.reset ();
        let db = paper_example_db () in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.product_sales;
        Warehouse.add_view wh Workload.Retail.sales_by_time;
        Metrics.reset ();
        let r1 = Warehouse.ingest_report wh [ valid_sale () ] in
        Alcotest.(check int) "clean batch applies" 1 r1.Warehouse.applied;
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
          "one commit" 1
          (counter_value "minview_warehouse_txn_commits_total");
        Alcotest.(check int)
          "one rollback" 1
          (counter_value "minview_warehouse_txn_rollbacks_total"));
    test "validation rejects count as quarantined, not rollbacks" (fun () ->
        Metrics.reset ();
        let db = Workload.Retail.load tiny in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.monthly_revenue;
        Metrics.reset ();
        let null_insert =
          Delta.insert "sale" (row [ i (next_id ()); i 6; i 1; i 1; Value.Null ])
        in
        let r = Warehouse.ingest_report wh [ null_insert ] in
        Alcotest.(check int) "nothing applied" 0 r.Warehouse.applied;
        Alcotest.(check int)
          "quarantined" 1
          (counter_value "minview_warehouse_quarantined_deltas_total");
        Alcotest.(check int)
          "no rollback" 0
          (counter_value "minview_warehouse_txn_rollbacks_total"));
    test "an injected crash is visible in the fault and recovery counters"
      (fun () ->
        Metrics.reset ();
        Trace.clear ();
        let db = Workload.Retail.load tiny in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.monthly_revenue;
        let dir = fresh_dir "tele_crash_dir" in
        Warehouse.attach wh ~dir;
        Warehouse.ingest wh [ valid_sale () ];
        Metrics.reset ();
        Faults.arm Faults.Mid_engine_apply;
        (match Warehouse.ingest wh [ valid_sale () ] with
        | () -> Alcotest.fail "armed crash point must fire"
        | exception Faults.Crash _ -> ());
        Alcotest.(check int)
          "crash counted at its point" 1
          (counter_value
             ~labels:[ ("point", "mid-engine-apply"); ("mode", "kill") ]
             "minview_faults_crashes_total");
        let wh2 = Warehouse.recover ~dir in
        Alcotest.(check int)
          "one recovery" 1
          (counter_value "minview_warehouse_recoveries_total");
        (* both post-checkpoint batches replay: the committed one and the
           one whose apply the crash interrupted after its WAL append *)
        Alcotest.(check int)
          "the WAL tail replays" 2
          (counter_value "minview_warehouse_replayed_batches_total");
        Alcotest.(check bool)
          "WAL work is visible" true
          (counter_value "minview_wal_appends_total" > 0);
        Warehouse.close wh2);
  ]

(* --- the trace ring ------------------------------------------------------ *)

let trace_tests =
  [
    test "with_span records name, attrs and a plausible duration" (fun () ->
        Trace.clear ();
        let r =
          Trace.with_span ~attrs:[ ("k", "v") ] "tele.span" (fun () -> 42)
        in
        Alcotest.(check int) "result" 42 r;
        match Trace.recent () with
        | [ s ] ->
          Alcotest.(check string) "name" "tele.span" s.Trace.name;
          Alcotest.(check (list (pair string string)))
            "attrs" [ ("k", "v") ] s.Trace.attrs;
          Alcotest.(check bool) "duration" true (s.Trace.dur_s >= 0.)
        | l -> Alcotest.fail (Printf.sprintf "got %d spans" (List.length l)));
    test "a span survives its body raising" (fun () ->
        Trace.clear ();
        (match Trace.with_span "tele.raise" (fun () -> failwith "boom") with
        | () -> Alcotest.fail "exception must propagate"
        | exception Failure _ -> ());
        Alcotest.(check int) "recorded" 1 (List.length (Trace.recent ())));
    test "the ring keeps the newest spans and counts the total" (fun () ->
        Trace.clear ();
        for k = 1 to Trace.capacity + 100 do
          Trace.event (Printf.sprintf "tele.e%d" k)
        done;
        Alcotest.(check int) "total" (Trace.capacity + 100) (Trace.total ());
        let spans = Trace.recent () in
        Alcotest.(check int) "ring bounded" Trace.capacity (List.length spans);
        Alcotest.(check string)
          "oldest survivor" "tele.e101" (List.hd spans).Trace.name;
        Alcotest.(check string)
          "newest last"
          (Printf.sprintf "tele.e%d" (Trace.capacity + 100))
          (List.nth spans (Trace.capacity - 1)).Trace.name);
    test "disabled telemetry records no spans" (fun () ->
        Trace.clear ();
        Telemetry.set_enabled false;
        Fun.protect
          ~finally:(fun () -> Telemetry.set_enabled true)
          (fun () -> Trace.with_span "tele.off" (fun () -> ()));
        Alcotest.(check int) "nothing recorded" 0
          (List.length (Trace.recent ())));
  ]

(* --- the cost of telemetry, in exact counts ------------------------------ *)

(* The minor words one ingest of a fixed batch of [n] inserts allocates
   on a warehouse of three views.
   A first batch registers every metric and fills every lazy cache; the
   workload registry is then reset, so each key of
   the measured batch misses the top-k whatever earlier tests fed it.
   Everything the ingest does is deterministic, so the count is exact. *)
let ingest_words ~n ~telemetry () =
  Telemetry.set_enabled telemetry;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled true) @@ fun () ->
  let wh = Warehouse.create (Workload.Retail.load tiny) in
  List.iter (Warehouse.add_view wh)
    [ Workload.Retail.product_sales; Workload.Retail.monthly_revenue;
      Workload.Retail.sales_by_time ];
  Warehouse.ingest wh (sale_inserts tiny ~first:8_000_000 n);
  Telemetry.Workload.reset ();
  let batch = sale_inserts tiny ~first:9_000_000 n in
  let w0 = Gc.minor_words () in
  Warehouse.ingest wh batch;
  let w1 = Gc.minor_words () in
  int_of_float (w1 -. w0)

(* What telemetry adds to that ingest: counters, histograms, trace spans,
   lineage and the workload profile's sampled top-k feed. A state the
   profile grows (a second sketch fed per sampled write, say) shows here
   as words, where a timed comparison would see noise. *)
let check_telemetry_words ~n ~budget () =
  let off = ingest_words ~n ~telemetry:false () in
  let on = ingest_words ~n ~telemetry:true () in
  Printf.printf "ingest of %d deltas: %d minor words off, %d on (+%d, \
                 %.3f per delta)\n"
    n off on (on - off)
    (float_of_int (on - off) /. float_of_int n);
  if on - off > budget then
    Alcotest.failf
      "telemetry adds %d minor words to the ingest of %d deltas (%.3f per \
       delta), over its budget of %d"
      (on - off) n
      (float_of_int (on - off) /. float_of_int n)
      budget

let exact_count_tests =
  [
    test "telemetry adds a fixed number of minor words to an ingest"
      (fun () -> check_telemetry_words ~n:512 ~budget:2130 ());
    (* a batch the size of churn_compact's: one netting for all three
       views, every batch applied directly on the calling domain *)
    test "telemetry adds a fixed number of minor words to a netted ingest"
      (fun () -> check_telemetry_words ~n:2_000 ~budget:5080 ());
  ]

let () =
  Alcotest.run "telemetry"
    [
      ("histograms", histogram_tests); ("registry", registry_tests);
      ("concurrent-writes", concurrent_tests); ("serial-vs-parallel", property_tests);
      ("warehouse-counters", warehouse_tests); ("trace", trace_tests);
      ("exact-counts", exact_count_tests);
    ]
