(* Tests for the warehouse facade and the storage accounting model,
   including the paper's Section 1.1 arithmetic. *)

open Helpers
module Storage = Warehouse.Storage

let test case fn = Alcotest.test_case case `Quick fn

let storage_tests =
  [
    test "bytes = rows x fields x 4 under the paper model" (fun () ->
        Alcotest.(check int) "bytes" 240
          (Storage.bytes ~rows:12 ~fields:5));
    test "Section 1.1 fact table is ~245 GB" (fun () ->
        let p = Workload.Retail.paper_params in
        Alcotest.(check int) "13.14e9 tuples" 13_140_000_000
          (Workload.Retail.fact_rows p);
        let size = Storage.bytes ~rows:(Workload.Retail.fact_rows p) ~fields:5 in
        Alcotest.(check string) "245 GB" "244.8 GB" (Storage.show_bytes size));
    test "Section 1.1 auxiliary view is ~167 MB" (fun () ->
        (* 365 days of 1997 x 30,000 products = 10.95e6 rows x 4 fields *)
        let rows = 365 * 30_000 in
        Alcotest.(check int) "10.95e6" 10_950_000 rows;
        Alcotest.(check string) "167 MB" "167.1 MB"
          (Storage.show_bytes (Storage.bytes ~rows ~fields:4)));
    test "show_bytes unit boundaries" (fun () ->
        Alcotest.(check string) "B" "512 B" (Storage.show_bytes 512);
        Alcotest.(check string) "KB" "1.0 KB" (Storage.show_bytes 1024);
        Alcotest.(check string) "MB" "2.0 MB" (Storage.show_bytes (2 * 1024 * 1024)));
    test "profile_bytes sums objects" (fun () ->
        Alcotest.(check int) "sum" ((3 * 2 * 4) + (5 * 4 * 4))
          (Storage.profile_bytes [ ("a", 3, 2); ("b", 5, 4) ]));
    test "render_profile includes a TOTAL row" (fun () ->
        let out = Storage.render_profile [ ("a", 3, 2) ] in
        let contains needle = contains out needle in
        Alcotest.(check bool) "total" true (contains "TOTAL"));
  ]

let warehouse_tests =
  [
    test "multi-view ingestion keeps all views correct" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.product_sales;
        Warehouse.add_view ~strategy:Warehouse.Psj wh Workload.Retail.monthly_revenue;
        Warehouse.add_view ~strategy:Warehouse.Replicate wh
          Workload.Retail.sales_by_time;
        let rng = Workload.Prng.create 8 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:300);
        List.iter
          (fun view ->
            let _, got = Warehouse.query wh view.View.name in
            Alcotest.check relation view.View.name
              (Algebra.Eval.eval db view)
              got)
          [ Workload.Retail.product_sales; Workload.Retail.monthly_revenue;
            Workload.Retail.sales_by_time ]);
    test "view_names preserves registration order" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.product_sales;
        Warehouse.add_view wh Workload.Retail.months;
        Alcotest.(check (list string)) "names"
          [ "product_sales"; "months" ]
          (Warehouse.view_names wh));
    test "duplicate view name rejected" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.months;
        match Warehouse.add_view wh Workload.Retail.months with
        | exception Warehouse.Error { kind = Warehouse.Duplicate_view; _ } -> ()
        | _ -> Alcotest.fail "expected Duplicate_view");
    test "query of unknown view raises Unknown_view" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let wh = Warehouse.create db in
        match Warehouse.query wh "nosuch" with
        | exception Warehouse.Error { kind = Warehouse.Unknown_view; _ } -> ()
        | _ -> Alcotest.fail "expected Unknown_view");
    test "add_view_sql registers and maintains" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let wh = Warehouse.create db in
        Warehouse.add_view_sql wh
          "CREATE VIEW rev AS SELECT month, SUM(price) AS r FROM sale, time \
           WHERE sale.timeid = time.id GROUP BY month;";
        let rng = Workload.Prng.create 12 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:100);
        let cols, _ = Warehouse.query wh "rev" in
        Alcotest.(check (list string)) "cols" [ "month"; "r" ] cols);
    test "derivation_of distinguishes strategies" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.product_sales;
        Warehouse.add_view ~strategy:Warehouse.Replicate wh
          Workload.Retail.months;
        Alcotest.(check bool) "minimal has one" true
          (Warehouse.derivation_of wh "product_sales" <> None);
        Alcotest.(check bool) "replica has none" true
          (Warehouse.derivation_of wh "months" = None));
    test "report mentions every view" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.product_sales;
        Warehouse.add_view wh Workload.Retail.sales_by_time;
        let out = Warehouse.report wh in
        let contains needle = contains out needle in
        Alcotest.(check bool) "ps" true (contains "product_sales");
        Alcotest.(check bool) "sbt" true (contains "sales_by_time");
        Alcotest.(check bool) "storage" true (contains "TOTAL"));
    test "detail profile shrinks when the fact view is eliminated" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let wh1 = Warehouse.create db in
        Warehouse.add_view wh1 Workload.Retail.product_sales;
        let wh2 = Warehouse.create db in
        Warehouse.add_view wh2 Workload.Retail.sales_by_time;
        let total wh = Storage.profile_bytes (Warehouse.detail_profile wh) in
        Alcotest.(check bool) "eliminated smaller" true (total wh2 < total wh1));
  ]

let () =
  Alcotest.run "warehouse"
    [ ("storage", storage_tests); ("facade", warehouse_tests) ]
