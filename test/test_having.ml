(* Tests for restrictions on groups — the HAVING clause, the first
   generalization the paper's Section 4 calls for. The maintained state is
   the full group set; HAVING filters at read time, so groups can leave and
   re-enter the visible view as their aggregates move across the threshold. *)

open Helpers
module Engines = Maintenance.Engines

let test case fn = Alcotest.test_case case `Quick fn

let hv column op const = { View.h_column = column; h_op = op; h_const = const }

(* busy months: at least 3 qualifying sales *)
let busy_months =
  {
    Workload.Retail.product_sales with
    View.name = "busy_months";
    having = [ hv "TotalCount" Cmp.Ge (i 3) ];
  }

let eval_tests =
  [
    test "HAVING filters groups in the reference evaluator" (fun () ->
        let db = paper_example_db () in
        (* month 1 has 6 sales, month 2 has 1 *)
        let got = Algebra.Eval.eval db busy_months in
        Alcotest.(check int) "one group" 1 (Relation.cardinality got);
        Alcotest.(check bool) "month 1 kept" true
          (Relation.fold (fun tup _ acc -> acc || tup.(0) = i 1) got false));
    test "empty HAVING is the identity" (fun () ->
        let db = paper_example_db () in
        Alcotest.check relation "same"
          (Algebra.Eval.eval db Workload.Retail.product_sales)
          (Algebra.Eval.eval db
             { Workload.Retail.product_sales with View.having = [] }));
    test "validate rejects unknown output columns" (fun () ->
        let db = Workload.Retail.empty () in
        match
          View.validate db
            { busy_months with
              View.having = [ hv "NoSuchColumn" Cmp.Ge (i 3) ] }
        with
        | exception View.Invalid _ -> ()
        | () -> Alcotest.fail "expected View.Invalid");
    test "HAVING on a group-by column works too" (fun () ->
        let db = paper_example_db () in
        let v =
          { Workload.Retail.product_sales with
            View.name = "late_months";
            having = [ hv "month" Cmp.Ge (i 2) ] }
        in
        let got = Algebra.Eval.eval db v in
        Alcotest.(check int) "one group" 1 (Relation.cardinality got));
  ]

let sql_tests =
  [
    test "parser accepts HAVING and the view round-trips" (fun () ->
        let db = Workload.Retail.empty () in
        let sql =
          "CREATE VIEW busy AS SELECT time.month, SUM(price) AS Total, \
           COUNT(*) AS N FROM sale, time WHERE sale.timeid = time.id \
           GROUP BY time.month HAVING N >= 3 AND Total > 100;"
        in
        match Sqlfront.Parser.statement sql with
        | Sqlfront.Ast.Create_view { name; select } ->
          let v = Sqlfront.Elaborate.view_of_select db ~name select in
          Alcotest.(check int) "two conditions" 2 (List.length v.View.having);
          (* pretty-print and re-parse *)
          (match Sqlfront.Parser.statement (View.to_sql v ^ ";") with
          | Sqlfront.Ast.Create_view { name; select } ->
            let v2 = Sqlfront.Elaborate.view_of_select db ~name select in
            Alcotest.(check bool) "round trip" true (v = v2)
          | _ -> Alcotest.fail "expected CREATE VIEW")
        | _ -> Alcotest.fail "expected CREATE VIEW");
    test "reconstruction SQL carries the HAVING clause" (fun () ->
        let db = Workload.Retail.empty () in
        let sql =
          Mindetail.Reconstruct.to_sql (Mindetail.Derive.derive db busy_months)
        in
        let contains needle = contains sql needle in
        Alcotest.(check bool) "having" true (contains "HAVING TotalCount >= 3"));
    test "ad-hoc SELECT with HAVING" (fun () ->
        let db = paper_example_db () in
        match
          Sqlfront.Elaborate.run db
            (Sqlfront.Parser.statement
               "SELECT productid, COUNT(*) AS n FROM sale GROUP BY productid \
                HAVING n > 2;")
        with
        | Sqlfront.Elaborate.Queried (_, got) ->
          (* product 1 has 5 sales, product 2 has 2 *)
          Alcotest.check relation "rows" (rel [ [ i 1; i 5 ] ]) got
        | _ -> Alcotest.fail "expected Queried");
  ]

let maintenance_tests =
  [
    test "groups cross the HAVING threshold in both directions" (fun () ->
        let db = paper_example_db () in
        let e = Engines.minimal db busy_months in
        Alcotest.(check int) "initially one visible group" 1
          (Relation.cardinality (Engines.view_contents e));
        (* push month 2 over the threshold *)
        let deltas =
          [ Delta.insert "sale" (row [ i 301; i 3; i 1; i 1; i 5 ]);
            Delta.insert "sale" (row [ i 302; i 3; i 1; i 1; i 5 ]) ]
        in
        Database.apply_all db deltas;
        Engines.apply_batch e deltas;
        Alcotest.check relation "both visible"
          (Algebra.Eval.eval db busy_months)
          (Engines.view_contents e);
        Alcotest.(check int) "two groups" 2
          (Relation.cardinality (Engines.view_contents e));
        (* and back below it *)
        let out =
          [ Delta.delete "sale" (row [ i 301; i 3; i 1; i 1; i 5 ]);
            Delta.delete "sale" (row [ i 302; i 3; i 1; i 1; i 5 ]) ]
        in
        Database.apply_all db out;
        Engines.apply_batch e out;
        Alcotest.(check int) "one group again" 1
          (Relation.cardinality (Engines.view_contents e)));
    test "all engines agree under random streams with HAVING" (fun () ->
        let tiny =
          { Workload.Retail.small_params with
            Workload.Retail.days = 8; stores = 2; products = 12;
            sold_per_store_day = 4; tx_per_product = 2 }
        in
        let db = Workload.Retail.load tiny in
        let engines =
          [ Engines.minimal db busy_months; Engines.psj db busy_months;
            Engines.recompute db busy_months ]
        in
        let rng = Workload.Prng.create 5 in
        for round = 1 to 5 do
          let deltas = Workload.Delta_gen.stream rng db ~n:40 in
          List.iter (fun e -> Engines.apply_batch e deltas) engines;
          let expected = Algebra.Eval.eval db busy_months in
          List.iter
            (fun e ->
              Alcotest.check relation
                (Printf.sprintf "%s round %d" (Engines.name e) round)
                expected (Engines.view_contents e))
            engines
        done);
    test "HAVING composes with fact-table elimination" (fun () ->
        let db = paper_example_db () in
        let v =
          { Workload.Retail.sales_by_time with
            View.name = "busy_days";
            having = [ hv "Sales" Cmp.Ge (i 2) ] }
        in
        let d = Mindetail.Derive.derive db v in
        Alcotest.(check (list string)) "still eliminated" [ "sale" ]
          (Mindetail.Derive.omitted_tables d);
        let e = Engines.minimal db v in
        let deltas =
          [ Delta.insert "sale" (row [ i 400; i 3; i 1; i 1; i 2 ]);
            Delta.delete "sale" (row [ i 1; i 1; i 1; i 1; i 10 ]) ]
        in
        Database.apply_all db deltas;
        Engines.apply_batch e deltas;
        Alcotest.check relation "maintained" (Algebra.Eval.eval db v)
          (Engines.view_contents e));
  ]

let () =
  Alcotest.run "having"
    [
      ("eval", eval_tests);
      ("sql", sql_tests);
      ("maintenance", maintenance_tests);
    ]
