(* Tests for the self-maintenance machinery: auxiliary-view state, view-group
   state, and the engine's handling of every change kind — including the
   scenarios Section 3.2 singles out (non-CSMAS recomputation, duplicate
   compression arithmetic) and the elimination mode of Section 3.3. *)

open Helpers
module Aux_state = Maintenance.Aux_state
module View_state = Maintenance.View_state
module Engine = Maintenance.Engine
module Engines = Maintenance.Engines
module Derive = Mindetail.Derive
module Auxview = Mindetail.Auxview

let test case fn = Alcotest.test_case case `Quick fn

(* --- Aux_state --------------------------------------------------------- *)

let sale_schema db = Database.schema_of db "sale"

let sale_spec db =
  Option.get
    (Derive.spec_for (Derive.derive db Workload.Retail.product_sales) "sale")

let time_spec db =
  Option.get
    (Derive.spec_for (Derive.derive db Workload.Retail.product_sales) "time")

let aux_state_tests =
  [
    test "insert groups and accumulates" (fun () ->
        let db = Workload.Retail.empty () in
        let st = Aux_state.create (sale_spec db) (sale_schema db) in
        (* base tuples: id timeid productid storeid price *)
        Aux_state.insert_base st (row [ i 1; i 1; i 1; i 1; i 10 ]);
        Aux_state.insert_base st (row [ i 2; i 1; i 1; i 1; i 15 ]);
        Aux_state.insert_base st (row [ i 3; i 2; i 1; i 1; i 7 ]);
        Alcotest.(check int) "rows" 2 (Aux_state.row_count st);
        Alcotest.(check int) "base" 3 (Aux_state.base_count st);
        let r = Aux_state.to_relation st in
        Alcotest.check relation "contents"
          (rel [ [ i 1; i 1; i 25; i 2 ]; [ i 2; i 1; i 7; i 1 ] ])
          r);
    test "delete reverses insert exactly" (fun () ->
        let db = Workload.Retail.empty () in
        let st = Aux_state.create (sale_spec db) (sale_schema db) in
        Aux_state.insert_base st (row [ i 1; i 1; i 1; i 1; i 10 ]);
        Aux_state.insert_base st (row [ i 2; i 1; i 1; i 1; i 15 ]);
        Aux_state.delete_base st (row [ i 2; i 1; i 1; i 1; i 15 ]);
        Alcotest.check relation "one left"
          (rel [ [ i 1; i 1; i 10; i 1 ] ])
          (Aux_state.to_relation st);
        Aux_state.delete_base st (row [ i 1; i 1; i 1; i 1; i 10 ]);
        Alcotest.(check int) "empty" 0 (Aux_state.row_count st));
    test "delete of absent group raises" (fun () ->
        let db = Workload.Retail.empty () in
        let st = Aux_state.create (sale_spec db) (sale_schema db) in
        match Aux_state.delete_base st (row [ i 1; i 1; i 1; i 1; i 10 ]) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "keyed view supports lookups" (fun () ->
        let db = Workload.Retail.empty () in
        let st = Aux_state.create (time_spec db) (Database.schema_of db "time") in
        Aux_state.insert_base st (row [ i 1; i 1; i 3; i 1997 ]);
        Alcotest.(check bool) "mem" true (Aux_state.mem_key st (i 1));
        (match Aux_state.rows_with st ~column:"id" (i 1) with
        | [ r ] ->
          Alcotest.check value "month" (i 3) (Aux_state.plain_of st r "month");
          Alcotest.(check int) "located" (Aux_state.loc_of_row st r)
            (Aux_state.locate_key st (i 1))
        | _ -> Alcotest.fail "row missing");
        Alcotest.(check int) "absent" (-1) (Aux_state.locate_key st (i 2));
        Aux_state.delete_base st (row [ i 1; i 1; i 3; i 1997 ]);
        Alcotest.(check bool) "gone" false (Aux_state.mem_key st (i 1)));
    test "compressed view rejects key lookups" (fun () ->
        let db = Workload.Retail.empty () in
        let st = Aux_state.create (sale_spec db) (sale_schema db) in
        match Aux_state.locate_key st (i 1) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "group_key_of_base projects the plains" (fun () ->
        let db = Workload.Retail.empty () in
        let st = Aux_state.create (sale_spec db) (sale_schema db) in
        Alcotest.check tuple "key" (row [ i 7; i 8 ])
          (Aux_state.group_key_of_base st (row [ i 1; i 7; i 8; i 1; i 10 ])));
  ]

(* --- engine: per-change-kind scenarios ---------------------------------- *)

let eng db view = Engines.minimal db view

let check_sync ?(msg = "view") engine db view =
  Alcotest.check relation msg
    (Algebra.Eval.eval db view)
    (Engines.view_contents engine)

let apply engine db deltas =
  Database.apply_all db deltas;
  Engines.apply_batch engine deltas

let engine_tests =
  [
    test "fact insert creates and grows groups" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        apply e db [ Delta.insert "sale" (row [ i 100; i 3; i 1; i 1; i 11 ]) ];
        check_sync e db Workload.Retail.product_sales;
        apply e db [ Delta.insert "sale" (row [ i 101; i 3; i 1; i 1; i 12 ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "fact delete shrinks and removes empty groups" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        (* month 2 has exactly one sale: deleting it must drop the group *)
        apply e db [ Delta.delete "sale" (row [ i 7; i 3; i 2; i 1; i 30 ]) ];
        check_sync e db Workload.Retail.product_sales;
        let got = Engines.view_contents e in
        Alcotest.(check int) "one group left" 1 (Relation.cardinality got));
    test "group death and rebirth resets non-CSMAS state" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales_max in
        (* product 2 is fed by sales 3 and 7; delete both (killing the
           group), then re-insert with a smaller max *)
        apply e db
          [ Delta.delete "sale" (row [ i 3; i 1; i 2; i 1; i 10 ]);
            Delta.delete "sale" (row [ i 7; i 3; i 2; i 1; i 30 ]) ];
        check_sync e db Workload.Retail.product_sales_max;
        apply e db [ Delta.insert "sale" (row [ i 200; i 1; i 2; i 1; i 3 ]) ];
        check_sync e db Workload.Retail.product_sales_max);
    test "deleting the MAX forces recomputation from aux views" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales_max in
        (* product 1's max price is the single 20 *)
        apply e db [ Delta.delete "sale" (row [ i 6; i 2; i 1; i 1; i 20 ]) ];
        check_sync e db Workload.Retail.product_sales_max;
        (* the new max must be 15, not a stale 20 *)
        let got = Engines.view_contents e in
        Alcotest.(check bool) "max 15" true
          (Relation.fold
             (fun tup _ acc -> acc || (tup.(0) = i 1 && tup.(1) = i 15))
             got false));
    test "deleting a non-extremal value is maintained in place" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales_max in
        apply e db [ Delta.delete "sale" (row [ i 1; i 1; i 1; i 1; i 10 ]) ];
        check_sync e db Workload.Retail.product_sales_max);
    test "COUNT(DISTINCT) tracks brand departures" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        (* month 1 joins brands acme and apex; remove the only apex sale in
           month 1 (sale 3) *)
        apply e db [ Delta.delete "sale" (row [ i 3; i 1; i 2; i 1; i 10 ]) ];
        check_sync e db Workload.Retail.product_sales;
        let got = Engines.view_contents e in
        Alcotest.(check bool) "brands=1 in month 1" true
          (Relation.fold (fun tup _ acc -> acc || (tup.(0) = i 1 && tup.(3) = i 1))
             got false));
    test "fact update splits into delete+insert across groups" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        apply e db
          [ Delta.update "sale" ~before:(row [ i 1; i 1; i 1; i 1; i 10 ])
              ~after:(row [ i 1; i 1; i 1; i 1; i 99 ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "dim inserts/deletes touch only detail data" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        let before = Engines.view_contents e in
        apply e db [ Delta.insert "time" (row [ i 50; i 9; i 9; i 1997 ]) ];
        apply e db [ Delta.insert "product" (row [ i 50; s "new"; s "x" ]) ];
        Alcotest.check relation "unchanged" before (Engines.view_contents e);
        apply e db [ Delta.delete "product" (row [ i 50; s "new"; s "x" ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "new dim tuple then fact referencing it" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        apply e db
          [ Delta.insert "time" (row [ i 50; i 9; i 9; i 1997 ]);
            Delta.insert "sale" (row [ i 300; i 50; i 1; i 1; i 4 ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "dim tuple failing locals contributes nothing" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        apply e db
          [ Delta.insert "time" (row [ i 60; i 9; i 9; i 1995 ]);
            Delta.insert "sale" (row [ i 301; i 60; i 1; i 1; i 4 ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "dim update of a group-by attribute moves contributions" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        (* time.month is declared updatable and feeds GROUP BY *)
        apply e db
          [ Delta.update "time" ~before:(row [ i 1; i 1; i 1; i 1997 ])
              ~after:(row [ i 1; i 1; i 7; i 1997 ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "dim update merging two groups" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        (* move timeid 3 (month 2) into month 1: groups merge *)
        apply e db
          [ Delta.update "time" ~before:(row [ i 3; i 3; i 2; i 1997 ])
              ~after:(row [ i 3; i 3; i 1; i 1997 ]) ];
        check_sync e db Workload.Retail.product_sales;
        Alcotest.(check int) "single group" 1
          (Relation.cardinality (Engines.view_contents e)));
    test "dim update of a DISTINCT argument" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        apply e db
          [ Delta.update "product" ~before:(row [ i 2; s "apex"; s "drink" ])
              ~after:(row [ i 2; s "acme"; s "drink" ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "exposed dim update pulls facts into the view" (fun () ->
        let db = Workload.Retail.empty ~exposed_time:true () in
        List.iter (Database.apply db)
          [ Delta.insert "time" (row [ i 1; i 1; i 1; i 1996 ]);
            Delta.insert "product" (row [ i 1; s "acme"; s "f" ]);
            Delta.insert "store" (row [ i 1; s "a"; s "b"; s "c"; s "d" ]);
            Delta.insert "sale" (row [ i 1; i 1; i 1; i 1; i 10 ]) ];
        let e = eng db Workload.Retail.product_sales in
        Alcotest.(check int) "initially empty" 0
          (Relation.cardinality (Engines.view_contents e));
        (* year 1996 -> 1997: the fact now qualifies *)
        apply e db
          [ Delta.update "time" ~before:(row [ i 1; i 1; i 1; i 1996 ])
              ~after:(row [ i 1; i 1; i 1; i 1997 ]) ];
        check_sync e db Workload.Retail.product_sales;
        (* and back out again *)
        apply e db
          [ Delta.update "time" ~before:(row [ i 1; i 1; i 1; i 1997 ])
              ~after:(row [ i 1; i 1; i 1; i 1996 ]) ];
        check_sync e db Workload.Retail.product_sales;
        Alcotest.(check int) "empty again" 0
          (Relation.cardinality (Engines.view_contents e)));
    test "irrelevant dim update is a no-op" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        (* product.category is not referenced by the view *)
        apply e db
          [ Delta.update "product" ~before:(row [ i 1; s "acme"; s "food" ])
              ~after:(row [ i 1; s "acme"; s "tools" ]) ];
        check_sync e db Workload.Retail.product_sales);
    test "deltas on unreferenced tables are ignored" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        apply e db [ Delta.insert "store" (row [ i 9; s "x"; s "y"; s "z"; s "m" ]) ];
        check_sync e db Workload.Retail.product_sales);
  ]

(* --- exposed foreign keys: updates that re-parent a dimension ------------- *)

(* a schema where the dim-to-dim foreign key itself is updatable: product can
   be moved to a different brand, an exposed update on a join column *)
let reparenting_db () =
  let db = Database.create () in
  Database.add_table db
    (Schema.make ~name:"brand" ~key:"id"
       [ { Schema.col_name = "id"; col_type = Datatype.TInt };
         { Schema.col_name = "name"; col_type = Datatype.TString } ])
    ~updatable:[];
  Database.add_table db
    (Schema.make ~name:"product" ~key:"id"
       [ { Schema.col_name = "id"; col_type = Datatype.TInt };
         { Schema.col_name = "brandid"; col_type = Datatype.TInt } ])
    ~updatable:[ "brandid" ];
  Database.add_table db
    (Schema.make ~name:"sale" ~key:"id"
       [ { Schema.col_name = "id"; col_type = Datatype.TInt };
         { Schema.col_name = "productid"; col_type = Datatype.TInt };
         { Schema.col_name = "price"; col_type = Datatype.TInt } ])
    ~updatable:[ "price" ];
  Database.add_reference db
    { Relational.Integrity.src_table = "product"; src_col = "brandid";
      dst_table = "brand" };
  Database.add_reference db
    { Relational.Integrity.src_table = "sale"; src_col = "productid";
      dst_table = "product" };
  List.iter (Database.apply db)
    [ Delta.insert "brand" (row [ i 1; s "acme" ]);
      Delta.insert "brand" (row [ i 2; s "apex" ]);
      Delta.insert "product" (row [ i 1; i 1 ]);
      Delta.insert "product" (row [ i 2; i 2 ]);
      Delta.insert "sale" (row [ i 1; i 1; i 10 ]);
      Delta.insert "sale" (row [ i 2; i 1; i 20 ]);
      Delta.insert "sale" (row [ i 3; i 2; i 5 ]) ];
  db

let brand_revenue =
  {
    View.name = "brand_revenue";
    having = [];
    select =
      [ group ~alias:"brand" (a "brand" "name");
        sum ~alias:"Revenue" (a "sale" "price");
        count_star ~alias:"Sales" () ];
    tables = [ "sale"; "product"; "brand" ];
    locals = [];
    joins =
      [ join (a "sale" "productid") (a "product" "id");
        join (a "product" "brandid") (a "brand" "id") ];
  }

let reparenting_tests =
  [
    test "exposed fk blocks the semijoin on the moving dim" (fun () ->
        let db = reparenting_db () in
        let d = Derive.derive db brand_revenue in
        (* product has exposed updates (brandid is a join column), so its
           auxiliary view is not semijoin-reduced against brandDTL *)
        Alcotest.(check (list string)) "exposed" [ "product" ]
          d.Derive.exposed;
        let sale_spec = Option.get (Derive.spec_for d "sale") in
        Alcotest.(check int) "sale has no semijoin" 0
          (List.length sale_spec.Auxview.semijoins));
    test "re-parenting a product moves its revenue between brands" (fun () ->
        let db = reparenting_db () in
        let e = eng db brand_revenue in
        apply e db
          [ Delta.update "product" ~before:(row [ i 1; i 1 ])
              ~after:(row [ i 1; i 2 ]) ];
        check_sync e db brand_revenue;
        (* acme lost both sales: the group must be gone *)
        Alcotest.(check int) "one group" 1
          (Relation.cardinality (Engines.view_contents e)));
    test "re-parenting back restores the original view" (fun () ->
        let db = reparenting_db () in
        let before = Algebra.Eval.eval db brand_revenue in
        let e = eng db brand_revenue in
        apply e db
          [ Delta.update "product" ~before:(row [ i 1; i 1 ])
              ~after:(row [ i 1; i 2 ]) ];
        apply e db
          [ Delta.update "product" ~before:(row [ i 1; i 2 ])
              ~after:(row [ i 1; i 1 ]) ];
        check_sync e db brand_revenue;
        Alcotest.check relation "restored" before (Engines.view_contents e));
    test "random streams over the re-parenting schema" (fun () ->
        let db = reparenting_db () in
        let e = eng db brand_revenue in
        let rng = Workload.Prng.create 123 in
        for round = 1 to 8 do
          let deltas = Workload.Delta_gen.stream rng db ~n:25 in
          Engines.apply_batch e deltas;
          Alcotest.check relation
            (Printf.sprintf "round %d" round)
            (Algebra.Eval.eval db brand_revenue)
            (Engines.view_contents e)
        done);
  ]

(* --- elimination mode (root auxiliary view omitted) ---------------------- *)

let elimination_tests =
  [
    test "fact stream with no fact detail table" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.sales_by_time in
        Alcotest.(check (list string)) "no saleDTL"
          [ "timeDTL" ]
          (List.map (fun (n, _, _) -> n) (Engines.detail_profile e));
        apply e db
          [ Delta.insert "sale" (row [ i 400; i 1; i 1; i 1; i 8 ]);
            Delta.delete "sale" (row [ i 7; i 3; i 2; i 1; i 30 ]);
            Delta.update "sale" ~before:(row [ i 1; i 1; i 1; i 1; i 10 ])
              ~after:(row [ i 1; i 1; i 1; i 1; i 13 ]) ];
        check_sync e db Workload.Retail.sales_by_time);
    test "group dies when its last fact goes" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.sales_by_time in
        apply e db [ Delta.delete "sale" (row [ i 7; i 3; i 2; i 1; i 30 ]) ];
        check_sync e db Workload.Retail.sales_by_time;
        Alcotest.(check bool) "timeid 3 gone" true
          (Relation.fold
             (fun tup _ acc -> acc && not (tup.(0) = i 3))
             (Engines.view_contents e)
             true));
    test "single-table view maintains itself with zero detail" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.months in
        Alcotest.(check int) "no detail" 0
          (List.length (Engines.detail_profile e));
        apply e db
          [ Delta.insert "time" (row [ i 70; i 1; i 12; i 1998 ]);
            Delta.insert "time" (row [ i 71; i 2; i 12; i 1998 ]) ];
        check_sync e db Workload.Retail.months;
        (* deleting one of two witnesses keeps the group; both kills it *)
        apply e db [ Delta.delete "time" (row [ i 70; i 1; i 12; i 1998 ]) ];
        check_sync e db Workload.Retail.months;
        apply e db [ Delta.delete "time" (row [ i 71; i 2; i 12; i 1998 ]) ];
        check_sync e db Workload.Retail.months);
    test "keyed dim update rewrites groups without fact detail" (fun () ->
        (* snowflake: product is the keyed anchor; brand.name feeds a
           determined DISTINCT *)
        let db = Workload.Snowflake.load Workload.Snowflake.small_params in
        let view = Workload.Snowflake.product_brand_profile in
        let e = eng db view in
        apply e db
          [ Delta.update "brand" ~before:(row [ i 1; i 2; s "brand1" ])
              ~after:(row [ i 1; i 2; s "rebranded" ]) ];
        check_sync e db view);
    test "keyed dim group attribute update with eliminated root" (fun () ->
        (* group by product.id and product.category: product is k-annotated,
           sale is eliminated; updating category must rewrite group keys *)
        let db = paper_example_db () in
        let v =
          {
            View.name = "per_product";
            having = [];
            select =
              [ group (a "product" "id"); group (a "product" "category");
                sum ~alias:"Revenue" (a "sale" "price");
                count_star ~alias:"Sales" () ];
            tables = [ "sale"; "product" ];
            locals = [];
            joins = [ join (a "sale" "productid") (a "product" "id") ];
          }
        in
        let d = Derive.derive db v in
        Alcotest.(check (list string)) "sale omitted" [ "sale" ]
          (Derive.omitted_tables d);
        let e = eng db v in
        apply e db
          [ Delta.update "product" ~before:(row [ i 1; s "acme"; s "food" ])
              ~after:(row [ i 1; s "acme"; s "drinks" ]) ];
        check_sync e db v);
    test "price updates with elimination" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.sales_by_time in
        apply e db
          [ Delta.update "sale" ~before:(row [ i 4; i 2; i 1; i 1; i 15 ])
              ~after:(row [ i 4; i 2; i 1; i 1; i 150 ]) ];
        check_sync e db Workload.Retail.sales_by_time);
  ]

(* --- engines facade -------------------------------------------------------- *)

(* The engine trusts the source to validate the stream (the store rejects
   illegal changes before they reach the warehouse); when that contract is
   broken the engine fails loudly instead of corrupting state. *)
let contract_tests =
  [
    test "deleting a fact from an absent detail group fails loudly" (fun () ->
        (* detection is best-effort: a phantom delete is caught as soon as it
           touches auxiliary state that does not exist. (A phantom landing in
           an existing group is indistinguishable from a legal delete — which
           is why the store validates the stream upfront, see below.) *)
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        (* no (timeid 3, productid 1) sale exists *)
        let phantom = row [ i 999; i 3; i 1; i 1; i 123 ] in
        match Engines.apply_batch e [ Delta.delete "sale" phantom ] with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected a loud failure");
    test "dim update with a wrong before-image fails loudly" (fun () ->
        let db = paper_example_db () in
        let e = eng db Workload.Retail.product_sales in
        (* the before image disagrees with the stored timeDTL row *)
        match
          Engines.apply_batch e
            [ Delta.update "time" ~before:(row [ i 1; i 1; i 9; i 1997 ])
                ~after:(row [ i 1; i 1; i 8; i 1997 ]) ]
        with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected a loud failure");
    test "source store rejects the same illegal changes upfront" (fun () ->
        let db = paper_example_db () in
        let phantom = row [ i 999; i 1; i 1; i 1; i 123 ] in
        match Database.apply db (Delta.delete "sale" phantom) with
        | exception Database.Violation _ -> ()
        | () -> Alcotest.fail "expected Violation");
  ]

let engines_tests =
  [
    test "all three engines agree under a random stream" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let view = Workload.Retail.product_sales in
        let engines =
          [ Engines.minimal db view; Engines.psj db view; Engines.recompute db view ]
        in
        let rng = Workload.Prng.create 99 in
        for _ = 1 to 5 do
          let deltas = Workload.Delta_gen.stream rng db ~n:40 in
          List.iter (fun e -> Engines.apply_batch e deltas) engines;
          let expected = Algebra.Eval.eval db view in
          List.iter
            (fun e ->
              Alcotest.check relation (Engines.name e) expected
                (Engines.view_contents e))
            engines
        done);
    test "names" (fun () ->
        let db = paper_example_db () in
        Alcotest.(check string) "minimal" "minimal"
          (Engines.name (Engines.minimal db Workload.Retail.months));
        Alcotest.(check string) "recompute" "recompute"
          (Engines.name (Engines.recompute db Workload.Retail.months)));
    test "detail profiles: minimal <= psj <= replicate (rows)" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let view = Workload.Retail.product_sales in
        let rows e =
          List.fold_left (fun acc (_, r, _) -> acc + r) 0 (Engines.detail_profile e)
        in
        let m = rows (Engines.minimal db view) in
        let p = rows (Engines.psj db view) in
        let r = rows (Engines.recompute db view) in
        Alcotest.(check bool) "m<=p" true (m <= p);
        Alcotest.(check bool) "p<=r" true (p <= r));
    test "engine aux state matches materialized auxiliary views" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let view = Workload.Retail.product_sales in
        let d = Derive.derive db view in
        let engine = Engine.init db d in
        let rng = Workload.Prng.create 123 in
        let deltas = Workload.Delta_gen.stream rng db ~n:150 in
        Engine.apply_batch engine deltas;
        (* the auxiliary views recomputed from the evolved base tables must
           coincide with the incrementally maintained state *)
        let expected = Mindetail.Materialize.all db d in
        let got = Engine.aux_contents engine in
        List.iter
          (fun (tbl, exp) ->
            Alcotest.check relation tbl exp (List.assoc tbl got))
          expected);
    test "engine reconstruction from maintained aux state" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let view = Workload.Retail.product_sales in
        let d = Derive.derive db view in
        let engine = Engine.init db d in
        let rng = Workload.Prng.create 321 in
        Engine.apply_batch engine (Workload.Delta_gen.stream rng db ~n:150);
        let contents = Engine.aux_contents engine in
        let reconstructed =
          Mindetail.Reconstruct.view d (fun tbl -> List.assoc tbl contents)
        in
        Alcotest.check relation "reconstruct == eval"
          (Algebra.Eval.eval db view)
          reconstructed);
    test "storage_profile lists the view first" (fun () ->
        let db = paper_example_db () in
        let engine =
          Engine.init db (Derive.derive db Workload.Retail.product_sales)
        in
        match Engine.storage_profile engine with
        | (name, _, fields) :: aux ->
          Alcotest.(check string) "view" "product_sales" name;
          Alcotest.(check int) "view width" 4 fields;
          Alcotest.(check int) "aux count" 3 (List.length aux)
        | [] -> Alcotest.fail "empty profile");
  ]

let index_tests =
  [
    test "fk-indexed and scan-based engines agree" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let view = Workload.Retail.product_sales in
        let d = Derive.derive db view in
        let indexed = Engine.init db d in
        let scanning = Engine.init ~fk_index:false db d in
        let rng = Workload.Prng.create 202 in
        for round = 1 to 6 do
          (* dimension-update heavy mix *)
          let deltas =
            Workload.Delta_gen.stream
              ~mix:{ Workload.Delta_gen.insert = 1; delete = 1; update = 6 }
              rng db ~n:50
          in
          Engine.apply_batch indexed deltas;
          Engine.apply_batch scanning deltas;
          let expected = Algebra.Eval.eval db view in
          Alcotest.check relation
            (Printf.sprintf "indexed round %d" round)
            expected (Engine.view_contents indexed);
          Alcotest.check relation
            (Printf.sprintf "scanning round %d" round)
            expected (Engine.view_contents scanning)
        done);
    test "snowflake chains resolve through the indexes" (fun () ->
        let db = Workload.Snowflake.load Workload.Snowflake.small_params in
        let view = Workload.Snowflake.category_revenue in
        let e = Engines.minimal db view in
        (* category.name feeds the group-by through a 3-hop chain *)
        let before = Option.get (Database.find_by_key db "category" (i 1)) in
        let after = Array.copy before in
        after.(1) <- s "renamed";
        Database.apply db (Delta.update "category" ~before ~after);
        Engines.apply_batch e [ Delta.update "category" ~before ~after ];
        Alcotest.check relation "renamed group"
          (Algebra.Eval.eval db view)
          (Engines.view_contents e));
  ]

(* --- dirty-group recomputation: the three walk paths ------------------- *)

let recompute_mix = { Workload.Delta_gen.insert = 1; delete = 3; update = 3 }

(* Delete- and update-heavy batches, checked against evaluation after every
   batch; [path] is the walk the rule must pick for this view. *)
let check_recompute ?(options = Derive.default_options) ?(fk_index = true)
    ?(rounds = 6) ~path view =
  let db = Workload.Retail.load Workload.Retail.small_params in
  let e = Engine.init ~fk_index db (Derive.derive_with options db view) in
  let path_name = function
    | Some (`Driving_join tbl) -> "driving join " ^ tbl
    | Some (`Group_index column) -> "group index " ^ column
    | Some `Filtered_scan -> "filtered scan"
    | None -> "none"
  in
  Alcotest.(check string) "walk path" (path_name (Some path))
    (path_name (Engine.group_walk e));
  let rng = Workload.Prng.create 77 in
  for round = 1 to rounds do
    Engine.apply_batch e (Workload.Delta_gen.stream ~mix:recompute_mix rng db ~n:60);
    Alcotest.check relation
      (Printf.sprintf "%s round %d" view.View.name round)
      (Algebra.Eval.eval db view) (Engine.view_contents e)
  done

let two_dims_view =
  {
    View.name = "month_category_max";
    having = [];
    select =
      [
        group (a "time" "month");
        group (a "product" "category");
        max_ ~alias:"max_price" (a "sale" "price");
        count_distinct ~alias:"stores" (a "sale" "storeid");
      ];
    tables = [ "sale"; "time"; "product" ];
    locals = [];
    joins =
      [ join (a "sale" "timeid") (a "time" "id");
        join (a "sale" "productid") (a "product" "id") ];
  }

let store_min_view =
  {
    View.name = "store_min";
    having = [];
    select =
      [
        group (a "sale" "storeid");
        group (a "time" "year");
        min_ ~alias:"min_price" (a "sale" "price");
        max_ ~alias:"max_price" (a "sale" "price");
      ];
    tables = [ "sale"; "time" ];
    locals = [ local (a "sale" "price") Cmp.Gt (i 20) ];
    joins = [ join (a "sale" "timeid") (a "time" "id") ];
  }

(* grouped on the foreign key itself: the product's key fills that key
   position, so the driving join skips every product that is not dirty *)
let product_max_view =
  {
    View.name = "product_max";
    having = [];
    select =
      [
        group (a "sale" "productid");
        max_ ~alias:"max_price" (a "sale" "price");
        count_distinct ~alias:"days" (a "sale" "timeid");
      ];
    tables = [ "sale"; "product" ];
    locals = [ local (a "product" "brand") Cmp.Neq (s "brand0") ];
    joins = [ join (a "sale" "productid") (a "product" "id") ];
  }

let recompute_tests =
  [
    test "group on a root column: group-index walk" (fun () ->
        check_recompute ~path:(`Group_index "productid")
          Workload.Retail.product_sales_max);
    test "group on one dimension subtree: driving-join walk" (fun () ->
        check_recompute ~path:(`Driving_join "time") Workload.Retail.product_sales);
    test "root and dimension group columns: driving-join walk" (fun () ->
        check_recompute ~path:(`Driving_join "time") store_min_view);
    test "group on the join's foreign key: driving-join walk" (fun () ->
        check_recompute ~path:(`Driving_join "product") product_max_view);
    test "group spanning two dimensions: no driving join" (fun () ->
        check_recompute ~path:`Filtered_scan two_dims_view);
    test "no fk index: filtered scan" (fun () ->
        check_recompute ~fk_index:false ~path:`Filtered_scan
          Workload.Retail.product_sales);
    test "no-pushdown residuals on the driving join and the root" (fun () ->
        let options =
          { Derive.default_options with Derive.push_locals = false }
        in
        check_recompute ~options ~path:(`Driving_join "time")
          Workload.Retail.product_sales;
        check_recompute ~options ~path:(`Driving_join "time") store_min_view);
    test "a dirty group deleted in the same batch" (fun () ->
        let db = paper_example_db () in
        let view = Workload.Retail.product_sales_max in
        let e = eng db view in
        (* product 1 (sales 1, 2, 4, 5, 6): dropping its max-price sale
           dirties the group; deleting the rest in the same batch kills it,
           while product 2 stays dirty and alive *)
        apply e db
          [ Delta.delete "sale" (row [ i 6; i 2; i 1; i 1; i 20 ]);
            Delta.delete "sale" (row [ i 7; i 3; i 2; i 1; i 30 ]);
            Delta.delete "sale" (row [ i 1; i 1; i 1; i 1; i 10 ]);
            Delta.delete "sale" (row [ i 2; i 1; i 1; i 1; i 10 ]);
            Delta.delete "sale" (row [ i 4; i 2; i 1; i 1; i 15 ]);
            Delta.delete "sale" (row [ i 5; i 2; i 1; i 1; i 15 ]) ];
        check_sync e db view;
        Alcotest.(check int) "one group left" 1
          (Relation.cardinality (Engines.view_contents e)));
    test "the group-index walk examines only the dirty groups' rows" (fun () ->
        let view = Workload.Retail.product_sales_max in
        let db = Workload.Retail.load Workload.Retail.small_params in
        let sales p =
          Database.fold db "sale"
            (fun tup acc ->
              if Value.equal tup.(2) (i p) then tup :: acc else acc)
            []
        in
        (* delete a top-priced sale of each of k = 3 products *)
        let dirty = [ 1; 2; 3 ] in
        let batch =
          List.map
            (fun p ->
              let top =
                List.fold_left
                  (fun best tup ->
                    if Value.compare tup.(4) best.(4) > 0 then tup else best)
                  (List.hd (sales p)) (sales p)
              in
              Delta.delete "sale" top)
            dirty
        in
        (* the same detail plus as many root auxiliary rows again, all of
           products outside the batch: each sale gets a price of its own *)
        let doubled = Database.copy db in
        let root_rows e =
          Relation.cardinality (List.assoc "sale" (Engine.aux_contents e))
        in
        let d = Derive.derive db view in
        let extra = root_rows (Engine.init db d) in
        let template = List.hd (sales 10) in
        for k = 1 to extra do
          let tup = Array.copy template in
          tup.(0) <- i (1_000_000 + k);
          tup.(2) <- i (4 + (k mod 40));
          tup.(4) <- i (100_000 + k);
          Database.apply doubled (Delta.insert "sale" tup)
        done;
        Alcotest.(check int) "root doubled" (2 * extra)
          (root_rows (Engine.init doubled d));
        let run db =
          let e = Engine.init db (Derive.derive db view) in
          Engine.apply_batch e batch;
          List.iter (Database.apply db) batch;
          Alcotest.check relation "maintained" (Algebra.Eval.eval db view)
            (Engine.view_contents e);
          e
        in
        let e = run db and e2 = run doubled in
        let spec = Option.get (Derive.spec_for d "sale") in
        let pcol = Option.get (Auxview.plain_index spec "productid") in
        let owned =
          Relation.fold
            (fun row _ n ->
              if List.exists (fun p -> Value.equal row.(pcol) (i p)) dirty
              then n + 1
              else n)
            (List.assoc "sale" (Engine.aux_contents e))
            0
        in
        Alcotest.(check bool) "group-index walk" true
          (Engine.group_walk e = Some (`Group_index "productid"));
        Alcotest.(check bool) "groups were recomputed" true
          (Engine.walk_rows e > 0);
        Alcotest.(check bool)
          (Printf.sprintf "examined %d <= owned %d" (Engine.walk_rows e) owned)
          true
          (Engine.walk_rows e <= owned);
        Alcotest.(check int) "independent of |root|" (Engine.walk_rows e)
          (Engine.walk_rows e2));
    test "Mid_engine_apply rollback after a recompute" (fun () ->
        let module W = Warehouse in
        let module Faults = Maintenance.Faults in
        let db = Workload.Retail.load Workload.Retail.small_params in
        let wh = W.create (Database.copy db) in
        (* the first view recomputes before the fault fires *)
        let views =
          [ Workload.Retail.product_sales_max; Workload.Retail.product_sales ]
        in
        List.iter (W.add_view wh) views;
        let check what db =
          List.iter
            (fun (v : View.t) ->
              Alcotest.check relation
                (what ^ " " ^ v.View.name)
                (Algebra.Eval.eval db v)
                (snd (W.query wh v.View.name)))
            views
        in
        let rng = Workload.Prng.create 5 in
        W.ingest wh (Workload.Delta_gen.stream ~mix:recompute_mix rng db ~n:80);
        check "first batch" db;
        let pre = Database.copy db in
        let batch = Workload.Delta_gen.stream ~mix:recompute_mix rng db ~n:80 in
        Faults.arm ~mode:Faults.Fail Faults.Mid_engine_apply;
        let r =
          Fun.protect ~finally:Faults.disarm (fun () -> W.ingest_report wh batch)
        in
        Alcotest.(check int) "aborted batch applied nothing" 0 r.W.applied;
        check "rolled back" pre;
        W.ingest wh batch;
        check "replayed" db);
  ]

(* --- DISTINCT aggregates: per-group value multisets ------------------------ *)

(* One fact table with a FLOAT measure: grp, x. *)
let float_db () =
  let db = Database.create () in
  Database.add_table db
    (Schema.make ~name:"item" ~key:"id"
       [ { Schema.col_name = "id"; col_type = Datatype.TInt };
         { Schema.col_name = "grp"; col_type = Datatype.TInt };
         { Schema.col_name = "x"; col_type = Datatype.TFloat } ])
    ~updatable:[ "x" ];
  db

(* grp, then the given DISTINCT aggregates of x, then COUNT( * ) *)
let float_distinct_view funcs =
  {
    View.name = "float_distinct";
    having = [];
    select =
      (group (a "item" "grp")
       :: List.map
            (fun func ->
              Select_item.Agg
                (Aggregate.make ~distinct:true
                   ~alias:(Aggregate.func_name func)
                   func (Some (a "item" "x"))))
            funcs)
      @ [ count_star ~alias:"n" () ];
    tables = [ "item" ];
    locals = [];
    joins = [];
  }

(* A determined view (the root auxiliary view is eliminated): every
   DISTINCT argument is a column of the grouped-on time row. *)
let time_distinct_view =
  {
    Workload.Retail.sales_by_time with
    View.name = "time_distinct";
    select =
      Workload.Retail.sales_by_time.View.select
      @ [
          count_distinct ~alias:"months" (a "time" "month");
          Select_item.Agg
            (Aggregate.make ~distinct:true ~alias:"avg_month" Aggregate.Avg
               (Some (a "time" "month")));
          Select_item.Agg
            (Aggregate.make ~distinct:true ~alias:"max_month" Aggregate.Max
               (Some (a "time" "month")));
        ];
  }

let distinct_tests =
  [
    test "float SUM/AVG DISTINCT stay exact across a cancelled 1e16" (fun () ->
        let item id grp x = row [ i id; i grp; f x ] in
        (* each kind alone too: a group touched for one is re-folded whole *)
        let views =
          List.map float_distinct_view
            [ [ Aggregate.Sum ]; [ Aggregate.Avg ]; [ Aggregate.Sum; Aggregate.Avg ] ]
        in
        List.iter
          (fun (view, apply) ->
            let db = float_db () in
            let e = Engine.init db (Derive.derive db view) in
            let step deltas =
              Database.apply_all db deltas;
              apply e deltas;
              (* exact equality: no tolerance *)
              Alcotest.check relation "maintained == recomputed"
                (Algebra.Eval.eval db view) (Engine.view_contents e)
            in
            step
              [ Delta.insert "item" (item 1 1 0.1);
                Delta.insert "item" (item 2 1 0.2);
                Delta.insert "item" (item 3 1 0.3);
                Delta.insert "item" (item 4 2 0.7) ];
            step [ Delta.insert "item" (item 5 1 1e16) ];
            (* a naive running sum would now hold 1e16 + 0.6 - 1e16 = 0 *)
            step [ Delta.delete "item" (item 5 1 1e16) ];
            step
              [ Delta.update "item" ~before:(item 4 2 0.7) ~after:(item 4 2 1e16);
                Delta.insert "item" (item 6 2 0.1);
                Delta.insert "item" (item 7 1 0.1) ];
            step
              [ Delta.update "item" ~before:(item 4 2 1e16) ~after:(item 4 2 0.7);
                Delta.delete "item" (item 7 1 0.1) ])
          (List.concat_map
             (fun view ->
               [ (view, apply_each Engine.apply_batch);
                 (view, fun e ds -> Engine.apply_batch e ds) ])
             views));
    test "determined view: dimension updates rewrite the multiset" (fun () ->
        let db = paper_example_db () in
        let view = time_distinct_view in
        let e = Engine.init db (Derive.derive db view) in
        Alcotest.(check bool) "root view eliminated" true (Engine.group_walk e = None);
        let step deltas =
          Database.apply_all db deltas;
          Engine.apply_batch e deltas;
          Alcotest.check relation "maintained == recomputed"
            (Algebra.Eval.eval db view) (Engine.view_contents e)
        in
        step [ Delta.update "time" ~before:(row [ i 1; i 1; i 1; i 1997 ])
                 ~after:(row [ i 1; i 1; i 5; i 1997 ]) ];
        step [ Delta.insert "sale" (row [ i 400; i 1; i 2; i 1; i 8 ]);
               Delta.delete "sale" (row [ i 7; i 3; i 2; i 1; i 30 ]) ];
        step [ Delta.update "time" ~before:(row [ i 1; i 1; i 5; i 1997 ])
                 ~after:(row [ i 1; i 1; i 2; i 1997 ]) ]);
    test "the audit compares DISTINCT multisets, not just results" (fun () ->
        let db = paper_example_db () in
        let view = Workload.Retail.product_sales in
        let e = Engine.init db (Derive.derive db view) in
        Alcotest.(check (option (pair int int))) "clean" (Some (2, 0))
          (Engine.audit ~sample:8 e);
        (* month 1 sold brands acme (products 1) and apex (product 2): move
           one base row's brand from acme to apex in the maintained
           multiset only — COUNT(DISTINCT brand) stays 2 *)
        let vs = Engine.view_state e in
        let key = row [ i 1 ] in
        let cs brand = feed_row key [| `Key; `Sum (i 0); `Count; `Val (s brand) |] in
        let before = View_state.multiset vs ~key ~item:3 in
        View_state.feed vs (cs "apex") ~cnt:1;
        View_state.unfeed vs (cs "acme") ~cnt:1;
        Alcotest.(check bool) "multiset drifted" true
          (View_state.multiset vs ~key ~item:3 <> before);
        ignore (View_state.take_dirty vs);
        Alcotest.check relation "results unchanged"
          (Algebra.Eval.eval db view) (Engine.view_contents e);
        Alcotest.(check (option (pair int int))) "drift caught" (Some (2, 1))
          (Engine.audit ~sample:8 e));
  ]

(* --- root updates: exposed vs in place --------------------------------- *)

let amount_by_city_sql =
  "CREATE VIEW amount_by_city AS SELECT store.city, SUM(amount) AS Amount, \
   AVG(amount) AS AvgAmount, COUNT(*) AS Sales FROM sale, store WHERE \
   sale.storeid = store.id GROUP BY store.city;"

let view_of_sql db sql =
  match Sqlfront.Parser.statement sql with
  | Sqlfront.Ast.Create_view { name; select } ->
    Sqlfront.Elaborate.view_of_select db ~name select
  | _ -> Alcotest.fail "expected CREATE VIEW"

let retail_tiny () =
  Workload.Retail.load
    { Workload.Retail.small_params with days = 8; stores = 2; products = 12;
      sold_per_store_day = 4; tx_per_product = 2; brands = 4 }

let some_sale db table =
  match Database.fold db table (fun tup acc -> tup :: acc) [] with
  | tup :: _ -> tup
  | [] -> Alcotest.fail "no sale"

(* [tup] with column [c] set to [v]. *)
let with_ tup c v =
  let t = Array.copy tup in
  t.(c) <- v;
  t

let in_place e before after = Engine.updates_in_place e ~before ~after

(* Group keys in storage order: a group that is deleted and re-created moves
   to the end. *)
let aux_order st =
  let keys = ref [] in
  Aux_state.iter st (fun r -> keys := Aux_state.plains st r :: !keys);
  List.rev !keys

let view_order vs = List.rev (View_state.fold_groups vs (fun k _ acc -> k :: acc) [])

let revenue_by_month =
  {
    View.name = "revenue_by_month";
    having = [];
    select = [ group (a "time" "month"); sum ~alias:"revenue" (a "sale" "price") ];
    tables = [ "sale"; "time" ];
    locals = [];
    joins = [ join (a "sale" "timeid") (a "time" "id") ];
  }

let in_place_tests =
  [
    test "a price or amount update goes in place on the all-SUM/AVG views"
      (fun () ->
        let db = retail_tiny () in
        let sale = some_sale db "sale" in
        List.iter
          (fun (v : View.t) ->
            let e = Engine.init db (Derive.derive db v) in
            Alcotest.(check bool)
              (v.View.name ^ ": price") true
              (in_place e sale (with_ sale 4 (i 1_000))))
          Workload.Retail.[ sales_by_time; monthly_revenue; product_sales ];
        let db = measure_db 3 in
        let sale = some_sale db "sale" in
        let e = Engine.init db (Derive.derive db (view_of_sql db amount_by_city_sql)) in
        Alcotest.(check bool) "amount_by_city: amount" true
          (in_place e sale (with_ sale 5 (f 99.25)));
        Alcotest.(check bool) "amount_by_city: price and amount" true
          (in_place e sale (with_ (with_ sale 4 (i 1_000)) 5 (f 0.5))));
    test "MAX(price) and exposed updates take delete + insert" (fun () ->
        let db = retail_tiny () in
        let sale = some_sale db "sale" in
        let day = match sale.(1) with Value.Int d -> d | _ -> assert false in
        let other_day = with_ sale 1 (i ((day mod 8) + 1)) in
        let e v = Engine.init db (Derive.derive db v) in
        Alcotest.(check bool) "product_sales_max: price" false
          (in_place (e Workload.Retail.product_sales_max) sale (with_ sale 4 (i 1_000)));
        List.iter
          (fun (v : View.t) ->
            Alcotest.(check bool) (v.View.name ^ ": timeid") false
              (in_place (e v) sale other_day))
          Workload.Retail.[ sales_by_time; monthly_revenue; product_sales ];
        (* price sits under a local condition: a repricing can move the sale
           across it *)
        let cheap =
          { Workload.Retail.monthly_revenue with
            View.name = "cheap_revenue";
            locals = [ local (a "sale" "price") Cmp.Le (i 50) ] }
        in
        Alcotest.(check bool) "cheap_revenue: price" false
          (in_place (e cheap) sale (with_ sale 4 (i 1_000)));
        Alcotest.(check bool) "cheap_revenue: nothing it reads" true
          (in_place (e cheap) sale (with_ sale 0 (i 1_000_000)));
        (* the same condition where no auxiliary view keeps price: the root
           auxiliary view is eliminated *)
        let cheap_by_day =
          { Workload.Retail.sales_by_time with
            View.name = "cheap_by_day";
            locals = [ local (a "sale" "price") Cmp.Le (i 50) ] }
        in
        Alcotest.(check bool) "cheap_by_day: root view eliminated" true
          (Derive.spec_for (Derive.derive db cheap_by_day) "sale" = None);
        Alcotest.(check bool) "cheap_by_day: price" false
          (in_place (e cheap_by_day) sale (with_ sale 4 (i 1_000)));
        let distinct_prices =
          { Workload.Retail.monthly_revenue with
            View.name = "distinct_prices";
            select =
              Workload.Retail.monthly_revenue.View.select
              @ [ count_distinct ~alias:"prices" (a "sale" "price") ] }
        in
        Alcotest.(check bool) "distinct_prices: price" false
          (in_place (e distinct_prices) sale (with_ sale 4 (i 1_000))));
    test "a netted delete;reinsert that changes storeid takes delete + insert"
      (fun () ->
        let db = measure_db 4 in
        let view = view_of_sql db amount_by_city_sql in
        let e = Engine.init db (Derive.derive db view) in
        let before = some_sale db "sale" in
        let store = match before.(3) with Value.Int st -> st | _ -> assert false in
        (* the other city: stores 1 and 3 are in c1, store 2 in c0 *)
        let after = with_ before 3 (i (if store = 2 then 1 else 2)) in
        let batch = [ Delta.delete "sale" before; Delta.insert "sale" after ] in
        let key tbl =
          Some (Schema.key_index (Database.schema_of db tbl))
        in
        (match
           netted_deltas
             (Engine.net (Relational.Delta_batch.keys ()) ~key_index:key batch)
         with
        | [ { Delta.change = Delta.Update u; _ } ] ->
          Alcotest.(check bool) "netted into an update" true
            (Tuple.equal u.before before && Tuple.equal u.after after)
        | _ -> Alcotest.fail "expected one netted update");
        Alcotest.(check bool) "storeid exposes" false (in_place e before after);
        Database.apply_all db batch;
        Engine.apply_batch e batch;
        Alcotest.check relation "the sale changed city" (Algebra.Eval.eval db view)
          (Engine.view_contents e));
    test "an in-place update changes no count and keeps every group's row"
      (fun () ->
        let db = retail_tiny () in
        let view = Workload.Retail.monthly_revenue in
        let e = Engine.init db (Derive.derive db view) in
        let vs = Engine.view_state e in
        let counts () =
          View_state.fold_groups vs (fun k n acc -> (k, n) :: acc) []
        in
        let counts0 = counts () and order0 = view_order vs in
        let profile0 = Engine.storage_profile e in
        let batch =
          List.map
            (fun tup -> Delta.update "sale" ~before:tup ~after:(with_ tup 4 (i 7)))
            (Database.fold db "sale" (fun tup acc -> tup :: acc) [])
        in
        Database.apply_all db batch;
        Engine.apply_batch e batch;
        Alcotest.check relation "view" (Algebra.Eval.eval db view) (Engine.view_contents e);
        Alcotest.(check (list (pair tuple int))) "counts" counts0 (counts ());
        Alcotest.(check (list tuple)) "group rows" order0 (view_order vs);
        Alcotest.(check (list (triple string int int)))
          "stored rows" profile0 (Engine.storage_profile e));
    test "a sole-member group keeps its row id across an in-place update"
      (fun () ->
        let db = Workload.Retail.empty () in
        let a1 = row [ i 1; i 1; i 1; i 1; i 10 ] in
        let a2 = row [ i 1; i 1; i 1; i 1; i 12 ] in
        (* two stores fed the same rows: one updates in place, its twin
           deletes and inserts *)
        let aux () =
          let st = Aux_state.create (sale_spec db) (sale_schema db) in
          Aux_state.insert_base st a1;
          Aux_state.insert_base st (row [ i 2; i 2; i 1; i 1; i 7 ]);
          st
        in
        let st = aux () and split = aux () in
        Aux_state.adjust st ~before:a1 ~after:a2;
        Alcotest.(check (list tuple)) "aux: in place keeps the row"
          [ row [ i 1; i 1 ]; row [ i 2; i 1 ] ] (aux_order st);
        Alcotest.(check int) "aux: base rows" 2 (Aux_state.base_count st);
        Aux_state.delete_base split a1;
        Aux_state.insert_base split a2;
        Alcotest.(check (list tuple)) "aux: delete + insert re-creates it"
          [ row [ i 2; i 1 ]; row [ i 1; i 1 ] ] (aux_order split);
        Alcotest.(check bool) "aux: same state either way" true
          (Aux_state.equal st split);
        let c k p = feed_row (row [ i k ]) [| `Key; `Sum (i p) |] in
        let view () =
          let vs = View_state.create revenue_by_month ~determined:false in
          View_state.feed vs (c 1 10) ~cnt:1;
          View_state.feed vs (c 2 7) ~cnt:1;
          vs
        in
        let vs = view () and split = view () in
        View_state.adjust vs (c 1 10) ~sums:[| (1, 4) |] ~before:a1 ~after:a2;
        Alcotest.(check (list tuple)) "view: in place keeps the row"
          [ row [ i 1 ]; row [ i 2 ] ] (view_order vs);
        View_state.unfeed split (c 1 10) ~cnt:1;
        View_state.feed split (c 1 12) ~cnt:1;
        Alcotest.(check (list tuple)) "view: delete + insert re-creates it"
          [ row [ i 2 ]; row [ i 1 ] ] (view_order split);
        Alcotest.(check bool) "view: same state either way" true
          (View_state.equal vs split));
    test "adjust rejects what delete + insert rejects, before any write"
      (fun () ->
        let db = Workload.Retail.empty () in
        let a1 = row [ i 1; i 1; i 1; i 1; i 10 ] in
        (* the oracle of "untouched": a second store fed the same row *)
        let aux () =
          let st = Aux_state.create (sale_spec db) (sale_schema db) in
          Aux_state.insert_base st a1;
          st
        in
        let st = aux () and snapshot = aux () in
        let rejects what f =
          match f () with
          | () -> Alcotest.failf "%s: expected Invalid_argument" what
          | exception Invalid_argument _ -> ()
        in
        rejects "aux: absent group" (fun () ->
            Aux_state.adjust st ~before:(with_ a1 1 (i 9)) ~after:(with_ a1 1 (i 9)));
        rejects "aux: NULL price" (fun () ->
            Aux_state.adjust st ~before:a1 ~after:(with_ a1 4 Value.Null));
        rejects "aux: a moving update" (fun () ->
            Aux_state.adjust st ~before:a1 ~after:(with_ a1 1 (i 2)));
        Alcotest.(check bool) "aux: untouched" true (Aux_state.equal st snapshot);
        let max_spec =
          Option.get
            (Derive.spec_for
               (Derive.derive_with
                  { Derive.append_only_options with Derive.elimination = false }
                  db Workload.Retail.product_sales_max)
               "sale")
        in
        let ext = Aux_state.create max_spec (sale_schema db) in
        Aux_state.insert_base ext a1;
        rejects "aux: MIN/MAX columns" (fun () ->
            Aux_state.adjust ext ~before:a1 ~after:(with_ a1 4 (i 11)));
        let c k p = feed_row (row [ i k ]) [| `Key; `Sum (i p) |] in
        let view () =
          let vs = View_state.create revenue_by_month ~determined:false in
          View_state.feed vs (c 1 10) ~cnt:1;
          vs
        in
        let vs = view () and snapshot = view () in
        rejects "view: absent group" (fun () ->
            View_state.adjust vs (c 2 10) ~sums:[| (1, 4) |] ~before:a1
              ~after:a1);
        rejects "view: NULL price" (fun () ->
            View_state.adjust vs (c 1 10) ~sums:[| (1, 4) |] ~before:a1
              ~after:(with_ a1 4 Value.Null));
        rejects "view: not a SUM" (fun () ->
            View_state.adjust vs (c 1 10) ~sums:[| (0, 4) |] ~before:a1
              ~after:a1);
        Alcotest.(check bool) "view: untouched" true (View_state.equal vs snapshot));
  ]

(* --- allocation per delta -------------------------------------------------- *)

(* The retail star of the pipeline benchmark, scaled down: a FLOAT
   [amount] beside the INT [price], and a uniform stream of 50% fresh
   facts, 30% price/amount updates and 20% deletions. *)
let alloc_star () =
  let col name ty = { Schema.col_name = name; col_type = ty } in
  let db = Database.create () in
  Database.add_table db
    (Schema.make ~name:"time" ~key:"id"
       [ col "id" Datatype.TInt; col "day" Datatype.TInt;
         col "month" Datatype.TInt; col "year" Datatype.TInt ])
    ~updatable:[ "month" ];
  Database.add_table db
    (Schema.make ~name:"store" ~key:"id"
       [ col "id" Datatype.TInt; col "city" Datatype.TString ])
    ~updatable:[];
  Database.add_table db
    (Schema.make ~name:"sale" ~key:"id"
       [ col "id" Datatype.TInt; col "timeid" Datatype.TInt;
         col "storeid" Datatype.TInt; col "price" Datatype.TInt;
         col "amount" Datatype.TFloat ])
    ~updatable:[ "price"; "amount" ];
  List.iter
    (fun (src_col, dst_table) ->
      Database.add_reference db
        { Relational.Integrity.src_table = "sale"; src_col; dst_table })
    [ ("timeid", "time"); ("storeid", "store") ];
  for d = 0 to 119 do
    Database.insert db "time"
      [| i (d + 1); i ((d mod 30) + 1); i ((d mod 360 / 30) + 1);
         i (if d < 60 then 1996 else 1997) |]
  done;
  for k = 0 to 7 do
    Database.insert db "store" [| i (k + 1); s (Printf.sprintf "city%d" (k mod 7)) |]
  done;
  db

let alloc_stream db ~seed =
  let rng = Workload.Prng.create seed in
  let live = ref [||] and n = ref 0 and next = ref 1 in
  let push tup =
    if !n = Array.length !live then begin
      let bigger = Array.make (max 16 (2 * !n)) [||] in
      Array.blit !live 0 bigger 0 !n;
      live := bigger
    end;
    !live.(!n) <- tup;
    incr n
  in
  let amount () = f (float_of_int (Workload.Prng.int rng 400 + 1) *. 0.25) in
  let fresh () =
    let id = !next in
    incr next;
    [| i id; i (Workload.Prng.int rng 120 + 1); i (Workload.Prng.int rng 8 + 1);
       i (Workload.Prng.int rng 100 + 1); amount () |]
  in
  for _ = 1 to 4_000 do
    let tup = fresh () in
    Database.insert db "sale" tup;
    push tup
  done;
  let batch () =
    List.init 500 (fun _ ->
        let r = Workload.Prng.int rng 100 in
        if r < 50 || !n = 0 then begin
          let tup = fresh () in
          push tup;
          Delta.insert "sale" tup
        end
        else begin
          let k = Workload.Prng.int rng !n in
          let before = !live.(k) in
          if r < 80 then begin
            let after = Array.copy before in
            after.(3) <- i (Workload.Prng.int rng 100 + 1);
            after.(4) <- amount ();
            !live.(k) <- after;
            Delta.update "sale" ~before ~after
          end
          else begin
            decr n;
            !live.(k) <- !live.(!n);
            Delta.delete "sale" before
          end
        end)
  in
  batch

(* Minor-heap words one delta costs a warm engine, journal included, on
   each CSMAS view of the benchmark's [star_csmas] workload: 2,000 uniform
   deltas in four transactional batches. Each bound is 1.25x the value
   measured when the typed feed plans went in — 3.3, 3.1 and 3.1 words
   per delta, nearly all of it the fixed cost of a batch. The boxed
   contribution path they replaced allocated about 80 words per delta and
   view (perfbench: 1,869 B per delta over these three views). *)
let alloc_bounds =
  [ ("sales_by_time", 4.1); ("monthly_revenue", 3.9); ("amount_by_city", 3.9) ]

let alloc_tests =
  [
    test "a CSMAS delta allocates a bounded handful of words" (fun () ->
        let db = alloc_star () in
        let next_batch = alloc_stream db ~seed:7 in
        let views =
          [ Workload.Retail.sales_by_time; Workload.Retail.monthly_revenue;
            view_of_sql db amount_by_city_sql ]
        in
        let engines = List.map (fun v -> (v.View.name, Engines.minimal db v)) views in
        (* each batch as the warehouse applies it; publication, a phase of
           its own, is left out of the count *)
        let run batches =
          List.map
            (fun (name, e) ->
              let words = ref 0. in
              List.iter
                (fun b ->
                  let w0 = Gc.minor_words () in
                  Engines.begin_txn e;
                  Engines.apply_batch e b;
                  Engines.commit e;
                  words := !words +. (Gc.minor_words () -. w0);
                  ignore (Engines.publish e))
                batches;
              (name, !words))
            engines
        in
        let (_ : (string * float) list) = run (List.init 4 (fun _ -> next_batch ())) in
        let batches = List.init 4 (fun _ -> next_batch ()) in
        List.iter
          (fun (name, words) ->
            let per_delta = words /. 2_000. in
            let bound = List.assoc name alloc_bounds in
            if per_delta > bound then
              Alcotest.failf "%s: %.1f minor words per delta, above %.1f" name
                per_delta bound)
          (run batches));
  ]

let () =
  Alcotest.run "maintenance"
    [
      ("aux_state", aux_state_tests);
      ("engine", engine_tests);
      ("reparenting", reparenting_tests);
      ("contract", contract_tests);
      ("fk-index", index_tests);
      ("recompute", recompute_tests);
      ("elimination", elimination_tests);
      ("engines", engines_tests);
      ("distinct", distinct_tests);
      ("in-place", in_place_tests);
      ("allocation", alloc_tests);
    ]
