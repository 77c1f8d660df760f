(* Tests for the derivation variants: the ablation switches (each reduction
   technique disabled individually) and the append-only old-detail relaxation
   of Section 4. *)

open Helpers
module Derive = Mindetail.Derive
module Auxview = Mindetail.Auxview
module Engines = Maintenance.Engines
module Engine = Maintenance.Engine

let test case fn = Alcotest.test_case case `Quick fn

let tiny_params =
  {
    Workload.Retail.days = 8;
    stores = 2;
    products = 12;
    sold_per_store_day = 4;
    tx_per_product = 2;
    brands = 4;
    seed = 17;
  }

let no_push = { Derive.default_options with Derive.push_locals = false }
let no_semijoin = { Derive.default_options with Derive.join_reductions = false }
let no_compress = { Derive.default_options with Derive.compression = false }
let no_elim = { Derive.default_options with Derive.elimination = false }

let all_off =
  {
    Derive.push_locals = false;
    join_reductions = false;
    compression = false;
    elimination = false;
    append_only = false;
  }

let variants =
  [
    ("no-pushdown", no_push); ("no-semijoin", no_semijoin);
    ("no-compression", no_compress); ("no-elimination", no_elim);
    ("all-off", all_off);
  ]

let detail_rows db d =
  List.fold_left
    (fun acc (spec : Auxview.t) ->
      acc
      + Relation.cardinality (Mindetail.Materialize.aux db d spec.Auxview.base))
    0 (Derive.specs d)

(* --- structure of the variant derivations --------------------------------- *)

let structure_tests =
  [
    test "no-pushdown keeps condition columns, no spec locals" (fun () ->
        let db = Workload.Retail.empty () in
        let d = Derive.derive_with no_push db Workload.Retail.product_sales in
        let time_spec = Option.get (Derive.spec_for d "time") in
        Alcotest.(check int) "no pushed conds" 0
          (List.length time_spec.Auxview.locals);
        Alcotest.(check bool) "year kept" true
          (Auxview.plain_index time_spec "year" <> None);
        Alcotest.(check int) "one residual" 1
          (List.length (Derive.residual_locals d "time")));
    test "default derivation has no residuals" (fun () ->
        let db = Workload.Retail.empty () in
        let d = Derive.derive db Workload.Retail.product_sales in
        List.iter
          (fun tbl ->
            Alcotest.(check int) tbl 0
              (List.length (Derive.residual_locals d tbl)))
          [ "sale"; "time"; "product" ]);
    test "no-semijoin drops all semijoins" (fun () ->
        let db = Workload.Retail.empty () in
        let d =
          Derive.derive_with no_semijoin db Workload.Retail.product_sales
        in
        List.iter
          (fun (spec : Auxview.t) ->
            Alcotest.(check int) spec.Auxview.base 0
              (List.length spec.Auxview.semijoins))
          (Derive.specs d));
    test "no-compression stores tuple-level views with keys" (fun () ->
        let db = Workload.Retail.empty () in
        let d =
          Derive.derive_with no_compress db Workload.Retail.product_sales
        in
        List.iter
          (fun (spec : Auxview.t) ->
            Alcotest.(check bool) spec.Auxview.base false
              spec.Auxview.compressed;
            let key =
              (Relational.Database.schema_of db spec.Auxview.base).Schema.key
            in
            Alcotest.(check bool) "keeps key" true (Auxview.keeps_key spec ~key))
          (Derive.specs d));
    test "no-elimination retains the fact view of sales_by_time" (fun () ->
        let db = Workload.Retail.empty () in
        let d = Derive.derive_with no_elim db Workload.Retail.sales_by_time in
        Alcotest.(check (list string)) "nothing omitted" []
          (Derive.omitted_tables d));
  ]

(* --- correctness of every variant under random streams -------------------- *)

let correctness_tests =
  List.map
    (fun (name, options) ->
      test (name ^ " maintains correctly") (fun () ->
          List.iteri
            (fun idx view ->
              let db = Workload.Retail.load tiny_params in
              let e = Engines.with_options ~name options db view in
              let rng = Workload.Prng.create (100 + idx) in
              for round = 1 to 4 do
                let deltas = Workload.Delta_gen.stream rng db ~n:40 in
                Engines.apply_batch e deltas;
                Alcotest.check relation
                  (Printf.sprintf "%s/%s round %d" name view.View.name round)
                  (Algebra.Eval.eval db view)
                  (Engines.view_contents e)
              done)
            [
              Workload.Retail.product_sales;
              Workload.Retail.product_sales_max;
              Workload.Retail.sales_by_time;
              Workload.Retail.monthly_revenue;
            ]))
    variants

let variant_aux_tests =
  [
    test "variant aux state matches variant materialization" (fun () ->
        List.iter
          (fun (name, options) ->
            let db = Workload.Retail.load tiny_params in
            let d =
              Derive.derive_with options db Workload.Retail.product_sales
            in
            let engine = Engine.init db d in
            let rng = Workload.Prng.create 55 in
            Engine.apply_batch engine (Workload.Delta_gen.stream rng db ~n:80);
            let got = Engine.aux_contents engine in
            List.iter
              (fun (tbl, expected) ->
                Alcotest.check relation (name ^ "/" ^ tbl) expected
                  (List.assoc tbl got))
              (Mindetail.Materialize.all db d))
          variants);
    test "variant reconstruction equals evaluation" (fun () ->
        List.iter
          (fun (name, options) ->
            let db = Workload.Retail.load tiny_params in
            let d =
              Derive.derive_with options db Workload.Retail.product_sales
            in
            Alcotest.(check bool) name true (Mindetail.Reconstruct.check db d))
          variants);
    test "each technique reduces stored detail rows" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let rows options =
          detail_rows db
            (Derive.derive_with options db Workload.Retail.product_sales)
        in
        let full = rows Derive.default_options in
        List.iter
          (fun (name, options) ->
            Alcotest.(check bool) name true (full <= rows options))
          [ ("no-pushdown", no_push); ("no-semijoin", no_semijoin);
            ("no-compression", no_compress); ("all-off", all_off) ]);
  ]

(* --- column-vs-column local conditions -------------------------------------- *)

(* The schema generator only emits constant right-hand sides; these views
   compare two columns of one row, on the root and on a dimension, so the
   engine's resolved conditions take their position-vs-position branch —
   on base tuples, and in the no-pushdown ablation on stored rows. *)
let col_cond l op r = { Predicate.left = l; op; right = Predicate.Col r }

let col_vs_col_locals =
  [
    col_cond (a "sale" "productid") Cmp.Lt (a "sale" "price");
    col_cond (a "time" "month") Cmp.Lt (a "time" "day");
  ]

let col_vs_col_views =
  [
    (* MAX keeps the root auxiliary view and walks it for dirty groups *)
    {
      View.name = "category_top";
      having = [];
      select =
        [
          group (a "product" "category");
          sum ~alias:"total" (a "sale" "price");
          count_star ();
          max_ ~alias:"top" (a "sale" "price");
        ];
      tables = [ "sale"; "time"; "product" ];
      locals = col_vs_col_locals;
      joins =
        [
          join (a "sale" "timeid") (a "time" "id");
          join (a "sale" "productid") (a "product" "id");
        ];
    };
    {
      View.name = "daily_revenue";
      having = [];
      select =
        [
          group (a "time" "id");
          sum ~alias:"revenue" (a "sale" "price");
          count_star ();
        ];
      tables = [ "sale"; "time" ];
      locals = col_vs_col_locals;
      joins = [ join (a "sale" "timeid") (a "time" "id") ];
    };
  ]

let col_vs_col_tests =
  List.map
    (fun (name, options) ->
      test (name ^ ": column-vs-column conditions, serial == netted")
        (fun () ->
          List.iteri
            (fun idx view ->
              let db = Workload.Retail.load tiny_params in
              View.validate db view;
              let ser = Engines.with_options ~name options db view in
              let par = Engines.with_options ~name options db view in
              let rng = Workload.Prng.create (300 + idx) in
              let mix = { Workload.Delta_gen.insert = 2; delete = 2; update = 2 } in
              for round = 1 to 5 do
                (* generated in order: each stream applies itself to [db] *)
                let facts = Workload.Delta_gen.stream ~mix rng db ~n:30 in
                let dims =
                  Workload.Delta_gen.stream_for ~mix rng db
                    ~tables:[ "time"; "product" ] ~n:4
                in
                let deltas = facts @ dims in
                apply_each Engines.apply_batch ser deltas;
                Engines.apply_batch par deltas;
                let what = Printf.sprintf "%s/%s round %d" name view.View.name round in
                Alcotest.check relation what
                  (Algebra.Eval.eval db view)
                  (Engines.view_contents ser);
                Alcotest.check relation (what ^ " (netted)")
                  (Engines.view_contents ser)
                  (Engines.view_contents par);
                Alcotest.(check bool) (what ^ ": equal state") true
                  (Engines.equal_state ser par)
              done)
            col_vs_col_views))
    [
      ("minimal", Derive.default_options); ("no-pushdown", no_push);
      ("no-semijoin", no_semijoin);
    ]

(* --- append-only mode ------------------------------------------------------ *)

let inserts_only = { Workload.Delta_gen.insert = 1; delete = 0; update = 0 }

(* SUM/COUNT/MIN/MAX by month over sale and time: grouped on a dimension
   column, so the append-only derivation keeps the sale auxiliary view and
   holds MIN(price) and MAX(price) in its columns. *)
let sales_profile =
  {
    View.name = "sales_profile";
    having = [];
    select =
      [
        group (a "time" "month");
        sum ~alias:"Revenue" (a "sale" "price");
        count_star ~alias:"Sales" ();
        min_ ~alias:"MinPrice" (a "sale" "price");
        max_ ~alias:"MaxPrice" (a "sale" "price");
      ];
    tables = [ "sale"; "time" ];
    locals = [];
    joins = [ join (a "sale" "timeid") (a "time" "id") ];
  }

let check_view ?(msg = "maintained == recomputed") e db view =
  Alcotest.check relation msg (Algebra.Eval.eval db view)
    (Engines.view_contents e)

let some_sale db =
  Relational.Database.fold db "sale"
    (fun tup acc -> match acc with None -> Some tup | some -> some)
    None
  |> Option.get

(* [f] must raise [Engine.Invariant] and leave [e] equal to an engine
   rebuilt from the unchanged source. *)
let refused_untouched db view e f =
  (match f () with
  | exception Engine.Invariant _ -> ()
  | () -> Alcotest.fail "expected Engine.Invariant");
  Alcotest.(check bool) "state equals a rebuild" true
    (Engines.equal_state e (Engines.append_only db view))

let detail_total e =
  List.fold_left (fun acc (_, rows, _) -> acc + rows) 0 (Engines.detail_profile e)

let append_tests =
  [
    test "MIN/MAX are CSMAS under insertions only" (fun () ->
        let mk f = Aggregate.make ~alias:"x" f (Some (a "t" "c")) in
        Alcotest.(check bool) "max" true
          (Mindetail.Classify.is_csmas ~append_only:true (mk Aggregate.Max));
        Alcotest.(check bool) "min" true
          (Mindetail.Classify.is_csmas ~append_only:true (mk Aggregate.Min));
        Alcotest.(check bool) "distinct still not" false
          (Mindetail.Classify.is_csmas ~append_only:true
             (Aggregate.make ~distinct:true ~alias:"x" Aggregate.Count
                (Some (a "t" "c")))));
    test "append-only eliminates the single-table MAX view entirely" (fun () ->
        (* with MAX completely self-maintainable, the single-table
           product_sales_max needs no auxiliary data at all *)
        let db = Workload.Retail.empty () in
        let d =
          Derive.derive_with Derive.append_only_options db
            Workload.Retail.product_sales_max
        in
        Alcotest.(check (list string)) "omitted" [ "sale" ]
          (Derive.omitted_tables d));
    test "append-only compresses MAX into a max column" (fun () ->
        let db = Workload.Retail.empty () in
        (* force retention to observe the compressed spec *)
        let d =
          Derive.derive_with
            { Derive.append_only_options with Derive.elimination = false }
            db Workload.Retail.product_sales_max
        in
        let spec = Option.get (Derive.spec_for d "sale") in
        Alcotest.(check bool) "compressed" true spec.Auxview.compressed;
        Alcotest.(check bool) "max col" true
          (Auxview.max_position spec "price" <> None);
        Alcotest.(check bool) "sum col" true
          (Auxview.sum_position spec "price" <> None);
        (* price no longer needs to be kept plainly *)
        Alcotest.(check bool) "price not plain" true
          (Auxview.plain_index spec "price" = None));
    test "append-only unblocks elimination for MAX views" (fun () ->
        let db = Workload.Retail.empty () in
        let v =
          { Workload.Retail.sales_by_time with
            View.name = "with_max";
            having = [];
            select =
              Workload.Retail.sales_by_time.View.select
              @ [ max_ ~alias:"mx" (a "sale" "price") ] }
        in
        Alcotest.(check (list string)) "standard keeps all" []
          (Derive.omitted_tables (Derive.derive db v));
        Alcotest.(check (list string)) "append-only omits sale" [ "sale" ]
          (Derive.omitted_tables
             (Derive.derive_with Derive.append_only_options db v)));
    test "append-only engine maintains MIN/MAX under insert streams" (fun () ->
        List.iter
          (fun view ->
            let db = Workload.Retail.load tiny_params in
            let e = Engines.append_only db view in
            let rng = Workload.Prng.create 7 in
            for round = 1 to 4 do
              let deltas =
                Workload.Delta_gen.stream ~mix:inserts_only rng db ~n:50
              in
              Engines.apply_batch e deltas;
              Alcotest.check relation
                (Printf.sprintf "%s round %d" view.View.name round)
                (Algebra.Eval.eval db view)
                (Engines.view_contents e)
            done)
          [
            Workload.Retail.product_sales_max;
            Workload.Retail.product_sales;
            Workload.Retail.monthly_revenue;
          ]);
    test "append-only reconstruction reads the extremum columns" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let d =
          Derive.derive_with
            { Derive.append_only_options with Derive.elimination = false }
            db Workload.Retail.product_sales_max
        in
        Alcotest.(check bool) "reconstructs" true
          (Mindetail.Reconstruct.check db d);
        let mx =
          List.find
            (fun (g : Aggregate.t) -> g.Aggregate.alias = "MaxPrice")
            (View.aggregates Workload.Retail.product_sales_max)
        in
        match Derive.agg_source d mx with
        | Some (Derive.From_max { table = "sale"; column = "price" }) -> ()
        | _ -> Alcotest.fail "MaxPrice should read the max column");
    test "append-only engine rejects deletions and updates" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let e = Engines.append_only db Workload.Retail.product_sales_max in
        match Engines.apply_batch e [ Delta.delete "sale" (some_sale db) ] with
        | exception Engine.Invariant _ -> ()
        | () -> Alcotest.fail "expected Engine.Invariant");
    test "append-only aux state matches materialization" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let d =
          Derive.derive_with Derive.append_only_options db
            Workload.Retail.product_sales_max
        in
        let engine = Engine.init db d in
        let rng = Workload.Prng.create 9 in
        Engine.apply_batch engine
          (Workload.Delta_gen.stream ~mix:inserts_only rng db ~n:100);
        let got = Engine.aux_contents engine in
        List.iter
          (fun (tbl, expected) ->
            Alcotest.check relation tbl expected (List.assoc tbl got))
          (Mindetail.Materialize.all db d));
    test "append-only detail is no larger than standard" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let rows options =
          detail_rows db
            (Derive.derive_with options db Workload.Retail.product_sales_max)
        in
        Alcotest.(check bool) "smaller or equal" true
          (rows Derive.append_only_options <= rows Derive.default_options));
    test "late fact inserts move a loaded group's MIN and MAX" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let e = Engines.append_only db sales_profile in
        check_view ~msg:"initial build" e db sales_profile;
        (* a late-arriving fact below every price and one above every
           price, both into the loaded month *)
        let low = row [ i 90_001; i 2; i 1; i 1; i (-5) ] in
        let high = row [ i 90_002; i 7; i 1; i 1; i 1_000_000 ] in
        let before = Engines.view_contents e in
        let deltas = [ Delta.insert "sale" low; Delta.insert "sale" high ] in
        Relational.Database.apply_all db deltas;
        Engines.apply_batch e deltas;
        Alcotest.(check bool) "the group changed" false
          (Relation.equal before (Engines.view_contents e));
        check_view e db sales_profile);
    test "a batch holding one fact deletion applies nothing" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let e = Engines.append_only db sales_profile in
        let fresh = row [ i 90_001; i 2; i 1; i 1; i 1_000_000 ] in
        refused_untouched db sales_profile e (fun () ->
            Engines.apply_batch e
              [ Delta.insert "sale" fresh; Delta.delete "sale" (some_sale db) ]);
        (* refused even when the deletion nets out against the insert *)
        refused_untouched db sales_profile e (fun () ->
            Engines.apply_batch e
              [ Delta.insert "sale" fresh; Delta.delete "sale" fresh ]);
        check_view e db sales_profile);
    test "append-only engine refuses fact updates" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let e = Engines.append_only db sales_profile in
        let before = some_sale db in
        let after = Array.copy before in
        after.(4) <- i 1_000_000;
        refused_untouched db sales_profile e (fun () ->
            Engines.apply_batch e [ Delta.update "sale" ~before ~after ]);
        check_view e db sales_profile);
    test "dimension changes reach the append-only view" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let e = Engines.append_only db sales_profile in
        (* month is the group attribute: moving day 3 splits the group *)
        let before =
          Option.get (Relational.Database.find_by_key db "time" (i 3))
        in
        let after = Array.copy before in
        after.(2) <- i 12;
        Relational.Database.apply db (Delta.update "time" ~before ~after);
        Engines.apply_batch e [ Delta.update "time" ~before ~after ];
        check_view ~msg:"after the month update" e db sales_profile;
        (* a new dimension member and a fact referencing it *)
        let deltas =
          [ Delta.insert "time" (row [ i 99; i 9; i 9; i 1997 ]);
            Delta.insert "sale" (row [ i 90_010; i 99; i 1; i 1; i 4 ]) ]
        in
        Relational.Database.apply_all db deltas;
        Engines.apply_batch e deltas;
        check_view ~msg:"after the new member" e db sales_profile);
    test "fact inserts with dimension churn stay correct" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let views = [ sales_profile; Workload.Retail.product_sales ] in
        let engines = List.map (Engines.append_only db) views in
        let rng = Workload.Prng.create 7 in
        for round = 1 to 6 do
          (* every op on time and product: the generator deletes a time row
             only while no fact references it *)
          let facts =
            Workload.Delta_gen.stream_for ~mix:inserts_only rng db
              ~tables:[ "sale" ] ~n:20
          in
          let dims =
            Workload.Delta_gen.stream_for rng db ~tables:[ "time"; "product" ]
              ~n:10
          in
          List.iter2
            (fun e view ->
              Engines.apply_batch e (facts @ dims);
              check_view
                ~msg:(Printf.sprintf "%s round %d" view.View.name round)
                e db view)
            engines views
        done);
    test "append-only detail stays smaller under insert streams" (fun () ->
        (* the standard derivation keeps price plainly for MIN/MAX, one
           stored row per (timeid, price); append-only keeps one per timeid *)
        let db = Workload.Retail.load tiny_params in
        let std = Engines.minimal db sales_profile in
        let app = Engines.append_only db sales_profile in
        let rng = Workload.Prng.create 11 in
        for round = 1 to 4 do
          let deltas =
            Workload.Delta_gen.stream_for ~mix:inserts_only rng db
              ~tables:[ "sale" ] ~n:40
          in
          Engines.apply_batch std deltas;
          Engines.apply_batch app deltas;
          Alcotest.(check bool)
            (Printf.sprintf "round %d: fewer detail rows" round)
            true
            (detail_total app < detail_total std)
        done;
        check_view app db sales_profile);
  ]

let () =
  Alcotest.run "variants"
    [
      ("structure", structure_tests);
      ("ablation-correctness", correctness_tests);
      ("ablation-aux", variant_aux_tests);
      ("column-vs-column", col_vs_col_tests);
      ("append-only", append_tests);
    ]
