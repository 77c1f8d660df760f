(* Property-based tests (qcheck): random GPSJ views over the retail star
   schema, random legal delta streams, and the core invariants:

   - self-maintenance: the incrementally maintained view equals recomputation
     from the evolved base tables (Theorem 1, operationally);
   - the maintained auxiliary state equals the auxiliary views recomputed
     from the base tables;
   - reconstruction from auxiliary views equals direct evaluation;
   - smart duplicate compression never stores more rows than the PSJ
     baseline;
   - bag-relation laws. *)

open Helpers
module Gen = QCheck2.Gen
module Derive = Mindetail.Derive

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

(* --- random GPSJ views over the retail schema ----------------------------- *)

type spec = {
  dims : string list;
  groups : Attr.t list;
  aggs : Select_item.t list;
  locals : Predicate.t list;
}

let dim_gen = Gen.oneofl [ []; [ "time" ]; [ "product" ]; [ "time"; "product" ];
                           [ "time"; "product"; "store" ]; [ "store" ] ]

let group_candidates dims =
  [ a "sale" "timeid"; a "sale" "productid"; a "sale" "storeid" ]
  @ (if List.mem "time" dims then [ a "time" "month"; a "time" "year" ] else [])
  @ (if List.mem "product" dims then [ a "product" "brand"; a "product" "category" ]
     else [])
  @ if List.mem "store" dims then [ a "store" "city" ] else []

let agg_candidates dims =
  [
    sum ~alias:"total_price" (a "sale" "price");
    count_star ~alias:"cnt" ();
    avg ~alias:"avg_price" (a "sale" "price");
    min_ ~alias:"min_price" (a "sale" "price");
    max_ ~alias:"max_price" (a "sale" "price");
  ]
  @ (if List.mem "time" dims then [ sum ~alias:"sum_day" (a "time" "day") ] else [])
  @
  if List.mem "product" dims then
    [ count_distinct ~alias:"brands" (a "product" "brand") ]
  else []

let local_candidates dims =
  (if List.mem "time" dims then
     [ local (a "time" "year") Cmp.Eq (i 1997);
       local (a "time" "month") Cmp.Le (i 6) ]
   else [])
  @ [ local (a "sale" "price") Cmp.Gt (i 20) ]
  @
  if List.mem "product" dims then
    [ local (a "product" "brand") Cmp.Neq (s "brand0") ]
  else []

let sublist xs =
  Gen.(List.fold_right
         (fun x acc ->
           bind bool (fun keep ->
               map (fun rest -> if keep then x :: rest else rest) acc))
         xs (return []))

let spec_gen =
  Gen.bind dim_gen (fun dims ->
      Gen.bind (sublist (group_candidates dims)) (fun groups ->
          Gen.bind (sublist (agg_candidates dims)) (fun aggs ->
              Gen.map
                (fun locals -> { dims; groups; aggs; locals })
                (sublist (local_candidates dims)))))

let view_of_spec { dims; groups; aggs; locals } =
  let select =
    List.map (fun at -> group ~alias:(at.Attr.table ^ "_" ^ at.Attr.column) at)
      groups
    @ aggs
  in
  let select = if select = [] then [ count_star ~alias:"cnt" () ] else select in
  (* drop superfluous MIN/MAX/AVG over group-by attributes *)
  let select =
    List.filter
      (fun item ->
        match item with
        | Select_item.Agg g -> (
          match g.Aggregate.func, Aggregate.attr g with
          | (Aggregate.Min | Aggregate.Max | Aggregate.Avg), Some at ->
            not (List.exists (Attr.equal at) groups)
          | _ -> true)
        | Select_item.Group _ -> true)
      select
  in
  let joins =
    List.map
      (fun d ->
        match d with
        | "time" -> join (a "sale" "timeid") (a "time" "id")
        | "product" -> join (a "sale" "productid") (a "product" "id")
        | "store" -> join (a "sale" "storeid") (a "store" "id")
        | _ -> assert false)
      dims
  in
  {
    View.name = "rand_view";
    having = [];
    select;
    tables = "sale" :: dims;
    locals;
    joins;
  }

let view_gen = Gen.map view_of_spec spec_gen

let print_view v = View.to_sql v

(* --- properties ------------------------------------------------------------ *)

(* QCHECK_COUNT=500 dune exec test/test_properties.exe  — soak mode *)
let count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some n -> int_of_string n
  | None -> 40

let prop_maintained_equals_recomputed =
  QCheck2.Test.make ~count ~name:"maintained == recomputed (random views+streams)"
    ~print:(fun (v, seed) -> Printf.sprintf "%s / seed %d" (print_view v) seed)
    Gen.(pair view_gen (int_bound 10_000))
    (fun (view, seed) ->
      let db = Workload.Retail.load tiny_params in
      View.validate db view;
      let e = Maintenance.Engines.minimal db view in
      let rng = Workload.Prng.create seed in
      let ok = ref true in
      for _ = 1 to 4 do
        let deltas = Workload.Delta_gen.stream rng db ~n:30 in
        Maintenance.Engines.apply_batch e deltas;
        ok :=
          !ok
          && Relation.equal
               (Maintenance.Engines.view_contents e)
               (Algebra.Eval.eval db view)
      done;
      !ok)

(* Random views that keep at least one component maintained by dirty-group
   recomputation (MIN/MAX under deletion, COUNT DISTINCT). *)
let recompute_view_gen =
  Gen.map
    (fun view ->
      let recomputed = function
        | Select_item.Agg g ->
          g.Aggregate.distinct
          || g.Aggregate.func = Aggregate.Min
          || g.Aggregate.func = Aggregate.Max
        | Select_item.Group _ -> false
      in
      if List.exists recomputed view.View.select then view
      else
        { view with
          View.select =
            view.View.select @ [ max_ ~alias:"max_price" (a "sale" "price") ] })
    view_gen

let prop_recompute_paths =
  QCheck2.Test.make ~count
    ~name:"dirty-group recomputation == recomputed (fk index on/off)"
    ~print:(fun ((v, fk_index), seed) ->
      Printf.sprintf "%s / fk_index %b / seed %d" (print_view v) fk_index seed)
    Gen.(pair (pair recompute_view_gen bool) (int_bound 10_000))
    (fun ((view, fk_index), seed) ->
      let db = Workload.Retail.load tiny_params in
      View.validate db view;
      (* without the fk index there is no driving join: the filtered scan *)
      let e = Maintenance.Engine.init ~fk_index db (Derive.derive db view) in
      let rng = Workload.Prng.create seed in
      let mix = { Workload.Delta_gen.insert = 1; delete = 3; update = 3 } in
      let ok = ref true in
      for _ = 1 to 5 do
        Maintenance.Engine.apply_batch e
          (Workload.Delta_gen.stream ~mix rng db ~n:25);
        ok :=
          !ok
          && Relation.equal
               (Maintenance.Engine.view_contents e)
               (Algebra.Eval.eval db view)
      done;
      !ok)

let prop_psj_engine_agrees =
  QCheck2.Test.make ~count ~name:"PSJ engine == recomputed (random views+streams)"
    ~print:(fun (v, seed) -> Printf.sprintf "%s / seed %d" (print_view v) seed)
    Gen.(pair view_gen (int_bound 10_000))
    (fun (view, seed) ->
      let db = Workload.Retail.load tiny_params in
      View.validate db view;
      let e = Maintenance.Engines.psj db view in
      let rng = Workload.Prng.create seed in
      Maintenance.Engines.apply_batch e
        (Workload.Delta_gen.stream rng db ~n:80);
      Relation.equal
        (Maintenance.Engines.view_contents e)
        (Algebra.Eval.eval db view))

let prop_aux_state_matches_materialization =
  QCheck2.Test.make ~count ~name:"maintained aux == materialized aux"
    ~print:(fun (v, seed) -> Printf.sprintf "%s / seed %d" (print_view v) seed)
    Gen.(pair view_gen (int_bound 10_000))
    (fun (view, seed) ->
      let db = Workload.Retail.load tiny_params in
      let d = Derive.derive db view in
      let engine = Maintenance.Engine.init db d in
      let rng = Workload.Prng.create seed in
      Maintenance.Engine.apply_batch engine
        (Workload.Delta_gen.stream rng db ~n:80);
      let got = Maintenance.Engine.aux_contents engine in
      List.for_all
        (fun (tbl, expected) -> Relation.equal expected (List.assoc tbl got))
        (Mindetail.Materialize.all db d))

let prop_reconstruction =
  QCheck2.Test.make ~count ~name:"reconstruction == evaluation"
    ~print:print_view view_gen
    (fun view ->
      let db = Workload.Retail.load tiny_params in
      let d = Derive.derive db view in
      match Mindetail.Reconstruct.check db d with
      | ok -> ok
      | exception Mindetail.Reconstruct.Not_reconstructible _ ->
        (* root view eliminated: nothing to reconstruct, V is its own record *)
        true)

let prop_compression_no_larger =
  QCheck2.Test.make ~count ~name:"compressed aux rows <= PSJ aux rows"
    ~print:print_view view_gen
    (fun view ->
      let db = Workload.Retail.load tiny_params in
      let dmin = Derive.derive db view in
      let dpsj = Mindetail.Psj.derive db view in
      List.for_all
        (fun (spec : Mindetail.Auxview.t) ->
          let tbl = spec.Mindetail.Auxview.base in
          Relation.cardinality (Mindetail.Materialize.aux db dmin tbl)
          <= Relation.cardinality (Mindetail.Materialize.aux db dpsj tbl))
        (Derive.specs dmin))

let prop_elimination_sound =
  QCheck2.Test.make ~count ~name:"omitted views are never semijoin targets"
    ~print:print_view view_gen
    (fun view ->
      let db = Workload.Retail.load tiny_params in
      let d = Derive.derive db view in
      let omitted = Derive.omitted_tables d in
      List.for_all
        (fun (spec : Mindetail.Auxview.t) ->
          List.for_all
            (fun (sj : Mindetail.Auxview.semijoin) ->
              not (List.mem sj.Mindetail.Auxview.target omitted))
            spec.Mindetail.Auxview.semijoins)
        (Derive.specs d))

(* --- bag-relation laws ------------------------------------------------------ *)

let tuple_gen =
  Gen.(map (fun xs -> Array.of_list (List.map (fun n -> i n) xs))
         (list_size (return 2) (int_bound 3)))

let bag_gen = Gen.list_size (Gen.int_bound 30) tuple_gen

let prop_bag_insert_delete =
  QCheck2.Test.make ~count:100 ~name:"relation: delete inverts insert"
    bag_gen
    (fun tuples ->
      let r = Relation.create () in
      List.iter (Relation.insert r) tuples;
      let before = Relation.copy r in
      let probe = row [ i 99; i 99 ] in
      Relation.insert r probe;
      ignore (Relation.delete r probe);
      Relation.equal before r)

let prop_bag_cardinality =
  QCheck2.Test.make ~count:100 ~name:"relation: cardinality = sum of counts"
    bag_gen
    (fun tuples ->
      let r = Relation.create () in
      List.iter (Relation.insert r) tuples;
      Relation.cardinality r = List.length tuples
      && Relation.fold (fun _ n acc -> acc + n) r 0 = List.length tuples)

let prop_bag_equal_of_list =
  QCheck2.Test.make ~count:100 ~name:"relation: of_list independent of order"
    bag_gen
    (fun tuples ->
      let r1 = Relation.create () and r2 = Relation.create () in
      List.iter (Relation.insert r1) tuples;
      List.iter (Relation.insert r2) (List.rev tuples);
      Relation.equal r1 r2)

let snowflake_views =
  [ Workload.Snowflake.category_revenue;
    Workload.Snowflake.product_brand_profile ]

let prop_snowflake_maintenance =
  QCheck2.Test.make ~count:(max 20 (count / 2)) ~name:"snowflake: maintained == recomputed"
    (Gen.pair (Gen.int_bound 10_000) (Gen.int_bound 1))
    (fun (seed, view_idx) ->
      let view = List.nth snowflake_views view_idx in
      let db = Workload.Snowflake.load Workload.Snowflake.small_params in
      let e = Maintenance.Engines.minimal db view in
      let rng = Workload.Prng.create seed in
      let ok = ref true in
      for _ = 1 to 3 do
        Maintenance.Engines.apply_batch e
          (Workload.Delta_gen.stream rng db ~n:40);
        ok :=
          !ok
          && Relation.equal
               (Maintenance.Engines.view_contents e)
               (Algebra.Eval.eval db view)
      done;
      !ok)

let prop_multi_view_warehouse =
  QCheck2.Test.make ~count:(max 15 (count / 2)) ~name:"warehouse: several views stay consistent"
    (Gen.int_bound 10_000)
    (fun seed ->
      let db = Workload.Retail.load tiny_params in
      let wh = Warehouse.create db in
      let views =
        [ Workload.Retail.product_sales; Workload.Retail.monthly_revenue;
          Workload.Retail.sales_by_time; Workload.Retail.months ]
      in
      List.iter (Warehouse.add_view wh) views;
      let rng = Workload.Prng.create seed in
      Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:120);
      List.for_all
        (fun view ->
          let _, got = Warehouse.query wh view.Algebra.View.name in
          Relation.equal got (Algebra.Eval.eval db view))
        views)

let prop_append_only_random =
  QCheck2.Test.make ~count:(max 25 (count / 2)) ~name:"append-only engine under insert streams"
    ~print:(fun (v, seed) -> Printf.sprintf "%s / seed %d" (print_view v) seed)
    Gen.(pair view_gen (int_bound 10_000))
    (fun (view, seed) ->
      let db = Workload.Retail.load tiny_params in
      View.validate db view;
      let e = Maintenance.Engines.append_only db view in
      let rng = Workload.Prng.create seed in
      let mix = { Workload.Delta_gen.insert = 1; delete = 0; update = 0 } in
      Maintenance.Engines.apply_batch e
        (Workload.Delta_gen.stream ~mix rng db ~n:100);
      Relation.equal
        (Maintenance.Engines.view_contents e)
        (Algebra.Eval.eval db view))

let ablation_options =
  [
    { Mindetail.Derive.default_options with Mindetail.Derive.push_locals = false };
    { Mindetail.Derive.default_options with Mindetail.Derive.join_reductions = false };
    { Mindetail.Derive.default_options with Mindetail.Derive.compression = false };
  ]

let prop_ablations_random =
  QCheck2.Test.make ~count:(max 25 (count / 2)) ~name:"ablated engines == recomputed"
    ~print:(fun ((v, _), seed) -> Printf.sprintf "%s / seed %d" (print_view v) seed)
    Gen.(pair (pair view_gen (int_bound 2)) (int_bound 10_000))
    (fun ((view, opt_idx), seed) ->
      let options = List.nth ablation_options opt_idx in
      let db = Workload.Retail.load tiny_params in
      View.validate db view;
      let e = Maintenance.Engines.with_options ~name:"ablated" options db view in
      let rng = Workload.Prng.create seed in
      Maintenance.Engines.apply_batch e
        (Workload.Delta_gen.stream rng db ~n:90);
      Relation.equal
        (Maintenance.Engines.view_contents e)
        (Algebra.Eval.eval db view))

let prop_having_random =
  QCheck2.Test.make ~count:(max 25 (count / 2)) ~name:"HAVING views: maintained == recomputed"
    ~print:(fun ((v, k), seed) ->
      Printf.sprintf "%s HAVING cnt >= %d / seed %d" (print_view v) k seed)
    Gen.(pair (pair view_gen (int_range 1 4)) (int_bound 10_000))
    (fun ((base, k), seed) ->
      (* put a threshold on a COUNT( * ) output, adding one if absent *)
      let has_cnt =
        List.exists
          (fun item -> String.equal (Select_item.alias item) "cnt")
          base.View.select
      in
      let view =
        {
          base with
          View.name = "rand_having";
          select =
            (if has_cnt then base.View.select
             else base.View.select @ [ count_star ~alias:"cnt" () ]);
          having = [ { View.h_column = "cnt"; h_op = Cmp.Ge; h_const = i k } ];
        }
      in
      let db = Workload.Retail.load tiny_params in
      View.validate db view;
      let e = Maintenance.Engines.minimal db view in
      let rng = Workload.Prng.create seed in
      let ok = ref true in
      for _ = 1 to 3 do
        Maintenance.Engines.apply_batch e
          (Workload.Delta_gen.stream rng db ~n:40);
        ok :=
          !ok
          && Relation.equal
               (Maintenance.Engines.view_contents e)
               (Algebra.Eval.eval db view)
      done;
      !ok)

let prop_exposed_updates_random =
  QCheck2.Test.make ~count
    ~name:"maintained == recomputed with exposed time updates"
    ~print:(fun (v, seed) -> Printf.sprintf "%s / seed %d" (print_view v) seed)
    Gen.(pair view_gen (int_bound 10_000))
    (fun (view, seed) ->
      (* year and month become updatable: views filtering on them now face
         exposed updates, exercising the contribution-diffing path *)
      let db =
        Workload.Retail.load ~exposed_time:true
          { tiny_params with Workload.Retail.seed = 18 }
      in
      View.validate db view;
      let e = Maintenance.Engines.minimal db view in
      let rng = Workload.Prng.create seed in
      let ok = ref true in
      for _ = 1 to 3 do
        Maintenance.Engines.apply_batch e
          (Workload.Delta_gen.stream rng db ~n:40);
        ok :=
          !ok
          && Relation.equal
               (Maintenance.Engines.view_contents e)
               (Algebra.Eval.eval db view)
      done;
      !ok)

(* mergeable random views: strip AVG/DISTINCT items from the generator's
   output; ensure at least one select item remains *)
let mergeable_view_gen =
  Gen.map
    (fun view ->
      let select =
        List.filter
          (fun item ->
            match item with
            | Select_item.Agg g ->
              (not g.Aggregate.distinct) && g.Aggregate.func <> Aggregate.Avg
            | Select_item.Group _ -> true)
          view.View.select
      in
      { view with
        View.select =
          (if select = [] then [ count_star ~alias:"cnt" () ] else select) })
    view_gen

let prop_partitioned_random =
  QCheck2.Test.make ~count
    ~name:"partitioned old/current == recomputed under streams + aging"
    ~print:(fun (v, seed) -> Printf.sprintf "%s / seed %d" (print_view v) seed)
    Gen.(pair mergeable_view_gen (int_bound 10_000))
    (fun (view, seed) ->
      let db = Workload.Retail.load tiny_params in
      View.validate db view;
      let boundary = ref (tiny_params.Workload.Retail.days / 2) in
      let is_old tup =
        match tup.(1) with Value.Int t -> t <= !boundary | _ -> false
      in
      let p = Maintenance.Partitioned.init db view ~is_old in
      let rng = Workload.Prng.create seed in
      let inserts = { Workload.Delta_gen.insert = 1; delete = 0; update = 0 } in
      let ok = ref true in
      for round = 1 to 3 do
        let facts =
          Workload.Delta_gen.stream_for ~mix:inserts rng db
            ~tables:[ "sale" ] ~n:25
        in
        let dims =
          Workload.Delta_gen.stream_for rng db
            ~tables:[ "product"; "store" ] ~n:10
        in
        Maintenance.Partitioned.apply_batch p (facts @ dims);
        (* occasionally age out a slice of the current partition *)
        if round = 2 then begin
          (* nightly job: advance the boundary by one day *)
          let aged =
            Relational.Database.fold db "sale"
              (fun tup acc ->
                match tup.(1) with
                | Value.Int t when t = !boundary + 1 -> tup :: acc
                | _ -> acc)
              []
          in
          Maintenance.Partitioned.age_out p aged;
          incr boundary
        end;
        ok :=
          !ok
          && Relation.equal
               (Maintenance.Partitioned.view_contents p)
               (Algebra.Eval.eval db view)
      done;
      !ok)

let prop_batch_split_invariance =
  QCheck2.Test.make ~count
    ~name:"engine state independent of batch boundaries"
    ~print:(fun (v, seed) -> Printf.sprintf "%s / seed %d" (print_view v) seed)
    Gen.(pair view_gen (int_bound 10_000))
    (fun (view, seed) ->
      let mk () = Workload.Retail.load tiny_params in
      let db1 = mk () in
      let db2 = mk () in
      let e_batched = Maintenance.Engines.minimal db1 view in
      let e_single = Maintenance.Engines.minimal db2 view in
      let deltas =
        Workload.Delta_gen.stream (Workload.Prng.create seed) db1 ~n:60
      in
      Relational.Database.apply_all db2 deltas;
      Maintenance.Engines.apply_batch e_batched deltas;
      List.iter
        (fun d -> Maintenance.Engines.apply_batch e_single [ d ])
        deltas;
      Relation.equal
        (Maintenance.Engines.view_contents e_batched)
        (Maintenance.Engines.view_contents e_single))

(* --- fully random schemas --------------------------------------------- *)

let prop_random_schemas =
  QCheck2.Test.make ~count
    ~name:"random schemas: maintained == recomputed, aux == materialized"
    ~print:string_of_int (Gen.int_bound 100_000)
    (fun seed ->
      let rng = Workload.Prng.create seed in
      let inst = Workload.Schema_gen.random rng in
      let view = Workload.Schema_gen.random_view rng inst in
      let d = Derive.derive inst.Workload.Schema_gen.db view in
      let engine = Maintenance.Engine.init inst.Workload.Schema_gen.db d in
      let ok = ref true in
      for _ = 1 to 3 do
        Maintenance.Engine.apply_batch engine
          (Workload.Delta_gen.stream rng inst.Workload.Schema_gen.db ~n:30);
        ok :=
          !ok
          && Relation.equal
               (Maintenance.Engine.view_contents engine)
               (Algebra.Eval.eval inst.Workload.Schema_gen.db view)
      done;
      !ok
      && List.for_all
           (fun (tbl, expected) ->
             Relation.equal expected
               (List.assoc tbl (Maintenance.Engine.aux_contents engine)))
           (Mindetail.Materialize.all inst.Workload.Schema_gen.db d))

let prop_random_schemas_reconstruct =
  QCheck2.Test.make ~count
    ~name:"random schemas: reconstruction == evaluation"
    ~print:string_of_int (Gen.int_bound 100_000)
    (fun seed ->
      let rng = Workload.Prng.create seed in
      let inst = Workload.Schema_gen.random rng in
      let view = Workload.Schema_gen.random_view rng inst in
      let db = inst.Workload.Schema_gen.db in
      (* evolve the instance a little before reconstructing *)
      ignore (Workload.Delta_gen.stream rng db ~n:40);
      match Mindetail.Reconstruct.check db (Derive.derive db view) with
      | ok -> ok
      | exception Mindetail.Reconstruct.Not_reconstructible _ -> true)

let prop_prng_deterministic =
  QCheck2.Test.make ~count:50 ~name:"prng: same seed, same stream"
    (Gen.int_bound 1_000_000)
    (fun seed ->
      let a = Workload.Prng.create seed and b = Workload.Prng.create seed in
      List.for_all
        (fun _ -> Workload.Prng.int a 1000 = Workload.Prng.int b 1000)
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])

let prop_delta_stream_legal =
  QCheck2.Test.make ~count:(max 20 (count / 2)) ~name:"delta streams replay cleanly on a replica"
    (Gen.int_bound 10_000)
    (fun seed ->
      let db = Workload.Retail.load tiny_params in
      let replica = Database.copy db in
      let rng = Workload.Prng.create seed in
      let deltas = Workload.Delta_gen.stream rng db ~n:120 in
      Database.apply_all replica deltas;
      List.for_all
        (fun tbl ->
          Database.row_count replica tbl = Database.row_count db tbl)
        (Database.table_names db))

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "self-maintenance",
        List.map to_alcotest
          [
            prop_maintained_equals_recomputed;
            prop_recompute_paths;
            prop_psj_engine_agrees;
            prop_aux_state_matches_materialization;
          ] );
      ( "derivation",
        List.map to_alcotest
          [
            prop_reconstruction;
            prop_compression_no_larger;
            prop_elimination_sound;
          ] );
      ( "extensions",
        List.map to_alcotest
          [
            prop_snowflake_maintenance;
            prop_multi_view_warehouse;
            prop_append_only_random;
            prop_ablations_random;
            prop_exposed_updates_random;
            prop_having_random;
            prop_partitioned_random;
            prop_random_schemas;
            prop_random_schemas_reconstruct;
            prop_batch_split_invariance;
          ] );
      ( "substrate",
        List.map to_alcotest
          [
            prop_bag_insert_delete;
            prop_bag_cardinality;
            prop_bag_equal_of_list;
            prop_prng_deterministic;
            prop_delta_stream_legal;
          ] );
    ]
