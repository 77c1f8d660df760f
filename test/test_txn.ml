(* Transactional-apply tests: rollback after a mid-batch failure restores
   state structurally identical to an engine built afresh from the source
   as it stood before the batch — groups, by-key maps, secondary indexes,
   totals, DISTINCT value multisets and the dirty set all compared — for
   every engine configuration, across seeds and failure positions, and for
   DISTINCT views also after a warehouse abort at the mid-engine-apply
   point; plus
   the NULL-poisoning regression, strict index-column validation, and the
   warehouse-level all-or-nothing abort path. *)

open Helpers
module Engines = Maintenance.Engines
module Aux_state = Maintenance.Aux_state
module Derive = Mindetail.Derive
module Validator = Relational.Validator
module Faults = Maintenance.Faults

let test case fn = Alcotest.test_case case `Quick fn

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

(* fabricated sale rows use ids far above anything the generator produces
   (its keys stay below 1,001,000) *)
let fresh_id = ref 2_000_000

let next_id () =
  incr fresh_id;
  !fresh_id

(* timeid 6 is in the 1997 half of the time dimension, so the tuple passes
   every view's semijoins and reaches the aggregation before raising *)
let null_price_insert () =
  Delta.insert "sale" (row [ i (next_id ()); i 6; i 1; i 1; Value.Null ])

(* Two sales of day 6, whose month holds loaded sales, priced above and
   below every generated price (1 to 100): they raise that group's
   maxima, MAX(id) included, and lower its minimum in every view over
   sale. Every failed batch of the rollback matrix starts with them, so
   it has changed the engine's extrema before it fails, even at
   position 0. *)
let extreme_inserts () =
  List.map
    (fun price -> Delta.insert "sale" (row [ i (next_id ()); i 6; i 1; i 1; i price ]))
    [ 1_000; 0 ]

let insert_only =
  { Workload.Delta_gen.insert = 1; delete = 0; update = 0 }

(* One engine configuration under test: how to build it, which view it
   maintains, and a poison delta guaranteed to raise mid-apply. *)
type case = {
  cname : string;
  build : Database.t -> Engines.t;
  cview : View.t;
  mix : Workload.Delta_gen.op_mix;
}

(* Every DISTINCT aggregate kind, next to a plain SUM(price) that the NULL
   poison makes raise mid-apply. *)
let distinct_all =
  {
    View.name = "distinct_all";
    having = [];
    select =
      [
        group (a "time" "month");
        sum ~alias:"revenue" (a "sale" "price");
        count_distinct ~alias:"brands" (a "product" "brand");
        Select_item.Agg
          (Aggregate.make ~distinct:true ~alias:"sum_d" Aggregate.Sum
             (Some (a "sale" "price")));
        Select_item.Agg
          (Aggregate.make ~distinct:true ~alias:"avg_d" Aggregate.Avg
             (Some (a "sale" "price")));
        Select_item.Agg
          (Aggregate.make ~distinct:true ~alias:"min_d" Aggregate.Min
             (Some (a "product" "brand")));
        Select_item.Agg
          (Aggregate.make ~distinct:true ~alias:"max_d" Aggregate.Max
             (Some (a "sale" "price")));
      ];
    tables = [ "sale"; "time"; "product" ];
    locals = [];
    joins =
      [ join (a "sale" "timeid") (a "time" "id");
        join (a "sale" "productid") (a "product" "id") ];
  }

(* Maxima per month: the append-only derivation keeps the sale auxiliary
   view with MAX(id) and MAX(price) pre-aggregated in columns, which a
   rollback must restore. Generated inserts draw sale ids above every
   loaded one, so a fact insert into a loaded day raises its MAX(id).
   (Over [product_sales_max] it keeps no auxiliary view: the MAX lives in
   the view state alone.) *)
let monthly_max =
  {
    View.name = "monthly_max";
    having = [];
    select =
      [
        group (a "time" "month");
        max_ ~alias:"last_sale" (a "sale" "id");
        max_ ~alias:"top" (a "sale" "price");
        sum ~alias:"revenue" (a "sale" "price");
      ];
    tables = [ "sale"; "time" ];
    locals = [];
    joins = [ join (a "sale" "timeid") (a "time" "id") ];
  }

(* Minima per month: the same sale auxiliary view with MIN(price) in a
   column. Generated prices fall below a loaded day's minimum now and then,
   so the valid prefix lowers some of them before the batch fails. *)
let monthly_min =
  {
    View.name = "monthly_min";
    having = [];
    select =
      [
        group (a "time" "month");
        min_ ~alias:"low" (a "sale" "price");
        sum ~alias:"revenue" (a "sale" "price");
      ];
    tables = [ "sale"; "time" ];
    locals = [];
    joins = [ join (a "sale" "timeid") (a "time" "id") ];
  }

let cases =
  [
    {
      cname = "minimal";
      build = (fun db -> Engines.minimal db Workload.Retail.monthly_revenue);
      cview = Workload.Retail.monthly_revenue;
      mix = Workload.Delta_gen.default_mix;
    };
    {
      cname = "minimal-distinct";
      build = (fun db -> Engines.minimal db Workload.Retail.product_sales);
      cview = Workload.Retail.product_sales;
      mix = Workload.Delta_gen.default_mix;
    };
    {
      cname = "minimal-distinct-all";
      build = (fun db -> Engines.minimal db distinct_all);
      cview = distinct_all;
      mix = Workload.Delta_gen.default_mix;
    };
    {
      cname = "psj";
      build = (fun db -> Engines.psj db Workload.Retail.monthly_revenue);
      cview = Workload.Retail.monthly_revenue;
      mix = Workload.Delta_gen.default_mix;
    };
    {
      cname = "recompute";
      build = (fun db -> Engines.recompute db Workload.Retail.monthly_revenue);
      cview = Workload.Retail.monthly_revenue;
      mix = Workload.Delta_gen.default_mix;
    };
    {
      cname = "append-only";
      build = (fun db -> Engines.append_only db monthly_max);
      cview = monthly_max;
      (* the append-only engine refuses fact deletions and updates, so its
         warm-up stream must not delete or update fact rows *)
      mix = insert_only;
    };
    {
      cname = "append-only-min";
      build = (fun db -> Engines.append_only db monthly_min);
      cview = monthly_min;
      mix = insert_only;
    };
  ]

(* How the batch fails: a poison delta raising mid-apply, or the
   warehouse's mid-engine-apply abort — this engine absorbed the whole valid
   prefix, end-of-batch flush included, before the batch is aborted. *)
type failure = Poison | Abort_mid_engine_apply

(* The property: warm the engine up, rebuild it from the evolved source,
   fail a batch after [extreme_inserts] and [pos] valid deltas — the
   failed batch must have changed the engine, rollback must restore the
   rebuilt state exactly, and the engine must keep maintaining correctly
   afterwards. *)
let rollback_restores ?(failure = Poison) case seed pos () =
  let db = Workload.Retail.load { tiny with seed } in
  let eng = case.build db in
  let rng = Workload.Prng.create ((seed * 13) + 1) in
  Engines.apply_batch eng
    (Workload.Delta_gen.stream ~mix:case.mix rng db ~n:40);
  let snapshot = case.build db in
  Alcotest.(check bool)
    "the warm engine equals a rebuild" true
    (Engines.equal_state eng snapshot);
  let valid = Workload.Delta_gen.stream ~mix:case.mix rng db ~n:12 in
  let prefix = extreme_inserts () @ List.filteri (fun idx _ -> idx < pos) valid in
  Engines.begin_txn eng;
  (match failure with
  | Poison -> (
    match Engines.apply_batch eng (prefix @ [ null_price_insert () ]) with
    | () -> Alcotest.fail "the poisoned batch must raise"
    | exception _ -> ())
  | Abort_mid_engine_apply -> (
    Faults.arm ~mode:Faults.Fail Faults.Mid_engine_apply;
    Fun.protect ~finally:Faults.disarm @@ fun () ->
    match
      Engines.apply_batch eng prefix;
      Faults.hit Faults.Mid_engine_apply
    with
    | () -> Alcotest.fail "the armed point must fire"
    | exception Faults.Injected Faults.Mid_engine_apply -> ()));
  Alcotest.(check bool)
    "the failed batch changed the engine" false
    (Engines.equal_state eng snapshot);
  Engines.rollback eng;
  Alcotest.(check bool)
    "rollback restores the pre-batch state" true
    (Engines.equal_state eng snapshot);
  (* the rolled-back engine stays fully usable *)
  Engines.begin_txn eng;
  Engines.apply_batch eng valid;
  Engines.commit eng;
  Alcotest.check relation "post-rollback maintenance tracks recomputation"
    (Algebra.Eval.eval db case.cview)
    (Engines.view_contents eng)

let rollback_tests =
  let matrix ?failure label cases =
    List.concat_map
      (fun case ->
        List.concat_map
          (fun seed ->
            List.map
              (fun pos ->
                test
                  (Printf.sprintf "%s: rollback == snapshot (seed %d, %s at %d)"
                     case.cname seed label pos)
                  (rollback_restores ?failure case seed pos))
              [ 0; 6; 9; 12 ])
          [ 12; 41; 42 ])
      cases
  in
  matrix "fail" cases
  @ matrix ~failure:Abort_mid_engine_apply "mid-engine-apply abort"
      (List.filter
         (fun c -> List.mem c.cname [ "minimal-distinct"; "minimal-distinct-all" ])
         cases)

(* --- a failed batch that widened its cells -------------------------------- *)

(* A sale priced past every 4-byte cell widens the sum cells it reaches;
   the batch then fails on a NULL price. Rollback must restore the state a
   rebuild holds, the rolled-back cells staying wide (a buffer never
   narrows) and comparing equal to the rebuild's narrow ones. Then the
   sale, committed, must render as recomputation does. *)
let widened_rollback case () =
  let db = Workload.Retail.load tiny in
  let eng = case.build db in
  let snapshot = case.build db in
  let big () = row [ i (next_id ()); i 6; i 1; i 1; i 3_000_000_000 ] in
  Engines.begin_txn eng;
  (match
     Engines.apply_batch eng
       [ Delta.insert "sale" (big ()); null_price_insert () ]
   with
  | () -> Alcotest.fail "the poisoned batch must raise"
  | exception _ -> ());
  Alcotest.(check bool)
    "the failed batch changed the engine" false
    (Engines.equal_state eng snapshot);
  Engines.rollback eng;
  Alcotest.(check bool)
    "rollback restores the rebuild" true
    (Engines.equal_state eng snapshot);
  let sale = big () in
  Database.insert db "sale" sale;
  Engines.begin_txn eng;
  Engines.apply_batch eng [ Delta.insert "sale" sale ];
  Engines.commit eng;
  Alcotest.check relation "the wide sum renders as recomputation"
    (Algebra.Eval.eval db case.cview)
    (Engines.view_contents eng);
  Alcotest.(check bool)
    "and equals a rebuild" true
    (Engines.equal_state eng (case.build db))

let widened_tests =
  List.map
    (fun case ->
      test
        (Printf.sprintf "%s: a batch that widened a column rolls back" case.cname)
        (widened_rollback case))
    cases

(* --- NULL poisoning regression ----------------------------------------- *)

let null_tests =
  [
    test "NULL in a summed column is rejected atomically" (fun () ->
        let db = Workload.Retail.load tiny in
        let eng = Engines.minimal db Workload.Retail.monthly_revenue in
        let snapshot = Engines.minimal db Workload.Retail.monthly_revenue in
        let null_tup = row [ i (next_id ()); i 1; i 1; i 1; Value.Null ] in
        (* the historic bug: the raise fired after cnt was bumped, leaving
           the group poisoned; both insert and delete must now reject the
           tuple before touching anything *)
        (match Engines.apply_batch eng [ Delta.insert "sale" null_tup ] with
        | () -> Alcotest.fail "NULL insert must be rejected"
        | exception Invalid_argument _ -> ());
        (match Engines.apply_batch eng [ Delta.delete "sale" null_tup ] with
        | () -> Alcotest.fail "NULL delete must be rejected"
        | exception Invalid_argument _ -> ());
        Alcotest.(check bool)
          "state untouched by the rejected NULL tuple" true
          (Engines.equal_state eng snapshot);
        (* a valid insert-then-delete still round-trips to the snapshot *)
        let tup = row [ i (next_id ()); i 1; i 1; i 1; i 42 ] in
        Engines.apply_batch eng [ Delta.insert "sale" tup ];
        Engines.apply_batch eng [ Delta.delete "sale" tup ];
        Alcotest.(check bool)
          "insert-then-delete returns to the snapshot" true
          (Engines.equal_state eng snapshot));
    test "warehouse quarantines NULL-valued deltas at validation" (fun () ->
        let db = Workload.Retail.load tiny in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.monthly_revenue;
        let before = snd (Warehouse.query wh "monthly_revenue") in
        let report =
          Warehouse.ingest_report wh [ null_price_insert () ]
        in
        Alcotest.(check int) "nothing applied" 0 report.Warehouse.applied;
        (match Warehouse.dead_letters wh with
        | [ r ] ->
          Alcotest.(check string)
            "rejected as a schema mismatch" "schema-mismatch"
            (Delta.reason_label r.Delta.reason)
        | dlq ->
          Alcotest.fail
            (Printf.sprintf "expected 1 dead letter, got %d"
               (List.length dlq)));
        Alcotest.check relation "view unchanged" before
          (snd (Warehouse.query wh "monthly_revenue")));
  ]

(* --- strict indexed_columns -------------------------------------------- *)

let index_tests =
  [
    test "a misspelled index column is refused at create" (fun () ->
        let db = Workload.Retail.load tiny in
        let d = Derive.derive db Workload.Retail.monthly_revenue in
        let root = Derive.root d in
        match Derive.spec_for d root with
        | None -> Alcotest.fail "expected a root auxiliary view"
        | Some spec -> (
          let schema = Database.schema_of db root in
          match
            Aux_state.create ~indexed_columns:[ "no_such_column" ] spec schema
          with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"));
  ]

(* --- validator undo journal -------------------------------------------- *)

let db_relation db tbl =
  let r = Relation.create () in
  Database.fold db tbl (fun tup () -> Relation.insert r tup) ();
  r

let validator_tests =
  [
    test "rollback undoes the admitted prefix" (fun () ->
        let db = Workload.Retail.load tiny in
        let v = Validator.of_database db in
        let before = Validator.believed_source v in
        Validator.begin_txn v;
        let tup = row [ i (next_id ()); i 1; i 1; i 1; i 33 ] in
        (match Validator.admit v (Delta.insert "sale" tup) with
        | Ok _ -> ()
        | Error r ->
          Alcotest.fail (Format.asprintf "%a" Delta.pp_rejection r));
        (match Validator.admit v (Delta.delete "sale" tup) with
        | Ok _ -> ()
        | Error r ->
          Alcotest.fail (Format.asprintf "%a" Delta.pp_rejection r));
        (* a rejected delta must not land in the journal *)
        (match Validator.admit v (Delta.insert "sale" tup) with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "re-insert after delete should be legal");
        Validator.rollback v;
        let after = Validator.believed_source v in
        List.iter
          (fun tbl ->
            Alcotest.check relation
              (Printf.sprintf "table %s restored" tbl)
              (db_relation before tbl) (db_relation after tbl))
          (Database.table_names before));
    test "invert is an involution on every change shape" (fun () ->
        let t1 = row [ i 1; i 2 ] and t2 = row [ i 1; i 3 ] in
        List.iter
          (fun d ->
            Alcotest.(check bool)
              "invert twice is the identity" true
              (Delta.invert (Delta.invert d) = d))
          [
            Delta.insert "t" t1; Delta.delete "t" t1;
            Delta.update "t" ~before:t1 ~after:t2;
          ];
        Alcotest.(check bool)
          "insert inverts to delete" true
          (Delta.invert (Delta.insert "t" t1) = Delta.delete "t" t1));
  ]

(* --- warehouse-level abort: all-or-nothing without copies --------------- *)

let abort_tests =
  [
    test "a batch failing mid-apply rolls every view back" (fun () ->
        let db = Workload.Retail.load tiny in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.sales_by_time;
        Warehouse.add_view wh Workload.Retail.monthly_revenue;
        let victim =
          Database.fold db "sale"
            (fun tup acc ->
              match acc with
              | Some _ -> acc
              | None -> if Value.equal tup.(4) (i 80) then None else Some tup)
            None
          |> Option.get
        in
        let repricing =
          let after = Array.copy victim in
          after.(4) <- i 80;
          Delta.update "sale" ~before:victim ~after
        in
        let prelude =
          Delta.insert "sale" (row [ i (next_id ()); i 1; i 1; i 1; i 10 ])
        in
        let pre_sales = snd (Warehouse.query wh "sales_by_time") in
        let pre_monthly = snd (Warehouse.query wh "monthly_revenue") in
        (* the engine fails after the first view has applied the batch *)
        Faults.arm ~mode:Faults.Fail Faults.Mid_engine_apply;
        let report =
          Fun.protect ~finally:Faults.disarm @@ fun () ->
          Warehouse.ingest_report wh [ prelude; repricing ]
        in
        Alcotest.(check int) "nothing applied" 0 report.Warehouse.applied;
        Alcotest.(check int) "whole batch quarantined" 2
          (List.length (Warehouse.dead_letters wh));
        List.iter
          (fun r ->
            Alcotest.(check string)
              "quarantined as engine failure" "engine-failure"
              (Delta.reason_label r.Delta.reason))
          (Warehouse.dead_letters wh);
        Alcotest.check relation "unreached view unchanged" pre_sales
          (snd (Warehouse.query wh "sales_by_time"));
        Alcotest.check relation "applied view rolled back" pre_monthly
          (snd (Warehouse.query wh "monthly_revenue"));
        (* the warehouse keeps working: a valid follow-up batch applies and
           the views agree with the believed source *)
        let follow =
          Delta.insert "sale" (row [ i (next_id ()); i 2; i 2; i 1; i 90 ])
        in
        let report = Warehouse.ingest_report wh [ follow ] in
        Alcotest.(check int) "follow-up applied" 1 report.Warehouse.applied;
        List.iter
          (fun (name, ok) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s consistent with believed source" name)
              true ok)
          (Warehouse.audit wh ~reference:(Warehouse.believed_source wh)));
  ]

(* --- in-place root updates --------------------------------------------- *)

(* A batch of nothing but in-place root updates — repricings, on views that
   sum the price — fails midway: by the warehouse's mid-engine-apply abort
   after the whole batch, or by a repricing to NULL at its end, which the
   in-place adjustment must refuse as the deletion + insertion would.
   Rollback restores the pre-batch state, as a rebuild from the source
   finds it, whether the batch was applied one delta per batch or as one
   netted batch. *)
let in_place_rollback ~failure ~apply (view : View.t) () =
  let module Engine = Maintenance.Engine in
  let db = Workload.Retail.load tiny in
  let e = Engine.init db (Derive.derive db view) in
  let rng = Workload.Prng.create 29 in
  apply e (Workload.Delta_gen.stream rng db ~n:40);
  let snapshot = Engine.init db (Derive.derive db view) in
  let repricings =
    Workload.Delta_gen.stream_for
      ~mix:{ Workload.Delta_gen.insert = 0; delete = 0; update = 1 }
      rng db ~tables:[ "sale" ] ~n:12
  in
  List.iter
    (fun (d : Delta.t) ->
      match d.Delta.change with
      | Delta.Update { before; after } ->
        Alcotest.(check bool) "goes in place" true
          (Engine.updates_in_place e ~before ~after)
      | Delta.Insert _ | Delta.Delete _ -> Alcotest.fail "expected an update")
    repricings;
  Engine.begin_txn e;
  (match failure with
  | Poison -> (
    (* a 1997 sale, so it passes every view's semijoins *)
    let before =
      List.find
        (fun tup -> Value.compare tup.(1) (i 4) >= 0)
        (Database.fold db "sale" (fun tup acc -> tup :: acc) [])
    in
    let after = Array.copy before in
    after.(4) <- Value.Null;
    let poisoned = repricings @ [ Delta.update "sale" ~before ~after ] in
    match apply e poisoned with
    | () -> Alcotest.fail "the NULL repricing must raise"
    | exception Invalid_argument _ -> ())
  | Abort_mid_engine_apply -> (
    Faults.arm ~mode:Faults.Fail Faults.Mid_engine_apply;
    Fun.protect ~finally:Faults.disarm @@ fun () ->
    match
      apply e repricings;
      Faults.hit Faults.Mid_engine_apply
    with
    | () -> Alcotest.fail "the armed point must fire"
    | exception Faults.Injected Faults.Mid_engine_apply -> ()));
  Engine.rollback e;
  Alcotest.(check bool)
    "rollback restores the pre-batch state" true
    (Engine.equal_state e snapshot);
  apply e repricings;
  Alcotest.check relation "post-rollback maintenance tracks recomputation"
    (Algebra.Eval.eval db view) (Engine.view_contents e)

let in_place_tests =
  List.concat_map
    (fun (view : View.t) ->
      List.concat_map
        (fun (how, apply) ->
          List.map
            (fun (label, failure) ->
              test
                (Printf.sprintf "%s, %s: an all-in-place batch rolls back (%s)"
                   view.View.name how label)
                (in_place_rollback ~failure ~apply view))
            [ ("mid-engine-apply abort", Abort_mid_engine_apply);
              ("NULL repricing", Poison) ])
        [ ("per-delta batches", apply_each Maintenance.Engine.apply_batch);
          ("netted batch", fun e ds -> Maintenance.Engine.apply_batch e ds) ])
    Workload.Retail.[ monthly_revenue; sales_by_time; product_sales ]

let () =
  Alcotest.run "txn"
    [
      ("rollback-structural-equality", rollback_tests);
      ("widened-rollback", widened_tests);
      ("null-poisoning", null_tests); ("index-strictness", index_tests);
      ("validator-journal", validator_tests);
      ("warehouse-abort", abort_tests);
      ("in-place-rollback", in_place_tests);
    ]
