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

(* Random MIN/MAX views in the three grouping shapes of the dirty-group
   walk: root columns only, root and dimension columns, dimension columns
   only. Depending on the joins, each reaches the driving-join walk, the
   group-index walk or the filtered scan. *)
let minmax_view_gen =
  let nonempty xs =
    Gen.map (fun l -> if l = [] then [ List.hd xs ] else l) (sublist xs)
  in
  let roots = [ a "sale" "timeid"; a "sale" "productid"; a "sale" "storeid" ] in
  let dim_columns dims =
    List.filter
      (fun at -> not (String.equal at.Attr.table "sale"))
      (group_candidates dims)
  in
  let dims_gen =
    Gen.oneofl [ [ "time" ]; [ "product" ]; [ "time"; "product" ] ]
  in
  let shape =
    Gen.oneof
      [ Gen.bind (Gen.oneofl [ []; [ "time" ]; [ "time"; "product" ] ])
          (fun dims -> Gen.map (fun groups -> (dims, groups)) (nonempty roots));
        Gen.bind dims_gen (fun dims ->
            Gen.map2 (fun r d -> (dims, r @ d)) (nonempty roots)
              (nonempty (dim_columns dims)));
        Gen.bind dims_gen (fun dims ->
            Gen.map (fun groups -> (dims, groups)) (nonempty (dim_columns dims))) ]
  in
  Gen.bind shape (fun (dims, groups) ->
      let extrema = [ min_ ~alias:"min_price" (a "sale" "price");
                      max_ ~alias:"max_price" (a "sale" "price") ] in
      let others =
        [ sum ~alias:"total_price" (a "sale" "price"); count_star ~alias:"cnt" () ]
        @ if List.mem "product" dims then
            [ count_distinct ~alias:"brands" (a "product" "brand") ]
          else []
      in
      Gen.map3
        (fun ext aggs locals ->
          view_of_spec { dims; groups; aggs = ext @ aggs; locals })
        (nonempty extrema) (sublist others) (sublist (local_candidates dims)))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Delete-heavy streams with dimension updates, alternating serial and
   netted batches; a third of the batches apply only a prefix and roll
   back. After every batch the view equals recomputation. At the end the
   maintained state equals the state rebuilt from the evolved source, and
   one more batch, serial on the maintained engine and netted on the
   rebuilt one, keeps the two equal to each other and to
   recomputation. A warehouse fed the committed batches, checkpointed
   halfway, serves the recomputed view after recovery and audits clean. *)
let prop_minmax_walks =
  QCheck2.Test.make ~count
    ~name:"MIN/MAX walks == recomputed (delete-heavy, rollbacks, rebuild, recover)"
    ~print:(fun (v, seed) -> Printf.sprintf "%s / seed %d" (print_view v) seed)
    Gen.(pair minmax_view_gen (int_bound 10_000))
    (fun (view, seed) ->
      let module Engine = Maintenance.Engine in
      let db = Workload.Retail.load tiny_params in
      View.validate db view;
      let d = Derive.derive db view in
      let e = Engine.init db d in
      let dir = Filename.temp_dir "minmax_walks" "" in
      let wh = Warehouse.create (Database.copy db) in
      Warehouse.add_view wh view;
      Warehouse.attach wh ~dir;
      let rng = Workload.Prng.create seed in
      let mix = { Workload.Delta_gen.insert = 1; delete = 4; update = 2 } in
      let batch () =
        (* generated in order: each stream applies itself to [db] *)
        let facts = Workload.Delta_gen.stream ~mix rng db ~n:20 in
        let dims =
          Workload.Delta_gen.stream_for ~mix rng db
            ~tables:[ "product"; "time" ] ~n:3
        in
        facts @ dims
      in
      let agrees e =
        Relation.equal (Engine.view_contents e) (Algebra.Eval.eval db view)
      in
      let ok = ref true in
      for round = 1 to 6 do
        let deltas = batch () in
        (* alternate one netted batch and one batch per delta *)
        let apply =
          if round land 1 = 0 then fun e ds -> Engine.apply_batch e ds
          else apply_each Engine.apply_batch
        in
        Engine.begin_txn e;
        if Workload.Prng.int rng 3 = 0 then begin
          let cut = Workload.Prng.int rng (List.length deltas + 1) in
          apply e (List.filteri (fun k _ -> k < cut) deltas);
          Engine.rollback e;
          List.iter
            (fun d -> Database.apply db (Delta.invert d))
            (List.rev deltas)
        end
        else begin
          apply e deltas;
          Engine.commit e;
          Warehouse.ingest wh deltas
        end;
        if round = 3 then Warehouse.checkpoint wh;
        ok := !ok && agrees e
      done;
      Warehouse.close wh;
      let recovered = Warehouse.recover ~dir in
      ok :=
        !ok
        && Relation.equal
             (snd (Warehouse.query recovered view.View.name))
             (Algebra.Eval.eval db view)
        && List.for_all snd
             (Warehouse.audit recovered
                ~reference:(Warehouse.believed_source recovered));
      Warehouse.close recovered;
      rm_rf dir;
      let rebuilt = Engine.init db d in
      ok := !ok && Engine.equal_state e rebuilt;
      let deltas = batch () in
      apply_each Engine.apply_batch e deltas;
      Engine.apply_batch rebuilt deltas;
      !ok && agrees e && agrees rebuilt && Engine.equal_state e rebuilt)

(* Random views whose aggregates are all DISTINCT — every kind, over a
   fact column and over updatable dimension columns — so that root
   inserts, deletes and updates and dimension updates of the DISTINCT
   argument all move the per-group value multisets. *)
let distinct_candidates dims =
  let d func alias attr =
    Select_item.Agg (Aggregate.make ~distinct:true ~alias func (Some attr))
  in
  let price = a "sale" "price" in
  [ d Aggregate.Count "cd_price" price; d Aggregate.Sum "sd_price" price;
    d Aggregate.Avg "ad_price" price; d Aggregate.Min "mind_price" price;
    d Aggregate.Max "maxd_price" price ]
  @ (if List.mem "product" dims then
       let brand = a "product" "brand" in
       [ d Aggregate.Count "cd_brand" brand; d Aggregate.Min "mind_brand" brand;
         d Aggregate.Max "maxd_brand" brand ]
     else [])
  @
  if List.mem "time" dims then
    let month = a "time" "month" in
    [ d Aggregate.Sum "sd_month" month; d Aggregate.Avg "ad_month" month ]
  else []

let distinct_view_gen =
  Gen.bind
    (Gen.oneofl [ [ "product" ]; [ "time"; "product" ]; [ "time" ]; [];
                  [ "product"; "store" ] ])
    (fun dims ->
      Gen.bind (sublist (group_candidates dims)) (fun groups ->
          Gen.bind (sublist (distinct_candidates dims)) (fun aggs ->
              Gen.map
                (fun locals ->
                  let aggs =
                    if aggs = [] then [ List.hd (distinct_candidates dims) ]
                    else aggs
                  in
                  view_of_spec { dims; groups; aggs; locals })
                (sublist (local_candidates dims)))))

let prop_distinct_multisets =
  QCheck2.Test.make ~count
    ~name:"DISTINCT multisets: maintained == recomputed, audit clean"
    ~print:(fun (v, seed) -> Printf.sprintf "%s / seed %d" (print_view v) seed)
    Gen.(pair distinct_view_gen (int_bound 10_000))
    (fun (view, seed) ->
      let db = Workload.Retail.load tiny_params in
      View.validate db view;
      let e = Maintenance.Engine.init db (Derive.derive db view) in
      let rng = Workload.Prng.create seed in
      let mix = { Workload.Delta_gen.insert = 1; delete = 2; update = 3 } in
      let ok = ref true in
      for round = 1 to 5 do
        (* generated in order: each stream applies itself to [db] *)
        let facts = Workload.Delta_gen.stream ~mix rng db ~n:20 in
        let dims =
          Workload.Delta_gen.stream_for ~mix rng db
            ~tables:[ "product"; "time" ] ~n:4
        in
        let deltas = facts @ dims in
        (* alternate one batch per delta and one netted batch *)
        if round land 1 = 0 then Maintenance.Engine.apply_batch e deltas
        else apply_each Maintenance.Engine.apply_batch e deltas;
        ok :=
          !ok
          && Relation.equal
               (Maintenance.Engine.view_contents e)
               (Algebra.Eval.eval db view)
          &&
          match Maintenance.Engine.audit ~sample:16 e with
          | Some (_, divergences) -> divergences = 0
          | None -> true
      done;
      !ok)

(* --- root updates applied in place ----------------------------------------

   Random views over the measure star (helpers.ml): SUM/AVG over the INT
   price and the FLOAT amount, which an update may move in place, beside
   group columns, local conditions, MIN/MAX and COUNT DISTINCT, which
   expose it. Its streams mix price/amount updates, timeid updates,
   deletions and dimension updates. *)
let measure_view_gen =
  let on dims (at : Attr.t) =
    String.equal at.Attr.table "sale" || List.mem at.Attr.table dims
  in
  let groups =
    [ a "sale" "timeid"; a "sale" "productid"; a "sale" "storeid";
      a "time" "month"; a "time" "year"; a "product" "brand"; a "store" "city" ]
  in
  let aggs =
    [ sum ~alias:"total_price" (a "sale" "price");
      sum ~alias:"total_amount" (a "sale" "amount");
      avg ~alias:"avg_amount" (a "sale" "amount");
      avg ~alias:"avg_price" (a "sale" "price");
      count_star ~alias:"cnt" ();
      max_ ~alias:"max_amount" (a "sale" "amount");
      min_ ~alias:"min_price" (a "sale" "price");
      count_distinct ~alias:"brands" (a "product" "brand") ]
  in
  let locals =
    [ local (a "time" "year") Cmp.Eq (i 1997);
      local (a "sale" "price") Cmp.Gt (i 5);
      local (a "product" "brand") Cmp.Neq (s "b0") ]
  in
  let agg_attr = function
    | Select_item.Agg g -> Aggregate.attr g
    | Select_item.Group _ -> None
  in
  Gen.bind (sublist [ "time"; "product"; "store" ]) (fun dims ->
      Gen.bind (sublist (List.filter (on dims) groups)) (fun groups ->
          Gen.bind
            (sublist
               (List.filter
                  (fun g -> Option.fold ~none:true ~some:(on dims) (agg_attr g))
                  aggs))
            (fun aggs ->
              Gen.map
                (fun locals ->
                  let v = view_of_spec { dims; groups; aggs; locals } in
                  { v with View.name = "measure_view" })
                (sublist
                   (List.filter (fun (p : Predicate.t) -> on dims p.left) locals)))))

let prop_in_place_updates =
  QCheck2.Test.make ~count
    ~name:"in-place root updates: maintained == recomputed == split updates"
    ~print:(fun (v, seed) -> Printf.sprintf "%s / seed %d" (print_view v) seed)
    Gen.(pair measure_view_gen (int_bound 10_000))
    (fun (view, seed) ->
      let module Engine = Maintenance.Engine in
      let db = measure_db seed in
      View.validate db view;
      let d = Derive.derive db view in
      let serial = Engine.init db d and split = Engine.init db d in
      let direct = Engine.init db d in
      let rng = Workload.Prng.create seed in
      (* the root's updates as a deletion then an insertion; a dimension
         update stays an update, as only it carries the change to its
         referencing rows *)
      let split_updates =
        List.concat_map (fun (dl : Delta.t) ->
            if String.equal dl.Delta.table "sale" then
              List.map
                (fun change -> { dl with Delta.change })
                (Delta.as_delete_insert dl.Delta.change)
            else [ dl ])
      in
      let dim_updates = { Workload.Delta_gen.insert = 0; delete = 0; update = 1 } in
      let ok = ref true in
      for _ = 1 to 4 do
        let facts = measure_changes rng db ~n:25 in
        let dims =
          Workload.Delta_gen.stream_for ~mix:dim_updates rng db
            ~tables:[ "time"; "product" ] ~n:2
        in
        let deltas = facts @ dims in
        apply_each Engine.apply_batch serial deltas;
        (* one delta per batch, so netting never rejoins a split update *)
        apply_each Engine.apply_batch split (split_updates deltas);
        Engine.apply_batch direct deltas;
        let expected = Algebra.Eval.eval db view in
        ok :=
          !ok
          && List.for_all
               (fun e -> Relation.equal (Engine.view_contents e) expected)
               [ serial; direct ]
          && Engine.equal_state serial split
      done;
      !ok)

(* --- seeding from the root auxiliary view ---------------------------------

   [Engine.init] seeds the view state from the root auxiliary view when it
   is retained (each stored group once, weighted by its count) and from the
   root base rows only when it is eliminated. Either way the result must be
   the engine an empty store grows into when every row arrives as an
   insertion, and the view must be what [Reconstruct] evaluates over the
   auxiliary views. The facts of both stars collide wherever the root
   auxiliary view keeps few columns, so about a quarter of the seedings
   feed stored rows with counts above one, into DISTINCT multisets and
   R_ext extrema among others. *)

(* Every row of the view's tables as an insertion, dimensions first so the
   facts find their join partners. *)
let inserts_of db (view : View.t) =
  let root = List.hd view.View.tables in
  let rows tbl =
    Database.fold db tbl (fun tup acc -> Delta.insert tbl tup :: acc) []
  in
  List.concat_map rows (List.tl view.View.tables) @ rows root

(* A HAVING threshold on a COUNT( * ) output, added when absent; [k = 0]
   leaves the view as it is. *)
let with_having k (view : View.t) =
  if k = 0 then view
  else
    let has_cnt =
      List.exists
        (fun item -> String.equal (Select_item.alias item) "cnt")
        view.View.select
    in
    {
      view with
      View.select =
        (if has_cnt then view.View.select
         else view.View.select @ [ count_star ~alias:"cnt" () ]);
      having = [ { View.h_column = "cnt"; h_op = Cmp.Ge; h_const = i k } ];
    }

(* The derivations whose engines seed differently: the paper's (MIN/MAX
   from plain columns), append-only (MIN/MAX from the R_ext columns), the
   no-pushdown ablation (residual conditions on the stored root rows) and
   PSJ (an uncompressed root auxiliary view). *)
let seed_derivations =
  [ ("default", Derive.derive);
    ("append-only", Derive.derive_with Derive.append_only_options);
    ( "no-pushdown",
      Derive.derive_with
        { Derive.default_options with Derive.push_locals = false } );
    ("psj", Mindetail.Psj.derive) ]

let seed_case_gen =
  Gen.(
    quad
      (oneof
         [ map (fun v -> (`Retail, v)) view_gen;
           map (fun v -> (`Retail, v)) minmax_view_gen;
           map (fun v -> (`Retail, v)) distinct_view_gen;
           map (fun v -> (`Measure, v)) measure_view_gen ])
      (int_bound (List.length seed_derivations - 1))
      (int_bound 3) (int_bound 10_000))

let prop_seed_from_root_aux =
  QCheck2.Test.make ~count
    ~name:"seeded engine == engine fed every row == reconstruction"
    ~print:(fun ((_, v), di, k, seed) ->
      Printf.sprintf "%s / %s / HAVING cnt >= %d / seed %d" (print_view v)
        (fst (List.nth seed_derivations di))
        k seed)
    seed_case_gen
    (fun ((star, base), di, k, seed) ->
      let module Engine = Maintenance.Engine in
      let db, empty =
        match star with
        | `Retail -> (Workload.Retail.load tiny_params, Workload.Retail.empty ())
        | `Measure -> (measure_db seed, measure_empty ())
      in
      let view = with_having k base in
      View.validate db view;
      let d = (snd (List.nth seed_derivations di)) db view in
      let seeded = Engine.init db d in
      let fed = Engine.init empty d in
      Engine.apply_batch fed (inserts_of db view);
      let got = Engine.view_contents seeded in
      let x tbl = Mindetail.Materialize.aux db d tbl in
      Engine.equal_state seeded fed
      && Relation.equal got (Algebra.Eval.eval db view)
      &&
      match Mindetail.Reconstruct.view d x with
      | from_aux -> Relation.equal got from_aux
      | exception Mindetail.Reconstruct.Not_reconstructible _ ->
        (* only an eliminated root auxiliary view, seeded from base rows *)
        Derive.spec_for d (Derive.root d) = None)

(* --- incremental epoch publication ----------------------------------------

   [Engines.publish] advances the previous publication by the groups the
   committed batches touched; [Engines.capture] renders every group. A
   warehouse fed the same batches carries the view's rendered lines in every
   epoch published after its first read, copied from the previous epoch for
   the rows the engine kept and rendered for the rest: they must equal a
   fresh rendering of the epoch's rows, also in the first publication after
   [recover] and [load]. A star of its own,
   with a FLOAT measure and updatable dimension columns to group on, so
   dimension updates move groups to new keys. *)

let pub_db () =
  let db = Database.create () in
  let col name ty = { Schema.col_name = name; col_type = ty } in
  Database.add_table db
    (Schema.make ~name:"dim" ~key:"id"
       [ col "id" Datatype.TInt; col "cat" Datatype.TString;
         col "grp" Datatype.TInt ])
    ~updatable:[ "cat"; "grp" ];
  Database.add_table db
    (Schema.make ~name:"fact" ~key:"id"
       [ col "id" Datatype.TInt; col "dimid" Datatype.TInt;
         col "g" Datatype.TInt; col "price" Datatype.TInt;
         col "amount" Datatype.TFloat ])
    ~updatable:[ "price"; "amount" ];
  Database.add_reference db
    { Relational.Integrity.src_table = "fact"; src_col = "dimid";
      dst_table = "dim" };
  for d = 1 to 6 do
    Database.insert db "dim"
      (row [ i d; s (Printf.sprintf "s%d" (d mod 5)); i (d mod 3) ])
  done;
  for n = 1 to 40 do
    Database.insert db "fact"
      (row [ i n; i (1 + (n mod 6)); i (n mod 5); i (1 + (n * 7 mod 50));
             f (0.25 *. float_of_int (n mod 9)) ])
  done;
  db

let pub_aggs =
  let d func alias attr =
    Select_item.Agg (Aggregate.make ~distinct:true ~alias func (Some attr))
  in
  [ sum ~alias:"total_amount" (a "fact" "amount");
    avg ~alias:"avg_price" (a "fact" "price");
    avg ~alias:"avg_amount" (a "fact" "amount");
    min_ ~alias:"min_price" (a "fact" "price");
    max_ ~alias:"max_amount" (a "fact" "amount");
    d Aggregate.Count "cd_cat" (a "dim" "cat");
    d Aggregate.Sum "sd_price" (a "fact" "price");
    d Aggregate.Max "maxd_amount" (a "fact" "amount") ]

let pub_view_gen =
  let having_gen =
    Gen.oneof
      [ Gen.return [];
        Gen.map
          (fun k -> [ { View.h_column = "cnt"; h_op = Cmp.Ge; h_const = i k } ])
          (Gen.int_range 1 4);
        Gen.map
          (fun x ->
            [ { View.h_column = "total_amount"; h_op = Cmp.Gt;
                h_const = f (float_of_int x) } ])
          (Gen.int_range 0 8) ]
  in
  Gen.map4
    (fun groups aggs having aggs_first ->
      let aggs =
        if
          List.exists (fun h -> h.View.h_column = "total_amount") having
          && not
               (List.exists
                  (fun item -> Select_item.alias item = "total_amount")
                  aggs)
        then List.hd pub_aggs :: aggs
        else aggs
      in
      {
        View.name = "pub_view";
        select =
          (let groups =
             List.map
               (fun at -> group ~alias:(at.Attr.table ^ "_" ^ at.Attr.column) at)
               groups
           in
           (* aggregates first: rows then sort by values a batch moves *)
           if aggs_first then (count_star ~alias:"cnt" () :: aggs) @ groups
           else groups @ aggs @ [ count_star ~alias:"cnt" () ]);
        tables = [ "fact"; "dim" ];
        locals = [];
        joins = [ join (a "fact" "dimid") (a "dim" "id") ];
        having;
      })
    (sublist [ a "fact" "g"; a "dim" "cat"; a "dim" "grp" ])
    (sublist pub_aggs) having_gen Gen.bool

(* The lines a QUERY of [name] reads from the latest epoch, and the lines
   that epoch carries, equal a fresh rendering of its rows; [carried]: the
   epoch must carry them (a reader asked before it was published). *)
let epoch_lines_ok ~carried wh name =
  let s = Warehouse.current_snapshot wh in
  let _, rows = Warehouse.read_sorted ~snapshot:s wh name in
  let expected = render_lines (Array.to_list rows) in
  let stored = Warehouse.epoch_lines s name in
  let _, n, read = Warehouse.read_lines ~snapshot:s wh name in
  n = Array.length rows
  && String.equal read expected
  &&
  match stored with
  | Some l -> String.equal l expected
  | None -> not carried

let prop_publish_equals_capture =
  QCheck2.Test.make ~count
    ~name:"incremental publication == full render (rollbacks, serial+parallel)"
    ~print:(fun (v, seed) -> Printf.sprintf "%s / seed %d" (print_view v) seed)
    Gen.(pair pub_view_gen (int_bound 10_000))
    (fun (view, seed) ->
      let module Engines = Maintenance.Engines in
      let module Faults = Maintenance.Faults in
      let db = pub_db () in
      View.validate db view;
      let e = Engines.minimal db view in
      let dir = Filename.temp_dir "publish_lines" "" in
      let wh = Warehouse.create (Database.copy db) in
      Warehouse.add_view wh view;
      Warehouse.attach wh ~dir;
      let lines_ok ~carried wh = epoch_lines_ok ~carried wh "pub_view" in
      (* the first read: from the next commit on, epochs carry the lines *)
      let lines = ref (lines_ok ~carried:false wh) in
      let committed = ref false in
      (* the first round whose end finds the warehouse's source apart from
         the mirror [db], which holds exactly the committed rounds *)
      let diverged = ref None in
      let rng = Workload.Prng.create seed in
      let mix = { Workload.Delta_gen.insert = 2; delete = 2; update = 3 } in
      let published_ok () =
        List.equal
          (fun (r, m) (r', m') -> Tuple.equal r r' && m = m')
          (Array.to_list (Engines.publish e))
          (Relation.to_sorted_list (Engines.capture e))
      in
      let ok = ref (published_ok ()) in
      for round = 1 to 8 do
        let facts =
          Workload.Delta_gen.stream_for ~mix rng db ~tables:[ "fact" ] ~n:15
        in
        let dims =
          Workload.Delta_gen.stream_for ~mix rng db ~tables:[ "dim" ] ~n:3
        in
        let deltas = facts @ dims in
        (* alternate one netted batch and one batch per delta *)
        let apply =
          if round land 1 = 0 then fun e ds -> Engines.apply_batch e ds
          else apply_each Engines.apply_batch
        in
        Engines.begin_txn e;
        if Workload.Prng.int rng 3 = 0 then begin
          (* a failure mid-apply: the warehouse stops after part of the
             batch, which is rolled back, at the engine and at the source *)
          let cut = Workload.Prng.int rng (List.length deltas + 1) in
          apply e (List.filteri (fun k _ -> k < cut) deltas);
          Engines.rollback e;
          List.iter
            (fun d -> Database.apply db (Delta.invert d))
            (List.rev deltas);
          (* the warehouse aborts the batch: no epoch is published *)
          Faults.arm ~mode:Faults.Fail Faults.Mid_engine_apply;
          Fun.protect ~finally:Faults.disarm (fun () ->
              ignore (Warehouse.ingest_report wh deltas))
        end
        else begin
          apply e deltas;
          Engines.commit e;
          Warehouse.ingest wh deltas;
          committed := true
        end;
        lines := !lines && lines_ok ~carried:!committed wh;
        if
          !diverged = None
          && store_image (Warehouse.believed_source wh) <> store_image db
        then diverged := Some round;
        (* most commits publish; the others leave their groups to the next *)
        if round = 8 || Workload.Prng.int rng 3 > 0 then
          ok := !ok && published_ok ()
      done;
      (* an epoch right after [recover] or [load] carries no lines; a read
         asks for them and the next commit renders them all *)
      let first_commit wh =
        let fresh = lines_ok ~carried:false wh in
        Warehouse.ingest wh
          (Workload.Delta_gen.stream_for ~mix rng db ~tables:[ "fact" ] ~n:15);
        fresh && lines_ok ~carried:true wh
      in
      Warehouse.close wh;
      let wh = Warehouse.recover ~dir in
      lines := !lines && first_commit wh;
      let saved = Filename.concat dir "saved.bin" in
      Warehouse.save wh saved;
      Warehouse.close wh;
      let wh = Warehouse.load saved in
      lines := !lines && first_commit wh;
      Warehouse.close wh;
      rm_rf dir;
      Option.iter
        (QCheck2.Test.fail_reportf
           "after round %d the warehouse's source differs from the mirror: \
            it committed a batch the round rolled back, or lost one")
        !diverged;
      if not !lines then
        QCheck2.Test.fail_report "an epoch's lines differ from its rows";
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

(* Fact inserts beside every kind of dimension change, over random views
   with and without MIN/MAX: the dimensions stay mutable under the
   append-only relaxation. After each round the view equals recomputation;
   at the end the state equals a rebuild from the evolved source. *)
let prop_append_only_dims =
  QCheck2.Test.make ~count:(max 25 (count / 2))
    ~name:"append-only engine under fact inserts + dimension churn"
    ~print:(fun (v, seed) -> Printf.sprintf "%s / seed %d" (print_view v) seed)
    Gen.(pair (oneof [ view_gen; minmax_view_gen ]) (int_bound 10_000))
    (fun (view, seed) ->
      let module Engines = Maintenance.Engines in
      let db = Workload.Retail.load tiny_params in
      View.validate db view;
      let e = Engines.append_only db view in
      let rng = Workload.Prng.create seed in
      let inserts = { Workload.Delta_gen.insert = 1; delete = 0; update = 0 } in
      let ok = ref true in
      for _ = 1 to 3 do
        let facts =
          Workload.Delta_gen.stream_for ~mix:inserts rng db ~tables:[ "sale" ]
            ~n:25
        in
        let dims =
          Workload.Delta_gen.stream_for rng db
            ~tables:[ "time"; "product"; "store" ] ~n:10
        in
        Engines.apply_batch e (facts @ dims);
        ok :=
          !ok
          && Relation.equal (Engines.view_contents e)
               (Algebra.Eval.eval db view)
      done;
      !ok && Engines.equal_state e (Engines.append_only db view))

(* A committed batch of fact inserts, then one rolled back: rollback must
   restore the MIN/MAX columns of the root auxiliary view with the rest of
   the state, and the engine must then take the same batch correctly. *)
let prop_append_only_rollback =
  QCheck2.Test.make ~count:(max 25 (count / 2))
    ~name:"append-only rollback == rebuild (MIN/MAX views)"
    ~print:(fun (v, seed) -> Printf.sprintf "%s / seed %d" (print_view v) seed)
    Gen.(pair minmax_view_gen (int_bound 10_000))
    (fun (view, seed) ->
      let module Engines = Maintenance.Engines in
      let db = Workload.Retail.load tiny_params in
      View.validate db view;
      let e = Engines.append_only db view in
      let rng = Workload.Prng.create seed in
      let inserts = { Workload.Delta_gen.insert = 1; delete = 0; update = 0 } in
      let facts db =
        Workload.Delta_gen.stream_for ~mix:inserts rng db ~tables:[ "sale" ]
          ~n:25
      in
      Engines.begin_txn e;
      Engines.apply_batch e (facts db);
      Engines.commit e;
      let snapshot = Engines.append_only db view in
      let next = Database.copy db in
      let batch = facts next in
      Engines.begin_txn e;
      Engines.apply_batch e batch;
      Engines.rollback e;
      let restored = Engines.equal_state e snapshot in
      Engines.apply_batch e batch;
      restored
      && Relation.equal (Engines.view_contents e) (Algebra.Eval.eval next view))

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

(* --- hashing and grouping edge cases --------------------------------------- *)

(* [Value.hash] is the runtime's [Hashtbl.hash] of the (tag, payload) pair
   for every kind of value — the stored hashes of snapshots and dictionaries
   depend on it — and a stored cell hashes as its value does. *)
let value_gen =
  Gen.oneof
    [
      Gen.map (fun x -> Value.Int x)
        (Gen.oneof
           [ Gen.int; Gen.small_signed_int;
             Gen.oneofl [ min_int; max_int; 1 lsl 31; -(1 lsl 31); (1 lsl 31) - 1;
                          -(1 lsl 31) - 1; 1 lsl 32; 0; -1 ] ]);
      Gen.map (fun x -> Value.Float x)
        (Gen.oneof
           [ Gen.float;
             Gen.map Int64.float_of_bits Gen.int64;
             Gen.oneofl [ 0.; -0.; nan; -.nan; infinity; neg_infinity;
                          Int64.float_of_bits 0x7FF0_0000_0000_0001L;
                          min_float; max_float; 5e-324 ] ]);
      Gen.map (fun x -> Value.String x)
        (Gen.oneof
           [ Gen.string_size (Gen.int_bound 9);
             Gen.string_size (Gen.int_range 100 3000);
             Gen.return "" ]);
      Gen.map (fun x -> Value.Bool x) Gen.bool;
      Gen.return Value.Null;
    ]

let prop_value_hash =
  QCheck2.Test.make ~count:2000 ~name:"Value.hash == Hashtbl.hash (tag, x), on cells too"
    ~print:Value.to_string value_gen (fun v ->
      let reference =
        match v with
        | Value.Null -> Hashtbl.hash (-1)
        | Value.Int x -> Hashtbl.hash (0, x)
        | Value.Float x -> Hashtbl.hash (1, x)
        | Value.String x -> Hashtbl.hash (2, x)
        | Value.Bool x -> Hashtbl.hash (3, x)
      in
      let col = Maintenance.Column.create () in
      Maintenance.Column.append col v;
      Value.hash v = reference
      && Maintenance.Column.hash_cell col 0 = reference
      &&
      match v with
      | Value.Int x -> Value.hash_int x = reference
      | Value.Null | Value.Float _ | Value.String _ | Value.Bool _ -> true)

(* A fact table grouped three ways: on a FLOAT column holding -0.0, 0.0
   and NaNs (equal as values, distinct as bits), on an INT column holding
   min_int, max_int and negatives, and on a dictionary-coded dimension
   string. *)
let edge_db () =
  let col name ty = { Schema.col_name = name; col_type = ty } in
  let db = Database.create () in
  Database.add_table db
    (Schema.make ~name:"dim" ~key:"id"
       [ col "id" Datatype.TInt; col "name" Datatype.TString ])
    ~updatable:[];
  Database.add_table db
    (Schema.make ~name:"f" ~key:"id"
       [ col "id" Datatype.TInt; col "g" Datatype.TFloat; col "k" Datatype.TInt;
         col "d" Datatype.TInt; col "v" Datatype.TInt ])
    ~updatable:[ "g"; "k"; "v" ];
  Database.add_reference db
    { Relational.Integrity.src_table = "f"; src_col = "d"; dst_table = "dim" };
  List.iteri
    (fun id name -> Database.insert db "dim" [| i id; s name |])
    [ ""; "a"; "b"; "ab"; "abc"; "abcd"; "abcde"; String.make 40 'z'; "é" ];
  db

let edge_floats = [| 0.; -0.; nan; Int64.float_of_bits 0x7FF0_0000_0000_0001L; 1.5; -2.25 |]
let edge_ints = [| min_int; max_int; -1; -7; 0; 3; min_int + 1 |]

let edge_views =
  let f = a "f" in
  [
    { View.name = "by_float"; having = [];
      select = [ group (f "g"); sum ~alias:"s" (f "v"); count_star () ];
      tables = [ "f" ]; locals = []; joins = [] };
    { View.name = "by_int"; having = [];
      select = [ group (f "k"); sum ~alias:"s" (f "v"); avg ~alias:"m" (f "v");
                 count_star () ];
      tables = [ "f" ]; locals = []; joins = [] };
    { View.name = "by_name"; having = [];
      select = [ group (a "dim" "name"); sum ~alias:"s" (f "v"); count_star () ];
      tables = [ "f"; "dim" ]; locals = [];
      joins = [ join (f "d") (a "dim" "id") ] };
    { View.name = "by_all"; having = [];
      select = [ group (f "g"); group (f "k"); group (a "dim" "name");
                 sum ~alias:"s" (f "v"); count_star () ];
      tables = [ "f"; "dim" ]; locals = [];
      joins = [ join (f "d") (a "dim" "id") ] };
  ]

(* A legal batch against [db], applied to it: fresh facts, deletions and
   updates that move a fact between groups or only change its measure. *)
let edge_batch rng db next_id =
  let pick arr = arr.(Workload.Prng.int rng (Array.length arr)) in
  let fact () =
    let id = !next_id in
    incr next_id;
    [| i id; f (pick edge_floats); i (pick edge_ints);
       i (Workload.Prng.int rng 9); i (Workload.Prng.int rng 100 - 50) |]
  in
  List.init 12 (fun _ ->
      let live = Database.fold db "f" (fun tup acc -> tup :: acc) [] in
      let d =
        match live, Workload.Prng.int rng 4 with
        | [], _ | _, 0 -> Delta.insert "f" (fact ())
        | _, 1 -> Delta.delete "f" (List.nth live (Workload.Prng.int rng (List.length live)))
        | _, _ ->
          let before = List.nth live (Workload.Prng.int rng (List.length live)) in
          let after = Array.copy before in
          (match Workload.Prng.int rng 3 with
          | 0 -> after.(1) <- f (pick edge_floats)
          | 1 -> after.(2) <- i (pick edge_ints)
          | _ -> after.(4) <- i (Workload.Prng.int rng 100 - 50));
          Delta.update "f" ~before ~after
      in
      Database.apply db d;
      d)

let prop_grouping_edge_cases =
  QCheck2.Test.make ~count:60
    ~name:"maintained == recomputed on -0.0/NaN, extreme int and dictionary keys (rollbacks)"
    ~print:string_of_int (Gen.int_bound 100_000) (fun seed ->
      let db = edge_db () in
      let rng = Workload.Prng.create seed in
      let next_id = ref 0 in
      let (_ : Delta.t list) = edge_batch rng db next_id in
      let engines =
        List.map (fun v -> (v, Maintenance.Engines.minimal db v)) edge_views
      in
      let agrees () =
        List.for_all
          (fun (v, e) ->
            Relation.equal
              (Maintenance.Engines.view_contents e)
              (Algebra.Eval.eval db v))
          engines
      in
      let ok = ref (agrees ()) in
      for _ = 1 to 8 do
        let deltas = edge_batch rng db next_id in
        let undo = Workload.Prng.int rng 4 = 0 in
        List.iter
          (fun (_, e) ->
            Maintenance.Engines.begin_txn e;
            Maintenance.Engines.apply_batch e deltas;
            if undo then Maintenance.Engines.rollback e
            else Maintenance.Engines.commit e)
          engines;
        if undo then
          List.iter (fun d -> Database.apply db (Delta.invert d)) (List.rev deltas);
        ok := !ok && agrees ()
      done;
      !ok)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "self-maintenance",
        List.map to_alcotest
          [
            prop_maintained_equals_recomputed;
            prop_recompute_paths;
            prop_minmax_walks;
            prop_distinct_multisets;
            prop_publish_equals_capture;
            prop_psj_engine_agrees;
            prop_aux_state_matches_materialization;
            prop_in_place_updates;
            prop_seed_from_root_aux;
            prop_grouping_edge_cases;
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
            prop_append_only_dims;
            prop_append_only_rollback;
            prop_random_schemas;
            prop_random_schemas_reconstruct;
            prop_batch_split_invariance;
          ] );
      ( "substrate",
        List.map to_alcotest
          [
            prop_value_hash;
            prop_bag_insert_delete;
            prop_bag_cardinality;
            prop_bag_equal_of_list;
            prop_prng_deterministic;
            prop_delta_stream_legal;
          ] );
    ]
