(* Experiment harness: regenerates every table and figure of the paper
   (EXPERIMENTS.md E1-E15) plus timing benchmarks (E16-E20).

     dune exec bench/main.exe            # run E1..E15
     dune exec bench/main.exe -- e4 e7   # run selected experiments
     dune exec bench/main.exe -- endurance  # 200k-delta soak with RSS
     dune exec bench/main.exe -- columnar   # one named benchmark
     dune exec bench/main.exe -- regress DIR  # gate these results on DIR's

   Each named benchmark (apply-scaling E16, parallel E17, overhead E18,
   serve E19, columnar E20) runs one grid fixed in its code and writes
   BENCH_<name>.json to the working directory; regress compares those files
   with the ones another checkout wrote. The harness reads no environment
   variable. *)

module R = Workload.Retail
module S = Workload.Snowflake
module Storage = Warehouse.Storage
module Derive = Mindetail.Derive
module Engines = Maintenance.Engines
module Relation = Relational.Relation
module Database = Relational.Database
module Value = Relational.Value
module Aggregate = Algebra.Aggregate
module Classify = Mindetail.Classify

let header title =
  Printf.printf "\n================ %s ================\n" title

let table = Relational.Table_printer.render
let show = Storage.show_bytes

(* medium-size measured instance used by several experiments *)
let medium_params =
  {
    R.days = 40;
    stores = 4;
    products = 150;
    sold_per_store_day = 25;
    tx_per_product = 4;
    brands = 15;
    seed = 2026;
  }

let total_rows profile = List.fold_left (fun acc (_, r, _) -> acc + r) 0 profile

(* ------------------------------------------------------------ harness *)

(* Every timed figure a named benchmark prints or writes is a [stats]: the
   median and quartiles of [n] samples, in ms. A median, unlike a minimum,
   does not follow one side's luckiest sample. *)
type stats = { med : float; q1 : float; q3 : float; n : int }

(* the [q]-quantile of [xs], interpolated between the nearest ranks *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  let j = min (i + 1) (Array.length a - 1) in
  a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let stats xs =
  { med = quantile xs 0.5; q1 = quantile xs 0.25; q3 = quantile xs 0.75;
    n = List.length xs }

let show_stats ?(digits = 2) s =
  Printf.sprintf "%.*f (%.*f..%.*f, n=%d)" digits s.med digits s.q1 digits s.q3
    s.n

let json_stats s =
  Printf.sprintf "{ \"median\": %.4f, \"q1\": %.4f, \"q3\": %.4f, \"n\": %d }"
    s.med s.q1 s.q3 s.n

(* Process CPU time for work on one domain; wall clock where worker domains
   burn CPU concurrently, which CPU time would charge to the parallel path
   for its own overlap. *)
type clock = Cpu | Wall

(* One sample, in ms per call: [before ()] and a minor collection, then
   [reps] calls of [f] between two readings of [clock], then [after ()].
   [before] and [after] stay outside the timed region: a transaction's
   begin and rollback, or a fresh state to fill. *)
let time ?(clock = Cpu) ?(reps = 1) ?(before = ignore) ?(after = ignore) f =
  let now () =
    match clock with Cpu -> Sys.time () | Wall -> Unix.gettimeofday ()
  in
  before ();
  Gc.minor ();
  let t0 = now () in
  for _ = 1 to reps do
    f ()
  done;
  let dt = now () -. t0 in
  after ();
  dt *. 1000. /. float_of_int reps

let sample ?clock ?reps ?before ?after ~n f =
  stats (List.init n (fun _ -> time ?clock ?reps ?before ?after f))

(* [n] rounds over [sides], each side once per round; round [k] starts at
   side [k mod (number of sides)], so drift through the run (frequency
   scaling, cache and heap state) hits every side alike. Returns each
   side's [n] results in round order. *)
let alternate ~n sides =
  let m = Array.length sides in
  let out = Array.make m [] in
  for k = 0 to n - 1 do
    for i = 0 to m - 1 do
      let s = (k + i) mod m in
      out.(s) <- sides.(s) () :: out.(s)
    done
  done;
  Array.map List.rev out

(* [n] fresh sale facts with ids counted up from [next_id]: timeid,
   productid, storeid and price are uniform over [1, days], [1, products],
   [1, stores] and [1, prices]. A range of one is the constant 1 and takes
   no draw. *)
let sale_rows rng ~next_id ~days ~products ~stores ~prices n =
  let draw k = if k = 1 then 1 else Workload.Prng.int rng k + 1 in
  List.init n (fun _ ->
      incr next_id;
      [| Value.Int !next_id; Value.Int (draw days); Value.Int (draw products);
         Value.Int (draw stores); Value.Int (draw prices) |])

let sale_inserts rows = List.map (Relational.Delta.insert "sale") rows

(* ------------------------------------------------------------------ E1 *)

let e1 () =
  header "E1: Section 1.1 storage case study";
  let p = R.paper_params in
  Printf.printf
    "paper parameters: %d days x %d stores x %d products sold/day x %d \
     transactions\n"
    p.R.days p.R.stores p.R.sold_per_store_day p.R.tx_per_product;
  let fact_rows = R.fact_rows p in
  let fact_bytes = Storage.bytes ~rows:fact_rows ~fields:5 in
  (* product_sales only covers 1997 (half the time dimension); worst case all
     30,000 products sell each day *)
  let aux_rows = p.R.days / 2 * p.R.products in
  let aux_bytes = Storage.bytes ~rows:aux_rows ~fields:4 in
  print_string
    (table
       ~header:[ "object"; "tuples"; "fields"; "size" ]
       [
         [ "sale (fact table)"; string_of_int fact_rows; "5"; show fact_bytes ];
         [ "saleDTL (aux view)"; string_of_int aux_rows; "4"; show aux_bytes ];
       ]);
  Printf.printf
    "paper reports: 13,140,000,000 tuples / 245 GBytes vs 10,950,000 tuples \
     / 167 MBytes\nreduction factor: %.0fx\n"
    (float_of_int fact_bytes /. float_of_int aux_bytes);
  (* measured, scaled down *)
  let scale =
    float_of_int (R.fact_rows medium_params) /. float_of_int fact_rows
  in
  Printf.printf "\nmeasured at scale %.2e (%d fact rows):\n" scale
    (R.fact_rows medium_params);
  let db = R.load medium_params in
  let view = R.product_sales in
  let rows_of strategy =
    let e = strategy db view in
    (Engines.name e, Engines.detail_profile e)
  in
  let profiles =
    List.map rows_of [ Engines.recompute; Engines.psj; Engines.minimal ]
  in
  print_string
    (table
       ~header:[ "strategy"; "detail rows"; "detail size" ]
       (List.map
          (fun (name, p) ->
            [ name; string_of_int (total_rows p);
              show (Storage.profile_bytes p) ])
          profiles));
  let find n = List.assoc n profiles in
  Printf.printf "measured reduction vs full replication: %.1fx\n"
    (float_of_int (Storage.profile_bytes (find "recompute"))
    /. float_of_int (Storage.profile_bytes (find "minimal")))

(* ------------------------------------------------------------------ E2 *)

let e2 () =
  header "E2: Table 1 - SMA/SMAS classification of SQL aggregates";
  let funcs =
    [ Aggregate.Count; Aggregate.Sum; Aggregate.Avg; Aggregate.Max;
      Aggregate.Min ]
  in
  let mark kind f = if Classify.is_sma f kind then "yes" else "no" in
  let companions kind f =
    match Classify.smas_companions f kind with
    | None -> "no"
    | Some [] -> "yes"
    | Some cs ->
      "yes, with " ^ String.concat "+" (List.map Aggregate.func_name cs)
  in
  print_string
    (table
       ~header:
         [ "aggregate"; "SMA insert"; "SMA delete"; "SMAS insert";
           "SMAS delete" ]
       (List.map
          (fun f ->
            [
              Aggregate.func_name f;
              mark Classify.Insertion f;
              mark Classify.Deletion f;
              companions Classify.Insertion f;
              companions Classify.Deletion f;
            ])
          funcs))

(* ------------------------------------------------------------------ E3 *)

let e3 () =
  header "E3: Table 2 - replacement and CSMAS classification";
  let funcs =
    [ Aggregate.Count; Aggregate.Sum; Aggregate.Avg; Aggregate.Max;
      Aggregate.Min ]
  in
  let rows =
    List.map
      (fun f ->
        let replaced =
          match Classify.replacement f with
          | None -> "not replaced"
          | Some cs -> String.concat ", " (List.map Aggregate.func_name cs)
        in
        let klass =
          Classify.class_name
            (Aggregate.make ~alias:"x" f (Some (Algebra.Attr.make "t" "c")))
        in
        [ Aggregate.func_name f; replaced; klass ])
      funcs
    @ [ [ "any DISTINCT f"; "not replaced"; "non-CSMAS" ] ]
  in
  print_string (table ~header:[ "aggregate"; "replaced by"; "class" ] rows)

(* ------------------------------------------------------------------ E4 *)

(* the instance behind Tables 3 and 4 *)
let paper_instance () =
  let db = R.empty () in
  List.iteri
    (fun idx (day, month, year) ->
      Database.insert db "time"
        [| Value.Int (idx + 1); Value.Int day; Value.Int month; Value.Int year |])
    [ (1, 1, 1997); (2, 1, 1997); (3, 2, 1997) ];
  List.iteri
    (fun idx (brand, cat) ->
      Database.insert db "product"
        [| Value.Int (idx + 1); Value.String brand; Value.String cat |])
    [ ("acme", "food"); ("apex", "drink") ];
  Database.insert db "store"
    [| Value.Int 1; Value.String "1 Main"; Value.String "aal";
       Value.String "dk"; Value.String "m" |];
  List.iteri
    (fun idx (timeid, productid, price) ->
      Database.insert db "sale"
        [| Value.Int (idx + 1); Value.Int timeid; Value.Int productid;
           Value.Int 1; Value.Int price |])
    [ (1, 1, 10); (1, 1, 10); (1, 2, 10); (2, 1, 15); (2, 1, 15); (2, 1, 20);
      (3, 2, 30) ];
  db

let e4 () =
  header "E4: Tables 3 and 4 - smart duplicate compression of saleDTL";
  let db = paper_instance () in
  let psj = Mindetail.Psj.derive db R.product_sales in
  print_endline "tuple-level auxiliary view (PSJ baseline, with keys):";
  print_string
    (Relational.Table_printer.render_relation
       ~columns:
         (Mindetail.Auxview.column_names
            (Option.get (Derive.spec_for psj "sale")))
       (Mindetail.Materialize.aux db psj "sale"));
  (* Table 3: duplicates made explicit by a COUNT over the projection *)
  let counted =
    Algebra.Eval.eval db
      {
        Algebra.View.name = "table3";
        having = [];
        select =
          [
            Algebra.Select_item.group (Algebra.Attr.make "sale" "timeid");
            Algebra.Select_item.group (Algebra.Attr.make "sale" "productid");
            Algebra.Select_item.group (Algebra.Attr.make "sale" "price");
            Algebra.Select_item.Agg
              (Aggregate.make ~alias:"COUNT(*)" Aggregate.Count_star None);
          ];
        tables = [ "sale" ];
        locals = [];
        joins = [];
      }
  in
  print_endline "Table 3 - after adding COUNT(*) (duplicates compressed):";
  print_string
    (Relational.Table_printer.render_relation
       ~columns:[ "timeid"; "productid"; "price"; "COUNT(*)" ]
       counted);
  let dmin = Derive.derive db R.product_sales in
  print_endline
    "Table 4 - after smart duplicate compression (SUM replaces price):";
  print_string
    (Relational.Table_printer.render_relation
       ~columns:
         (Mindetail.Auxview.column_names
            (Option.get (Derive.spec_for dmin "sale")))
       (Mindetail.Materialize.aux db dmin "sale"));
  print_endline "auxiliary view definitions derived by Algorithm 3.2:";
  List.iter
    (fun spec -> print_endline (Mindetail.Auxview.to_sql spec))
    (Derive.specs dmin)

(* ------------------------------------------------------------------ E5 *)

let e5 () =
  header "E5: Figure 2 - extended join graph of product_sales";
  let db = R.empty () in
  let d = Derive.derive db R.product_sales in
  print_string (Mindetail.Explain.join_graph_ascii d.Derive.graph);
  print_endline "\nDOT form:";
  print_string (Mindetail.Explain.join_graph_dot d.Derive.graph);
  print_endline "\nNeed sets (Definition 3):";
  List.iter
    (fun (t, need) ->
      Printf.printf "  Need(%s) = {%s}\n" t (String.concat ", " need))
    d.Derive.needs

(* ------------------------------------------------------------------ E6 *)

let e6 () =
  header "E6: Figure 1 - self-maintaining warehouse, end to end";
  let db = R.load medium_params in
  let wh = Warehouse.create db in
  List.iter (Warehouse.add_view wh)
    [ R.product_sales; R.monthly_revenue; R.sales_by_time ];
  let rng = Workload.Prng.create 4242 in
  let n_changes = 3_000 in
  let deltas = Workload.Delta_gen.stream rng db ~n:n_changes in
  let t0 = Sys.time () in
  Warehouse.ingest wh deltas;
  let dt = Sys.time () -. t0 in
  Printf.printf
    "ingested %d source changes into 3 summary tables in %.1f ms (%.0f \
     changes/s/view)\n"
    n_changes (dt *. 1000.)
    (float_of_int (3 * n_changes) /. dt);
  List.iter
    (fun view ->
      let name = view.Algebra.View.name in
      let _, got = Warehouse.query wh name in
      Printf.printf "  %-16s maintained == recomputed: %b\n" name
        (Relation.equal got (Algebra.Eval.eval db view)))
    [ R.product_sales; R.monthly_revenue; R.sales_by_time ];
  print_endline "detail data held by the warehouse:";
  print_string (Storage.render_profile (Warehouse.detail_profile wh))

(* ------------------------------------------------------------------ E7 *)

let e7 () =
  header "E7: compression ratio vs transactions-per-product (duplication)";
  print_endline
    "fact rows grow linearly with duplication; the compressed saleDTL stays\n\
     flat (bounded by days x products), reproducing the shape of the\n\
     Section 1.1 savings:";
  let rows =
    List.map
      (fun tx ->
        let p = { medium_params with R.tx_per_product = tx } in
        let db = R.load p in
        let dmin = Derive.derive db R.product_sales in
        let fact = Database.row_count db "sale" in
        let aux =
          Relation.cardinality (Mindetail.Materialize.aux db dmin "sale")
        in
        [
          string_of_int tx;
          string_of_int fact;
          show (Storage.bytes ~rows:fact ~fields:5);
          string_of_int aux;
          show (Storage.bytes ~rows:aux ~fields:4);
          Printf.sprintf "%.1fx" (float_of_int fact /. float_of_int aux);
        ])
      [ 1; 2; 5; 10; 20 ]
  in
  print_string
    (table
       ~header:
         [ "tx/product"; "fact rows"; "fact size"; "saleDTL rows";
           "saleDTL size"; "row ratio" ]
       rows)

(* ------------------------------------------------------------------ E8 *)

(* fresh facts over medium_params' dimensions *)
let medium_sales rng ~next_id n =
  sale_inserts
    (sale_rows rng ~next_id ~days:medium_params.R.days
       ~products:medium_params.R.products ~stores:medium_params.R.stores
       ~prices:100 n)

let e8 () =
  header "E8: maintenance cost - minimal vs PSJ vs full recomputation";
  let db = R.load medium_params in
  let view = R.product_sales in
  let strategies = [ Engines.minimal; Engines.psj; Engines.recompute ] in
  let next_id = ref 1_000_000 in
  (* Each sample admits one fresh batch for good. No engine reads [db]
     after its init (recompute admits into its own copy), so [db] never
     takes the batches and [derive] and [eval] below see the loaded
     instance. *)
  let ingest e rng ~size ~read n =
    let batches = List.init n (fun _ -> medium_sales rng ~next_id size) in
    stats
      (List.map
         (fun batch ->
           time (fun () ->
               Engines.apply_batch e batch;
               if read then ignore (Engines.view_contents e)))
         batches)
  in
  let rng = Workload.Prng.create 777 in
  let with_read =
    List.map
      (fun strategy ->
        let e = strategy db view in
        ( Engines.name e ^ ": 200 inserts + read",
          ingest e rng ~size:200 ~read:true 10 ))
      strategies
  in
  let ingest_only =
    List.map
      (fun strategy ->
        let e = strategy db view in
        ( Engines.name e ^ ": 50 inserts",
          ingest e (Workload.Prng.create 99) ~size:50 ~read:false 30 ))
      strategies
  in
  let derive =
    sample ~n:30 ~reps:200 (fun () -> ignore (Derive.derive db view))
  in
  let eval = sample ~n:30 (fun () -> ignore (Algebra.Eval.eval db view)) in
  let minimal = Engines.minimal db view in
  let read_minimal =
    sample ~n:30 ~reps:5_000 (fun () -> ignore (Engines.view_contents minimal))
  in
  let recompute = Engines.recompute db view in
  let read_recompute =
    sample ~n:30 (fun () -> ignore (Engines.view_contents recompute))
  in
  print_endline "CPU time per case (ms, lower is better):";
  print_string
    (table
       ~header:[ "case"; "median (q1..q3, samples)" ]
       (List.map
          (fun (case, s) -> [ case; show_stats ~digits:5 s ])
          (with_read @ ingest_only
          @ [ ("derive product_sales", derive);
              ("evaluate product_sales", eval);
              ("minimal: read", read_minimal);
              ("recompute: read", read_recompute) ])))

(* ------------------------------------------------------------------ E9 *)

let e9 () =
  header "E9: eliminating the fact auxiliary view (Section 3.3)";
  let db = R.load medium_params in
  let view = R.sales_by_time in
  let d = Derive.derive db view in
  List.iter
    (fun (t, dec) ->
      match dec with
      | Derive.Omitted why -> Printf.printf "X_%s omitted: %s\n" t why
      | Derive.Retained _ -> Printf.printf "X_%s retained\n" t)
    d.Derive.decisions;
  let profile_of strategy =
    let e = strategy db view in
    (Engines.name e, Engines.detail_profile e)
  in
  let profiles =
    List.map profile_of [ Engines.recompute; Engines.psj; Engines.minimal ]
  in
  print_string
    (table
       ~header:[ "strategy"; "detail rows"; "detail size" ]
       (List.map
          (fun (n, p) ->
            [ n; string_of_int (total_rows p);
              show (Storage.profile_bytes p) ])
          profiles));
  (* maintenance with zero fact detail *)
  let e = Engines.minimal db view in
  let rng = Workload.Prng.create 31 in
  let deltas = Workload.Delta_gen.stream rng db ~n:2_000 in
  Engines.apply_batch e deltas;
  Printf.printf
    "after %d changes with no fact detail stored: maintained == recomputed: \
     %b\n"
    (List.length deltas)
    (Relation.equal (Engines.view_contents e) (Algebra.Eval.eval db view))

(* ------------------------------------------------------------------ E10 *)

let e10 () =
  header "E10: snowflake schemas (tree join graphs beyond stars)";
  let params = { S.small_params with S.sales = 3_000; products = 100 } in
  List.iter
    (fun view ->
      let db = S.load params in
      let d = Derive.derive db view in
      Printf.printf "-- %s --\n" view.Algebra.View.name;
      print_string (Mindetail.Explain.join_graph_ascii d.Derive.graph);
      (match Derive.omitted_tables d with
      | [] -> print_endline "no auxiliary view omitted"
      | ts -> Printf.printf "omitted: %s\n" (String.concat ", " ts));
      let e = Engines.minimal db view in
      let rng = Workload.Prng.create 13 in
      Engines.apply_batch e (Workload.Delta_gen.stream rng db ~n:1_500);
      Printf.printf "maintained == recomputed: %b\n"
        (Relation.equal (Engines.view_contents e) (Algebra.Eval.eval db view));
      print_string (Storage.render_profile (Engines.detail_profile e));
      print_newline ())
    [ S.category_revenue; S.product_brand_profile ]

(* ------------------------------------------------------------------ E11 *)

let e11 () =
  header "E11: ablation of the reduction techniques";
  print_endline
    "detail data stored for product_sales with each technique disabled in\n\
     turn (rows and bytes under the paper's storage model):";
  let db = R.load medium_params in
  let view = R.product_sales in
  let variants =
    [
      ("full (the paper)", Derive.default_options);
      ("no local pushdown", { Derive.default_options with Derive.push_locals = false });
      ("no semijoin reduction", { Derive.default_options with Derive.join_reductions = false });
      ("no duplicate compression", { Derive.default_options with Derive.compression = false });
      ( "all reductions off",
        { Derive.push_locals = false; join_reductions = false;
          compression = false; elimination = false; append_only = false } );
    ]
  in
  let rows =
    List.map
      (fun (label, options) ->
        let d = Derive.derive_with options db view in
        let profile =
          List.map
            (fun (spec : Mindetail.Auxview.t) ->
              let rel =
                Mindetail.Materialize.aux db d spec.Mindetail.Auxview.base
              in
              ( spec.Mindetail.Auxview.name,
                Relation.cardinality rel,
                List.length spec.Mindetail.Auxview.columns ))
            (Derive.specs d)
        in
        [
          label;
          string_of_int (total_rows profile);
          show (Storage.profile_bytes profile);
        ])
      variants
  in
  print_string (table ~header:[ "configuration"; "detail rows"; "size" ] rows);
  (* every ablated configuration still maintains correctly under a stream *)
  let engines =
    List.map
      (fun (label, options) ->
        (label, Engines.with_options ~name:label options db view))
      variants
  in
  let rng = Workload.Prng.create 5150 in
  let deltas = Workload.Delta_gen.stream rng db ~n:800 in
  let expected = Algebra.Eval.eval db view in
  List.iter
    (fun (label, e) ->
      Engines.apply_batch e deltas;
      Printf.printf "  %-26s maintains correctly over %d changes: %b\n" label
        (List.length deltas)
        (Relation.equal expected (Engines.view_contents e)))
    engines

(* ------------------------------------------------------------------ E12 *)

let e12 () =
  header "E12: append-only old detail data (Section 4 relaxation)";
  let db = R.load medium_params in
  let view = R.product_sales_max in
  print_endline "product_sales_max (MAX + SUM + COUNT per product):";
  let standard = Derive.derive db view in
  let append = Derive.derive_with Derive.append_only_options db view in
  Printf.printf "  standard derivation omits: [%s]\n"
    (String.concat ", " (Derive.omitted_tables standard));
  Printf.printf "  append-only derivation omits: [%s]\n"
    (String.concat ", " (Derive.omitted_tables append));
  let detail d =
    List.fold_left
      (fun acc (spec : Mindetail.Auxview.t) ->
        acc
        + Relation.cardinality
            (Mindetail.Materialize.aux db d spec.Mindetail.Auxview.base))
      0 (Derive.specs d)
  in
  Printf.printf "  detail rows: standard %d, append-only %d\n"
    (detail standard) (detail append);
  (* the forced-retention variant shows the compressed MIN/MAX columns *)
  let forced =
    Derive.derive_with
      { Derive.append_only_options with Derive.elimination = false }
      db view
  in
  print_endline "  append-only auxiliary view (forced retention, for shape):";
  List.iter
    (fun spec -> print_endline (Mindetail.Auxview.to_sql spec))
    (Derive.specs forced);
  (* insert-only stream *)
  let e_std = Engines.minimal db view in
  let e_app = Engines.append_only db view in
  let rng = Workload.Prng.create 66 in
  let inserts_only = { Workload.Delta_gen.insert = 1; delete = 0; update = 0 } in
  let deltas = Workload.Delta_gen.stream ~mix:inserts_only rng db ~n:3_000 in
  List.iter (fun e -> Engines.apply_batch e deltas) [ e_std; e_app ];
  let expected = Algebra.Eval.eval db view in
  Printf.printf
    "  after %d insertions: standard correct %b, append-only correct %b\n"
    (List.length deltas)
    (Relation.equal expected (Engines.view_contents e_std))
    (Relation.equal expected (Engines.view_contents e_app))

(* ------------------------------------------------------------------ E13 *)

let e13 () =
  header "E13: sharing detail data across summary tables";
  let db = R.load medium_params in
  let views =
    [ R.product_sales; R.monthly_revenue; R.sales_by_time; R.months ]
  in
  let named =
    List.map (fun v -> (v.Algebra.View.name, Derive.derive db v)) views
  in
  print_string (Mindetail.Sharing.report named);
  (* quantify: rows stored naively vs with shared specs *)
  let rows_of (d, spec) =
    Relation.cardinality
      (Mindetail.Materialize.aux db d (spec : Mindetail.Auxview.t).Mindetail.Auxview.base)
  in
  let all_specs =
    List.concat_map
      (fun (_, d) -> List.map (fun s -> (d, s)) (Derive.specs d))
      named
  in
  let naive = List.fold_left (fun acc ds -> acc + rows_of ds) 0 all_specs in
  let shared_away =
    List.fold_left
      (fun acc (op : Mindetail.Sharing.opportunity) ->
        List.fold_left
          (fun acc (vn, spec) ->
            let d = List.assoc vn named in
            acc + rows_of (d, spec))
          acc op.Mindetail.Sharing.served)
      0 (Mindetail.Sharing.analyze named)
  in
  Printf.printf
    "detail rows stored per-view: %d; with sharing: %d (%.0f%% saved)\n"
    naive (naive - shared_away)
    (100. *. float_of_int shared_away /. float_of_int (max 1 naive))

(* ------------------------------------------------------------------ E14 *)

let e14 () =
  header "E14: current vs old detail data (Figure 1 + Section 4)";
  let db = R.load medium_params in
  (* a mergeable profile view (no AVG/DISTINCT) *)
  let view =
    {
      Algebra.View.name = "sales_profile";
      having = [];
      select =
        [
          Algebra.Select_item.group (Algebra.Attr.make "time" "month");
          Algebra.Select_item.Agg
            (Aggregate.make ~alias:"Revenue" Aggregate.Sum
               (Some (Algebra.Attr.make "sale" "price")));
          Algebra.Select_item.Agg
            (Aggregate.make ~alias:"Sales" Aggregate.Count_star None);
          Algebra.Select_item.Agg
            (Aggregate.make ~alias:"MaxPrice" Aggregate.Max
               (Some (Algebra.Attr.make "sale" "price")));
        ];
      tables = [ "sale"; "time" ];
      locals = [];
      joins =
        [ { Algebra.View.src = Algebra.Attr.make "sale" "timeid";
            dst = Algebra.Attr.make "time" "id" } ];
    }
  in
  let boundary = medium_params.R.days / 2 in
  let is_old tup =
    match tup.(1) with Value.Int t -> t <= boundary | _ -> false
  in
  let p = Maintenance.Engines.partitioned db view ~is_old in
  print_endline
    "the fact table is split at the age boundary: the old half is\n\
     append-only, so MIN/MAX compress into columns and nothing in it can be\n\
     invalidated; the current half stays fully mutable:";
  print_string
    (Storage.render_profile (Maintenance.Engines.detail_profile p));
  (* live traffic: inserts everywhere, deletes/updates only on current *)
  let rng = Workload.Prng.create 4 in
  let inserts = { Workload.Delta_gen.insert = 1; delete = 0; update = 0 } in
  let stream =
    Workload.Delta_gen.stream_for ~mix:inserts rng db ~tables:[ "sale" ]
      ~n:2_000
  in
  Maintenance.Engines.apply_batch p stream;
  Printf.printf "after %d insertions: merged view == recomputed: %b\n"
    (List.length stream)
    (Relation.equal
       (Maintenance.Engines.view_contents p)
       (Algebra.Eval.eval db view));
  (* nightly aging: everything below a new boundary moves to old *)
  let aged =
    Database.fold db "sale"
      (fun tup acc ->
        match tup.(1) with
        | Value.Int t when t > boundary && t <= boundary + 5 -> tup :: acc
        | _ -> acc)
      []
  in
  let before = Maintenance.Engines.view_contents p in
  Option.get (Maintenance.Engines.age_out p) aged;
  Printf.printf
    "aged out %d facts (boundary %d -> %d): view unchanged: %b\n" 
    (List.length aged) boundary (boundary + 5)
    (Relation.equal before (Maintenance.Engines.view_contents p));
  print_string
    (Storage.render_profile (Maintenance.Engines.detail_profile p))

(* ------------------------------------------------------------------ E15 *)

let e15 () =
  header "E15: foreign-key indexes for dimension-update propagation";
  print_endline
    "cost of 100 dimension updates (brand renames) against growing fact\n\
     counts; the fk index keeps propagation proportional to the affected\n\
     rows while the scan grows with the detail size:";
  let rows =
    List.map
      (fun factor ->
        let p =
          { medium_params with
            R.sold_per_store_day = medium_params.R.sold_per_store_day * factor;
            products = medium_params.R.products * factor }
        in
        let db = R.load p in
        (* a CSMAS-only view over the product dimension: brand renames are
           propagated purely by contribution diffing, no recomputation *)
        let view =
          {
            Algebra.View.name = "brand_revenue";
            having = [];
            select =
              [
                Algebra.Select_item.group (Algebra.Attr.make "product" "brand");
                Algebra.Select_item.Agg
                  (Aggregate.make ~alias:"Revenue" Aggregate.Sum
                     (Some (Algebra.Attr.make "sale" "price")));
                Algebra.Select_item.Agg
                  (Aggregate.make ~alias:"Sales" Aggregate.Count_star None);
              ];
            tables = [ "sale"; "product" ];
            locals = [];
            joins =
              [ { Algebra.View.src = Algebra.Attr.make "sale" "productid";
                  dst = Algebra.Attr.make "product" "id" } ];
          }
        in
        let d = Derive.derive db view in
        let measure fk_index =
          let e = Maintenance.Engine.init ~fk_index db d in
          let rng = Workload.Prng.create 909 in
          (* one rename per product: the source is shared between the two
             configurations, so before-images must stay valid *)
          let updates =
            List.filter_map
              (fun id ->
                match Database.find_by_key db "product" (Value.Int id) with
                | None -> None
                | Some before ->
                  let after = Array.copy before in
                  after.(1) <-
                    Value.String
                      (Printf.sprintf "rebrand%d" (Workload.Prng.int rng 1000));
                  Some (Relational.Delta.update "product" ~before ~after))
              (List.init (min 50 p.R.products) (fun i -> i + 1))
          in
          (* measure propagation only; do not evolve the shared source *)
          let t0 = Sys.time () in
          Maintenance.Engine.apply_batch e updates;
          (Sys.time () -. t0) *. 1000.
        in
        let indexed = measure true in
        let scanning = measure false in
        [
          string_of_int (Database.row_count db "sale");
          Printf.sprintf "%.1f" indexed;
          Printf.sprintf "%.1f" scanning;
          Printf.sprintf "%.1fx" (scanning /. Float.max 0.01 indexed);
        ])
      [ 1; 4; 8 ]
  in
  print_string
    (table
       ~header:[ "fact rows"; "indexed ms"; "scan ms"; "speedup" ]
       rows)

(* ----------------------------------------------------- apply-scaling *)

(* Batch apply latency as a function of resident rows (auxiliary view rows
   plus materialized view groups). With undo journaling the transactional
   apply is O(delta): a batch touching a bounded set of groups must cost the
   same against 10k resident rows as against 1M. The "rebuild" series
   builds the engine afresh from the source and applies the batch to it,
   an O(state) baseline of the cost the journal removes.

   The instance is sales_by_time over a grown time dimension — a CSMAS view
   whose auxiliary view and group count both scale with [days] — and the
   delta stream is confined to a bounded (day, product) region so every grid
   point applies the same per-batch work and working set.

   Not part of the default run. Writes BENCH_apply.json. *)

let apply_scaling () =
  header "apply-scaling: transactional apply vs resident rows";
  (* the resident state is live for the whole run; keep the incremental
     major GC from re-marking it on every batch (its slice time grows with
     heap size and would masquerade as apply cost) *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 64 * 1024 * 1024;
      space_overhead = 10_000 };
  let sizes = [ 10_000; 100_000; 1_000_000 ] in
  let batch_size = 64 in
  (* fresh fact ids far above anything the loader produces *)
  let next_id = ref 100_000_000 in
  let confined rng ~n =
    sale_inserts
      (sale_rows rng ~next_id ~days:5 ~products:50 ~stores:1 ~prices:100 n)
  in
  (* Each sample times a run of consecutive batches in CPU time, well above
     the clock granularity and the scheduler noise floor. The minor heap is
     emptied before each sample and large enough to absorb a whole one, so
     GC does not leak into the timings. *)
  let measure target =
    (* resident rows = aux rows (one per day) + view groups (one per day) *)
    let days = max 10 (target / 2) in
    let p =
      { R.days; stores = 1; products = 50; sold_per_store_day = 3;
        tx_per_product = 1; brands = 5; seed = 7 }
    in
    let db = R.load p in
    let e = Engines.minimal db R.sales_by_time in
    let resident =
      List.fold_left (fun acc (_, r, _) -> acc + r) 0
        (Engines.detail_profile e)
      + Relation.cardinality (Engines.view_contents e)
    in
    let rng = Workload.Prng.create 808 in
    Engines.apply_batch e (confined rng ~n:batch_size) (* warm-up *);
    let journal =
      sample ~n:10 ~reps:25 (fun () ->
          Engines.begin_txn e;
          Engines.apply_batch e (confined rng ~n:batch_size);
          Engines.commit e)
    in
    (* O(state) per batch: build the engine from the source, then apply *)
    let rebuild =
      sample ~n:3
        ~reps:(if target > 200_000 then 1 else 5)
        (fun () ->
          let c = Engines.minimal db R.sales_by_time in
          Engines.apply_batch c (confined rng ~n:batch_size))
    in
    (target, resident, journal, rebuild)
  in
  let points = List.map measure sizes in
  let journals = List.map (fun (_, _, j, _) -> j.med) points in
  let ratio =
    List.fold_left Float.max 0. journals
    /. Float.max 1e-9 (List.fold_left Float.min infinity journals)
  in
  let speedup (_, _, j, c) = c.med /. Float.max 1e-9 j.med in
  print_string
    (table
       ~header:
         [ "target"; "resident rows"; "journal ms/batch"; "rebuild ms/batch";
           "speedup" ]
       (List.map
          (fun ((t, r, j, c) as p) ->
            [ string_of_int t; string_of_int r; show_stats ~digits:4 j;
              show_stats c; Printf.sprintf "%.0fx" (speedup p) ])
          points));
  Printf.printf
    "journal max/min of medians over the grid: %.2fx (flat == O(delta) \
     apply)\n"
    ratio;
  let out = "BENCH_apply.json" in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"apply-scaling\",\n  \"batch_size\": %d,\n  \
     \"points\": [\n%s\n  ],\n  \"ratio_max_over_min\": %.4f\n}\n"
    batch_size
    (String.concat ",\n"
       (List.map
          (fun ((t, r, j, c) as p) ->
            Printf.sprintf
              "    { \"target\": %d, \"resident_rows\": %d, \
               \"journal_ms\": %s, \"rebuild_ms\": %s, \"speedup\": %.1f }"
              t r (json_stats j) (json_stats c) (speedup p))
          points))
    ratio;
  close_out oc;
  Printf.printf "wrote %s\n" out

(* -------------------------------------------------------- parallel *)

(* Batch apply under the netted + shard-parallel fast path
   ([Engine.apply_batch ?parallel]) against plain serial routing, over a
   grid of batch size x domain count x resident rows, on two root-heavy
   workloads:

   - "uniform": fresh fact insertions drawn from a bounded
     (timeid, productid, price) region, so many tuples agree on the
     engine's read-set projection and merge into weighted operations;
   - "zipf": a base set of insertions followed by a Zipf-skewed churn of
     price updates over them — the net-effect compactor collapses each
     row's history to a single insertion.

   The engine state is held constant across samples by timing inside a
   transaction and rolling back after each sample (rollback is exact — see
   test_parallel.ml). Timings are wall-clock: domains burn CPU concurrently,
   so process CPU time would charge the parallel path for its own overlap.

   One gate (exit 1 on failure): the dispatch rule. The committed
   BENCH_parallel.json baseline for the 500k-resident 10k-input uniform
   points was 0.32x of serial at 2 domains and 0.35x at 4 — parallel
   apply under the old fixed 512-op cutoff was ~3x slower than serial
   there. The dispatch rule's resident-scaled serial floor applies such
   batches directly at serial speed, and its speedup-vs-serial must beat
   that baseline by >= 1.5x on at least one such point.

   Not part of the default run. Writes BENCH_parallel.json. *)

let parallel_scaling () =
  header "parallel: net-effect compaction + shard-parallel apply";
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 64 * 1024 * 1024;
      space_overhead = 10_000 };
  let domain_counts = [ 1; 2; 4 ] in
  let batch_sizes = [ 10_000; 100_000 ] in
  let sizes = [ 50_000; 500_000 ] in
  let min_improvement = 1.5 in
  let next_id = ref 500_000_000 in
  (* fresh facts from a bounded region: at most 200 x 50 price points per
     timeid share the read-set projection, so a large batch merges hard *)
  let uniform_rows rng ~days n =
    sale_rows rng ~next_id ~days:(min 200 days) ~products:50 ~stores:1
      ~prices:50 n
  in
  (* [rows] fresh facts, then [n] price updates whose victims follow a
     Zipf(1) law over those facts: heavy churn on a few hot rows *)
  let zipf_churn rng ~days ~rows ~n =
    let base = Array.of_list (uniform_rows rng ~days rows) in
    let cdf = Array.make rows 0. in
    let acc = ref 0. in
    Array.iteri
      (fun r _ ->
        acc := !acc +. (1. /. float_of_int (r + 1));
        cdf.(r) <- !acc)
      cdf;
    let total = !acc in
    let pick () =
      let u =
        total *. float_of_int (Workload.Prng.int rng 1_000_000) /. 1_000_000.
      in
      let lo = ref 0 and hi = ref (rows - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) > u then hi := mid else lo := mid + 1
      done;
      !lo
    in
    let inserts = sale_inserts (List.map Array.copy (Array.to_list base)) in
    let churn =
      List.init n (fun _ ->
          let r = pick () in
          let before = base.(r) in
          let after = Array.copy before in
          (after.(4) <-
             (match before.(4) with Value.Int p -> Value.Int (p + 1) | v -> v));
          base.(r) <- after;
          Relational.Delta.update "sale" ~before ~after)
    in
    inserts @ churn
  in
  let module Engine = Maintenance.Engine in
  let module Shard = Maintenance.Shard in
  let results = ref [] in
  (* one resident pool per domain count for the whole grid — worker domains
     stay parked between grid points instead of piling up per measurement *)
  let pools = List.map (fun d -> (d, Shard.create ~domains:d)) domain_counts in
  List.iter
    (fun target ->
      let days = max 10 (target / 2) in
      let p =
        { R.days; stores = 1; products = 50; sold_per_store_day = 3;
          tx_per_product = 1; brands = 5; seed = 7 }
      in
      let db = R.load p in
      let e = Engine.init db (Derive.derive db R.sales_by_time) in
      let resident =
        List.fold_left (fun acc (_, r, _) -> acc + r) 0
          (Engine.storage_profile e)
      in
      let measure workload batch =
        let prof = Engine.net_profile e batch in
        let apply ?parallel () =
          sample ~clock:Wall
            ~n:(if prof.Engine.input >= 50_000 then 4 else 8)
            ~before:(fun () -> Engine.begin_txn e)
            ~after:(fun () -> Engine.rollback e)
            (fun () -> Engine.apply_batch ?parallel e batch)
        in
        let serial = apply () in
        (* operations a pool really issued: a one-domain pool applies the
           netted deltas directly, a wider one may merge them (the lineage
           flow outlives the rollback; the profile stands in when telemetry
           is off) *)
        let runs =
          List.map
            (fun (d, pool) ->
              let s = apply ~parallel:pool () in
              let applied =
                match Engine.last_flow e with
                | Some f -> f.Telemetry.Lineage.applied
                | None -> prof.Engine.applied
              in
              (d, s, serial.med /. Float.max 1e-9 s.med, applied))
            pools
        in
        results := (resident, workload, prof, serial, runs) :: !results
      in
      List.iter
        (fun n ->
          let rng = Workload.Prng.create (809 + n) in
          measure "uniform" (sale_inserts (uniform_rows rng ~days n)))
        batch_sizes;
      let rng = Workload.Prng.create 811 in
      measure "zipf"
        (zipf_churn rng ~days ~rows:2_000
           ~n:(List.fold_left max 10_000 batch_sizes)))
    sizes;
  let results = List.rev !results in
  print_string
    (table
       ~header:
         [ "resident"; "workload"; "input"; "applied"; "serial ms"; "domains";
           "ms"; "speedup" ]
       (List.concat_map
          (fun (resident, w, (prof : Engine.batch_profile), serial, runs) ->
            List.map
              (fun (d, s, sp, applied) ->
                [ string_of_int resident; w; string_of_int prof.Engine.input;
                  string_of_int applied; show_stats ~digits:1 serial;
                  string_of_int d; show_stats ~digits:1 s;
                  Printf.sprintf "%.2fx" sp ])
              runs)
          results));
  let max_domains = List.fold_left max 1 domain_counts in
  let biggest_batch = List.fold_left max 0 batch_sizes in
  (* the best speedup over [runs] of the uniform points [keep] selects *)
  let best_uniform keep score =
    List.fold_left
      (fun acc (resident, w, (prof : Engine.batch_profile), _, runs) ->
        if String.equal w "uniform" && keep resident prof.Engine.input then
          List.fold_left (fun acc run -> Float.max acc (score run)) acc runs
        else acc)
      0. results
  in
  let root_heavy_speedup =
    best_uniform
      (fun _ input -> input = biggest_batch)
      (fun (d, _, sp, _) -> if d = max_domains then sp else 0.)
  in
  (* the regime the dispatcher exists to fix: large resident state,
     batches below the serial floor, against the pre-columnar baseline *)
  let baseline_speedup = function 2 -> Some 0.32 | 4 -> Some 0.35 | _ -> None in
  let dispatch_improvement =
    best_uniform
      (fun resident input -> resident >= 400_000 && input <= 20_000)
      (fun (d, _, sp, _) ->
        match baseline_speedup d with Some b -> sp /. b | None -> 0.)
  in
  (* the best compression any pool reached: the weighted merge's, when a
     pool of two or more domains ran *)
  let zipf_ratio =
    List.fold_left
      (fun acc (_, w, (prof : Engine.batch_profile), _, runs) ->
        if String.equal w "zipf" then
          List.fold_left
            (fun acc (_, _, _, applied) ->
              Float.max acc
                (float_of_int prof.Engine.input
                /. float_of_int (max 1 applied)))
            acc runs
        else acc)
      0. results
  in
  let dispatch_ok = dispatch_improvement >= min_improvement in
  Printf.printf
    "root-heavy %dk-delta speedup at %d domains: %.1fx\n\
     zipf compaction input/applied: %.0fx\n\
     dispatch speedup on >=400k-resident small batches vs committed \
     pre-columnar baseline (0.32x/0.35x of serial): %.2fx (gate >= %.1fx)\n"
    (biggest_batch / 1000) max_domains root_heavy_speedup zipf_ratio
    dispatch_improvement min_improvement;
  let out = "BENCH_parallel.json" in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"parallel-apply\",\n  \"domains\": [%s],\n  \
     \"grid\": [\n%s\n  ],\n  \
     \"root_heavy_speedup_at_max_domains\": %.2f,\n  \
     \"zipf_compaction_ratio\": %.2f,\n  \
     \"legacy_baseline_speedup_500k_10k\": { \"2\": 0.32, \"4\": 0.35 },\n  \
     \"dispatch_improvement_vs_baseline\": %.2f,\n  \
     \"gates\": { \"min_improvement\": %.2f, \"passed\": %b }\n}\n"
    (String.concat ", " (List.map string_of_int domain_counts))
    (String.concat ",\n"
       (List.map
          (fun (resident, w, (prof : Engine.batch_profile), serial, runs) ->
            Printf.sprintf
              "    { \"resident_rows\": %d, \"workload\": %S, \
               \"input\": %d, \"netted\": %d, \"applied\": %d, \
               \"serial_ms\": %s, \"runs\": [%s] }"
              resident w prof.Engine.input prof.Engine.netted
              prof.Engine.applied (json_stats serial)
              (String.concat ", "
                 (List.map
                    (fun (d, s, sp, applied) ->
                      Printf.sprintf
                        "{ \"domains\": %d, \"ms\": %s, \"speedup\": \
                         %.2f, \"applied\": %d }"
                        d (json_stats s) sp applied)
                    runs)))
          results))
    root_heavy_speedup zipf_ratio dispatch_improvement min_improvement
    dispatch_ok;
  close_out oc;
  Printf.printf "wrote %s\n" out;
  if not dispatch_ok then begin
    Printf.eprintf "FAIL: dispatch improvement %.2fx below the %.1fx gate\n"
      dispatch_improvement min_improvement;
    exit 1
  end

(* --------------------------------------------------------- overhead *)

(* A report, not a gate: the instrumented maintenance pipeline with
   collection enabled against the same pipeline with TELEMETRY=off, at
   three grid points. Telemetry's cost is gated in exact minor words by
   test_telemetry's "exact-counts" group. A best-of over a few short
   samples spread as widely as the 3% budget (E18), so this reports each
   point's median per-sample overhead with its interquartile range. Each
   sample times both modes back to back, and the two modes take turns
   running first, so frequency scaling and cache drift hit both alike.
   Writes BENCH_overhead.json. *)

let overhead () =
  header "overhead: telemetry on vs off (report)";
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 64 * 1024 * 1024;
      space_overhead = 10_000 };
  let module Engine = Maintenance.Engine in
  let module Shard = Maintenance.Shard in
  let db = R.load medium_params in
  let e = Engine.init db (Derive.derive db R.product_sales) in
  let rng = Workload.Prng.create 4711 in
  let next_id = ref 1_000_000 in
  (* state held constant across samples: time inside a transaction, roll
     back after. The batch is fixed per grid point so both modes apply
     identical work. Serial points use CPU time; the parallel point uses
     wall clock (worker domains burn CPU concurrently). *)
  let samples = 31 in
  let measure_point ?parallel ~point ~n ~reps () =
    let batch = medium_sales rng ~next_id n in
    let run () =
      Engine.begin_txn e;
      for _ = 1 to reps do
        Engine.apply_batch ?parallel e batch
      done;
      Engine.rollback e
    in
    run () (* warm-up *);
    let mode telemetry () =
      time
        ~clock:(if parallel = None then Cpu else Wall)
        ~before:(fun () -> Telemetry.set_enabled telemetry)
        run
      /. float_of_int reps
    in
    let on_off = alternate ~n:samples [| mode true; mode false |] in
    Telemetry.set_enabled true;
    let on = on_off.(0) and off = on_off.(1) in
    ( point, stats on, stats off,
      stats (List.map2 (fun on off -> 100. *. (on -. off) /. off) on off) )
  in
  let pool = Shard.create ~domains:2 in
  let grid =
    [ measure_point ~point:"serial-200" ~n:200 ~reps:32 ();
      measure_point ~point:"serial-2000" ~n:2_000 ~reps:4 ();
      (* >512 compacted root ops, so both shard phases really fan out *)
      measure_point ~parallel:pool ~point:"parallel2-2000" ~n:2_000 ~reps:4
        () ]
  in
  Printf.printf "%d on/off samples per point, medians (q1..q3)\n" samples;
  print_string
    (table
       ~header:[ "point"; "on ms"; "off ms"; "overhead %" ]
       (List.map
          (fun (point, on, off, pct) ->
            [ point; show_stats ~digits:3 on; show_stats ~digits:3 off;
              show_stats pct ])
          grid));
  let out = "BENCH_overhead.json" in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"telemetry-overhead\",\n  \"samples\": %d,\n  \
     \"grid\": [\n%s\n  ]\n}\n"
    samples
    (String.concat ",\n"
       (List.map
          (fun (point, on, off, pct) ->
            Printf.sprintf
              "    { \"point\": %S, \"on_ms\": %s, \"off_ms\": %s, \
               \"overhead_pct\": %s }"
              point (json_stats on) (json_stats off) (json_stats pct))
          grid));
  close_out oc;
  Printf.printf "wrote %s\n" out

(* -------------------------------------------------------- endurance *)

(* Not part of the default run: 200k deltas through a three-view warehouse,
   verified every 20k, with resident memory reported (leak check). *)
let endurance () =
  header "endurance: 200k deltas, verified every 20k";
  let db = R.load R.small_params in
  let wh = Warehouse.create db in
  let views = [ R.product_sales; R.monthly_revenue; R.sales_by_time ] in
  List.iter (Warehouse.add_view wh) views;
  let rng = Workload.Prng.create 555 in
  let rss () =
    let ic = open_in "/proc/self/status" in
    let rec find () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmRSS:" ->
        line
      | _ -> find ()
      | exception End_of_file -> "VmRSS: ?"
    in
    let r = find () in
    close_in ic;
    r
  in
  for chunk = 1 to 10 do
    for _ = 1 to 40 do
      Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:500)
    done;
    let ok =
      List.for_all
        (fun v ->
          Relation.equal
            (snd (Warehouse.query wh v.Algebra.View.name))
            (Algebra.Eval.eval db v))
        views
    in
    Printf.printf "after %4dk deltas: correct=%b sale_rows=%d %s\n%!"
      (chunk * 20) ok
      (Database.row_count db "sale")
      (rss ())
  done

(* ----------------------------------------------------------- serve *)

(* Mixed read/write workload over the epoch read path: the main domain
   ingests continuously while N reader domains spin on epoch-served reads
   of the same warehouse. Read latency percentiles come from the live
   [minview_warehouse_read_seconds] histogram — the same one production
   telemetry exposes — and the writer's throughput is compared against the
   reader-free baseline: epoch publication is the writer's only read-side
   cost, so readers must not slow ingestion down materially.

   Readers are paced (1,000 reads/s each): epoch reads are
   sub-microsecond, so unpaced readers measure nothing but CPU preemption
   of the writer on small machines. Pacing bounds the readers' CPU draw so
   the ratio isolates actual blocking (of which the epoch path has none —
   no lock is ever taken). Each grid point ingests 500-delta batches for
   2 s. Writes BENCH_serve.json. *)

let serve_bench () =
  header "serve: epoch reads under sustained ingest";
  let reader_grid = [ 0; 1; 4 ] in
  let seconds = 2.0 in
  let batch_size = 500 in
  let read_qps = 1000 in
  let pause = 1. /. float_of_int read_qps in
  let next_id = ref 600_000_000 in
  let read_hist_snapshot () =
    List.find_map
      (fun (s : Telemetry.Metrics.snap) ->
        if String.equal s.Telemetry.Metrics.s_name
             "minview_warehouse_read_seconds"
        then
          match s.Telemetry.Metrics.s_value with
          | Telemetry.Metrics.Histogram_v h -> Some h
          | _ -> None
        else None)
      (Telemetry.snapshot ())
  in
  let run_point readers =
    (* fresh instance per point: every grid point ingests into the same
       resident-state ballpark *)
    let db = R.load medium_params in
    let wh = Warehouse.create db in
    Warehouse.add_view wh R.product_sales;
    Warehouse.add_view wh R.sales_by_time;
    Telemetry.reset ();
    let stop = Atomic.make false in
    let reader_domains =
      List.init readers (fun _ ->
          Domain.spawn (fun () ->
              let n = ref 0 in
              while not (Atomic.get stop) do
                Warehouse.with_snapshot wh (fun s ->
                    ignore
                      (Warehouse.read_view ~snapshot:s wh "product_sales"));
                incr n;
                try Unix.sleepf pause with Unix.Unix_error _ -> ()
              done;
              !n))
    in
    let rng = Workload.Prng.create (271 + readers) in
    let t0 = Unix.gettimeofday () in
    let t_end = t0 +. seconds in
    let batches = ref 0 in
    while Unix.gettimeofday () < t_end do
      Warehouse.ingest wh (medium_sales rng ~next_id batch_size);
      incr batches
    done;
    let elapsed = Unix.gettimeofday () -. t0 in
    Atomic.set stop true;
    let reads = List.fold_left (fun a d -> a + Domain.join d) 0 reader_domains in
    let pct q =
      match read_hist_snapshot () with
      | Some h -> Telemetry.Metrics.percentile h q *. 1000.
      | None -> Float.nan
    in
    let ingest_rows_per_s = float_of_int (!batches * batch_size) /. elapsed in
    ( readers, !batches, ingest_rows_per_s,
      reads, float_of_int reads /. elapsed,
      pct 0.50, pct 0.95, pct 0.99 )
  in
  let points = List.map run_point reader_grid in
  let baseline =
    List.fold_left
      (fun acc (r, _, rps, _, _, _, _, _) -> if r = 0 then Some rps else acc)
      None points
  in
  let ratio rps =
    match baseline with Some b when b > 0. -> rps /. b | _ -> Float.nan
  in
  let ms x = if Float.is_nan x then "-" else Printf.sprintf "%.3f" x in
  print_string
    (table
       ~header:
         [ "readers"; "batches"; "ingest rows/s"; "reads"; "reads/s";
           "p50 ms"; "p95 ms"; "p99 ms"; "writer ratio" ]
       (List.map
          (fun (r, b, rps, reads, reads_s, p50, p95, p99) ->
            [ string_of_int r; string_of_int b; Printf.sprintf "%.0f" rps;
              string_of_int reads; Printf.sprintf "%.0f" reads_s;
              ms p50; ms p95; ms p99;
              (if r = 0 then "1.00" else Printf.sprintf "%.2f" (ratio rps)) ])
          points));
  let max_readers = List.fold_left max 0 reader_grid in
  let ratio_at_max =
    List.fold_left
      (fun acc (r, _, rps, _, _, _, _, _) ->
        if r = max_readers then ratio rps else acc)
      Float.nan points
  in
  let cores = Domain.recommended_domain_count () in
  if max_readers > 0 && not (Float.is_nan ratio_at_max) then begin
    Printf.printf
      "writer throughput at %d readers: %.0f%% of reader-free baseline\n"
      max_readers (100. *. ratio_at_max);
    if cores <= max_readers then
      Printf.printf
        "note: %d core(s) for %d domains — the ratio includes scheduling \
         and GC-barrier overhead of oversubscription, not read-path \
         blocking (the epoch path takes no lock)\n"
        cores (max_readers + 1)
  end;
  let out = "BENCH_serve.json" in
  let json_f x = if Float.is_nan x then "null" else Printf.sprintf "%.3f" x in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"serve\",\n  \"seconds\": %.2f,\n  \
     \"batch_size\": %d,\n  \"read_qps_per_reader\": %d,\n  \
     \"cores\": %d,\n  \"grid\": [\n%s\n  ],\n  \
     \"writer_ratio_at_max_readers\": %s\n}\n"
    seconds batch_size read_qps cores
    (String.concat ",\n"
       (List.map
          (fun (r, b, rps, reads, reads_s, p50, p95, p99) ->
            Printf.sprintf
              "    { \"readers\": %d, \"ingest_batches\": %d, \
               \"ingest_rows_per_s\": %.0f, \"reads\": %d, \
               \"reads_per_s\": %.0f, \"read_p50_ms\": %s, \
               \"read_p95_ms\": %s, \"read_p99_ms\": %s, \
               \"writer_ratio\": %s }"
              r b rps reads reads_s (json_f p50) (json_f p95) (json_f p99)
              (json_f (if r = 0 then 1.0 else ratio rps)))
          points))
    (json_f ratio_at_max);
  close_out oc;
  Printf.printf "wrote %s\n" out

(* --- E20: columnar storage vs the boxed baseline -------------------------

   Resident bytes per auxiliary-view row, gated by two bounds (exit 1 on
   failure) so CI can hold the line: identical content is loaded into the
   columnar [Aux_state] and the frozen one-record-per-group baseline
   [Boxed] (bench/boxed.ml), the layout the columnar store replaced;
   footprints are [Obj.reachable_words] x word size, plus the off-heap
   Bigarray payload for the columnar side (reachable_words cannot see it).
   Two shapes: the all-int root auxview of sales_by_time and the
   dictionary-encoded product dimension of product_sales. The same states
   also time the storage phases — apply (insert/delete churn), scan (full
   iteration) and merge (to_relation) — columnar must stay within 5% of
   boxed on every phase, and boxed must take at least 3x columnar's bytes
   over both shapes. (The dispatch grid over the same resident sizes is
   the [parallel] experiment's, with its gate.)

   Not part of the default run. Writes BENCH_columnar.json. *)

let columnar_bench () =
  header "columnar: unboxed segment storage vs boxed baseline";
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 64 * 1024 * 1024;
      space_overhead = 10_000 };
  let module AS = Maintenance.Aux_state in
  let rows_n = 200_000 in
  let min_ratio = 3.0 in
  let max_phase_pct = 5.0 in
  let db =
    R.load
      { R.days = 16; stores = 2; products = 60; sold_per_store_day = 2;
        tx_per_product = 1; brands = 8; seed = 3 }
  in
  let word = Sys.word_size / 8 in
  let heap_bytes o = Obj.reachable_words (Obj.repr o) * word in
  (* one distinct group per row; fresh strings per tuple, as a parsed delta
     stream would carry *)
  let sale_tup r =
    [| Value.Int r; Value.Int (r + 1); Value.Int ((r mod 60) + 1);
       Value.Int 1; Value.Int ((r * 7 mod 50) + 1) |]
  in
  let product_tup r =
    [| Value.Int (r + 1);
       Value.String (Printf.sprintf "brand-%d" (r mod 400));
       Value.String (Printf.sprintf "category-%d" (r mod 40)) |]
  in
  let spec_of table =
    let d = Derive.derive db R.product_sales in
    match Derive.spec_for d table with
    | Some spec -> (spec, Database.schema_of db table)
    | None -> failwith (table ^ ": no retained auxview")
  in
  (* Measurement discipline: the applies run one implementation at a time
     (columnar first — Bigarray allocation pays GC pacing proportional to
     the live heap, so it must not run with the boxed state resident), 3
     full rebuilds each; the read phases then interleave 9 samples per
     side across the two resident states, the sides alternating which
     reads first, so machine and GC noise hits both sides equally. Every
     phase compares medians. *)
  let bytes_case cname table tup =
    let spec, schema = spec_of table in
    let churn = rows_n / 2 in
    let apply_phase create insert delete =
      Gc.compact ();
      let st = ref None in
      let s =
        sample ~n:3
          ~before:(fun () -> st := Some (create ()))
          (fun () ->
            let st = Option.get !st in
            for r = 0 to rows_n - 1 do
              insert st (tup r)
            done;
            for r = 0 to churn - 1 do
              delete st (tup r)
            done;
            for r = 0 to churn - 1 do
              insert st (tup r)
            done)
      in
      (s, Option.get !st)
    in
    let col_apply, col =
      apply_phase
        (fun () -> AS.create spec schema)
        (fun st t -> AS.insert_base st t)
        (fun st t -> AS.delete_base st t)
    in
    let boxed_apply, boxed =
      apply_phase
        (fun () -> Boxed.create spec schema)
        (fun st t -> Boxed.insert_base st t)
        (fun st t -> Boxed.delete_base st t)
    in
    Gc.compact ();
    let reads =
      alternate ~n:9
        [| (fun () ->
             ( time (fun () ->
                   let total = ref 0 in
                   AS.iter col (fun r -> total := !total + AS.cnt r);
                   ignore !total),
               time (fun () -> ignore (AS.to_relation col)) ));
           (fun () ->
             ( time (fun () ->
                   let total = ref 0 in
                   Boxed.iter boxed (fun r -> total := !total + Boxed.cnt r);
                   ignore !total),
               time (fun () -> ignore (Boxed.to_relation boxed)) )) |]
    in
    let scan side = stats (List.map fst reads.(side))
    and merge side = stats (List.map snd reads.(side)) in
    Gc.compact ();
    ( cname, heap_bytes col + AS.offheap_bytes col, AS.byte_size col,
      heap_bytes boxed,
      [ ("apply", col_apply, boxed_apply); ("scan", scan 0, scan 1);
        ("merge", merge 0, merge 1) ] )
  in
  let root = bytes_case "root-int" "sale" sale_tup in
  let dimension = bytes_case "dimension-dict" "product" product_tup in
  let bytes_results = [ root; dimension ] in
  let pct c b = (c.med -. b.med) /. b.med *. 100. in
  print_string
    (table
       ~header:
         [ "case"; "rows"; "columnar B/row"; "accounted B/row"; "boxed B/row";
           "ratio" ]
       (List.map
          (fun (cname, cb, acc, bb, _) ->
            [ cname; string_of_int rows_n;
              Printf.sprintf "%.1f" (float_of_int cb /. float_of_int rows_n);
              Printf.sprintf "%.1f" (float_of_int acc /. float_of_int rows_n);
              Printf.sprintf "%.1f" (float_of_int bb /. float_of_int rows_n);
              Printf.sprintf "%.2fx" (float_of_int bb /. float_of_int cb) ])
          bytes_results));
  print_string
    (table
       ~header:[ "case"; "phase"; "columnar ms"; "boxed ms"; "delta" ]
       (List.concat_map
          (fun (cname, _, _, _, phases) ->
            List.map
              (fun (p, c, b) ->
                [ cname; p; show_stats ~digits:1 c; show_stats ~digits:1 b;
                  Printf.sprintf "%+.1f%%" (pct c b) ])
              phases)
          bytes_results));
  let bytes_ratio =
    let cb, bb =
      List.fold_left
        (fun (cb, bb) (_, c, _, b, _) -> (cb + c, bb + b))
        (0, 0) bytes_results
    in
    float_of_int bb /. float_of_int cb
  in
  let max_phase_regression =
    List.fold_left
      (fun acc (_, _, _, _, phases) ->
        List.fold_left (fun acc (_, c, b) -> Float.max acc (pct c b)) acc phases)
      neg_infinity bytes_results
  in
  let bytes_ok = bytes_ratio >= min_ratio in
  let phase_ok = max_phase_regression <= max_phase_pct in
  Printf.printf
    "bytes ratio (boxed/columnar): %.2fx (gate >= %.1fx)\n\
     worst phase regression: %+.1f%% (gate <= %.1f%%)\n"
    bytes_ratio min_ratio max_phase_regression max_phase_pct;
  let out = "BENCH_columnar.json" in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"columnar-storage\",\n  \"rows\": %d,\n  \
     \"bytes\": [\n%s\n  ],\n  \
     \"bytes_ratio_overall\": %.2f,\n  \
     \"max_phase_regression_pct\": %.2f,\n  \
     \"gates\": { \"min_bytes_ratio\": %.2f, \"max_phase_regression_pct\": \
     %.2f, \"passed\": %b }\n}\n"
    rows_n
    (String.concat ",\n"
       (List.map
          (fun (cname, cb, acc, bb, phases) ->
            Printf.sprintf
              "    { \"case\": %S, \"columnar_bytes\": %d, \
               \"accounted_bytes\": %d, \"boxed_bytes\": %d, \
               \"columnar_bytes_per_row\": %.2f, \"boxed_bytes_per_row\": \
               %.2f, \"ratio\": %.2f, \"phases\": [%s] }"
              cname cb acc bb
              (float_of_int cb /. float_of_int rows_n)
              (float_of_int bb /. float_of_int rows_n)
              (float_of_int bb /. float_of_int cb)
              (String.concat ", "
                 (List.map
                    (fun (p, c, b) ->
                      Printf.sprintf
                        "{ \"phase\": %S, \"columnar_ms\": %s, \
                         \"boxed_ms\": %s, \"regression_pct\": %.2f }"
                        p (json_stats c) (json_stats b) (pct c b))
                    phases)))
          bytes_results))
    bytes_ratio max_phase_regression min_ratio max_phase_pct
    (bytes_ok && phase_ok);
  close_out oc;
  Printf.printf "wrote %s\n" out;
  if not bytes_ok then
    Printf.eprintf "FAIL: bytes ratio %.2fx below the %.1fx gate\n" bytes_ratio
      min_ratio;
  if not phase_ok then
    Printf.eprintf "FAIL: phase regression %.1f%% above the %.1f%% gate\n"
      max_phase_regression max_phase_pct;
  if not (bytes_ok && phase_ok) then exit 1

(* --- regress: this checkout's results against another's -------------------

   [regress DIR] reads the tracked metrics from the BENCH_*.json files in
   the working directory and in DIR, where the same experiments ran at
   another commit (CI: the parent, in a worktree of the same job, the two
   sides taking turns to run first). It exits 1 when a metric moved
   in its bad direction by more than [tolerance_pct] AND by more than its
   absolute floor (so a microscopic baseline cannot produce a giant
   relative "regression"), or when a metric DIR holds is missing here. A
   metric only this checkout wrote is new, and passes. *)

module J = Telemetry.Json

type direction = Higher_better | Lower_better

let tolerance_pct = 10.

(* The tracked metrics of [dir]'s result files: (key, direction, absolute
   floor, value), sorted by key, for whichever files and fields are
   present. *)
let extract_metrics dir =
  let out = ref [] in
  let add key dir floor = function
    | Some v when Float.is_finite v -> out := (key, dir, floor, v) :: !out
    | Some _ | None -> ()
  in
  let with_json file f =
    let path = Filename.concat dir file in
    if Sys.file_exists path then
      match J.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Ok j -> f j
      | Error _ -> ()
  in
  let num j k = Option.bind (J.member k j) J.to_float in
  let list j k = J.to_list (Option.value ~default:J.Null (J.member k j)) in
  with_json "BENCH_apply.json" (fun j ->
      add "apply.journal_ratio_max_over_min" Lower_better 0.3
        (num j "ratio_max_over_min"));
  with_json "BENCH_parallel.json" (fun j ->
      add "parallel.root_heavy_speedup" Higher_better 0.2
        (num j "root_heavy_speedup_at_max_domains");
      add "parallel.zipf_compaction_ratio" Higher_better 0.5
        (num j "zipf_compaction_ratio");
      add "parallel.dispatch_improvement" Higher_better 0.2
        (num j "dispatch_improvement_vs_baseline"));
  with_json "BENCH_serve.json" (fun j ->
      add "serve.writer_ratio_at_max_readers" Higher_better 0.1
        (num j "writer_ratio_at_max_readers");
      let at_max =
        List.fold_left
          (fun best entry ->
            match num entry "readers" with
            | Some r when r > 0. -> (
              match best with
              | Some (br, _) when br >= r -> best
              | _ -> Some (r, entry))
            | _ -> best)
          None (list j "grid")
      in
      match at_max with
      | Some (_, entry) ->
        (* written to 1 us, and it reads 1 us: a 4 us p95 fails *)
        add "serve.read_p95_ms_at_max_readers" Lower_better 0.002
          (num entry "read_p95_ms")
      | None -> ());
  with_json "BENCH_columnar.json" (fun j ->
      add "columnar.bytes_ratio_overall" Higher_better 0.2
        (num j "bytes_ratio_overall");
      List.iter
        (fun entry ->
          match Option.bind (J.member "case" entry) J.to_string with
          | Some case ->
            add
              (Printf.sprintf "columnar.bytes_per_row.%s" case)
              Lower_better 2.0
              (num entry "columnar_bytes_per_row")
          | None -> ())
        (list j "bytes"));
  List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) !out

let regress base_dir =
  let current = extract_metrics Filename.current_dir_name in
  let base = extract_metrics base_dir in
  if base = [] then begin
    Printf.eprintf "regress: no BENCH_*.json metric in %s\n" base_dir;
    exit 2
  end;
  let value_in metrics key =
    List.find_map
      (fun (k, _, _, v) -> if String.equal k key then Some v else None)
      metrics
  in
  let row key bv cur delta status =
    Printf.printf "%-42s %12s %12s %9s  %s\n" key bv cur delta status
  in
  let num = Printf.sprintf "%.4g" in
  Printf.printf "regression gate: tolerance %.0f%% against %s\n"
    tolerance_pct base_dir;
  row "metric" "baseline" "current" "delta" "status";
  let regressions =
    List.filter_map
      (fun (key, dir, floor, cur) ->
        match value_in base key with
        | None ->
          row key "-" (num cur) "-" "new";
          None
        | Some bv ->
          let worsening =
            match dir with
            | Lower_better -> cur -. bv
            | Higher_better -> bv -. cur
          in
          let rel_pct = worsening /. Float.max (Float.abs bv) 1e-9 *. 100. in
          let regressed = rel_pct > tolerance_pct && worsening > floor in
          row key (num bv) (num cur)
            (Printf.sprintf "%.1f%%" rel_pct)
            (if regressed then "REGRESSED"
             else if rel_pct > tolerance_pct then "ok (within floor)"
             else "ok");
          if regressed then
            Some
              (Printf.sprintf "%s regressed %.1f%% (%.4g -> %.4g)" key rel_pct
                 bv cur)
          else None)
      current
  in
  (* a metric this checkout tracks but did not write: its experiment
     failed, or wrote null *)
  let missing =
    List.filter_map
      (fun (key, _, _, bv) ->
        match value_in current key with
        | Some _ -> None
        | None ->
          row key (num bv) "-" "-" "gone";
          Some (key ^ " is missing from this checkout's results"))
      base
  in
  match regressions @ missing with
  | [] ->
    Printf.printf "regression gate passed (%d metric(s) compared)\n"
      (List.length
         (List.filter (fun (k, _, _, _) -> value_in base k <> None) current))
  | failures ->
    List.iter (Printf.eprintf "FAIL: %s\n") failures;
    exit 1

(* --------------------------------------------------------------- main *)

(* [Default] experiments run with no argument, [Named] ones only when
   named. endurance reports resident memory, which is only meaningful in a
   fresh process; apply-scaling and parallel build million-row instances;
   overhead (a report) sets the global telemetry switch and, with parallel
   and columnar, retunes the process's GC; serve runs reader domains for
   timed windows. *)
type tier = Default | Named

let experiments =
  [
    ("e1", Default, e1); ("e2", Default, e2); ("e3", Default, e3);
    ("e4", Default, e4); ("e5", Default, e5); ("e6", Default, e6);
    ("e7", Default, e7); ("e8", Default, e8); ("e9", Default, e9);
    ("e10", Default, e10); ("e11", Default, e11); ("e12", Default, e12);
    ("e13", Default, e13); ("e14", Default, e14); ("e15", Default, e15);
    ("endurance", Named, endurance); ("apply-scaling", Named, apply_scaling);
    ("parallel", Named, parallel_scaling); ("overhead", Named, overhead);
    ("serve", Named, serve_bench); ("columnar", Named, columnar_bench);
  ]

let () =
  let names keep =
    List.filter_map
      (fun (n, tier, _) -> if keep tier then Some n else None)
      experiments
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "regress"; dir ] -> regress dir
  | "regress" :: _ ->
    prerr_endline "usage: main.exe regress DIR";
    exit 2
  | args ->
    List.iter
      (fun name ->
        match
          List.find_opt (fun (n, _, _) -> String.equal n name) experiments
        with
        | Some (_, _, f) -> f ()
        | None ->
          Printf.eprintf "unknown experiment %s (available: %s, regress DIR)\n"
            name
            (String.concat ", " (names (fun _ -> true)));
          exit 1)
      (if args = [] then names (( = ) Default) else args)
