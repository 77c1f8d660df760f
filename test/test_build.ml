(* Engine builds. [Engine.init] reads the validator's shadow through a
   cursor: conditions, semijoins and group keys are read from the stored
   cells, and an eliminated root is compressed before it seeds the view.
   Two checks: a build equals the engine the same rows make when fed as
   insert deltas through the delta path, and a build allocates no more
   minor words per base row on a large store than on a small one. *)

open Helpers
module Engine = Maintenance.Engine
module Derive = Mindetail.Derive
module Auxview = Mindetail.Auxview
module Schema_gen = Workload.Schema_gen
module Gen = QCheck2.Gen

let test case fn = Alcotest.test_case case `Quick fn

(* --- a build equals the delta-fed engine ------------------------------- *)

(* An empty store with [db]'s catalog. *)
let empty_like db =
  let e = Database.create () in
  List.iter
    (fun name ->
      Database.add_table e
        (Database.schema_of db name)
        ~updatable:(Database.updatable_columns db name))
    (Database.table_names db);
  List.iter (Database.add_reference e) (List.rev (Database.references db));
  e

(* [db]'s tables, each after every table it references. *)
let referenced_first db =
  let refs = Database.references db in
  let rec place placed = function
    | [] -> List.rev placed
    | pending ->
      let ready, rest =
        List.partition
          (fun tbl ->
            List.for_all
              (fun (r : Relational.Integrity.reference) ->
                (not (String.equal r.src_table tbl))
                || List.mem r.dst_table placed)
              refs)
          pending
      in
      if ready = [] then Alcotest.fail "a reference cycle";
      place (List.rev_append ready placed) rest
  in
  place [] (Database.table_names db)

(* The engine of [d] on an empty store, then fed [db]'s rows as insert
   deltas through the delta path: one batch per table, referenced tables
   first. *)
let fed_engine db d =
  let e = Engine.init (empty_like db) d in
  List.iter
    (fun tbl ->
      Engine.begin_txn e;
      Engine.apply_batch e
        (List.map (Delta.insert tbl) (Database.rows_by_key db tbl));
      Engine.commit e)
    (referenced_first db);
  e

(* A random store, with a FLOAT measure holding both zeros and a NaN, and
   a random view over it with MIN/MAX, DISTINCT, local conditions and
   HAVING among its draws. *)
let random_case seed =
  let rng = Workload.Prng.create seed in
  let inst = Schema_gen.random ~floats:true rng in
  let view = Schema_gen.random_view ~extended:true rng inst in
  (inst.Schema_gen.db, view, Derive.derive inst.Schema_gen.db view)

(* QCHECK_COUNT=200 dune exec test/test_build.exe  — soak mode *)
let count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some n -> int_of_string n
  | None -> 300

(* The float measures' values sum exactly in any order, so the engines
   must agree exactly, as every float property of the suite compares. *)
let prop_build_equals_fed =
  QCheck2.Test.make ~count
    ~name:"a build from the shadow's cells == its rows fed as insert deltas"
    ~print:string_of_int (Gen.int_bound 1_000_000) (fun seed ->
      let db, _, d = random_case seed in
      Engine.equal_state (Engine.init db d) (fed_engine db d))

(* The shapes the property's cases cover, counted over 300 seeds. *)
let coverage () =
  let counts = Hashtbl.create 8 in
  let note what yes =
    if yes then
      Hashtbl.replace counts what
        (1 + Option.value (Hashtbl.find_opt counts what) ~default:0)
  in
  for seed = 0 to 299 do
    let db, view, d = random_case seed in
    let aggs =
      List.filter_map
        (function Algebra.Select_item.Agg g -> Some g | _ -> None)
        view.View.select
    in
    let func f = List.exists (fun g -> g.Algebra.Aggregate.func = f) aggs in
    let root = Derive.root d in
    note "eliminated root" (Derive.spec_for d root = None);
    note "retained root" (Derive.spec_for d root <> None);
    note "local condition" (view.View.locals <> []);
    note "MIN" (func Algebra.Aggregate.Min);
    note "MAX" (func Algebra.Aggregate.Max);
    note "DISTINCT" (List.exists (fun g -> g.Algebra.Aggregate.distinct) aggs);
    note "HAVING" (view.View.having <> []);
    note "FLOAT measure"
      (List.exists
         (fun g ->
           match Algebra.Aggregate.attr g with
           | Some at ->
             Relational.Datatype.equal Relational.Datatype.TFloat
               (Schema.type_of (Database.schema_of db at.Attr.table)
                  at.Attr.column)
           | None -> false)
         aggs);
    note "TEXT group key"
      (List.exists
         (fun (at : Attr.t) ->
           Relational.Datatype.equal Relational.Datatype.TString
             (Schema.type_of (Database.schema_of db at.Attr.table)
                at.Attr.column))
         (View.group_attrs view))
  done;
  List.iter
    (fun what ->
      let n = Option.value (Hashtbl.find_opt counts what) ~default:0 in
      Printf.printf "%s: %d of 300 cases\n" what n;
      Alcotest.(check bool) (Printf.sprintf "%s (%d of 300)" what n) true (n > 0))
    [ "eliminated root"; "retained root"; "local condition"; "MIN"; "MAX";
      "DISTINCT"; "HAVING"; "FLOAT measure"; "TEXT group key" ]

(* --- cursor reads ---------------------------------------------------------- *)

(* Every typed read of a cursor agrees with the boxed cell: hash, compare
   against values of every type, compare with the row's other cells. *)
let cursor_reads () =
  let db = Database.create () in
  let col name ty = { Schema.col_name = name; col_type = ty } in
  Database.add_table db
    (Schema.make ~name:"t" ~key:"k"
       [ col "k" Datatype.TInt; col "x" Datatype.TFloat;
         col "y" Datatype.TString; col "z" Datatype.TBool;
         col "w" Datatype.TInt ])
    ~updatable:[];
  let floats = [| 0.; -0.; nan; 1.5; -2.25; infinity |]
  and texts = [| ""; "a"; "ab"; "é"; String.make 9 'z' |]
  and ints = [| min_int; -1; 0; 3; max_int |] in
  for k = 0 to 29 do
    Database.insert db "t"
      (row [ i k; f floats.(k mod 6); s texts.(k mod 5); b (k mod 2 = 0);
             i ints.(k mod 5) ])
  done;
  let probes =
    Value.Null
    :: List.concat
         [ Array.to_list (Array.map i ints); Array.to_list (Array.map f floats);
           Array.to_list (Array.map s texts); [ b true; b false ] ]
  in
  let cur = Database.Cursor.create db "t" in
  for r = 0 to Database.Cursor.rows cur - 1 do
    Database.Cursor.seek cur r;
    for j = 0 to 4 do
      let v = Database.Cursor.cell cur j in
      Alcotest.(check int) "hash" (Value.hash v) (Database.Cursor.hash cur j);
      List.iter
        (fun p ->
          Alcotest.(check int)
            (Printf.sprintf "compare %s %s" (Value.to_string v) (Value.to_string p))
            (Value.compare v p)
            (Database.Cursor.compare cur j p))
        probes;
      for j' = 0 to 4 do
        Alcotest.(check int) "compare_cells"
          (Value.compare v (Database.Cursor.cell cur j'))
          (Database.Cursor.compare_cells cur j j')
      done
    done
  done

(* --- a build allocates O(1) per base row -------------------------------

   The build row of the O(delta) matrix, in exact counts: the minor words
   one [Engine.init] allocates per row of the tables its view reads, on a
   star of 2,000 facts and one of 32,000. *)

(* The retail star with a FLOAT measure: 365 days, 200 products, 8
   stores. *)
let star facts =
  let db = Database.create () in
  let col name ty = { Schema.col_name = name; col_type = ty } in
  let table name cols = Database.add_table db (Schema.make ~name ~key:"id" cols) ~updatable:[] in
  table "time"
    [ col "id" Datatype.TInt; col "day" Datatype.TInt; col "month" Datatype.TInt;
      col "year" Datatype.TInt ];
  table "product"
    [ col "id" Datatype.TInt; col "brand" Datatype.TString;
      col "category" Datatype.TString ];
  table "store"
    [ col "id" Datatype.TInt; col "city" Datatype.TString ];
  table "sale"
    [ col "id" Datatype.TInt; col "timeid" Datatype.TInt;
      col "productid" Datatype.TInt; col "storeid" Datatype.TInt;
      col "price" Datatype.TInt; col "amount" Datatype.TFloat ];
  List.iter
    (fun (src_col, dst_table) ->
      Database.add_reference db
        { Relational.Integrity.src_table = "sale"; src_col; dst_table })
    [ ("timeid", "time"); ("productid", "product"); ("storeid", "store") ];
  for d = 0 to 364 do
    Database.insert db "time"
      (row [ i (d + 1); i ((d mod 30) + 1); i ((d / 30 mod 12) + 1);
             i (if d < 182 then 1996 else 1997) ])
  done;
  for p = 1 to 200 do
    Database.insert db "product"
      (row [ i p; s (Printf.sprintf "brand%d" (p mod 50));
             s (Printf.sprintf "cat%d" (p mod 10)) ])
  done;
  for k = 1 to 8 do
    Database.insert db "store" (row [ i k; s (Printf.sprintf "city%d" (k mod 7)) ])
  done;
  for n = 1 to facts do
    Database.insert db "sale"
      (row [ i n; i (1 + (n * 7919 mod 365)); i (1 + (n * 104_729 mod 200));
             i (1 + (n mod 8)); i (1 + (n * 31 mod 100));
             f (0.25 *. float_of_int (n mod 400)) ])
  done;
  db

let amount_by_city =
  { View.name = "amount_by_city"; having = [];
    select =
      [ group (a "store" "city"); sum ~alias:"Amount" (a "sale" "amount");
        avg ~alias:"AvgAmount" (a "sale" "amount"); count_star ~alias:"Sales" () ];
    tables = [ "sale"; "store" ]; locals = [];
    joins = [ join (a "sale" "storeid") (a "store" "id") ] }

(* The views of the pipeline benchmark's two star workloads: CSMAS ones,
   and the MIN/MAX and DISTINCT ones. *)
let csmas_views =
  [ Workload.Retail.sales_by_time; Workload.Retail.monthly_revenue; amount_by_city ]

let recompute_views = [ Workload.Retail.product_sales; Workload.Retail.product_sales_max ]

(* The minor words of one build of [view]; a first build warms what a
   first call sets up. *)
let build_words db view =
  let d = Derive.derive db view in
  ignore (Sys.opaque_identity (Engine.init db d));
  let w0 = Gc.minor_words () in
  let e = Engine.init db d in
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity e);
  int_of_float (w1 -. w0)

(* The same per row of its tables. *)
let words_per_row db view =
  let rows =
    List.fold_left (fun n tbl -> n + Database.row_count db tbl) 0 view.View.tables
  in
  let w = float_of_int (build_words db view) /. float_of_int rows in
  Printf.printf "%s: %d base rows, %.3f minor words each\n" view.View.name rows w;
  w

let small = lazy (star 2_000)
let large = lazy (star 32_000)

(* monthly_revenue's build at 32,000 facts, in exact minor words: its
   group index on [timeid] numbers the groups themselves and boxes one
   cell per value, not one per row. *)
let monthly_revenue_budget = 11_935

(* The two builds whose root auxiliary view holds about one group per
   fact, at 32,000 facts, in exact minor words: a build fills its
   columns and folds its aggregates without boxing per group, and gives
   each brand multiset its values once. *)
let product_sales_budget = 58_787
let product_sales_max_budget = 13_243

let within_budget view budget () =
  let w = build_words (Lazy.force large) view in
  Printf.printf "%s: %d minor words at 32,000 facts\n" view.View.name w;
  Alcotest.(check bool)
    (Printf.sprintf "%d minor words, budget %d" w budget)
    true (w <= budget)

let build_tests =
  [
    test "a CSMAS view's build allocates under 1 minor word per base row"
      (fun () ->
        List.iter
          (fun view ->
            let w = words_per_row (Lazy.force large) view in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %.3f words per row at 32,000 facts"
                 view.View.name w)
              true (w < 1.))
          csmas_views);
    test "no build allocates more per base row at 32,000 facts than at 2,000"
      (fun () ->
        List.iter
          (fun view ->
            let w = words_per_row (Lazy.force small) view
            and w' = words_per_row (Lazy.force large) view in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %.3f words per row at 2,000, %.3f at 32,000"
                 view.View.name w w')
              true (w' <= w))
          (csmas_views @ recompute_views));
    test "monthly_revenue's build stays within its exact budget"
      (within_budget Workload.Retail.monthly_revenue monthly_revenue_budget);
    test "product_sales's build stays within its exact budget"
      (within_budget Workload.Retail.product_sales product_sales_budget);
    test "product_sales_max's build stays within its exact budget"
      (within_budget Workload.Retail.product_sales_max product_sales_max_budget);
  ]

(* product_sales over the 2,000-fact star: a DISTINCT view whose root
   auxiliary view holds more groups than a fresh key map's 64 slots, so
   the build sizes its stores from the group count, and seeds each brand
   multiset from many groups. *)
let distinct_many_groups () =
  let db = Lazy.force small in
  let d = Derive.derive db Workload.Retail.product_sales in
  let e = Engine.init db d in
  let root = Auxview.default_name (Derive.root d) in
  let groups =
    List.find_map
      (fun (name, rows, _) -> if String.equal name root then Some rows else None)
      (Engine.storage_profile e)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s holds more than 64 groups" root)
    true
    (Option.value groups ~default:0 > 64);
  Alcotest.(check bool) "build == fed" true (Engine.equal_state e (fed_engine db d))

let () =
  Alcotest.run "build"
    [
      ( "scan == delta-fed",
        [ QCheck_alcotest.to_alcotest prop_build_equals_fed;
          test "the cases cover every view shape" coverage;
          test "a cursor's typed reads agree with the boxed cells" cursor_reads;
          test "a DISTINCT build over more than 64 root groups == fed"
            distinct_many_groups ] );
      ("o-delta", build_tests);
    ]
