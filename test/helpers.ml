(* Shared test fixtures: alcotest testables, schema/view shorthands, and the
   paper's example instances. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
module Datatype = Relational.Datatype
module Delta = Relational.Delta
module View = Algebra.View
module Attr = Algebra.Attr
module Aggregate = Algebra.Aggregate
module Select_item = Algebra.Select_item
module Predicate = Algebra.Predicate
module Cmp = Algebra.Cmp

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal
let tuple : Tuple.t Alcotest.testable = Alcotest.testable Tuple.pp Tuple.equal

let relation : Relation.t Alcotest.testable =
  Alcotest.testable Relation.pp Relation.equal

let i n = Value.Int n
let s x = Value.String x
let f x = Value.Float x
let b x = Value.Bool x

let row vs = Array.of_list vs

(* relation from expanded tuple lists *)
let rel rows = Relation.of_list (List.map (fun r -> (row r, 1)) rows)

let a = Attr.make
let join src dst = { View.src; dst }

let local attr op const =
  { Predicate.left = attr; op; right = Predicate.Const const }

let group = Select_item.group
let sum ?(alias = "sum") attr = Select_item.Agg (Aggregate.make ~alias Aggregate.Sum (Some attr))
let avg ?(alias = "avg") attr = Select_item.Agg (Aggregate.make ~alias Aggregate.Avg (Some attr))
let min_ ?(alias = "min") attr = Select_item.Agg (Aggregate.make ~alias Aggregate.Min (Some attr))
let max_ ?(alias = "max") attr = Select_item.Agg (Aggregate.make ~alias Aggregate.Max (Some attr))
let count_star ?(alias = "cnt") () = Select_item.Agg (Aggregate.make ~alias Aggregate.Count_star None)

let count_distinct ?(alias = "cntd") attr =
  Select_item.Agg
    (Aggregate.make ~distinct:true ~alias Aggregate.Count (Some attr))

(* The paper's example instance behind Tables 3 and 4: sales with known
   timeid/productid/price combinations. *)
let paper_example_db () =
  let db = Workload.Retail.empty () in
  List.iteri
    (fun idx (day, month, year) ->
      Database.insert db "time"
        (row [ i (idx + 1); i day; i month; i year ]))
    [ (1, 1, 1997); (2, 1, 1997); (3, 2, 1997); (4, 1, 1996) ];
  List.iteri
    (fun idx (brand, cat) ->
      Database.insert db "product" (row [ i (idx + 1); s brand; s cat ]))
    [ ("acme", "food"); ("apex", "drink") ];
  Database.insert db "store" (row [ i 1; s "1 Main"; s "aal"; s "dk"; s "m" ]);
  (* the instance of Table 3: (timeid, productid, price) combinations with
     duplicates *)
  List.iteri
    (fun idx (timeid, productid, price) ->
      Database.insert db "sale"
        (row [ i (idx + 1); i timeid; i productid; i 1; i price ]))
    [
      (1, 1, 10); (1, 1, 10); (1, 2, 10); (2, 1, 15); (2, 1, 15); (2, 1, 20);
      (3, 2, 30);
    ];
  db

(* Everything a store holds, in a canonical order: per table, every row with
   the number of rows referencing its key. *)
let store_image db =
  List.map
    (fun tbl ->
      let key = Schema.key_index (Database.schema_of db tbl) in
      let rows =
        Database.fold db tbl
          (fun tup acc ->
            (tup, Database.reference_count db tbl tup.(key)) :: acc)
          []
      in
      (tbl, List.sort (fun (a, _) (b, _) -> Tuple.compare a b) rows))
    (Database.table_names db)

let store_image_t = Alcotest.(list (pair string (list (pair tuple int))))

(* substring test used when checking rendered reports *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let check_view_maintained ?(rounds = 10) ?(per_round = 30) ?(seed = 0) db view
    =
  let engine = Maintenance.Engines.minimal db view in
  let rng = Workload.Prng.create seed in
  for round = 1 to rounds do
    let deltas = Workload.Delta_gen.stream rng db ~n:per_round in
    Maintenance.Engines.apply_batch engine deltas;
    let got = Maintenance.Engines.view_contents engine in
    let expected = Algebra.Eval.eval db view in
    Alcotest.check relation
      (Printf.sprintf "%s round %d" view.View.name round)
      expected got
  done

(* [n] sale inserts with ids from [first], valid against a retail store
   loaded with [p] (foreign keys cycle through its days, products and
   stores). Every insert carries a distinct price, so no two merge into one
   weighted operation: 512 of them cross the engine's serial floor on a
   small store and fan out over a pool's worker domains. *)
let sale_inserts (p : Workload.Retail.params) ~first n =
  List.init n (fun j ->
      Delta.insert "sale"
        (row
           [ i (first + j); i ((j mod p.Workload.Retail.days) + 1);
             i ((j mod p.Workload.Retail.products) + 1);
             i ((j mod p.Workload.Retail.stores) + 1); i (j + 1) ]))

(* Which path batches took, read off counters the program keeps anyway:
   weighted merges run once per batch on the engine's merged two-phase
   path, and every multi-worker pool run is timed. *)
let merged_batches () =
  Telemetry.Histogram.count
    (Telemetry.Histogram.make
       ~labels:[ ("phase", "weighted-merge") ]
       "minview_engine_phase_seconds")

let fan_outs () =
  Telemetry.Histogram.count
    (Telemetry.Histogram.make "minview_shard_run_seconds")

(* Run [f] and fail unless it ran a multi-worker pool job. *)
let fanned_out what f =
  let runs = fan_outs () in
  let r = f () in
  if fan_outs () = runs then Alcotest.failf "%s never fanned out" what;
  r

(* CI post-mortem hook: when MINVIEW_TEST_TELEMETRY_DIR is set (the CI
   test step does), every test binary dumps its final metrics snapshot
   and trace ring there on exit, so a failing `dune runtest` leaves
   TELEMETRY_dump.json / trace JSONL artifacts to upload. *)
let () =
  match Sys.getenv_opt "MINVIEW_TEST_TELEMETRY_DIR" with
  | None -> ()
  | Some dir ->
      at_exit (fun () ->
          (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
          let base =
            Filename.remove_extension (Filename.basename Sys.executable_name)
          in
          let write name contents =
            try
              let oc = open_out (Filename.concat dir name) in
              output_string oc contents;
              close_out oc
            with Sys_error _ -> ()
          in
          write (base ^ "_TELEMETRY_dump.json") (Telemetry.dump_json ());
          write
            (base ^ "_trace.jsonl")
            (String.concat ""
               (List.map
                  (fun s -> Telemetry.Trace.span_to_json s ^ "\n")
                  (Telemetry.Trace.recent ()))))
