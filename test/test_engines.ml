(* Engine interface conformance: every configuration [Engines] builds runs
   through the same script, through [Engines] calls only — rollback
   restores the state a rebuild from the unchanged source holds, commit
   keeps the batch, publish agrees with capture, rendering refuses an open
   transaction, only the replica baseline lacks measured bytes, off-heap
   bytes are a part of them, and a netted batch gives the same view as a
   raw one wherever the engine takes netted batches. *)

open Helpers
module Engines = Maintenance.Engines
module Derive = Mindetail.Derive

let tiny =
  {
    Workload.Retail.days = 8;
    stores = 2;
    products = 10;
    sold_per_store_day = 3;
    tx_per_product = 2;
    brands = 3;
    seed = 17;
  }

let view =
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

let constructors =
  [
    ("minimal", Engines.minimal);
    ("psj", Engines.psj);
    ("append-only", Engines.append_only);
    ( "no-compression",
      Engines.with_options ~name:"no-compression"
        { Derive.default_options with compression = false } );
    ("recompute", Engines.recompute);
  ]

(* Insert-only fact batches: the one stream every configuration accepts
   (append-only roots). *)
let batch rng db =
  Workload.Delta_gen.stream_for
    ~mix:{ Workload.Delta_gen.insert = 1; delete = 0; update = 0 }
    rng db ~tables:[ "sale" ] ~n:25

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let script (label, build) () =
  let db = Workload.Retail.load tiny in
  let e = build db view in
  let rng = Workload.Prng.create 3 in
  let check_view msg =
    Alcotest.check relation msg (Algebra.Eval.eval db view)
      (Engines.capture e)
  in
  (* rollback restores the pre-batch state: a second engine built on the
     unchanged source *)
  let before = build db view in
  Engines.begin_txn e;
  Engines.apply_batch e (batch rng (Database.copy db));
  Alcotest.(check bool) "capture refuses an open transaction" true
    (raises_invalid (fun () -> Engines.capture e));
  Alcotest.(check bool) "publish refuses an open transaction" true
    (raises_invalid (fun () -> Engines.publish e));
  Engines.rollback e;
  Alcotest.(check bool) "rollback restores the rebuild" true
    (Engines.equal_state e before);
  check_view "rolled back";
  (* commit keeps the batch *)
  let deltas = batch rng db in
  Engines.begin_txn e;
  Engines.apply_batch e deltas;
  Engines.commit e;
  Alcotest.(check bool) "transaction closed" false (Engines.in_txn e);
  Alcotest.(check bool) "commit kept the batch" false
    (Engines.equal_state e before);
  check_view "committed";
  Alcotest.(check (array (pair tuple int)))
    "publish == sorted capture"
    (Relation.to_sorted_array (Engines.capture e))
    (Engines.publish e);
  (* only the boxed replica has no columnar storage *)
  let replica = String.equal label "recompute" in
  Alcotest.(check bool) "measured bytes only for columnar state" replica
    (Engines.measured_bytes e = None);
  Alcotest.(check bool) "off-heap bytes are part of the measured bytes" true
    (match Engines.measured_bytes e with
    | None -> Engines.offheap_bytes e = 0
    | Some objs ->
      Engines.offheap_bytes e <= List.fold_left (fun n (_, b) -> n + b) 0 objs);
  (* a netted batch is the raw batch, on every engine; only incremental
     ones take it *)
  begin
    let raw = build db view and netted = build db view in
    let deltas = batch rng db in
    let key_index tbl =
      Some (Schema.key_index (Database.schema_of db tbl))
    in
    Engines.apply_batch raw deltas;
    Engines.apply_batch
      ~netted:
        (Relational.Delta_batch.net (Relational.Delta_batch.keys ()) ~key_index
           deltas)
      netted deltas;
    Alcotest.check relation "netted == raw" (Engines.view_contents raw)
      (Engines.view_contents netted)
  end

let () =
  Alcotest.run "engines"
    [
      ( "conformance",
        List.map
          (fun ((label, _) as c) -> Alcotest.test_case label `Quick (script c))
          constructors );
    ]
