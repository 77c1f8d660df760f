(* Netted-apply determinism: [Engines.apply_batch], which nets every
   batch, must leave state structurally identical ([Engines.equal_state])
   to the same deltas applied one per batch, in stream order — across
   engine configurations, op mixes, seeds and batch shapes, including a
   rejected batch rolled back wherever the poison sits. Plus unit tests
   for the net-effect compactor ([Delta_batch]): its answers against the
   netting it replaced ([Net_oracle]) and its allocation in exact
   counts. *)

open Helpers
module Engines = Maintenance.Engines
module Delta_batch = Relational.Delta_batch

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

let insert_only = { Workload.Delta_gen.insert = 1; delete = 0; update = 0 }

let full_mixes =
  List.map
    (fun (label, mix) ->
      ((if String.equal label "" then "" else " (" ^ label ^ ")"), mix))
    op_mixes

type case = {
  cname : string;
  build : Database.t -> Engines.t;
  cview : View.t;
  mixes : (string * Workload.Delta_gen.op_mix) list;
      (** each labelled mix the case is driven with *)
}

(* Extrema per month: the append-only derivation keeps the sale auxiliary
   view with MIN(price) and MAX(price) pre-aggregated in columns, beside the
   SUM(price) that the NULL poison makes raise. *)
let monthly_extrema =
  {
    View.name = "monthly_extrema";
    having = [];
    select =
      [
        group (a "time" "month");
        min_ ~alias:"low" (a "sale" "price");
        max_ ~alias:"top" (a "sale" "price");
        sum ~alias:"revenue" (a "sale" "price");
        count_star ~alias:"sales" ();
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
      mixes = full_mixes;
    };
    {
      cname = "minimal-distinct";
      build = (fun db -> Engines.minimal db Workload.Retail.product_sales);
      cview = Workload.Retail.product_sales;
      mixes = full_mixes;
    };
    {
      cname = "psj";
      build = (fun db -> Engines.psj db Workload.Retail.monthly_revenue);
      cview = Workload.Retail.monthly_revenue;
      mixes = full_mixes;
    };
    {
      cname = "sales-by-time";
      build = (fun db -> Engines.minimal db Workload.Retail.sales_by_time);
      cview = Workload.Retail.sales_by_time;
      mixes = full_mixes;
    };
    {
      cname = "append-only";
      build = (fun db -> Engines.append_only db Workload.Retail.monthly_revenue);
      cview = Workload.Retail.monthly_revenue;
      mixes = [ ("", insert_only) ];
    };
    {
      cname = "append-only-extrema";
      build = (fun db -> Engines.append_only db monthly_extrema);
      cview = monthly_extrema;
      mixes = [ ("", insert_only) ];
    };
  ]

(* The property: warm an engine up one delta per batch, build its twin
   from the evolved source, apply the same fresh batch one delta per batch
   to the warm engine and as one netted batch to the twin — the two must
   be structurally equal to each other and to a rebuild from the source
   after the batch, and must match recomputation over it. *)
let netted_matches_serial case mix seed n () =
  let db = Workload.Retail.load { tiny with seed } in
  let serial = case.build db in
  let rng = Workload.Prng.create ((seed * 17) + 1) in
  apply_each Engines.apply_batch serial
    (Workload.Delta_gen.stream ~mix rng db ~n:40);
  let par = case.build db in
  let batch = Workload.Delta_gen.stream ~mix rng db ~n in
  apply_each Engines.apply_batch serial batch;
  Engines.apply_batch par batch;
  Alcotest.(check bool) "netted state == serial state" true
    (Engines.equal_state serial par);
  Alcotest.(check bool) "netted state == rebuild" true
    (Engines.equal_state par (case.build db));
  Alcotest.check relation "netted view tracks recomputation"
    (Algebra.Eval.eval db case.cview)
    (Engines.view_contents par)

(* A batch of 1,000 inserts, each with a distinct price, then one that
   deletes 600 of them, so the direct path applies negative changes too;
   after each batch the netted state must equal the serial one, and after
   both a rebuild from the source. *)
let big_batch_netted () =
  let db = Workload.Retail.load tiny in
  let serial = Engines.minimal db Workload.Retail.sales_by_time in
  let rng = Workload.Prng.create 41 in
  apply_each Engines.apply_batch serial (Workload.Delta_gen.stream rng db ~n:40);
  let par = Engines.minimal db Workload.Retail.sales_by_time in
  let sale j =
    row
      [ i (2_000_000 + j); i ((j mod 6) + 1); i ((j mod 10) + 1);
        i ((j mod 2) + 1); i (j + 1) ]
  in
  List.iter
    (fun (label, batch) ->
      Database.apply_all db batch;
      apply_each Engines.apply_batch serial batch;
      Engines.apply_batch par batch;
      Alcotest.(check bool)
        (Printf.sprintf "big-batch %s netted == serial" label)
        true
        (Engines.equal_state serial par))
    [ ("inserts", List.init 1_000 (fun j -> Delta.insert "sale" (sale j)));
      ("deletes", List.init 600 (fun j -> Delta.delete "sale" (sale j))) ];
  Alcotest.(check bool) "big-batch netted == rebuild" true
    (Engines.equal_state par (Engines.minimal db Workload.Retail.sales_by_time))

let determinism_tests =
  List.concat_map
    (fun case ->
      List.concat_map
        (fun (label, mix) ->
          List.concat_map
            (fun seed ->
              List.map
                (fun n ->
                  test
                    (Printf.sprintf "%s%s: seed %d, batch %d" case.cname label
                       seed n)
                    (netted_matches_serial case mix seed n))
                [ 1; 25; 200 ])
            [ 3; 4 ])
        case.mixes)
    cases
  @ [ test "1,000 inserts, then 600 deletes" big_batch_netted ]

(* A poisoned batch (NULL in a summed column) must raise, and rollback
   must restore the pre-batch state bit for bit: the state of an engine
   built from the source as it stood before the batch. The poison goes
   first, mid-batch or last: netting reorders the batch (positive changes
   first), so the changes applied before raising differ with the
   position. *)
let netted_rollback case place () =
  let db = Workload.Retail.load tiny in
  let mix = snd (List.hd case.mixes) in
  let eng = case.build db in
  let rng = Workload.Prng.create 23 in
  apply_each Engines.apply_batch eng
    (Workload.Delta_gen.stream ~mix rng db ~n:40);
  let snapshot = case.build db in
  let valid = Workload.Delta_gen.stream ~mix rng db ~n:10 in
  (* timeid 6 passes monthly_revenue's 1997 semijoin, so in every case the
     NULL price reaches the aggregation *)
  let poison =
    Delta.insert "sale" (row [ i 1_000_001; i 6; i 1; i 1; Value.Null ])
  in
  Engines.begin_txn eng;
  (match Engines.apply_batch eng (place valid poison) with
  | () -> Alcotest.fail "the poisoned batch must raise"
  | exception _ -> ());
  Engines.rollback eng;
  Alcotest.(check bool)
    "rollback restores the pre-batch state" true
    (Engines.equal_state eng snapshot);
  (* the engine stays fully usable afterwards *)
  Engines.apply_batch eng valid;
  Alcotest.check relation "post-rollback maintenance tracks recomputation"
    (Algebra.Eval.eval db case.cview)
    (Engines.view_contents eng)

let placements =
  [ ("first", fun valid poison -> poison :: valid);
    ("mid-batch",
     fun valid poison ->
       List.filteri (fun k _ -> k < 5) valid
       @ (poison :: List.filteri (fun k _ -> k >= 5) valid));
    ("last", fun valid poison -> valid @ [ poison ]) ]

let rollback_tests =
  List.concat_map
    (fun case ->
      List.map
        (fun (where, place) ->
          test
            (Printf.sprintf "%s: a netted batch poisoned %s rolls back"
               case.cname where)
            (netted_rollback case place))
        placements)
    cases

(* --- Delta_batch unit tests --------------------------------------------- *)

let sale id ?(timeid = 1) ?(price = 10) () =
  row [ i id; i timeid; i 1; i 1; i price ]

let key_index tbl =
  Some
    (Relational.Schema.key_index
       (Database.schema_of (Workload.Retail.empty ()) tbl))

let net deltas = Delta_batch.net (Delta_batch.keys ()) ~key_index deltas

let delta : Delta.t Alcotest.testable =
  Alcotest.testable Delta.pp (fun a b ->
      a.Delta.table = b.Delta.table
      &&
      match (a.Delta.change, b.Delta.change) with
      | Delta.Insert x, Delta.Insert y | Delta.Delete x, Delta.Delete y ->
        Tuple.equal x y
      | Delta.Update u, Delta.Update v ->
        Tuple.equal u.before v.before && Tuple.equal u.after v.after
      | _ -> false)

let compactor_tests =
  [
    test "insert then delete cancels" (fun () ->
        let t =
          net [ Delta.insert "sale" (sale 1 ());
                Delta.delete "sale" (sale 1 ()) ]
        in
        Alcotest.(check (list delta)) "no net deltas" [] (netted_deltas t);
        Alcotest.(check int) "stats.input" 2 t.Delta_batch.stats.input;
        Alcotest.(check int) "stats.output" 0 t.Delta_batch.stats.output);
    test "insert then update nets to one insert" (fun () ->
        let t =
          net
            [ Delta.insert "sale" (sale 1 ~price:10 ());
              Delta.update "sale" ~before:(sale 1 ~price:10 ())
                ~after:(sale 1 ~price:25 ()) ]
        in
        Alcotest.(check (list delta))
          "net insert of the after-image"
          [ Delta.insert "sale" (sale 1 ~price:25 ()) ]
          (netted_deltas t));
    test "update chain composes endpoints" (fun () ->
        let t =
          net
            [ Delta.update "sale" ~before:(sale 1 ~price:10 ())
                ~after:(sale 1 ~price:20 ());
              Delta.update "sale" ~before:(sale 1 ~price:20 ())
                ~after:(sale 1 ~price:30 ()) ]
        in
        Alcotest.(check (list delta))
          "one composed update"
          [ Delta.update "sale" ~before:(sale 1 ~price:10 ())
              ~after:(sale 1 ~price:30 ()) ]
          (netted_deltas t));
    test "a round-tripping update chain cancels" (fun () ->
        let t =
          net
            [ Delta.update "sale" ~before:(sale 1 ~price:10 ())
                ~after:(sale 1 ~price:20 ());
              Delta.update "sale" ~before:(sale 1 ~price:20 ())
                ~after:(sale 1 ~price:10 ()) ]
        in
        Alcotest.(check (list delta)) "no net deltas" [] (netted_deltas t));
    test "delete then reinsert nets to an update" (fun () ->
        let t =
          net
            [ Delta.delete "sale" (sale 1 ~price:10 ());
              Delta.insert "sale" (sale 1 ~price:40 ()) ]
        in
        Alcotest.(check (list delta))
          "one update"
          [ Delta.update "sale" ~before:(sale 1 ~price:10 ())
              ~after:(sale 1 ~price:40 ()) ]
          (netted_deltas t));
    test "delete then identical reinsert cancels" (fun () ->
        let t =
          net
            [ Delta.delete "sale" (sale 1 ());
                Delta.insert "sale" (sale 1 ()) ]
        in
        Alcotest.(check (list delta)) "no net deltas" [] (netted_deltas t));
    test "a key-changing update decomposes into delete + insert" (fun () ->
        let t =
          net
            [ Delta.update "sale" ~before:(sale 1 ~price:10 ())
                ~after:(sale 2 ~price:10 ()) ]
        in
        Alcotest.(check (list delta))
          "delete old slot, insert new slot"
          [ Delta.delete "sale" (sale 1 ~price:10 ());
            Delta.insert "sale" (sale 2 ~price:10 ()) ]
          (netted_deltas t));
    test "untouched slots pass through in first-touch order" (fun () ->
        let ds =
          [ Delta.insert "sale" (sale 3 ()); Delta.insert "sale" (sale 1 ());
            Delta.insert "sale" (sale 2 ()) ]
        in
        Alcotest.(check (list delta)) "order preserved" ds
          (netted_deltas (net ds)));
    test "a duplicate insert is rejected" (fun () ->
        (* the delete forces the table through the netting path; a
           pure-insert batch passes through untouched, deferring duplicate
           detection to the validator just like the serial path *)
        match
          net
            [ Delta.delete "sale" (sale 9 ()); Delta.insert "sale" (sale 1 ());
              Delta.insert "sale" (sale 1 ()) ]
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "a double delete is rejected" (fun () ->
        match net [ Delta.delete "sale" (sale 1 ()); Delta.delete "sale" (sale 1 ()) ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* net_profile mirrors what the fast path would do; on a heavily skewed
   batch the applied count collapses *)
let profile_tests =
  [
    test "net_profile collapses churn on one slot" (fun () ->
        let db = Workload.Retail.load tiny in
        let eng = Maintenance.Engine.init db (Mindetail.Derive.derive db Workload.Retail.monthly_revenue) in
        let tup p = sale 1_000_002 ~timeid:2 ~price:p () in
        let churn =
          Delta.insert "sale" (tup 10)
          :: List.concat_map
               (fun p ->
                 [ Delta.update "sale" ~before:(tup p) ~after:(tup (p + 1)) ])
               (List.init 20 (fun k -> k + 10))
        in
        let prof = Maintenance.Engine.net_profile eng churn in
        Alcotest.(check int) "input" 21 prof.Maintenance.Engine.input;
        Alcotest.(check int) "netted" 1 prof.Maintenance.Engine.netted;
        Alcotest.(check int) "applied" 1 prof.Maintenance.Engine.applied);
    test "net_profile applies 4,096 distinct inserts as they are" (fun () ->
        let db = Workload.Retail.load tiny in
        let eng =
          Maintenance.Engine.init db
            (Mindetail.Derive.derive db Workload.Retail.sales_by_time)
        in
        let batch = sale_inserts tiny ~first:6_000_000 4_096 in
        let prof = Maintenance.Engine.net_profile eng batch in
        Alcotest.(check int) "applied" 4_096 prof.Maintenance.Engine.applied);
  ]

(* --- the warehouse's compacted path ------------------------------------- *)

let compact_phases () =
  Telemetry.Histogram.count
    (Telemetry.Histogram.make
       ~labels:[ ("phase", "compact") ]
       "minview_engine_phase_seconds")

let counter name = Telemetry.Counter.value (Telemetry.Counter.make name)
let updates_only = { Workload.Delta_gen.insert = 0; delete = 0; update = 1 }

(* Three views on the netted path, fed batches of sale changes plus
   product and store updates: [monthly_revenue] and [sales_by_time] read
   neither dimension, [product_sales] reads product but not store. The
   warehouse nets each batch once, and every view still reports its own
   tables' counts — those of its engine's [net_profile]. *)
let nets_once () =
  Telemetry.Lineage.clear ();
  let db = Workload.Retail.load tiny in
  let wh = Warehouse.create db in
  let views =
    Workload.Retail.[ monthly_revenue; product_sales; sales_by_time ]
  in
  List.iter (Warehouse.add_view wh) views;
  let mirrors =
    List.map
      (fun (v : View.t) ->
        ( v.View.name,
          Maintenance.Engine.init
            (Warehouse.believed_source wh)
            (Option.get (Warehouse.derivation_of wh v.View.name)) ))
      views
  in
  let rng = Workload.Prng.create 19 in
  let batches = 5 in
  let compacts = compact_phases () in
  let in_place = ref 0 in
  for _ = 1 to batches do
    let facts = Workload.Delta_gen.stream_for rng db ~tables:[ "sale" ] ~n:40 in
    List.iter
      (fun (d : Delta.t) ->
        match d.Delta.change, mirrors with
        | Delta.Update { before; after }, (_, e) :: _
          when Maintenance.Engine.updates_in_place e ~before ~after ->
          incr in_place
        | _ -> ())
      facts;
    let dims =
      Workload.Delta_gen.stream_for ~mix:updates_only rng db
        ~tables:[ "product"; "store" ] ~n:6
    in
    let batch = facts @ dims in
    let profiles =
      List.map
        (fun (name, e) -> (name, Maintenance.Engine.net_profile e batch))
        mirrors
    in
    let deltas0 = counter "minview_engine_deltas_total"
    and netted0 = counter "minview_engine_deltas_netted_total" in
    let r = Warehouse.ingest_report wh batch in
    Alcotest.(check int)
      "nothing rejected" 0
      (List.length r.Warehouse.rejected);
    let flows =
      match Telemetry.Lineage.recent ~txn:r.Warehouse.batch () with
      | [ rc ] -> rc.Telemetry.Lineage.flows
      | _ -> Alcotest.fail "one lineage record per batch"
    in
    List.iter
      (fun (name, (p : Maintenance.Engine.batch_profile)) ->
        let f =
          List.find (fun f -> String.equal f.Telemetry.Lineage.view name) flows
        in
        Alcotest.(check int) (name ^ ": deltas_in") p.input
          f.Telemetry.Lineage.deltas_in;
        Alcotest.(check int) (name ^ ": netted") p.netted
          f.Telemetry.Lineage.netted;
        (* a repricing goes in place, one operation instead of two *)
        Alcotest.(check int) (name ^ ": applied") p.applied
          f.Telemetry.Lineage.applied)
      profiles;
    let sum f = List.fold_left (fun acc (_, p) -> acc + f p) 0 profiles in
    Alcotest.(check int)
      "deltas counter: the views' own deltas"
      (sum (fun p -> p.Maintenance.Engine.input))
      (counter "minview_engine_deltas_total" - deltas0);
    Alcotest.(check int)
      "netted counter: the views' own netted deltas"
      (sum (fun p -> p.Maintenance.Engine.netted))
      (counter "minview_engine_deltas_netted_total" - netted0)
  done;
  Alcotest.(check bool) "the stream repriced sales in place" true (!in_place > 0);
  Alcotest.(check int) "one compact phase per batch" batches
    (compact_phases () - compacts);
  List.iter
    (fun (v : View.t) ->
      Alcotest.(check (list (pair tuple int)))
        (v.View.name ^ " tracks recomputation")
        (Relation.to_sorted_list (Algebra.Eval.eval db v))
        (snd (Warehouse.query_sorted wh v.View.name)))
    views

(* The tiny store with sale's key and day reference updatable, so a stream
   can move a fact to a new key or to another day. *)
let rekeyable_store seed =
  let src = Workload.Retail.load { tiny with seed } in
  let db = Database.create () in
  List.iter
    (fun tbl ->
      let updatable = Database.updatable_columns src tbl in
      let updatable =
        if String.equal tbl "sale" then "id" :: "timeid" :: updatable
        else updatable
      in
      Database.add_table db (Database.schema_of src tbl) ~updatable)
    (Database.table_names src);
  List.iter (Database.add_reference db) (Database.references src);
  List.iter
    (fun tbl ->
      Database.fold src tbl (fun tup () -> Database.insert db tbl tup) ())
    [ "time"; "product"; "store"; "sale" ];
  db

(* [n] sale rows moved to fresh keys, each applied to [db] as generated. *)
let rekeys rng db ~next n =
  List.init n (fun _ ->
      let rows = Database.fold db "sale" (fun tup acc -> tup :: acc) [] in
      let before = List.nth rows (Workload.Prng.int rng (List.length rows)) in
      let after = Array.copy before in
      incr next;
      after.(0) <- i !next;
      let d = Delta.update "sale" ~before ~after in
      Database.apply db d;
      d)

(* The same stream — fact changes with deletes, key-changing and regrouping
   updates, and dimension updates — through a warehouse that ingests each
   delta as its own batch and one that ingests the stream in netted
   batches: every view reads the same rows after every batch, and they
   are the recomputed ones. *)
let prop_pools_agree =
  QCheck2.Test.make ~count:10
    ~name:"warehouse: no pool == Shard.serial"
    ~print:string_of_int
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let db = rekeyable_store seed in
      let views =
        Workload.Retail.
          [ monthly_revenue; product_sales; product_sales_max; sales_by_time ]
      in
      let warehouse ingest =
        let wh = Warehouse.create db in
        List.iter (Warehouse.add_view wh) views;
        (wh, ingest)
      in
      let whs =
        [ warehouse (fun wh ds ->
              List.map (fun d -> Warehouse.ingest_report wh [ d ]) ds);
          warehouse (fun wh ds -> [ Warehouse.ingest_report wh ds ]) ]
      in
      let rng = Workload.Prng.create seed in
      let next = ref 7_000_000 in
      let rows_equal =
        List.equal (fun (t, m) (t', m') -> Tuple.equal t t' && m = m')
      in
      let ok = ref true in
      for _ = 1 to 5 do
        let facts = Workload.Delta_gen.stream rng db ~n:30 in
        let moved = rekeys rng db ~next 3 in
        let dims =
          Workload.Delta_gen.stream_for ~mix:updates_only rng db
            ~tables:[ "time"; "product"; "store" ] ~n:4
        in
        let more =
          Workload.Delta_gen.stream_for rng db ~tables:[ "sale" ] ~n:10
        in
        let batch = facts @ moved @ dims @ more in
        List.iter
          (fun (wh, ingest) ->
            List.iter
              (fun r -> ok := !ok && r.Warehouse.rejected = [])
              (ingest wh batch))
          whs;
        List.iter
          (fun (v : View.t) ->
            let expected = Relation.to_sorted_list (Algebra.Eval.eval db v) in
            List.iter
              (fun (wh, _) ->
                ok :=
                  !ok
                  && rows_equal expected
                       (snd (Warehouse.query_sorted wh v.View.name)))
              whs)
          views
      done;
      !ok)

(* --- the kernel against the netting it replaced --------------------------- *)

(* [batch] with a change no starting state can replay added after a
   random delta: that delta again (a duplicate insert or a double delete;
   a repeated update stays legal), or a change of a row it deleted. *)
let spoil rng batch =
  let n = List.length batch in
  let k = Workload.Prng.int rng n in
  let d = List.nth batch k in
  let extra =
    match d.Delta.change with
    | Delta.Delete tup when Workload.Prng.int rng 2 = 0 ->
      Delta.update d.Delta.table ~before:tup ~after:(Array.copy tup)
    | _ -> d
  in
  List.filteri (fun j _ -> j <= k) batch
  @ (extra :: List.filteri (fun j _ -> j > k) batch)

let netting_of f =
  match f () with
  | r -> Ok r
  | exception Invalid_argument m -> Error m

(* Streams over every op mix, with key-changing updates, dimension
   changes, a table the key index drops and, in every other batch, an
   illegal sequence: one key table nets them all in turn, and each
   batch's tables, counts and net changes — or its error message — are
   the old netting's. *)
let prop_kernel_matches_oracle =
  QCheck2.Test.make ~count:30
    ~name:"Delta_batch.net == the per-batch netting it replaced"
    ~print:string_of_int
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let db = rekeyable_store seed in
      let rng = Workload.Prng.create seed in
      let next = ref 8_000_000 in
      let dropped = [| "store"; "time"; "" |].(seed mod 3) in
      let key_index tbl =
        if String.equal tbl dropped then None
        else Some (Relational.Schema.key_index (Database.schema_of db tbl))
      in
      let keys = Delta_batch.keys () in
      List.for_all
        (fun (round, (_, mix)) ->
          let legal =
            Workload.Delta_gen.stream ~mix rng db ~n:(10 + Workload.Prng.int rng 60)
            @ rekeys rng db ~next (Workload.Prng.int rng 4)
            @ Workload.Delta_gen.stream ~mix rng db ~n:20
          in
          let batch = if round land 1 = 1 then spoil rng legal else legal in
          let expected = netting_of (fun () -> Net_oracle.net ~key_index batch) in
          let got =
            netting_of (fun () ->
                let t = Delta_batch.net keys ~key_index batch in
                ( List.map
                    (fun tb ->
                      ( Delta_batch.name tb,
                        Delta_batch.input tb,
                        Delta_batch.output tb ))
                    t.Delta_batch.tables,
                  t.Delta_batch.stats,
                  netted_deltas t ))
          in
          match (expected, got) with
          | Error m, Error m' -> String.equal m m'
          | Ok tables, Ok (counts, stats, deltas) ->
            List.equal ( = ) counts
              (List.map (fun (n, i, ds) -> (n, i, List.length ds)) tables)
            && stats.Delta_batch.input
               = List.fold_left (fun a (_, i, _) -> a + i) 0 tables
            && stats.Delta_batch.output = List.length deltas
            && List.equal
                 (fun (a : Delta.t) (b : Delta.t) ->
                   String.equal a.Delta.table b.Delta.table
                   &&
                   match (a.Delta.change, b.Delta.change) with
                   | Delta.Insert x, Delta.Insert y
                   | Delta.Delete x, Delta.Delete y ->
                     Tuple.equal x y
                   | Delta.Update u, Delta.Update v ->
                     Tuple.equal u.before v.before && Tuple.equal u.after v.after
                   | _ -> false)
                 (List.concat_map (fun (_, _, ds) -> ds) tables)
                 deltas
          | Ok _, Error m | Error m, Ok _ ->
            QCheck2.Test.fail_reportf "round %d: only one netting raised %S"
              round m)
        (List.mapi (fun round mix -> (round, mix)) (op_mixes @ op_mixes)))

(* [n] sale changes, each to its own key: inserts of fresh ids, updates
   and deletes of existing ones, in turn. *)
let distinct_mixed n =
  List.init n (fun j ->
      let id = 1 + j in
      match j mod 3 with
      | 0 -> Delta.insert "sale" (sale (5_000_000 + id) ())
      | 1 ->
        Delta.update "sale" ~before:(sale id ~price:10 ())
          ~after:(sale id ~price:11 ())
      | _ -> Delta.delete "sale" (sale id ()))

let sale_key tbl = if String.equal tbl "sale" then Some 0 else None

let net_words keys batch =
  let w0 = Gc.minor_words () in
  let (_ : Delta_batch.t) = Delta_batch.net keys ~key_index:sale_key batch in
  int_of_float (Gc.minor_words () -. w0)

let kernel_tests =
  [
    test "one key table nets 500 and 5,000 distinct keys in the same words"
      (fun () ->
        let keys = Delta_batch.keys () in
        let small = distinct_mixed 500 and large = distinct_mixed 5_000 in
        (* the first batch grows the slot arrays and the key index *)
        ignore (net_words keys large);
        let w_small = net_words keys small and w_large = net_words keys large in
        Printf.printf "net: %d minor words for 500 deltas, %d for 5,000\n"
          w_small w_large;
        Alcotest.(check int) "words independent of the batch size" w_small
          w_large;
        (* repeated keys compose in the slots, with no further words *)
        let churn =
          List.init 5_000 (fun j ->
              let id = 1 + (j mod 500) in
              Delta.update "sale"
                ~before:(sale id ~price:(10 + (j / 500)) ())
                ~after:(sale id ~price:(11 + (j / 500)) ()))
        in
        Alcotest.(check int) "nor on 5,000 updates of 500 keys" w_small
          (net_words keys churn));
    test "a netted batch read after its key table nets again raises"
      (fun () ->
        let keys = Delta_batch.keys () in
        let first = Delta_batch.net keys ~key_index:sale_key (distinct_mixed 9) in
        ignore (Delta_batch.net keys ~key_index:sale_key (distinct_mixed 6));
        match netted_deltas first with
        | _ -> Alcotest.fail "expected Assert_failure"
        | exception Assert_failure _ -> ());
    QCheck_alcotest.to_alcotest prop_kernel_matches_oracle;
  ]

let warehouse_tests =
  [
    test "a warehouse nets each batch once for every view" nets_once;
    QCheck_alcotest.to_alcotest prop_pools_agree;
  ]

let () =
  Alcotest.run "parallel"
    [
      ("determinism", determinism_tests); ("parallel-rollback", rollback_tests);
      ("delta-batch", compactor_tests @ kernel_tests);
      ("net-profile", profile_tests); ("warehouse", warehouse_tests);
    ]
