(* Tests for warehouse persistence: the maintained state survives a
   save/load cycle and ingestion resumes seamlessly. *)

open Helpers

let test case fn = Alcotest.test_case case `Quick fn

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let tiny =
  {
    Workload.Retail.days = 8;
    stores = 2;
    products = 12;
    sold_per_store_day = 4;
    tx_per_product = 2;
    brands = 4;
    seed = 31;
  }

let build () =
  let db = Workload.Retail.load tiny in
  let wh = Warehouse.create db in
  Warehouse.add_view wh Workload.Retail.product_sales;
  Warehouse.add_view ~strategy:Warehouse.Psj wh Workload.Retail.monthly_revenue;
  Warehouse.add_view ~strategy:Warehouse.Replicate wh
    Workload.Retail.sales_by_time;
  (db, wh)

let contents wh name = snd (Warehouse.query wh name)

let tests =
  [
    test "save/load round-trips every view" (fun () ->
        let db, wh = build () in
        let rng = Workload.Prng.create 1 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:150);
        let path = tmp "wh_roundtrip.bin" in
        Warehouse.save wh path;
        let wh' = Warehouse.load path in
        Alcotest.(check (list string)) "names"
          (Warehouse.view_names wh) (Warehouse.view_names wh');
        List.iter
          (fun name ->
            Alcotest.check relation name (contents wh name) (contents wh' name))
          (Warehouse.view_names wh);
        Sys.remove path);
    test "ingestion resumes after a restart" (fun () ->
        let db, wh = build () in
        let rng = Workload.Prng.create 2 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:100);
        let path = tmp "wh_resume.bin" in
        Warehouse.save wh path;
        (* the process "restarts": only the state file and the live delta
           stream remain *)
        let wh' = Warehouse.load path in
        let more = Workload.Delta_gen.stream rng db ~n:100 in
        Warehouse.ingest wh' more;
        List.iter
          (fun view ->
            Alcotest.check relation view.View.name
              (Algebra.Eval.eval db view)
              (contents wh' view.View.name))
          [ Workload.Retail.product_sales; Workload.Retail.monthly_revenue;
            Workload.Retail.sales_by_time ];
        Sys.remove path);
    test "detail profile survives the round trip" (fun () ->
        let _db, wh = build () in
        let path = tmp "wh_profile.bin" in
        Warehouse.save wh path;
        let wh' = Warehouse.load path in
        Alcotest.(check (list (triple string int int))) "profile"
          (Warehouse.detail_profile wh)
          (Warehouse.detail_profile wh');
        Sys.remove path);
    test "a snapshot keeps no copy of the facts the warehouse deleted"
      (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.sales_by_time;
        let size path = (Unix.stat path).Unix.st_size in
        let created = tmp "wh_created.bin" in
        Warehouse.save wh created;
        let dir = Filename.temp_dir "wh_emptied" "" in
        Warehouse.attach wh ~dir;
        Warehouse.ingest wh
          (Database.fold db "sale"
             (fun tup acc -> Delta.delete "sale" tup :: acc)
             []);
        Warehouse.checkpoint wh;
        Warehouse.close wh;
        (* facts dominate the store: once all are deleted, the snapshot must
           shrink to under half of the one saved right after [create] — it
           would not if the initial extract were still retained and saved *)
        Alcotest.(check bool) "under half the size" true
          (2 * size (Filename.concat dir "snapshot.bin") < size created);
        Sys.remove created);
    test "aged views are rejected by save" (fun () ->
        let db = Workload.Retail.load tiny in
        let wh = Warehouse.create db in
        let mergeable =
          { Workload.Retail.sales_by_time with View.name = "mergeable" }
        in
        Warehouse.add_view ~strategy:(Warehouse.Aged (fun _ -> false)) wh
          mergeable;
        match Warehouse.save wh (tmp "wh_aged.bin") with
        | exception Warehouse.Error { kind = Warehouse.Not_persistable; _ } ->
          ()
        | () -> Alcotest.fail "expected Not_persistable");
    test "load rejects foreign files" (fun () ->
        let path = tmp "wh_bogus.bin" in
        let oc = open_out_bin path in
        output_string oc "definitely not a warehouse state file .........";
        close_out oc;
        (match Warehouse.load path with
        | exception Warehouse.Error { kind = Warehouse.Corrupt_state; _ } -> ()
        | _ -> Alcotest.fail "expected Corrupt_state");
        Sys.remove path);
    test "load rejects truncated files" (fun () ->
        let path = tmp "wh_short.bin" in
        let oc = open_out_bin path in
        output_string oc "mini";
        close_out oc;
        (match Warehouse.load path with
        | exception Warehouse.Error { kind = Warehouse.Corrupt_state; _ } -> ()
        | _ -> Alcotest.fail "expected Corrupt_state");
        Sys.remove path);
  ]

(* --- the section codec: a round trip through save and load ------------- *)

(* [Value.equal], except that a float is its bits: [-0.0] is not [0.0] and
   each NaN payload is its own value. *)
let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let same_tuple a b = Array.length a = Array.length b && Array.for_all2 same_value a b

let edge_floats =
  [ -0.0; 0.0; infinity; neg_infinity; Float.nan;
    Int64.float_of_bits 0x7FF8_0000_0000_0001L;
    Int64.float_of_bits 0xFFF8_0000_DEAD_BEEFL;
    Int64.float_of_bits 0x7FF0_0000_0000_0001L; 4.9e-324; max_float; 0.1 ]

let edge_ints = [ min_int; max_int; 0; -1; 1; 63; 64; -64; -65; 4095; 4096 ]

let edge_texts =
  [ ""; "\000"; "a\nb\r\n"; String.make 300 '\000' ^ String.init 256 Char.chr ]

let col name ty = { Schema.col_name = name; col_type = ty }

let edge_schema =
  Schema.make ~name:"edge_cells" ~key:"id"
    [ col "id" Datatype.TInt; col "f" Datatype.TFloat; col "t" Datatype.TString;
      col "b" Datatype.TBool; col "i" Datatype.TInt ]

(* The edge cells, each at least once, then the generated ones; keys
   include [min_int] and [max_int]. *)
let edge_rows extra =
  let pick l k = List.nth l (k mod List.length l) in
  let fixed =
    List.init 12 (fun k ->
        [| Value.Int (if k = 0 then min_int else if k = 1 then max_int else k);
           Value.Float (pick edge_floats k); Value.String (pick edge_texts k);
           Value.Bool (k land 1 = 0); Value.Int (pick edge_ints k) |])
  in
  fixed
  @ List.mapi
      (fun k (f, n, t, b) ->
        [| Value.Int (100 + k); Value.Float f; Value.String t; Value.Bool b;
           Value.Int n |])
      extra

(* Deltas the warehouse refuses, holding NULL and the edge cells: they
   reach the dead-letter section through its tagged values. *)
let refused rows =
  List.concat_map
    (fun row ->
      [ Delta.insert "edge_cells" (Array.append row [| Value.Null |]);
        Delta.insert "no_such_table" row;
        Delta.update "edge_cells" ~before:(Array.map Fun.id row)
          ~after:(Array.append [| Value.Null |] row) ])
    rows

let dead_letter_equal (a : Delta.rejection) (b : Delta.rejection) =
  a.reason = b.reason && String.equal a.detail b.detail
  && String.equal a.delta.table b.delta.table
  &&
  match (a.delta.change, b.delta.change) with
  | Delta.Insert x, Delta.Insert y | Delta.Delete x, Delta.Delete y ->
    same_tuple x y
  | Delta.Update u, Delta.Update v ->
    same_tuple u.before v.before && same_tuple u.after v.after
  | _ -> false

let prop_round_trip =
  QCheck2.Test.make ~count:25 ~name:"save/load keeps store, views and dead letters"
    QCheck2.Gen.(
      pair (int_bound 100_000)
        (small_list
           (quad float int (string_size ~gen:char (int_bound 40)) bool)))
    (fun (seed, extra) ->
      let rng = Workload.Prng.create seed in
      let inst = Workload.Schema_gen.random rng in
      let db = inst.Workload.Schema_gen.db in
      Database.add_table db edge_schema ~updatable:[];
      let rows = edge_rows extra in
      List.iter (Database.insert db "edge_cells") rows;
      let wh = Warehouse.create db in
      let views =
        List.init 2 (fun k ->
            { (Workload.Schema_gen.random_view rng inst) with
              View.name = Printf.sprintf "v%d" k })
      in
      List.iter (Warehouse.add_view wh) views;
      (* the stream leaves the edge rows as they are *)
      Warehouse.ingest wh
        (Workload.Delta_gen.stream_for rng db
           ~tables:inst.Workload.Schema_gen.all_tables ~n:40);
      ignore (Warehouse.ingest_report wh (refused rows) : Warehouse.report);
      let path = tmp (Printf.sprintf "wh_codec_%d.bin" seed) in
      Warehouse.save wh path;
      let wh' = Warehouse.load path in
      Sys.remove path;
      let src = Warehouse.believed_source wh
      and src' = Warehouse.believed_source wh' in
      let check what ok = ok || QCheck2.Test.fail_reportf "%s differs" what in
      let same_image (t, rows) (t', rows') =
        String.equal t t'
        && List.equal
             (fun (r, n) (r', n') -> Tuple.equal r r' && n = n')
             rows rows'
      in
      check "store image"
        (List.equal same_image (store_image src) (store_image src'))
      && check "an edge row"
           (List.for_all
              (fun row ->
                match Database.find_by_key src' "edge_cells" row.(0) with
                | Some row' -> same_tuple row row'
                | None -> false)
              rows)
      && check "a view"
           (List.for_all
              (fun (v : View.t) ->
                Relation.equal (contents wh v.View.name)
                  (contents wh' v.View.name))
              views)
      && check "the dead letters"
           (List.equal dead_letter_equal (Warehouse.dead_letters wh)
              (Warehouse.dead_letters wh')))

let () =
  Alcotest.run "persistence"
    [ ("save-load", tests);
      ("codec", [ QCheck_alcotest.to_alcotest prop_round_trip ]) ]
