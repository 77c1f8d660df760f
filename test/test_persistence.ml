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

let () = Alcotest.run "persistence" [ ("save-load", tests) ]
