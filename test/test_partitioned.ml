(* Tests for the current/old detail split (Figure 1, Section 4): the
   partitioned engine with an append-only old partition, reached through
   the engine interface. *)

open Helpers
module Partitioned = Maintenance.Partitioned
module Engines = Maintenance.Engines
module Engine = Maintenance.Engine

let test case fn = Alcotest.test_case case `Quick fn

let tiny_params =
  {
    Workload.Retail.days = 10;
    stores = 2;
    products = 10;
    sold_per_store_day = 4;
    tx_per_product = 2;
    brands = 4;
    seed = 23;
  }

(* facts with timeid <= boundary are old *)
let is_old boundary (tup : Tuple.t) =
  match tup.(1) with Value.Int t -> t <= boundary | _ -> false

(* a mergeable view: SUM/COUNT/MIN/MAX only *)
let sales_profile =
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

let check_merged ?(msg = "merged view") p db view =
  Alcotest.check relation msg (Algebra.Eval.eval db view)
    (Engines.view_contents p)

let current_facts db boundary =
  Database.fold db "sale"
    (fun tup acc -> if is_old boundary tup then acc else tup :: acc)
    []

let tests =
  [
    test "init rejects AVG and DISTINCT" (fun () ->
        let db = Workload.Retail.load tiny_params in
        (match
           Engines.partitioned db Workload.Retail.monthly_revenue
             ~is_old:(is_old 5)
         with
        | exception Partitioned.Unsupported _ -> ()
        | _ -> Alcotest.fail "AVG should be rejected");
        match
          Engines.partitioned db Workload.Retail.product_sales ~is_old:(is_old 5)
        with
        | exception Partitioned.Unsupported _ -> ()
        | _ -> Alcotest.fail "DISTINCT should be rejected");
    test "initial merge equals evaluation over the whole store" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let p = Engines.partitioned db sales_profile ~is_old:(is_old 5) in
        check_merged p db sales_profile);
    test "everything-old and everything-current degenerate cases" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let all_old = Engines.partitioned db sales_profile ~is_old:(fun _ -> true) in
        check_merged ~msg:"all old" all_old db sales_profile;
        let all_cur = Engines.partitioned db sales_profile ~is_old:(fun _ -> false) in
        check_merged ~msg:"all current" all_cur db sales_profile);
    test "fact inserts route to the right partition" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let p = Engines.partitioned db sales_profile ~is_old:(is_old 5) in
        (* a late-arriving old fact and a current fact *)
        let old_fact = row [ i 90_001; i 2; i 1; i 1; i 7 ] in
        let cur_fact = row [ i 90_002; i 9; i 1; i 1; i 70 ] in
        List.iter (Database.apply db)
          [ Delta.insert "sale" old_fact; Delta.insert "sale" cur_fact ];
        Engines.apply_batch p
          [ Delta.insert "sale" old_fact; Delta.insert "sale" cur_fact ];
        check_merged p db sales_profile);
    test "current facts remain deletable and updatable" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let p = Engines.partitioned db sales_profile ~is_old:(is_old 5) in
        match current_facts db 5 with
        | victim :: target :: _ ->
          let updated = Array.copy target in
          updated.(4) <- i 9_999;
          let deltas =
            [ Delta.delete "sale" victim;
              Delta.update "sale" ~before:target ~after:updated ]
          in
          Database.apply_all db deltas;
          Engines.apply_batch p deltas;
          check_merged p db sales_profile
        | _ -> Alcotest.fail "need at least two current facts");
    test "old facts reject deletion" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let p = Engines.partitioned db sales_profile ~is_old:(is_old 5) in
        let old_fact =
          Database.fold db "sale"
            (fun tup acc -> if is_old 5 tup then Some tup else acc)
            None
          |> Option.get
        in
        match Engines.apply_batch p [ Delta.delete "sale" old_fact ] with
        | exception Engine.Invariant _ -> ()
        | _ -> Alcotest.fail "expected Engine.Invariant");
    test "cross-partition updates are rejected" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let p = Engines.partitioned db sales_profile ~is_old:(is_old 5) in
        match current_facts db 5 with
        | fact :: _ ->
          let moved = Array.copy fact in
          moved.(1) <- i 1 (* now old *);
          (match
             Engines.apply_batch p
               [ Delta.update "sale" ~before:fact ~after:moved ]
           with
          | exception Engine.Invariant _ -> ()
          | _ -> Alcotest.fail "expected Engine.Invariant")
        | [] -> Alcotest.fail "no current fact");
    test "dimension changes reach both partitions" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let p = Engines.partitioned db sales_profile ~is_old:(is_old 5) in
        (* month is a group attribute of both partial views *)
        let before = Option.get (Database.find_by_key db "time" (i 3)) in
        let after = Array.copy before in
        after.(2) <- i 12;
        Database.apply db (Delta.update "time" ~before ~after);
        Engines.apply_batch p [ Delta.update "time" ~before ~after ];
        check_merged p db sales_profile;
        (* and a new dimension member plus facts on both sides of it *)
        let deltas =
          [ Delta.insert "time" (row [ i 99; i 9; i 9; i 1997 ]);
            Delta.insert "sale" (row [ i 90_010; i 99; i 1; i 1; i 4 ]) ]
        in
        Database.apply_all db deltas;
        Engines.apply_batch p deltas;
        check_merged p db sales_profile);
    test "age_out keeps the merged view intact and shrinks current detail"
      (fun () ->
        let db = Workload.Retail.load tiny_params in
        let p = Engines.partitioned db sales_profile ~is_old:(is_old 5) in
        let before_view = Engines.view_contents p in
        let current_rows profile =
          List.fold_left
            (fun acc (n, r, _) ->
              if String.length n > 8 && String.sub n 0 8 = "current/" then
                acc + r
              else acc)
            0 profile
        in
        let before_rows = current_rows (Engines.detail_profile p) in
        (* age out every current fact referencing timeid 6 *)
        let aged =
          Database.fold db "sale"
            (fun tup acc -> if tup.(1) = i 6 then tup :: acc else acc)
            []
        in
        Alcotest.(check bool) "something to age" true (aged <> []);
        Option.get (Engines.age_out p) aged;
        Alcotest.check relation "view unchanged" before_view
          (Engines.view_contents p);
        Alcotest.(check bool) "current shrank" true
          (current_rows (Engines.detail_profile p) < before_rows);
        check_merged p db sales_profile);
    test "sustained mixed stream stays correct" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let p = Engines.partitioned db sales_profile ~is_old:(is_old 5) in
        let rng = Workload.Prng.create 7 in
        let inserts = { Workload.Delta_gen.insert = 1; delete = 0; update = 0 } in
        for round = 1 to 6 do
          (* fact inserts anywhere; arbitrary dim churn on product/store;
             (time rows may be deleted only while unreferenced, which the
             generator guarantees) *)
          let fact_stream =
            Workload.Delta_gen.stream_for ~mix:inserts rng db
              ~tables:[ "sale" ] ~n:20
          in
          let dim_stream =
            Workload.Delta_gen.stream_for rng db ~tables:[ "time"; "product" ]
              ~n:10
          in
          Engines.apply_batch p (fact_stream @ dim_stream);
          Alcotest.check relation
            (Printf.sprintf "round %d" round)
            (Algebra.Eval.eval db sales_profile)
            (Engines.view_contents p)
        done);
    test "old partition pre-aggregates MIN/MAX" (fun () ->
        let db = Workload.Retail.load tiny_params in
        let p = Engines.partitioned db sales_profile ~is_old:(is_old 5) in
        let profile = Engines.detail_profile p in
        (* both partitions present and prefixed *)
        Alcotest.(check bool) "old side" true
          (List.exists (fun (n, _, _) -> String.sub n 0 4 = "old/") profile);
        Alcotest.(check bool) "current side" true
          (List.exists
             (fun (n, _, _) ->
               String.length n > 8 && String.sub n 0 8 = "current/")
             profile));
  ]

let () = Alcotest.run "partitioned" [ ("old-vs-current", tests) ]
