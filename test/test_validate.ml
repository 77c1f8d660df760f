(* Tests for the ingestion validation layer: invalid deltas land in the
   dead-letter queue with the right machine-readable reason, valid deltas of
   the same batch still apply, and an engine failure aborts the whole batch
   atomically. *)

open Helpers
module Faults = Maintenance.Faults

let test case fn = Alcotest.test_case case `Quick fn

let setup () =
  let db = paper_example_db () in
  let wh = Warehouse.create db in
  Warehouse.add_view wh Workload.Retail.product_sales;
  Warehouse.add_view ~strategy:Warehouse.Psj wh Workload.Retail.monthly_revenue;
  (db, wh)

let reasons wh =
  List.map (fun r -> r.Delta.reason) (Warehouse.dead_letters wh)

let reason : Delta.reason Alcotest.testable =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (Delta.reason_label r))
    ( = )

(* every maintained view must agree with recomputation over the state the
   warehouse believes the source is in *)
let check_consistent wh =
  let src = Warehouse.believed_source wh in
  List.iter
    (fun v ->
      Alcotest.check relation v.View.name (Algebra.Eval.eval src v)
        (snd (Warehouse.query wh v.View.name)))
    [ Workload.Retail.product_sales; Workload.Retail.monthly_revenue ]

let valid_sale id timeid price =
  Delta.insert "sale" (row [ i id; i timeid; i 1; i 1; i price ])

let tests =
  [
    test "mixed batch: invalid deltas quarantine, valid ones apply" (fun () ->
        let _db, wh = setup () in
        let batch =
          [
            valid_sale 100 1 42;
            Delta.insert "time" (row [ i 1; i 1; i 1; i 1997 ]);
            (* timeid 99 has no referent *)
            Delta.insert "sale" (row [ i 101; i 99; i 1; i 1; i 5 ]);
            Delta.insert "nonexistent" (row [ i 1 ]);
            Delta.insert "sale" (row [ i 102; i 1 ]);
            valid_sale 103 2 7;
          ]
        in
        let r = Warehouse.ingest_report wh batch in
        Alcotest.(check int) "applied" 2 r.Warehouse.applied;
        Alcotest.(check (list reason))
          "reasons"
          [
            Delta.Duplicate_key; Delta.Dangling_reference; Delta.Unknown_table;
            Delta.Schema_mismatch;
          ]
          (reasons wh);
        Alcotest.(check int) "sale rows"
          9
          (Database.row_count (Warehouse.believed_source wh) "sale");
        check_consistent wh);
    test "every constraint maps to its reason" (fun () ->
        let _db, wh = setup () in
        let cases =
          [
            (* delete of an absent tuple *)
            ( Delta.delete "sale" (row [ i 999; i 1; i 1; i 1; i 10 ]),
              Delta.Missing_row );
            (* time 1 is still referenced by sales *)
            ( Delta.delete "time" (row [ i 1; i 1; i 1; i 1997 ]),
              Delta.Referenced_key );
            (* time.day is not declared UPDATABLE *)
            ( Delta.update "time"
                ~before:(row [ i 1; i 1; i 1; i 1997 ])
                ~after:(row [ i 1; i 2; i 1; i 1997 ]),
              Delta.Not_updatable );
          ]
        in
        List.iter
          (fun (delta, expected) ->
            let before = Warehouse.dead_letters wh in
            let r = Warehouse.ingest_report wh [ delta ] in
            Alcotest.(check int) "nothing applied" 0 r.Warehouse.applied;
            match
              List.filteri
                (fun idx _ -> idx >= List.length before)
                (Warehouse.dead_letters wh)
            with
            | [ rej ] ->
              Alcotest.check reason
                (Delta.reason_label expected)
                expected rej.Delta.reason
            | other ->
              Alcotest.failf "expected one new dead letter, got %d"
                (List.length other))
          cases;
        check_consistent wh);
    test "engine failure aborts the whole batch atomically" (fun () ->
        let db = paper_example_db () in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.product_sales;
        Warehouse.add_view wh Workload.Retail.sales_by_time;
        let before_ps = snd (Warehouse.query wh "product_sales") in
        let before_sales = snd (Warehouse.query wh "sales_by_time") in
        let repricing =
          Delta.update "sale"
            ~before:(row [ i 1; i 1; i 1; i 1; i 10 ])
            ~after:(row [ i 1; i 1; i 1; i 1; i 50 ])
        in
        (* an engine fails after the first view has applied the batch *)
        Faults.arm ~mode:Faults.Fail Faults.Mid_engine_apply;
        let r =
          Fun.protect ~finally:Faults.disarm @@ fun () ->
          Warehouse.ingest_report wh [ valid_sale 200 1 12; repricing ]
        in
        Alcotest.(check int) "nothing applied" 0 r.Warehouse.applied;
        Alcotest.(check (list reason))
          "whole batch quarantined"
          [ Delta.Engine_failure; Delta.Engine_failure ]
          (reasons wh);
        Alcotest.check relation "product_sales untouched" before_ps
          (snd (Warehouse.query wh "product_sales"));
        Alcotest.check relation "sales_by_time untouched" before_sales
          (snd (Warehouse.query wh "sales_by_time"));
        (* the validator rolled back too: the insert half of the batch is
           still fresh and can be re-ingested on its own *)
        let r2 = Warehouse.ingest_report wh [ valid_sale 200 1 12 ] in
        Alcotest.(check int) "re-ingest applies" 1 r2.Warehouse.applied;
        let src = Warehouse.believed_source wh in
        Alcotest.check relation "sales_by_time maintained"
          (Algebra.Eval.eval src Workload.Retail.sales_by_time)
          (snd (Warehouse.query wh "sales_by_time")));
    test "sprinkled stream: exactly the forged deltas are rejected" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.product_sales;
        Warehouse.add_view ~strategy:Warehouse.Psj wh
          Workload.Retail.monthly_revenue;
        let rng = Workload.Prng.create 7 in
        let valid = Workload.Delta_gen.stream rng db ~n:120 in
        let polluted, injected =
          Workload.Corrupt.sprinkle rng db ~rate:0.2 valid
        in
        Alcotest.(check bool) "something injected" true (injected > 0);
        let r = Warehouse.ingest_report wh polluted in
        Alcotest.(check int) "all valid applied" (List.length valid)
          r.Warehouse.applied;
        Alcotest.(check int) "all forged quarantined" injected
          (List.length (Warehouse.dead_letters wh));
        List.iter
          (fun rej ->
            match rej.Delta.reason with
            | Delta.Unknown_table | Delta.Schema_mismatch -> ()
            | other ->
              Alcotest.failf "unexpected reason %s" (Delta.reason_label other))
          (Warehouse.dead_letters wh);
        (* the stream was applied to db as it was generated, so the evolved
           source is the ground truth *)
        List.iter
          (fun v ->
            Alcotest.check relation v.View.name (Algebra.Eval.eval db v)
              (snd (Warehouse.query wh v.View.name)))
          [ Workload.Retail.product_sales; Workload.Retail.monthly_revenue ]);
    test "forgeries are rejected for the advertised reason" (fun () ->
        let db = paper_example_db () in
        let validator = Relational.Validator.of_database db in
        let image = store_image (Relational.Validator.shadow validator) in
        let check_forgery (f : Workload.Corrupt.forgery) =
          (match
             Relational.Validator.admit validator f.Workload.Corrupt.delta
           with
          | Ok _ ->
            Alcotest.failf "forgery for %s was accepted"
              (Delta.reason_label f.Workload.Corrupt.reason)
          | Error rej ->
            Alcotest.check reason
              (Delta.reason_label f.Workload.Corrupt.reason)
              f.Workload.Corrupt.reason rej.Delta.reason);
          Alcotest.check store_image_t "shadow unchanged" image
            (store_image (Relational.Validator.shadow validator))
        in
        for seed = 1 to 20 do
          let rng = Workload.Prng.create seed in
          check_forgery (Workload.Corrupt.unknown_table rng);
          check_forgery (Workload.Corrupt.schema_mismatch rng db);
          List.iter
            (fun forge ->
              match forge rng db with
              | Some f -> check_forgery f
              | None -> Alcotest.fail "forgery unavailable on a populated db")
            [
              Workload.Corrupt.duplicate_key; Workload.Corrupt.missing_row;
              Workload.Corrupt.dangling_reference;
            ];
          check_forgery (Workload.Corrupt.forge rng db)
        done);
    test "dead letters come back oldest first" (fun () ->
        let _db, wh = setup () in
        Warehouse.ingest wh [ Delta.insert "nonexistent" (row [ i 1 ]) ];
        Warehouse.ingest wh [ Delta.insert "sale" (row [ i 50; i 1 ]) ];
        Alcotest.(check (list reason))
          "order" [ Delta.Unknown_table; Delta.Schema_mismatch ] (reasons wh));
    test "the shadow stores each row once" (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let shadow =
          Relational.Validator.shadow (Relational.Validator.of_database db)
        in
        let tuples =
          List.concat_map
            (fun tbl -> Database.fold shadow tbl List.cons [])
            (Database.table_names shadow)
          |> Array.of_list
        in
        let rows = Array.length tuples in
        (* the tuples' own words: their cells and values, counted once even
           where tuples share a value, less the array holding them *)
        let tuple_words = Obj.reachable_words (Obj.repr tuples) - (rows + 1) in
        let overhead = Obj.reachable_words (Obj.repr shadow) - tuple_words in
        let per_row = float_of_int overhead /. float_of_int rows in
        if per_row > 7. then
          Alcotest.failf "%.2f words per row beyond the tuples (at most 7)"
            per_row);
  ]

(* --- a rejection never half-applies --------------------------------------- *)

let small =
  {
    Workload.Retail.days = 6;
    stores = 2;
    products = 8;
    sold_per_store_day = 3;
    tx_per_product = 2;
    brands = 3;
    seed = 5;
  }

(* Forgeries [Workload.Corrupt] does not make, all against [db] as it is:
   the delete of a referenced key, an update of a column that is not
   updatable, and an update whose before-image is not stored. *)
let forge_change rng db =
  let rows tbl = Database.fold db tbl List.cons [] in
  let pick = function
    | [] -> None
    | l -> Some (Workload.Prng.pick rng l)
  in
  let forgery delta reason = Some { Workload.Corrupt.delta; reason } in
  match Workload.Prng.int rng 3 with
  | 0 ->
    Option.bind
      (pick
         (List.filter
            (fun tup -> Database.reference_count db "product" tup.(0) > 0)
            (rows "product")))
      (fun tup -> forgery (Delta.delete "product" tup) Delta.Referenced_key)
  | 1 ->
    (* sale(id, timeid, productid, storeid, price): timeid is frozen *)
    Option.bind (pick (rows "sale")) (fun before ->
        Option.bind
          (pick
             (List.filter
                (fun t -> not (Value.equal t.(0) before.(1)))
                (rows "time")))
          (fun t ->
            let after = Array.copy before in
            after.(1) <- t.(0);
            forgery (Delta.update "sale" ~before ~after) Delta.Not_updatable))
  | _ ->
    Option.bind (pick (rows "sale")) (fun stored ->
        let before = Array.copy stored in
        before.(4) <- i (-1);
        let after = Array.copy stored in
        forgery (Delta.update "sale" ~before ~after) Delta.Missing_row)

let never_half_applies =
  QCheck2.Test.make ~count:40
    ~name:"forgeries are rejected whole; rollback restores the shadow"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let rng = Workload.Prng.create seed in
      let legal = Workload.Retail.load small in
      let v = Relational.Validator.of_database legal in
      let shadow = Relational.Validator.shadow v in
      let before_batch = store_image shadow in
      Relational.Validator.begin_txn v;
      for _ = 1 to 60 do
        (* a forgery built against the state both stores are in, then one
           legal change, which [Delta_gen] also applies to [legal] *)
        let forged =
          if Workload.Prng.chance rng 0.5 then
            Some (Workload.Corrupt.forge rng legal)
          else forge_change rng legal
        in
        Option.iter
          (fun (f : Workload.Corrupt.forgery) ->
            let image = store_image shadow in
            (match Relational.Validator.admit v f.delta with
            | Ok _ ->
              Alcotest.failf "forged %a was admitted" Delta.pp f.delta
            | Error rej ->
              Alcotest.check reason (Format.asprintf "%a" Delta.pp f.delta)
                f.reason rej.Delta.reason);
            Alcotest.check store_image_t "rejection left no trace" image
              (store_image shadow))
          forged;
        List.iter
          (fun d ->
            match Relational.Validator.admit v d with
            | Ok _ -> ()
            | Error rej ->
              Alcotest.failf "legal change rejected: %a" Delta.pp_rejection rej)
          (Workload.Delta_gen.stream rng legal ~n:1)
      done;
      Alcotest.check store_image_t "shadow = the legal changes alone"
        (store_image legal) (store_image shadow);
      Relational.Validator.rollback v;
      Alcotest.check store_image_t "rollback restores the pre-batch shadow"
        before_batch (store_image shadow);
      true)

(* --- admission is O(delta) ---------------------------------------------------

   The validator's row of the O(delta) matrix: each change kind costs the
   same minor words and the same key-index probes on a fact table of
   2,000 rows as on one of 32,000. Exact counts, no timing. *)

(* [facts] facts over ten dimension rows; the fact's amount, quantity and
   dimension are updatable. *)
let star facts =
  let db = Database.create () in
  let col name ty = { Schema.col_name = name; col_type = ty } in
  Database.add_table db
    (Schema.make ~name:"dim" ~key:"id"
       [ col "id" Datatype.TInt; col "name" Datatype.TString ])
    ~updatable:[];
  Database.add_table db
    (Schema.make ~name:"fact" ~key:"id"
       [ col "id" Datatype.TInt; col "dimid" Datatype.TInt;
         col "amount" Datatype.TFloat; col "qty" Datatype.TInt ])
    ~updatable:[ "dimid"; "amount"; "qty" ];
  Database.add_reference db
    { Relational.Integrity.src_table = "fact"; src_col = "dimid";
      dst_table = "dim" };
  for d = 1 to 10 do
    Database.insert db "dim" (row [ i d; s (Printf.sprintf "d%d" d) ])
  done;
  for k = 1 to facts do
    Database.insert db "fact"
      (row [ i k; i (1 + (k mod 10)); f (float_of_int k /. 4.); i (k mod 7) ])
  done;
  db

(* The changes, each valid where it stands in the list, then one refused
   (a duplicate key): the same deltas on every size. *)
let admission_changes =
  let fresh = row [ i 1_000_000; i 3; f 2.5; i 1 ] in
  let moved = row [ i 1_000_000; i 4; f 2.5; i 1 ] in
  let repriced = row [ i 1_000_000; i 4; f 7.25; i 1 ] in
  [
    ("insert", Delta.insert "fact" fresh);
    ("exposed update", Delta.update "fact" ~before:fresh ~after:moved);
    ("update in place", Delta.update "fact" ~before:moved ~after:repriced);
    ("delete", Delta.delete "fact" repriced);
    ("refused", Delta.insert "fact" (row [ i 7; i 1; f 0.; i 0 ]));
  ]

(* Per change: its minor words and key-index probes on [db]. A first pass
   over the changes warms what a first call sets up. *)
let admission_costs db =
  let run () =
    List.map
      (fun (kind, d) ->
        let p0 = Database.probes db in
        let w0 = Gc.minor_words () in
        let r = Database.admit db d in
        let w1 = Gc.minor_words () in
        let p1 = Database.probes db in
        (match (kind, r) with
        | "refused", Error _ | _, Ok () -> ()
        | _ -> Alcotest.failf "%s: unexpected verdict" kind);
        (kind, w1 -. w0, p1 - p0))
      admission_changes
  in
  ignore (run ());
  run ()

let admission_tests =
  [
    test "admission costs the same words and probes at 2,000 and 32,000 facts"
      (fun () ->
        let small = admission_costs (star 2_000)
        and large = admission_costs (star 32_000) in
        List.iter2
          (fun (kind, w, p) (_, w', p') ->
            Alcotest.(check (float 0.)) (kind ^ ": minor words") w w';
            Alcotest.(check int) (kind ^ ": probes") p p';
            Alcotest.(check bool) (kind ^ ": probes some key") true (p > 0))
          small large);
  ]

let () =
  Alcotest.run "validate"
    [
      ("dead-letter-queue", tests);
      ("rejections", [ QCheck_alcotest.to_alcotest never_half_applies ]);
      ("o-delta", admission_tests);
    ]
