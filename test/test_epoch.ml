(* Tests for the epoch read path: the torn-read regression (a reader racing
   ingest must never observe a state between two commits, under serial and
   netted apply), the publication discipline (epochs appear at
   registration and commit only — rollback, rejection and age-out publish
   nothing), pinned-snapshot immutability, and the snapshot/quiesced-query
   equivalence property over random workloads. *)

open Helpers
module Faults = Maintenance.Faults

let test case fn = Alcotest.test_case case `Quick fn

(* --- a dedicated schema where tearing is arithmetically visible ----------

   fact(id PK, k, v) summarized as GROUP BY k. Every batch inserts one row
   for each of [groups_per_batch] brand-new keys, so at every commit point
   the view's group count is a multiple of [groups_per_batch]. A reader
   served anything mid-batch — the old direct path handed out the live
   engine's mutable contents — sees a count that breaks the invariant. *)

let groups_per_batch = 5

let fact_db () =
  let db = Database.create () in
  Database.add_table db
    (Schema.make ~name:"fact" ~key:"id"
       [ { Schema.col_name = "id"; col_type = Datatype.TInt };
         { Schema.col_name = "k"; col_type = Datatype.TInt };
         { Schema.col_name = "v"; col_type = Datatype.TInt } ])
    ~updatable:[ "v" ];
  db

let by_k =
  {
    View.name = "by_k";
    select =
      [ group (a "fact" "k"); sum ~alias:"total" (a "fact" "v");
        count_star ~alias:"cnt" () ];
    tables = [ "fact" ];
    locals = [];
    joins = [];
    having = [];
  }

let fact_batch ?(groups = groups_per_batch) n =
  List.init groups (fun j ->
      let g = (n * groups) + j in
      Delta.insert "fact" (row [ i g; i g; i (7 * g) ]))

let torn_read_run () =
  let wh = Warehouse.create (fact_db ()) in
  Warehouse.add_view wh by_k;
  let groups = 512 and batches = 12 in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let reads = ref 0 and bad = ref None in
        while not (Atomic.get stop) do
          let _, rel = Warehouse.query wh "by_k" in
          let n = Relation.cardinality rel in
          if n mod groups <> 0 && !bad = None then bad := Some n;
          incr reads
        done;
        (!reads, !bad))
  in
  for n = 0 to batches - 1 do
    Warehouse.ingest wh (fact_batch ~groups n)
  done;
  Atomic.set stop true;
  let reads, bad = Domain.join reader in
  Alcotest.(check bool) "reader observed the run" true (reads > 0);
  (match bad with
  | None -> ()
  | Some n ->
    Alcotest.failf "torn read: %d groups is not a multiple of %d" n groups);
  let _, final = Warehouse.query wh "by_k" in
  Alcotest.(check int) "all batches landed" (batches * groups)
    (Relation.cardinality final)

let torn_read_tests =
  [
    test "reader racing netted ingest never sees a torn state" torn_read_run;
  ]

(* --- publication discipline ---------------------------------------------- *)

let epoch_of wh = Warehouse.snapshot_epoch (Warehouse.current_snapshot wh)
let seq_of wh = Warehouse.snapshot_seq (Warehouse.current_snapshot wh)

let publication_tests =
  [
    test "epochs publish at registration and commit, tracking the WAL seq"
      (fun () ->
        let wh = Warehouse.create (fact_db ()) in
        Alcotest.(check int) "nothing published yet" 0 (epoch_of wh);
        Alcotest.(check (list string)) "empty epoch" []
          (List.map
             (fun v -> v.View.name)
             (Warehouse.snapshot_views (Warehouse.current_snapshot wh)));
        Warehouse.add_view wh by_k;
        Alcotest.(check int) "registration publishes" 1 (epoch_of wh);
        Alcotest.(check int) "at seq 0" 0 (seq_of wh);
        Warehouse.ingest wh (fact_batch 0);
        Alcotest.(check int) "commit publishes" 2 (epoch_of wh);
        Alcotest.(check int) "epoch seq is the batch seq"
          (Warehouse.ingested_batches wh)
          (seq_of wh));
    test "a fully rejected batch publishes nothing" (fun () ->
        let wh = Warehouse.create (fact_db ()) in
        Warehouse.add_view wh by_k;
        Warehouse.ingest wh (fact_batch 0);
        let epoch = epoch_of wh and seq = seq_of wh in
        (* every delta re-inserts an existing key: validation rejects all *)
        let r = Warehouse.ingest_report wh (fact_batch 0) in
        Alcotest.(check int) "nothing applied" 0 r.Warehouse.applied;
        Alcotest.(check bool) "everything rejected" true
          (List.length r.Warehouse.rejected = groups_per_batch);
        Alcotest.(check int) "epoch unchanged" epoch (epoch_of wh);
        Alcotest.(check int) "seq unchanged" seq (seq_of wh));
    test "an engine failure rolls back without publishing; the next commit \
          publishes once" (fun () ->
        let wh = Warehouse.create (fact_db ()) in
        Warehouse.add_view wh by_k;
        Warehouse.ingest wh (fact_batch 0);
        let epoch = epoch_of wh in
        Faults.arm ~mode:Faults.Fail Faults.Mid_engine_apply;
        let r = Warehouse.ingest_report wh (fact_batch 1) in
        Faults.disarm ();
        Alcotest.(check int) "aborted batch applied nothing" 0
          r.Warehouse.applied;
        Alcotest.(check int) "rollback published nothing" epoch (epoch_of wh);
        let _, rel = Warehouse.query wh "by_k" in
        Alcotest.(check int) "readers still see the pre-batch state"
          groups_per_batch (Relation.cardinality rel);
        Warehouse.ingest wh (fact_batch 2);
        Alcotest.(check int) "the next good batch publishes exactly once"
          (epoch + 1) (epoch_of wh);
        let _, rel = Warehouse.query wh "by_k" in
        Alcotest.(check int) "and its contents skip the aborted batch"
          (2 * groups_per_batch) (Relation.cardinality rel));
  ]

(* --- pinned snapshots ----------------------------------------------------- *)

let render_rows rel =
  String.concat "\n"
    (List.map
       (fun (tup, m) -> Printf.sprintf "%d:%s" m (Tuple.to_string tup))
       (Relation.to_sorted_list rel))

let pinned_tests =
  [
    test "a pinned snapshot is immune to later commits" (fun () ->
        let wh = Warehouse.create (fact_db ()) in
        Warehouse.add_view wh by_k;
        Warehouse.ingest wh (fact_batch 0);
        let pin = Warehouse.current_snapshot wh in
        let read_pinned () =
          render_rows (snd (Warehouse.query ~snapshot:pin wh "by_k"))
        in
        let before = read_pinned () in
        for n = 1 to 3 do
          Warehouse.ingest wh (fact_batch n)
        done;
        Alcotest.(check string) "pinned bytes unchanged" before
          (read_pinned ());
        Alcotest.(check bool) "the live epoch moved on" true
          (epoch_of wh > Warehouse.snapshot_epoch pin);
        let _, live = Warehouse.query wh "by_k" in
        Alcotest.(check int) "the live epoch has the new groups"
          (4 * groups_per_batch) (Relation.cardinality live));
  ]

let prop_params =
  {
    Workload.Retail.days = 8;
    stores = 2;
    products = 10;
    sold_per_store_day = 4;
    tx_per_product = 2;
    brands = 4;
    seed = 23;
  }

(* --- incremental publication ---------------------------------------------- *)

(* [f query] on one serve connection, which pins the epoch current at
   accept: [query view] is the whole QUERY reply, terminator included. *)
let with_connection port f =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* a wedged server must fail the test, not hang it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let ic = Unix.in_channel_of_descr fd
  and oc = Unix.out_channel_of_descr fd in
  let query view =
    output_string oc ("QUERY " ^ view ^ "\n");
    flush oc;
    let b = Buffer.create 256 in
    let rec go () =
      let l = input_line ic in
      Buffer.add_string b (l ^ "\n");
      if l <> "." then go ()
    in
    go ();
    Buffer.contents b
  in
  f query

(* Fact [g] of [fact_batch 0] moves from v = 7g + n - 1 to 7g + n: every
   batch rewrites every group of the view. *)
let rewrite_batch n =
  List.init groups_per_batch (fun g ->
      Delta.update "fact"
        ~before:(row [ i g; i g; i ((7 * g) + n - 1) ])
        ~after:(row [ i g; i g; i ((7 * g) + n) ]))

let sorted_rows = Alcotest.(list (pair tuple int))

(* Every registered view, read from the latest epoch, equals recomputation
   from the committed source, byte for byte in canonical order, and so do
   the lines a QUERY reads; [carried]: the epoch carries them, as every
   epoch published after a view's first read does. *)
let check_quiesced ?(carried = false) what wh views =
  List.iter
    (fun view ->
      let name = view.View.name in
      let expected =
        Relation.to_sorted_list
          (Algebra.Eval.eval (Warehouse.believed_source wh) view)
      in
      Alcotest.check sorted_rows (what ^ ": " ^ name) expected
        (snd (Warehouse.query_sorted wh name));
      let s = Warehouse.current_snapshot wh in
      let stored = Warehouse.epoch_lines s name in
      let _, _, read = Warehouse.read_lines ~snapshot:s wh name in
      Alcotest.(check string) (what ^ ": lines of " ^ name)
        (render_lines expected) read;
      if carried then
        Alcotest.(check (option string))
          (what ^ ": lines carried by the epoch of " ^ name)
          (Some read) stored)
    views

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let incremental_tests =
  [
    test "a pinned snapshot serves identical QUERY bytes across 50 commits \
          that rewrite its groups" (fun () ->
        let wh = Warehouse.create (fact_db ()) in
        Warehouse.add_view wh by_k;
        Warehouse.ingest wh (fact_batch 0);
        let srv = Serve.create ~port:0 wh in
        let d = Domain.spawn (fun () -> Serve.run srv) in
        Fun.protect
          ~finally:(fun () ->
            Serve.request_stop srv;
            Domain.join d)
        @@ fun () ->
        with_connection (Serve.port srv) @@ fun query ->
        let before = query "by_k" in
        for n = 1 to 50 do
          Warehouse.ingest wh (rewrite_batch n);
          Alcotest.(check string)
            (Printf.sprintf "pinned reply after commit %d" n)
            before (query "by_k")
        done;
        with_connection (Serve.port srv) @@ fun query' ->
        let _, rows = Warehouse.query_sorted wh "by_k" in
        Alcotest.(check bool) "a fresh connection sees the rewritten groups"
          true
          (query' "by_k" <> before
          && List.for_all
               (fun ((tup : Tuple.t), _) ->
                 match tup.(0), tup.(1) with
                 | Value.Int g, Value.Int total -> total = (7 * g) + 50
                 | _ -> false)
               rows));
    test "a view first queried after several commits is served right, and \
          the next publication carries its lines" (fun () ->
        let wh = Warehouse.create (fact_db ()) in
        Warehouse.add_view wh by_k;
        for n = 0 to 3 do
          Warehouse.ingest wh (fact_batch n)
        done;
        let reply () =
          let s = Warehouse.current_snapshot wh in
          let columns, rows = Warehouse.read_sorted ~snapshot:s wh "by_k" in
          Printf.sprintf "+ROWS %d %d %d\n#\t%s\n%s.\n" (Array.length rows)
            (Warehouse.snapshot_epoch s) (Warehouse.snapshot_seq s)
            (String.concat "\t" columns)
            (render_lines (Array.to_list rows))
        in
        let lines () =
          let s = Warehouse.current_snapshot wh in
          Warehouse.epoch_lines s "by_k"
        in
        Alcotest.(check (option string)) "no reader yet: the epoch has no lines"
          None (lines ());
        let srv = Serve.create ~port:0 wh in
        let d = Domain.spawn (fun () -> Serve.run srv) in
        Fun.protect
          ~finally:(fun () ->
            Serve.request_stop srv;
            Domain.join d)
        @@ fun () ->
        with_connection (Serve.port srv) (fun query ->
            Alcotest.(check string) "the first QUERY, rendered on the fly"
              (reply ()) (query "by_k"));
        Alcotest.(check (option string)) "the read epoch gains no lines" None
          (lines ());
        (* new groups, and a rewrite of every group of batch 0 *)
        Warehouse.ingest wh (fact_batch 4 @ rewrite_batch 1);
        let s = Warehouse.current_snapshot wh in
        let _, rows = Warehouse.read_sorted ~snapshot:s wh "by_k" in
        Alcotest.(check (option string)) "the next publication carries them"
          (Some (render_lines (Array.to_list rows)))
          (lines ());
        with_connection (Serve.port srv) (fun query ->
            Alcotest.(check string) "and a QUERY serves them" (reply ())
              (query "by_k"));
        Warehouse.ingest wh (rewrite_batch 2);
        let _, rows = Warehouse.query_sorted wh "by_k" in
        Alcotest.(check (option string)) "so does every later one"
          (Some (render_lines rows)) (lines ()));
    test "the first publication after load and recover equals quiesced \
          recomputation" (fun () ->
        let db = Workload.Retail.load prop_params in
        let views =
          [ Workload.Retail.product_sales; Workload.Retail.sales_by_time ]
        in
        let dir = Filename.concat (Filename.get_temp_dir_name ()) "epoch-first" in
        rm_rf dir;
        let wh = Warehouse.create db in
        List.iter (Warehouse.add_view wh) views;
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 5 in
        let ingest wh = Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:30) in
        ingest wh;
        Warehouse.checkpoint wh;
        ingest wh;
        ingest wh;
        Warehouse.close wh;
        (* a snapshot plus a two-batch WAL tail *)
        let wh = Warehouse.recover ~dir in
        check_quiesced "after recover" wh views;
        ingest wh;
        check_quiesced ~carried:true "the commit after recover" wh views;
        let path = Filename.concat dir "saved.bin" in
        Warehouse.save wh path;
        Warehouse.close wh;
        let wh = Warehouse.load path in
        check_quiesced "after load" wh views;
        ingest wh;
        check_quiesced ~carried:true "the commit after load" wh views;
        rm_rf dir);
  ]

(* --- snapshot == quiesced recomputation (property) ------------------------- *)

let prop_snapshot_quiesced =
  QCheck2.Test.make ~count:8
    ~name:"with_snapshot == quiesced recomputation at the same WAL seq"
    (QCheck2.Gen.int_range 0 10_000)
    (fun seed ->
      let db = Workload.Retail.load prop_params in
      let wh = Warehouse.create db in
      let views =
        [ Workload.Retail.product_sales; Workload.Retail.sales_by_time ]
      in
      List.iter (Warehouse.add_view wh) views;
      let rng = Workload.Prng.create seed in
      for _round = 1 to 4 do
        ignore (Warehouse.ingest_report wh (Workload.Delta_gen.stream rng db ~n:40));
        Warehouse.with_snapshot wh (fun s ->
            if Warehouse.snapshot_seq s <> Warehouse.ingested_batches wh then
              QCheck2.Test.fail_reportf "epoch seq %d != WAL seq %d"
                (Warehouse.snapshot_seq s)
                (Warehouse.ingested_batches wh);
            List.iter
              (fun view ->
                let _, rows =
                  Warehouse.query ~snapshot:s wh view.View.name
                in
                let expected =
                  Algebra.Eval.eval (Warehouse.believed_source wh) view
                in
                (* byte-identical in canonical order, not just bag-equal *)
                if render_rows rows <> render_rows expected then
                  QCheck2.Test.fail_reportf "%s: snapshot diverges:\n%s\n!=\n%s"
                    view.View.name (render_rows rows) (render_rows expected))
              views)
      done;
      true)

let () =
  Alcotest.run "epoch"
    [
      ("torn-reads", torn_read_tests);
      ("publication", publication_tests);
      ("pinned", pinned_tests);
      ("incremental", incremental_tests);
      ("properties", [ QCheck_alcotest.to_alcotest prop_snapshot_quiesced ]);
    ]
