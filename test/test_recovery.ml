(* Crash-recovery tests: for every named crash point and several seeds, a
   simulated crash followed by recovery and a resumed delta stream leaves the
   warehouse exactly where an uninterrupted run would have — the WAL replay
   is idempotent and the views match from-scratch recomputation. Plus
   corruption tests for the snapshot format and the WAL tail. *)

open Helpers
module Faults = Maintenance.Faults

let test case fn = Alcotest.test_case case `Quick fn

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* a state directory emptied of any previous run's leftovers — recursively,
   because attached directories now grow a generations/ subdirectory whose
   stale archived segments would otherwise poison a rerun *)
let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir name =
  let dir = tmp name in
  if Sys.file_exists dir then rm_rf dir;
  dir

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

let all_views =
  [ Workload.Retail.product_sales; Workload.Retail.monthly_revenue;
    Workload.Retail.sales_by_time ]

let build_on db =
  let wh = Warehouse.create db in
  Warehouse.add_view wh Workload.Retail.product_sales;
  Warehouse.add_view ~strategy:Warehouse.Psj wh Workload.Retail.monthly_revenue;
  Warehouse.add_view ~strategy:Warehouse.Replicate wh
    Workload.Retail.sales_by_time;
  wh

let build () =
  let db = Workload.Retail.load tiny in
  (db, build_on db)

let check_views wh db =
  List.iter
    (fun v ->
      Alcotest.check relation v.View.name (Algebra.Eval.eval db v)
        (snd (Warehouse.query wh v.View.name)))
    all_views

let reason_eq : Delta.reason Alcotest.testable =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (Delta.reason_label r))
    ( = )

(* The property: crash at [site] somewhere inside a batched ingestion run,
   recover from disk, resume the stream from the batch count the recovered
   warehouse reports — and end up indistinguishable from a run that never
   crashed. *)
let crash_and_recover site seed () =
  let db, wh = build () in
  let root =
    fresh_dir
      (Printf.sprintf "wh_crash_%s_%d" (Crash_model.site_label site) seed)
  in
  Sys.mkdir root 0o755;
  let rng = Workload.Prng.create seed in
  (* generate everything up front: the batches evolve db to its final state,
     which is the ground truth the recovered warehouse must reach *)
  let batches = List.init 8 (fun _ -> Workload.Delta_gen.stream rng db ~n:12) in
  (* the third batch's append, or the checkpoint that follows it *)
  ignore
    (Crash_model.crash ~root
       ~attach:(fun dir -> Warehouse.attach wh ~dir)
       ~ingest:(ingest_checkpointing ~every:3 wh)
       batches ~batch:3 site ~seed);
  Warehouse.close wh;
  let wh' = Warehouse.recover ~dir:(Filename.concat root "state") in
  Alcotest.(check (list reason_eq)) "no dead letters after replay" []
    (List.map (fun r -> r.Delta.reason) (Warehouse.dead_letters wh'));
  (* each batch bumps the count by exactly one, so it doubles as the resume
     cursor into the stream *)
  let already = Warehouse.ingested_batches wh' in
  Alcotest.(check bool) "made progress before crashing" true (already >= 2);
  List.iteri
    (fun idx batch -> if idx >= already then Warehouse.ingest wh' batch)
    batches;
  check_views wh' db;
  Warehouse.close wh';
  rm_rf root

(* [n] repricings of [hot], each row picked by a Zipf(1) law over its
   rank, applied to [db] as generated: a batch whose keys repeat. *)
let zipf_repricings rng db (hot : Relational.Tuple.t array) n =
  let h = Array.length hot in
  let cdf = Array.make h 0 in
  Array.iteri
    (fun r _ -> cdf.(r) <- (if r = 0 then 0 else cdf.(r - 1)) + (720 / (r + 1)))
    cdf;
  List.init n (fun _ ->
      let u = Workload.Prng.int rng cdf.(h - 1) in
      let r = ref 0 in
      while cdf.(!r) <= u do
        incr r
      done;
      let before = hot.(!r) in
      let after = Array.copy before in
      (after.(4) <-
         match before.(4) with Value.Int p -> Value.Int ((p mod 97) + 1) | v -> v);
      hot.(!r) <- after;
      let d = Delta.update "sale" ~before ~after in
      Database.apply db d;
      d)

let compact_phases () =
  Telemetry.Histogram.count
    (Telemetry.Histogram.make
       ~labels:[ ("phase", "compact") ]
       "minview_engine_phase_seconds")

(* A warehouse ingests batches of Zipf repricings and dies after the last
   one's WAL append; its recovery replays the tail and nets each batch as
   ingest did (one compact phase per replayed batch), and its views read
   what a warehouse that never crashed reads. *)
let zipf_replay_nets () =
  let db = Workload.Retail.load tiny in
  let views = [ Workload.Retail.product_sales; Workload.Retail.monthly_revenue ] in
  let warehouse () =
    let wh = Warehouse.create db in
    List.iter (Warehouse.add_view wh) views;
    wh
  in
  let live = warehouse () and crashed = warehouse () in
  let root = fresh_dir "wh_zipf_replay" in
  Warehouse.attach crashed ~dir:root;
  let hot =
    Array.sub
      (Array.of_list (Database.fold db "sale" (fun tup acc -> tup :: acc) []))
      0 12
  in
  let rng = Workload.Prng.create 61 in
  let batches = List.init 4 (fun _ -> zipf_repricings rng db hot 40) in
  Faults.arm ~skip:(List.length batches - 1) Faults.After_wal_append;
  Fun.protect ~finally:Faults.disarm (fun () ->
      List.iter
        (fun b ->
          Warehouse.ingest live b;
          match Warehouse.ingest crashed b with
          | () -> ()
          | exception Faults.Crash Faults.After_wal_append -> ())
        batches);
  Warehouse.close crashed;
  let compacts = compact_phases () in
  let replayed () =
    Telemetry.Counter.value
      (Telemetry.Counter.make "minview_warehouse_replayed_batches_total")
  in
  let replayed0 = replayed () in
  let recovered = Warehouse.recover ~dir:root in
  Alcotest.(check int) "every batch replays" (List.length batches)
    (replayed () - replayed0);
  Alcotest.(check int) "one compact phase per replayed batch"
    (List.length batches) (compact_phases () - compacts);
  List.iter
    (fun (v : View.t) ->
      Alcotest.(check (list (pair tuple int)))
        (v.View.name ^ ": recovered == live")
        (snd (Warehouse.query_sorted live v.View.name))
        (snd (Warehouse.query_sorted recovered v.View.name));
      Alcotest.(check (list (pair tuple int)))
        (v.View.name ^ ": live == recomputed")
        (Relation.to_sorted_list (Algebra.Eval.eval db v))
        (snd (Warehouse.query_sorted live v.View.name)))
    views;
  Warehouse.close recovered;
  rm_rf root

let crash_tests =
  test "Zipf batches replay netted: recovered == live" zipf_replay_nets
  :: List.concat_map
    (fun site ->
      List.map
        (fun seed ->
          test
            (Printf.sprintf "crash at %s, seed %d (recover == no crash)"
               (Crash_model.site_label site) seed)
            (crash_and_recover site seed))
        [ 11; 12; 13 ])
    Crash_model.serial_sites

let durability_tests =
  [
    test "a view added after ingestion loads from the believed source"
      (fun () ->
        let db = Workload.Retail.load tiny in
        let wh = Warehouse.create db in
        let dir = fresh_dir "wh_late_view_dir" in
        Warehouse.attach wh ~dir;
        let next_id =
          1
          + Database.fold db "sale"
              (fun tup m -> match tup.(0) with Value.Int k -> max m k | _ -> m)
              0
        in
        (* two sales of product 1 above every price in the extract *)
        Warehouse.ingest wh
          [ Delta.insert "sale" (row [ i next_id; i 1; i 1; i 1; i 10_000 ]);
            Delta.insert "sale" (row [ i (next_id + 1); i 2; i 1; i 2; i 20_000 ]) ];
        let view = Workload.Retail.product_sales_max in
        Warehouse.add_view wh view;
        let check wh label =
          let believed = Warehouse.believed_source wh in
          Alcotest.check relation (label ^ ": served == recomputed")
            (Algebra.Eval.eval believed view)
            (snd (Warehouse.query wh view.View.name));
          Alcotest.(check (list (pair string bool)))
            (label ^ ": audit") [ (view.View.name, true) ]
            (Warehouse.audit wh ~reference:believed)
        in
        Alcotest.(check bool) "the inserts change the view" false
          (Relation.equal (Algebra.Eval.eval db view)
             (Algebra.Eval.eval (Warehouse.believed_source wh) view));
        check wh "registered";
        Warehouse.checkpoint wh;
        Warehouse.close wh;
        let wh' = Warehouse.recover ~dir in
        check wh' "recovered";
        Warehouse.close wh');
    test "attach / checkpoint / recover round-trips" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_roundtrip_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 5 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:60);
        Warehouse.checkpoint wh;
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:60);
        Warehouse.close wh;
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "batch count" 2 (Warehouse.ingested_batches wh');
        check_views wh' db;
        Warehouse.close wh');
    test "a failed snapshot fsync publishes nothing" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_fsync_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 9 in
        let batch () =
          Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:30)
        in
        batch ();
        batch ();
        let snap = Filename.concat dir "snapshot.bin" in
        let slurp path = In_channel.with_open_bin path In_channel.input_all in
        let live = slurp snap in
        (* the checkpoint writes snapshot.bin.new.tmp, fsyncs it and renames
           it to snapshot.bin.new; fsync on /dev/null fails with EINVAL *)
        Unix.symlink "/dev/null" (snap ^ ".new.tmp");
        (match Warehouse.checkpoint wh with
        | exception Warehouse.Error { kind = Warehouse.Io_error; _ } -> ()
        | () -> Alcotest.fail "expected Io_error");
        Alcotest.(check string) "live snapshot unchanged" live (slurp snap);
        Alcotest.(check bool) "temporary file removed" false
          (Sys.file_exists (snap ^ ".new.tmp"));
        batch ();
        Warehouse.close wh;
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "batch count" 3 (Warehouse.ingested_batches wh');
        check_views wh' db;
        Warehouse.close wh');
    test "recovery tolerates a torn WAL tail" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_torn_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 6 in
        for _ = 1 to 3 do
          Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:20)
        done;
        Warehouse.close wh;
        (* a record that never finished hitting the disk *)
        let oc =
          open_out_gen
            [ Open_wronly; Open_append; Open_binary ]
            0o644
            (Filename.concat dir "wal.bin")
        in
        output_string oc "garbage that is not a complete record";
        close_out oc;
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "all full batches survive" 3
          (Warehouse.ingested_batches wh');
        check_views wh' db;
        Warehouse.close wh');
    test "every committed batch costs exactly one WAL fsync" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_one_fsync_dir" in
        (* checkpoints in between replace the log; they sync files of their
           own, but never the log's barrier *)
        Warehouse.attach wh ~dir;
        let syncs = Telemetry.Counter.make "minview_wal_syncs_total" in
        let rng = Workload.Prng.create 14 in
        for k = 1 to 5 do
          let before = Telemetry.Counter.value syncs in
          ingest_checkpointing ~every:2 wh
            (Workload.Delta_gen.stream rng db ~n:15);
          Alcotest.(check int) "committed" k (Warehouse.ingested_batches wh);
          Alcotest.(check int)
            (Printf.sprintf "batch %d: one barrier" k)
            (before + 1)
            (Telemetry.Counter.value syncs)
        done;
        Warehouse.close wh;
        rm_rf dir);
    test "a failed checkpoint raises Io_error and leaves the WAL serving"
      (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_checkpoint_io_dir" in
        Warehouse.attach wh ~dir;
        (* the generations directory cannot be created *)
        Out_channel.with_open_bin (Filename.concat dir "generations") ignore;
        let rng = Workload.Prng.create 15 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:20);
        let snap = Filename.concat dir "snapshot.bin" in
        let slurp path = In_channel.with_open_bin path In_channel.input_all in
        let live = slurp snap in
        (match Warehouse.checkpoint wh with
        | exception Warehouse.Error { kind = Warehouse.Io_error; _ } -> ()
        | () -> Alcotest.fail "expected Io_error");
        Alcotest.(check string) "live snapshot unchanged" live (slurp snap);
        Warehouse.close wh;
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "the batch replays from the WAL" 1
          (Warehouse.ingested_batches wh');
        check_views wh' db;
        Warehouse.close wh';
        rm_rf dir);
    test "a power cut mid-frame loses only the torn batch" (fun () ->
        let db, wh = build () in
        let root = fresh_dir "wh_torn_frame_dir" in
        Sys.mkdir root 0o755;
        let dir = Filename.concat root "state" in
        let rng = Workload.Prng.create 10 in
        let batches =
          List.init 6 (fun _ -> Workload.Delta_gen.stream rng db ~n:15)
        in
        (* every batch is synced on its own; the power cut hits after the
           fourth batch's frame was written, before its barrier: seed 2
           picks the torn frame *)
        let acked =
          Crash_model.crash ~root
            ~attach:(fun dir -> Warehouse.attach wh ~dir)
            ~ingest:(Warehouse.ingest wh) batches ~batch:4
            Crash_model.In_wal_append ~seed:2
        in
        Warehouse.close wh;
        Alcotest.(check int) "three batches acknowledged" 3 acked;
        let wh' = Warehouse.recover ~dir in
        (* the torn frame is set aside; every batch before it survives and
           the resume cursor is exact *)
        Alcotest.(check int) "the synced prefix survived" 3
          (Warehouse.ingested_batches wh');
        Alcotest.(check bool) "the torn frame is quarantined" true
          (Sys.file_exists (Filename.concat dir "wal.bin.quarantine"));
        List.iteri
          (fun idx batch -> if idx >= 3 then Warehouse.ingest wh' batch)
          batches;
        check_views wh' db;
        Warehouse.close wh';
        rm_rf root);
    test "repeated salvages keep every torn tail" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_two_tails_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 16 in
        let wal = Filename.concat dir "wal.bin" in
        let tear tail =
          Out_channel.with_open_gen
            [ Open_wronly; Open_append; Open_binary ]
            0o644 wal
            (fun oc -> Out_channel.output_string oc tail)
        in
        let slurp path = In_channel.with_open_bin path In_channel.input_all in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:10);
        Warehouse.close wh;
        tear "first torn tail";
        let wh = Warehouse.recover ~dir in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:10);
        Warehouse.close wh;
        tear "second, longer torn tail";
        let wh = Warehouse.recover ~dir in
        Alcotest.(check int) "both batches survive" 2
          (Warehouse.ingested_batches wh);
        check_views wh db;
        Warehouse.close wh;
        Alcotest.(check string) "the first tail" "first torn tail"
          (slurp (wal ^ ".quarantine"));
        Alcotest.(check string) "the second tail" "second, longer torn tail"
          (slurp (wal ^ ".quarantine.1"));
        rm_rf dir);
    test "checkpoint without attach is refused" (fun () ->
        let _db, wh = build () in
        match Warehouse.checkpoint wh with
        | exception Warehouse.Error { kind = Warehouse.Not_durable; _ } -> ()
        | () -> Alcotest.fail "expected Not_durable");
    test "double attach is refused" (fun () ->
        let _db, wh = build () in
        let dir = fresh_dir "wh_double_dir" in
        Warehouse.attach wh ~dir;
        (match Warehouse.attach wh ~dir with
        | exception Warehouse.Error { kind = Warehouse.Invalid_request; _ } ->
          ()
        | () -> Alcotest.fail "expected Invalid_request");
        Warehouse.close wh);
  ]

(* --- checkpoint generation chain ---------------------------------------- *)

let flip_last_byte path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        Bytes.of_string (really_input_string ic (in_channel_length ic)))
  in
  let last = Bytes.length s - 1 in
  Bytes.set s last (Char.chr (Char.code (Bytes.get s last) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc s;
  close_out oc

let generation_files dir =
  match Sys.readdir (Filename.concat dir "generations") with
  | entries ->
    let l = Array.to_list entries in
    ( List.filter (String.starts_with ~prefix:"snapshot-") l,
      List.filter (String.starts_with ~prefix:"wal-") l )
  | exception Sys_error _ -> ([], [])

let chain_tests =
  [
    test "a corrupt newest checkpoint recovers from generation K-1" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_chain_fallback_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 17 in
        (* three checkpoints deep: gen chain holds the two older snapshots
           with the WAL segments between them *)
        for _ = 1 to 3 do
          Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:20);
          Warehouse.checkpoint wh
        done;
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:20);
        Warehouse.close wh;
        flip_last_byte (Filename.concat dir "snapshot.bin");
        let wh' = Warehouse.recover ~dir in
        (* the unverifiable newest snapshot fell back to gen K-1; replaying
           its archived segment plus the live log reaches the full stream *)
        Alcotest.(check int) "no committed batch lost" 4
          (Warehouse.ingested_batches wh');
        check_views wh' db;
        Alcotest.(check bool) "the bad snapshot was quarantined" true
          (Sys.file_exists (Filename.concat dir "snapshot.bin.quarantine"));
        (* the healed warehouse checkpoints and keeps running *)
        Warehouse.checkpoint wh';
        Warehouse.ingest wh' (Workload.Delta_gen.stream rng db ~n:20);
        check_views wh' db;
        Warehouse.close wh');
    test "pruning keeps exactly two archived snapshots" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_chain_prune_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 18 in
        for _ = 1 to 5 do
          Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:10);
          Warehouse.checkpoint wh
        done;
        let snaps, wals = generation_files dir in
        Alcotest.(check int) "two archived snapshots" 2 (List.length snaps);
        Alcotest.(check int) "two archived WAL segments" 2 (List.length wals);
        Warehouse.close wh;
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "all batches present" 5
          (Warehouse.ingested_batches wh');
        check_views wh' db;
        Warehouse.close wh');
    test "a recovered warehouse checkpoints only when asked" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_recovered_checkpoint_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 43 in
        let batch () = Workload.Delta_gen.stream rng db ~n:5 in
        for _ = 1 to 3 do
          Warehouse.ingest wh (batch ())
        done;
        Warehouse.close wh;
        let snapshot () =
          List.find_map
            (fun e ->
              if String.equal e.Warehouse.f_file "snapshot.bin" then
                Some e.Warehouse.f_detail
              else None)
            (Warehouse.fsck ~dir).Warehouse.fsck_entries
        in
        let wh = Warehouse.recover ~dir in
        Alcotest.(check int) "recovered at batch 3" 3
          (Warehouse.ingested_batches wh);
        for n = 1 to 3 do
          Warehouse.ingest wh (batch ());
          Alcotest.(check (option string))
            (Printf.sprintf "no checkpoint after its batch %d" n)
            (Some "verified, batch 0") (snapshot ())
        done;
        Warehouse.checkpoint wh;
        Alcotest.(check (option string)) "the checkpoint it was asked for"
          (Some "verified, batch 6") (snapshot ());
        check_views wh db;
        Warehouse.close wh);
    test "a recovered warehouse extends the chain and prunes it to two"
      (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_recovered_chain_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 44 in
        let step wh =
          Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:10);
          Warehouse.checkpoint wh
        in
        let indices () =
          List.map
            (fun f -> Scanf.sscanf f "snapshot-%d.bin" Fun.id)
            (fst (generation_files dir))
          |> List.sort compare
        in
        for _ = 1 to 3 do
          step wh
        done;
        Warehouse.close wh;
        let before = indices () in
        Alcotest.(check int) "two archived before recovery" 2
          (List.length before);
        let wh = Warehouse.recover ~dir in
        step wh;
        step wh;
        let after = indices () in
        Alcotest.(check int) "two archived after recovery" 2
          (List.length after);
        (* the recovered warehouse numbers its generations past the ones it
           found, so the two it keeps are both its own *)
        Alcotest.(check bool) "newer than every recovered generation" true
          (List.hd after > List.fold_left max 0 before);
        Alcotest.(check int) "as many WAL segments"
          (List.length after) (List.length (snd (generation_files dir)));
        Warehouse.close wh;
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "all batches present" 5
          (Warehouse.ingested_batches wh');
        check_views wh' db;
        Warehouse.close wh');
    test "recover on an existing-but-empty directory is a cold start"
      (fun () ->
        let dir = fresh_dir "wh_empty_dir" in
        Sys.mkdir dir 0o755;
        let wh = Warehouse.recover ~dir in
        Alcotest.(check int) "nothing ingested" 0
          (Warehouse.ingested_batches wh);
        Warehouse.close wh;
        (* the cold start initialized the directory: a second recovery now
           finds a live snapshot *)
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "still nothing ingested" 0
          (Warehouse.ingested_batches wh');
        Warehouse.close wh');
  ]

(* --- snapshot corruption ------------------------------------------------ *)

let saved_snapshot path =
  let db = Workload.Retail.load tiny in
  let wh = Warehouse.create db in
  Warehouse.add_view wh Workload.Retail.product_sales;
  Warehouse.save wh path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let expect_corrupt path =
  match Warehouse.load path with
  | exception Warehouse.Error { kind = Warehouse.Corrupt_state; _ } -> ()
  | _ -> Alcotest.fail "expected Corrupt_state"

let expect_corrupt_naming path name =
  match Warehouse.load path with
  | exception Warehouse.Error { kind = Warehouse.Corrupt_state; detail } ->
    Alcotest.(check bool) (Printf.sprintf "names %s: %s" name detail) true
      (contains detail name)
  | _ -> Alcotest.failf "%s: expected Corrupt_state" name

(* Replace the section named [name] by [f] of it, framed with a valid CRC:
   damage only decoding can catch. *)
let rewrite_section path name f =
  let s = read_file path in
  write_file path
    (String.sub s 0 snapshot_magic_len
    ^ String.concat ""
        (List.map
           (fun sec -> frame_section (if sec.sec_name = name then f sec else sec))
           (snapshot_sections s)))

let doubled sec =
  { sec with sec_rows = 2 * sec.sec_rows; sec_body = sec.sec_body ^ sec.sec_body }

let section_tests =
  [
    test "a flipped byte in any section names that section" (fun () ->
        let path = tmp "wh_section_flip.bin" in
        let _db, wh = build () in
        ignore
          (Warehouse.ingest_report wh [ Delta.insert "no_such_table" [| i 1 |] ]
            : Warehouse.report);
        Warehouse.save wh path;
        let clean = read_file path in
        let sections = snapshot_sections clean in
        Alcotest.(check (list string)) "sections"
          ("catalog"
           :: List.concat_map
                (fun t -> [ "rows of " ^ t; "reference counts of " ^ t ])
                (Database.table_names (Warehouse.believed_source wh))
          @ [ "dead letters" ])
          (List.map (fun sec -> sec.sec_name) sections);
        List.iter
          (fun sec ->
            (* a length in the frame, the header, the last byte *)
            List.iter
              (fun at ->
                let b = Bytes.of_string clean in
                Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x41));
                write_file path (Bytes.to_string b);
                expect_corrupt_naming path sec.sec_name)
              [ sec.sec_off + 2; sec.sec_off + 17; sec.sec_off + sec.sec_len - 1 ])
          sections;
        Sys.remove path);
    test "a short section is refused" (fun () ->
        let path = tmp "wh_section_short.bin" in
        saved_snapshot path;
        let s = read_file path in
        let sale =
          List.find (fun sec -> sec.sec_name = "rows of sale") (snapshot_sections s)
        in
        write_file path (String.sub s 0 (sale.sec_off + (sale.sec_len / 2)));
        expect_corrupt_naming path "rows of sale";
        Sys.remove path);
    test "a key twice among a section's rows is refused" (fun () ->
        let path = tmp "wh_section_dup.bin" in
        List.iter
          (fun name ->
            saved_snapshot path;
            rewrite_section path name doubled;
            expect_corrupt_naming path name;
            match Warehouse.load path with
            | exception Warehouse.Error { detail; _ } ->
              Alcotest.(check bool) ("says twice: " ^ detail) true
                (contains detail "twice")
            | _ -> ())
          [ "rows of store"; "reference counts of store" ];
        Sys.remove path);
    test "a cell that overruns its section is refused" (fun () ->
        let path = tmp "wh_section_overrun.bin" in
        saved_snapshot path;
        rewrite_section path "rows of product" (fun sec ->
            { sec with
              sec_body = String.sub sec.sec_body 0 (String.length sec.sec_body - 1)
            });
        expect_corrupt_naming path "rows of product";
        Sys.remove path);
    test "fsck decodes every section, not only its checksum" (fun () ->
        let dir = fresh_dir "wh_fsck_decode_dir" in
        let _db, wh = build () in
        Warehouse.attach wh ~dir;
        Warehouse.close wh;
        let snap = Filename.concat dir "snapshot.bin" in
        let report = Warehouse.fsck ~dir in
        Alcotest.(check bool) "clean" true report.Warehouse.fsck_clean;
        rewrite_section snap "rows of sale" doubled;
        let report = Warehouse.fsck ~dir in
        match report.Warehouse.fsck_entries with
        | e :: _ ->
          Alcotest.(check bool) ("damaged: " ^ e.Warehouse.f_detail) true
            ((not e.Warehouse.f_ok) && contains e.Warehouse.f_detail "rows of sale")
        | [] -> Alcotest.fail "no fsck entry");
  ]

let corruption_tests =
  [
    test "a flipped payload byte fails the checksum" (fun () ->
        let path = tmp "wh_bitrot.bin" in
        saved_snapshot path;
        let s = Bytes.of_string (read_file path) in
        let last = Bytes.length s - 1 in
        Bytes.set s last (Char.chr (Char.code (Bytes.get s last) lxor 0xff));
        write_file path (Bytes.to_string s);
        expect_corrupt path;
        Sys.remove path);
    test "a truncated payload is detected before unmarshalling" (fun () ->
        let path = tmp "wh_truncated.bin" in
        saved_snapshot path;
        let s = read_file path in
        write_file path (String.sub s 0 (String.length s - 7));
        expect_corrupt path;
        Sys.remove path);
    test "the unchecksummed v1 format is refused as incompatible" (fun () ->
        let path = tmp "wh_v1.bin" in
        write_file path ("minview-warehouse-state/1\n" ^ "anything");
        (match Warehouse.load path with
        | exception Warehouse.Error { kind = Warehouse.Incompatible_state; _ }
          ->
          ()
        | _ -> Alcotest.fail "expected Incompatible_state");
        Sys.remove path);
    test "a garbage WAL header is refused" (fun () ->
        let dir = fresh_dir "wh_badwal_dir" in
        let path = tmp "wh_badwal_snap.bin" in
        saved_snapshot path;
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        write_file (Filename.concat dir "snapshot.bin") (read_file path);
        write_file (Filename.concat dir "wal.bin") "this is not a WAL file";
        (match Warehouse.recover ~dir with
        | exception Warehouse.Error { kind = Warehouse.Corrupt_state; _ } -> ()
        | _ -> Alcotest.fail "expected Corrupt_state");
        Sys.remove path);
  ]

(* --- snapshot format versions ----------------------------------------------

   Version 7 is written; version 6, whose FLOAT cells are 8 bytes each,
   and version 5, one [Marshal] payload, still load and are upgraded by
   the next checkpoint; versions 1 to 4 are refused. *)

let v5_magic = "minview-warehouse-state/5\n"

let reframe path magic payload =
  let b = Buffer.create (String.length payload + String.length magic + 8) in
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_int32_le b (Int32.of_int (Warehouse.Checksum.string payload));
  Buffer.add_string b payload;
  write_file path (Buffer.contents b)

(* The strategies [build_on] registers. *)
let strategy_of (v : View.t) =
  match v.View.name with
  | "monthly_revenue" -> Warehouse.Psj
  | "sales_by_time" -> Warehouse.Replicate
  | _ -> Warehouse.Minimal

(* [db] as the version-5 build laid out its shadow ([Database.V5]): per
   table, a hashtable from key to row and one from each referenced key to
   its reference count; each constraint resolved on its source table,
   newest first. *)
let v5_of_database db =
  let module V5 = Database.V5 in
  let tables = Hashtbl.create 8 in
  List.iter
    (fun name ->
      let schema = Database.schema_of db name in
      let key = Schema.key_index schema in
      let by_key = V5.VH.create 64 and incoming = V5.VH.create 64 in
      Database.fold db name
        (fun tup () ->
          V5.VH.replace by_key tup.(key) tup;
          match Database.reference_count db name tup.(key) with
          | 0 -> ()
          | n -> V5.VH.replace incoming tup.(key) n)
        ();
      Hashtbl.add tables name
        { V5.schema; key; by_key;
          updatable = Database.updatable_columns db name; incoming;
          outgoing = [] })
    (Database.table_names db);
  List.iter
    (fun (r : Relational.Integrity.reference) ->
      let (src : V5.table) = Hashtbl.find tables r.src_table in
      src.outgoing <-
        { V5.ref = r; col = Schema.index_of src.schema r.src_col;
          dst = Hashtbl.find tables r.dst_table }
        :: src.outgoing)
    (List.rev (Database.references db));
  { V5.tables; refs = Database.references db }

(* The version-5 validator: its shadow and its (empty) undo journal. *)
type v5_validator = { shadow : Database.V5.t; txn : Delta.t list option }

(* Rewrite the snapshot at [path] as the version-5 build wrote it: a frame
   (u32-le length, u32-le CRC-32) around one [Marshal] payload of the views
   with their strategies and the dead letters, both newest first, the
   validator, the batch number and the pool size. *)
let to_v5 path =
  let wh = Warehouse.load path in
  reframe path v5_magic
    (Marshal.to_string
       ( List.rev_map (fun v -> (v, strategy_of v)) (Warehouse.views wh),
         { shadow = v5_of_database (Warehouse.believed_source wh); txn = None },
         List.rev (Warehouse.dead_letters wh),
         Warehouse.ingested_batches wh,
         0 )
       [])

let magic_of path = String.sub (read_file path) 0 snapshot_magic_len

let letter_image (r : Delta.rejection) =
  Format.asprintf "%a" Delta.pp_rejection r

(* A version-5 snapshot of [wh], dead letters included, loads into a
   warehouse that believes the same source, serves the same views and
   keeps maintaining them. *)
let check_v5_load name =
  let db, wh = build () in
  let rng = Workload.Prng.create 23 in
  Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:30);
  ignore
    (Warehouse.ingest_report wh
       [ Delta.insert "no_such_table" [| i 1; Value.Null |] ]
      : Warehouse.report);
  let path = tmp name in
  Warehouse.save wh path;
  to_v5 path;
  Alcotest.(check string) "crafted as version 5" v5_magic (magic_of path);
  let wh' = Warehouse.load path in
  Alcotest.check store_image_t "believed source"
    (store_image (Warehouse.believed_source wh))
    (store_image (Warehouse.believed_source wh'));
  Alcotest.(check (list string)) "dead letters"
    (List.map letter_image (Warehouse.dead_letters wh))
    (List.map letter_image (Warehouse.dead_letters wh'));
  Alcotest.(check int) "batch number" (Warehouse.ingested_batches wh)
    (Warehouse.ingested_batches wh');
  List.iter
    (fun (v : View.t) ->
      Alcotest.check relation v.View.name
        (snd (Warehouse.query wh v.View.name))
        (snd (Warehouse.query wh' v.View.name)))
    all_views;
  (* the loaded shadow keeps checking: a replayed insert is a duplicate
     and a fresh stream is admitted and maintained *)
  let replayed =
    Database.fold db "sale" (fun tup _ -> Some (Delta.insert "sale" tup)) None
  in
  let r = Warehouse.ingest_report wh' (Option.to_list replayed) in
  Alcotest.(check int) "replayed insert rejected" 0 r.Warehouse.applied;
  Warehouse.ingest wh' (Workload.Delta_gen.stream rng db ~n:20);
  check_views wh' db;
  Sys.remove path

(* Every snapshot of a state directory — live and archived — rewritten by
   [rewrite], as if an older build had written the whole chain. *)
let rewrite_chain dir rewrite =
  rewrite (Filename.concat dir "snapshot.bin");
  let gens = Filename.concat dir "generations" in
  Array.iter
    (fun f_name ->
      if String.starts_with ~prefix:"snapshot-" f_name then
        rewrite (Filename.concat gens f_name))
    (try Sys.readdir gens with Sys_error _ -> [||])

(* Three checkpoints and a batch in the live log: [build], the directory
   and the stream's generator. *)
let chain_of name =
  let db, wh = build () in
  let dir = fresh_dir name in
  Warehouse.attach wh ~dir;
  let rng = Workload.Prng.create 29 in
  for _ = 1 to 3 do
    Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:15);
    Warehouse.checkpoint wh
  done;
  Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:15);
  Warehouse.close wh;
  (db, dir, rng)

(* golden/snapshot-v5.bin is the warehouse of golden/schema.sql after
   golden/batch{1,2,3}.sql, every view [Minimal], written by the last
   build whose [Validator.t] was the version-5 payload's: the bytes of an
   old build, not a layout this build recreates. [dune runtest] copies
   golden/ beside the executable; a binary built alone (CI's one-core
   step) reads it from the source tree, three levels above
   _build/default/test. *)
let golden name =
  let exe_dir = Filename.dirname Sys.executable_name in
  let beside = Filename.concat exe_dir "golden" in
  let dir =
    if Sys.file_exists beside then beside
    else
      List.fold_left Filename.concat exe_dir
        [ ".."; ".."; ".."; "test"; "golden" ]
  in
  Filename.concat dir name

(* The source of golden/schema.sql after golden/batch{1,2,3}.sql, and its
   views. *)
let golden_source () =
  let db = Database.create () in
  let views =
    Sqlfront.Elaborate.views
      (Sqlfront.Elaborate.run_script db (read_file (golden "schema.sql")))
  in
  List.iter
    (fun i ->
      ignore
        (Sqlfront.Elaborate.run_script db
           (read_file (golden (Printf.sprintf "batch%d.sql" i)))))
    [ 1; 2; 3 ];
  (db, views)

(* The warehouse of golden/snapshot-v<n>.bin, checked against
   [golden_source]. *)
let load_golden name magic =
  let db, views = golden_source () in
  let path = golden name in
  Alcotest.(check string) "magic" magic (magic_of path);
  let wh = Warehouse.load path in
  Alcotest.(check int) "batch number" 3 (Warehouse.ingested_batches wh);
  Alcotest.check store_image_t "believed source" (store_image db)
    (store_image (Warehouse.believed_source wh));
  Alcotest.(check (list string)) "views"
    (List.map (fun (v : View.t) -> v.View.name) views)
    (List.map (fun (v : View.t) -> v.View.name) (Warehouse.views wh));
  List.iter
    (fun (v : View.t) ->
      Alcotest.check relation v.View.name (Algebra.Eval.eval db v)
        (snd (Warehouse.query wh v.View.name)))
    views;
  (path, wh)

let check_golden_v5 () = ignore (load_golden "snapshot-v5.bin" v5_magic)

(* golden/snapshot-v6.bin is the same warehouse checkpointed by the last
   build whose sections were staged whole, before they streamed, and
   whose FLOAT cells took 8 bytes each. *)
let check_golden_v6 () =
  ignore (load_golden "snapshot-v6.bin" "minview-warehouse-state/6\n")

(* golden/snapshot-v7.bin is the same warehouse checkpointed by the first
   build that wrote decimal FLOAT cells (make_golden.exe, then
   [minview recover --checkpoint]): a save of what it loads writes it
   again, byte for byte. *)
let check_golden_v7 () =
  let path, wh = load_golden "snapshot-v7.bin" "minview-warehouse-state/7\n" in
  let expected = read_file path
  and again = Filename.concat (Filename.get_temp_dir_name ()) "wh_golden_v7.bin" in
  Warehouse.save wh again;
  let saved = read_file again in
  Sys.remove again;
  Alcotest.(check int) "length" (String.length expected) (String.length saved);
  Alcotest.(check bool) "the same bytes" true (String.equal expected saved)

let v5_upgrade_tests =
  [
    test "the golden version-5 snapshot of an old build loads"
      check_golden_v5;
    test "a version-5 snapshot loads with its views and believed source"
      (fun () -> check_v5_load "wh_v5_upgrade.bin");
    test "recover replays a version-5 chain and checkpoints version 7"
      (fun () ->
        let db, dir, rng = chain_of "wh_v5_chain_dir" in
        rewrite_chain dir to_v5;
        let report = Warehouse.fsck ~dir in
        Alcotest.(check bool) "v5 chain verifies" true
          report.Warehouse.fsck_clean;
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "no committed batch lost" 4
          (Warehouse.ingested_batches wh');
        check_views wh' db;
        Warehouse.close wh';
        (* corrupt the (v5) newest snapshot: recovery must fall back to the
           v5 generation K-1 and replay its archived WAL segment *)
        let snap = Filename.concat dir "snapshot.bin" in
        flip_last_byte snap;
        let wh'' = Warehouse.recover ~dir in
        Alcotest.(check int) "generation K-1 replayed" 4
          (Warehouse.ingested_batches wh'');
        check_views wh'' db;
        (* the next checkpoint writes version 7, and it keeps running *)
        Warehouse.checkpoint wh'';
        Alcotest.(check string) "upgraded"
          "minview-warehouse-state/7\n" (magic_of snap);
        Warehouse.ingest wh'' (Workload.Delta_gen.stream rng db ~n:15);
        check_views wh'' db;
        Warehouse.close wh'';
        let wh3 = Warehouse.recover ~dir in
        check_views wh3 db;
        Warehouse.close wh3);
    test "the golden version-6 snapshot loads with its views and believed \
          source"
      check_golden_v6;
    test "the golden version-7 snapshot loads and saves to the same bytes"
      check_golden_v7;
  ]

(* A snapshot whose magic line says [version], with a whole version-6 body
   behind it: the version alone decides. *)
let as_version version path =
  let s = read_file path in
  write_file path
    (Printf.sprintf "minview-warehouse-state/%d\n" version
    ^ String.sub s snapshot_magic_len (String.length s - snapshot_magic_len))

let expect_refused version path =
  match Warehouse.load path with
  | exception Warehouse.Error { kind = Warehouse.Incompatible_state; detail }
    ->
    Alcotest.(check bool)
      ("names the version: " ^ detail)
      true
      (contains detail (Printf.sprintf "version-%d" version))
  | _ -> Alcotest.fail "expected Incompatible_state"

let refused_test version =
  test
    (Printf.sprintf "a version-%d snapshot is refused as incompatible" version)
    (fun () ->
      let path = tmp (Printf.sprintf "wh_v%d_refused.bin" version) in
      saved_snapshot path;
      as_version version path;
      expect_refused version path;
      Sys.remove path)

let v4_tests = [ refused_test 4 ]

let v3_tests =
  [
    refused_test 3;
    test "recover refuses a version-3 chain and leaves it as it was"
      (fun () ->
        let _db, dir, _rng = chain_of "wh_v3_chain_dir" in
        rewrite_chain dir (as_version 3);
        let report = Warehouse.fsck ~dir in
        Alcotest.(check bool) "unrecoverable" false
          report.Warehouse.fsck_recoverable;
        (match Warehouse.recover ~dir with
        | exception
            Warehouse.Error { kind = Warehouse.Incompatible_state; detail } ->
          Alcotest.(check bool) ("names the version: " ^ detail) true
            (contains detail "version-3")
        | wh ->
          Warehouse.close wh;
          Alcotest.fail "expected Incompatible_state");
        Alcotest.(check (list string)) "nothing quarantined" []
          (List.filter
             (fun f -> contains f ".quarantine")
             (Array.to_list (Sys.readdir dir)
             @ Array.to_list (Sys.readdir (Filename.concat dir "generations")))));
  ]

(* --- which WAL segments recovery reads --------------------------------------

   Recovery reads the archived segments from its chosen generation on and
   the live log, nothing older; the live log is scanned once and its writer
   opened from that scan. *)

let segment dir name = Filename.concat (Filename.concat dir "generations") name

(* Every [.quarantine] file under the state directory. *)
let quarantined dir =
  let names sub =
    match Sys.readdir sub with
    | entries ->
      List.filter
        (fun f -> Helpers.contains f ".quarantine")
        (Array.to_list entries)
    | exception Sys_error _ -> []
  in
  names dir @ names (Filename.concat dir "generations")

(* Three checkpoints deep, then one more batch in the live log: generations
   2 and 3 survive pruning, each with a one-batch WAL segment. *)
let chained name =
  let db, wh = build () in
  let dir = fresh_dir name in
  Warehouse.attach wh ~dir;
  let rng = Workload.Prng.create 41 in
  for _ = 1 to 3 do
    Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:20);
    Warehouse.checkpoint wh
  done;
  Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:20);
  Warehouse.close wh;
  let _, wals = generation_files dir in
  (db, dir, List.sort compare wals)

let segment_tests =
  [
    test "a damaged segment the live snapshot covers is never read"
      (fun () ->
        let db, dir, wals = chained "wh_seg_covered_dir" in
        let oldest = segment dir (List.hd wals) in
        flip_last_byte oldest;
        let flipped = read_file oldest in
        let fsck = Warehouse.fsck ~dir in
        Alcotest.(check bool) "fsck still reports it" false
          (List.for_all (fun e -> e.Warehouse.f_ok) fsck.Warehouse.fsck_entries);
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "no committed batch lost" 4
          (Warehouse.ingested_batches wh');
        check_views wh' db;
        Warehouse.close wh';
        Alcotest.(check bool) "the segment is byte-identical" true
          (String.equal flipped (read_file oldest));
        Alcotest.(check (list string)) "nothing quarantined" [] (quarantined dir));
    test "after a fallback to generation K, damage in segment K is refused"
      (fun () ->
        let _db, dir, wals = chained "wh_seg_needed_dir" in
        (* the live snapshot no longer verifies: recovery falls back to the
           newest generation, whose segment it now has to replay *)
        flip_last_byte (Filename.concat dir "snapshot.bin");
        flip_last_byte (segment dir (List.nth wals (List.length wals - 1)));
        match Warehouse.recover ~dir with
        | wh' ->
          Warehouse.close wh';
          Alcotest.fail "a needed damaged segment was accepted"
        | exception Warehouse.Error { kind = Warehouse.Corrupt_state; _ } -> ());
    test "a salvaged live log keeps appending on a record boundary"
      (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_seg_torn_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 43 in
        for _ = 1 to 2 do
          Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:20)
        done;
        Warehouse.close wh;
        let oc =
          open_out_gen
            [ Open_wronly; Open_append; Open_binary ]
            0o644
            (Filename.concat dir "wal.bin")
        in
        output_string oc "a frame that never finished";
        close_out oc;
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check (list string)) "the torn tail was quarantined"
          [ "wal.bin.quarantine" ] (quarantined dir);
        (* the writer opened from recovery's scan: these batches follow the
           salvaged prefix *)
        for _ = 1 to 2 do
          Warehouse.ingest wh' (Workload.Delta_gen.stream rng db ~n:20)
        done;
        let live =
          List.map
            (fun (v : View.t) -> snd (Warehouse.query wh' v.View.name))
            all_views
        in
        Warehouse.close wh';
        let wh'' = Warehouse.recover ~dir in
        Alcotest.(check int) "every batch replayed" 4
          (Warehouse.ingested_batches wh'');
        List.iter2
          (fun (v : View.t) rows ->
            Alcotest.check relation v.View.name rows
              (snd (Warehouse.query wh'' v.View.name)))
          all_views live;
        check_views wh'' db;
        Warehouse.close wh'');
  ]

(* --- checksums ------------------------------------------------------------ *)

(* The definition, one bit at a time: the oracle for the sliced tables. *)
let crc32_bitwise s =
  let crc = ref 0xffffffff in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 0 to 7 do
        crc :=
          if !crc land 1 = 1 then 0xedb88320 lxor (!crc lsr 1) else !crc lsr 1
      done)
    s;
  !crc lxor 0xffffffff

(* lengths [16k + r] for every residue [r], so each tail length of the
   eight-byte loop, and a whole step more, is exercised with and without
   whole steps before it *)
let prop_crc32_matches_bitwise =
  QCheck2.Test.make ~count:400 ~name:"CRC-32 == the bitwise definition"
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck2.Gen.(
      let* r = int_bound 15 and* k = int_bound 12 in
      string_size ~gen:char (return ((16 * k) + r)))
    (fun s -> Warehouse.Checksum.string s = crc32_bitwise s)

(* [combine] joins the CRCs of two pieces, whatever their lengths: an
   empty one, short ones, and a second piece long enough that its length
   has high bits set *)
let prop_crc32_combine =
  QCheck2.Test.make ~count:300 ~name:"Checksum.combine (crc a) (crc b) |b| = crc (a ^ b)"
    ~print:
      QCheck2.Print.(
        pair (Printf.sprintf "%S") (fun s ->
            Printf.sprintf "%d bytes" (String.length s)))
    QCheck2.Gen.(
      pair
        (string_size ~gen:char (int_bound 40))
        (let* n = oneof [ int_bound 40; int_range 65_000 140_000 ] in
         string_size ~gen:char (return n)))
    (fun (a, b) ->
      let c = Warehouse.Checksum.string in
      Warehouse.Checksum.combine (c a) (c b) (String.length b) = c (a ^ b))

let checksum_tests =
  [
    test "CRC-32 known answer" (fun () ->
        Alcotest.(check int) "123456789" 0xCBF43926
          (Warehouse.Checksum.string "123456789");
        Alcotest.(check int) "empty string" 0 (Warehouse.Checksum.string ""));
    QCheck_alcotest.to_alcotest prop_crc32_matches_bitwise;
    test "staged WAL frames are whole, checksummed records" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wal_frames" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 8 in
        let stream n = Workload.Delta_gen.stream rng db ~n in
        (* the second record is larger than the staging buffer, so it
           grows; the records after it reuse the grown buffer. Each batch
           is drawn after the one before it is ingested: drawn all at once
           (a list's elements are evaluated last first), the first batch
           would be the last drawn, and not valid before the others. *)
        List.iter (fun n -> Warehouse.ingest wh (stream n)) [ 3; 400; 2; 5 ];
        Warehouse.close wh;
        let ic = open_in_bin (Filename.concat dir "wal.bin") in
        let log = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let magic = "minview-wal/3\n" in
        Alcotest.(check string) "magic" magic
          (String.sub log 0 (String.length magic));
        (* every frame: its length, the CRC-32 of its payload, and a
           payload that decodes as one whole record of that length, whose
           re-encoding is the payload itself *)
        let rec frames at acc =
          if at = String.length log then List.rev acc
          else begin
            let len = Int32.to_int (String.get_int32_le log at) in
            let crc = Int32.to_int (String.get_int32_le log (at + 4)) land 0xFFFF_FFFF in
            let payload = String.sub log (at + 8) len in
            Alcotest.(check int) "frame checksum" (Warehouse.Checksum.string payload) crc;
            Alcotest.(check string) "one whole record" payload
              (Warehouse.Wal.encode (Warehouse.Wal.decode ~version:3 payload));
            frames (at + 8 + len) (len :: acc)
          end
        in
        let lens = frames (String.length magic) [] in
        Alcotest.(check int) "one frame per batch" 4 (List.length lens);
        Alcotest.(check bool) "a frame outgrew the staging buffer" true
          (List.exists (fun len -> len > 4096) lens);
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "replayed" 4 (Warehouse.ingested_batches wh');
        check_views wh' (Warehouse.believed_source wh');
        Warehouse.close wh';
        rm_rf dir);
    test "Checksum.sub is the CRC-32 of the range" (fun () ->
        let b = Bytes.of_string "xx123456789yy" in
        Alcotest.(check int) "range" 0xCBF43926 (Warehouse.Checksum.sub b 2 9);
        Alcotest.(check int) "empty range" 0 (Warehouse.Checksum.sub b 13 0));
    QCheck_alcotest.to_alcotest prop_crc32_combine;
  ]

(* --- replay failures ------------------------------------------------------ *)

let copy_file src dst =
  let bytes = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc bytes)

(* A replayed batch that fails is quarantined, never a reason for recovery
   itself to fail: the batch keeps its sequence number, its deltas land in
   the dead-letter queue as engine failures, and the views stay at the
   state before it. *)
let replay_failure_tests =
  [
    test "a replayed batch the snapshot already holds is quarantined"
      (fun () ->
        let dir = fresh_dir "wh_replay_reject_dir" in
        let foreign_dir = fresh_dir "wh_replay_reject_foreign" in
        let new_store =
          row [ i 99; s "99 Main St"; s "city0"; s "DK"; s "manager0" ]
        in
        let _db, wh = build () in
        Warehouse.attach wh ~dir;
        Warehouse.ingest wh [ Delta.insert "store" new_store ];
        Warehouse.close wh;
        (* a snapshot taken by a warehouse whose source already holds the
           row the WAL inserts *)
        let foreign = Workload.Retail.load tiny in
        Database.insert foreign "store" new_store;
        let other = build_on foreign in
        Warehouse.attach other ~dir:foreign_dir;
        Warehouse.close other;
        copy_file
          (Filename.concat foreign_dir "snapshot.bin")
          (Filename.concat dir "snapshot.bin");
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "the batch keeps its number" 1
          (Warehouse.ingested_batches wh');
        (match Warehouse.dead_letters wh' with
        | [ r ] ->
          Alcotest.check reason_eq "reason" Delta.Engine_failure r.Delta.reason;
          Alcotest.(check bool)
            ("detail: " ^ r.Delta.detail)
            true
            (String.starts_with ~prefix:"replay validation failed: key"
               r.Delta.detail
            && contains r.Delta.detail "already present in store")
        | l -> Alcotest.failf "%d dead letters" (List.length l));
        check_views wh' foreign;
        (* the validator transaction was closed: ingestion goes on *)
        let batch = sale_inserts tiny ~first:9_000_000 4 in
        let r = Warehouse.ingest_report wh' batch in
        Alcotest.(check int) "the next batch commits" 4 r.Warehouse.applied;
        Alcotest.(check int) "as batch 2" 2 r.Warehouse.batch;
        List.iter (Database.apply foreign) batch;
        check_views wh' foreign;
        Warehouse.close wh';
        rm_rf dir;
        rm_rf foreign_dir);
    test "an engine failure during replay quarantines the batch" (fun () ->
        let dir = fresh_dir "wh_replay_engine_dir" in
        let db, wh = build () in
        Warehouse.attach wh ~dir;
        Warehouse.ingest wh (sale_inserts tiny ~first:9_000_000 4);
        Warehouse.close wh;
        Faults.arm ~mode:Faults.Fail Faults.Mid_engine_apply;
        let wh' = Fun.protect ~finally:Faults.disarm (fun () ->
            Warehouse.recover ~dir)
        in
        Alcotest.(check int) "the batch keeps its number" 1
          (Warehouse.ingested_batches wh');
        let letters = Warehouse.dead_letters wh' in
        Alcotest.(check int) "the whole batch" 4 (List.length letters);
        List.iter
          (fun r ->
            Alcotest.check reason_eq "reason" Delta.Engine_failure
              r.Delta.reason;
            Alcotest.(check string) "detail"
              "injected fault at mid-engine-apply" r.Delta.detail)
          letters;
        (* the view that absorbed the batch before the fault was rolled
           back: no group keeps any of it *)
        check_views wh' db;
        Alcotest.(check (list (pair string bool)))
          "audit"
          (List.map (fun v -> (v.View.name, true)) all_views)
          (Warehouse.audit wh' ~reference:db);
        Warehouse.close wh';
        rm_rf dir);
  ]

(* --- engines built at once ------------------------------------------------

   Load and recovery build every view's engine through
   [Shard.fan_out]: one domain per core, each build reading the one shared
   shadow. Whatever the number of domains, the engines are the serial
   loop's, and a failed build raises what the serial loop raised first. *)

module Engines = Maintenance.Engines
module Shard = Maintenance.Shard

let engine_of db strategy view =
  match strategy with
  | Warehouse.Minimal -> Engines.minimal db view
  | Warehouse.Psj -> Engines.psj db view
  | Warehouse.Replicate -> Engines.recompute db view

let prop_fan_out_builds_serial_engines =
  QCheck2.Test.make ~count:20
    ~name:"engines built on 1, 2 and more domains than views == serial"
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 4))
    (fun (seed, nviews) ->
      let rng = Workload.Prng.create seed in
      let inst = Workload.Schema_gen.random rng in
      let db = inst.Workload.Schema_gen.db in
      let specs =
        Array.init nviews (fun k ->
            ( { (Workload.Schema_gen.random_view rng inst) with
                View.name = Printf.sprintf "v%d" k },
              Workload.Prng.pick rng
                [ Warehouse.Minimal; Warehouse.Psj; Warehouse.Replicate ] ))
      in
      let build i =
        let view, strategy = specs.(i) in
        engine_of db strategy view
      in
      let serial = Array.init nviews build in
      let check what ok = ok || QCheck2.Test.fail_reportf "%s differs" what in
      List.for_all
        (fun domains ->
          let built = Shard.fan_out ~domains nviews build in
          check
            (Printf.sprintf "state on %d domain(s)" domains)
            (Array.for_all2 Engines.equal_state serial built)
          && check
               (Printf.sprintf "rows on %d domain(s)" domains)
               (Array.for_all2
                  (fun a b -> Engines.publish a = Engines.publish b)
                  serial built))
        [ 1; 2; nviews + 3 ]
      &&
      (* and through the warehouse: a load serves what registration served *)
      let wh = Warehouse.create db in
      Array.iter
        (fun (view, strategy) -> Warehouse.add_view ~strategy wh view)
        specs;
      let path = tmp (Printf.sprintf "wh_fan_out_%d.bin" seed) in
      Warehouse.save wh path;
      let wh' = Warehouse.load path in
      Sys.remove path;
      check "query_sorted after load"
        (Array.for_all
           (fun ((v : View.t), _) ->
             Warehouse.query_sorted wh v.View.name
             = Warehouse.query_sorted wh' v.View.name)
           specs))

exception Task of int

(* Rewrite the catalog of the snapshot at [path] so that its views are
   [views] (newest first, as the catalog keeps them). *)
let rewrite_views path views =
  rewrite_section path "catalog" (fun sec ->
      let body = sec.sec_body in
      let seq, p = read_varint body 0 in
      let blob_len, p = read_varint body p in
      let rest = String.sub body (p + blob_len) (String.length body - p - blob_len) in
      let b = Buffer.create (String.length body) in
      add_varint b seq;
      let blob = Marshal.to_string (views : (View.t * Warehouse.strategy) list) [] in
      add_varint b (String.length blob);
      Buffer.add_string b blob;
      Buffer.add_string b rest;
      { sec with sec_body = Buffer.contents b })

(* a view no shadow can build: it names a table the store lacks *)
let unbuildable (v : View.t) = { v with View.tables = v.View.tables @ [ "no_such_table" ] }

let fan_out_tests =
  [
    QCheck_alcotest.to_alcotest prop_fan_out_builds_serial_engines;
    test "fan_out joins every worker, then raises the lowest failing task"
      (fun () ->
        List.iter
          (fun domains ->
            let started = Atomic.make 0 and finished = Atomic.make 0 in
            let task i =
              Atomic.incr started;
              Unix.sleepf 0.01;
              Atomic.incr finished;
              if i = 1 || i = 3 then raise (Task i);
              i
            in
            (match Shard.fan_out ~domains 6 task with
            | _ -> Alcotest.fail "expected Task 1"
            | exception Task k ->
              Alcotest.(check int)
                (Printf.sprintf "lowest failing task, %d domain(s)" domains)
                1 k);
            Alcotest.(check int)
              (Printf.sprintf "every started task finished, %d domain(s)" domains)
              (Atomic.get started) (Atomic.get finished);
            Alcotest.(check (array int))
              "results in task order" [| 0; 1; 2 |]
              (Shard.fan_out ~domains 3 Fun.id))
          [ 1; 2; 4 ]);
    test "a view that fails to build fails load as the serial loop did"
      (fun () ->
        let dir = fresh_dir "wh_unbuildable_dir" in
        let db, wh = build () in
        Warehouse.attach wh ~dir;
        Warehouse.ingest wh
          (Workload.Delta_gen.stream (Workload.Prng.create 9) db ~n:20);
        Warehouse.checkpoint wh;
        Warehouse.close wh;
        let snap = Filename.concat dir "snapshot.bin" in
        (* registered first to last: product_sales, monthly_revenue,
           sales_by_time; the second one breaks *)
        let bad = unbuildable Workload.Retail.monthly_revenue in
        rewrite_views snap
          [ (Workload.Retail.sales_by_time, Warehouse.Replicate);
            (bad, Warehouse.Psj);
            (Workload.Retail.product_sales, Warehouse.Minimal) ];
        let serial =
          match engine_of (Warehouse.believed_source wh) Warehouse.Psj bad with
          | _ -> Alcotest.fail "the broken view built"
          | exception e -> Printexc.to_string e
        in
        let raised f =
          match f () with
          | _ -> Alcotest.fail "expected the build failure"
          | exception e -> Printexc.to_string e
        in
        Alcotest.(check string) "load" serial
          (raised (fun () -> Warehouse.load snap));
        let files () =
          let snaps, wals = generation_files dir in
          List.sort compare (snaps @ wals)
        in
        let before = files () in
        Alcotest.(check string) "recover" serial
          (raised (fun () -> Warehouse.recover ~dir));
        Alcotest.(check bool) "snapshot left in place" true
          (Sys.file_exists snap);
        Alcotest.(check (list string)) "no quarantine, no fallback" before
          (files ());
        Alcotest.(check (list string)) "nothing quarantined" []
          (List.filter
             (fun f -> contains f "quarantine")
             (Array.to_list (Sys.readdir dir)));
        rm_rf dir);
    test "recovery traces decode, build, replay and publish" (fun () ->
        let dir = fresh_dir "wh_recover_spans_dir" in
        let db, wh = build () in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 12 in
        Warehouse.checkpoint wh;
        for _ = 1 to 3 do
          Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:10)
        done;
        Warehouse.close wh;
        Telemetry.Trace.clear ();
        let wh' = Warehouse.recover ~dir in
        Warehouse.close wh';
        let spans = Telemetry.Trace.recent () in
        let named name =
          match
            List.filter
              (fun (sp : Telemetry.Trace.span) -> String.equal sp.name name)
              spans
          with
          | [ sp ] -> sp
          | l -> Alcotest.failf "%d %s span(s)" (List.length l) name
        in
        let outer = named "warehouse.recover" in
        let parts =
          List.map named
            [ "warehouse.recover.decode"; "warehouse.recover.build";
              "warehouse.recover.replay"; "warehouse.recover.publish" ]
        in
        Alcotest.(check bool) "the parts fit in the recovery" true
          (List.fold_left
             (fun acc (sp : Telemetry.Trace.span) -> acc +. sp.dur_s)
             0. parts
          <= outer.dur_s);
        let attr name key =
          List.assoc key (named name).Telemetry.Trace.attrs
        in
        Alcotest.(check string) "views" "3" (attr "warehouse.recover.build" "views");
        (* one domain per core, never more than there are views: under a
           one-CPU affinity the build runs inline and spawns no domain *)
        Alcotest.(check string) "domains"
          (string_of_int (min 3 (Domain.recommended_domain_count ())))
          (attr "warehouse.recover.build" "domains");
        Alcotest.(check string) "batches" "3"
          (attr "warehouse.recover.replay" "batches");
        rm_rf dir);
  ]

(* --- typed WAL frames ------------------------------------------------------- *)

module Wal = Warehouse.Wal

(* Cells compared by their encoding: floats by their bits, so [-0.0] and
   NaN payloads must survive. *)
let same_cell a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let same_row a b = Array.length a = Array.length b && Array.for_all2 same_cell a b

let same_delta (a : Delta.t) (b : Delta.t) =
  String.equal a.table b.table
  &&
  match (a.change, b.change) with
  | Delta.Insert x, Delta.Insert y | Delta.Delete x, Delta.Delete y ->
    same_row x y
  | Delta.Update u, Delta.Update v ->
    same_row u.before v.before && same_row u.after v.after
  | _ -> false

let same_record a b =
  match (a, b) with
  | Wal.Batch x, Wal.Batch y ->
    x.seq = y.seq
    && List.length x.deltas = List.length y.deltas
    && List.for_all2 same_delta x.deltas y.deltas
  | Wal.Abort x, Wal.Abort y -> x.seq = y.seq
  | _ -> false

let same_records a b = List.length a = List.length b && List.for_all2 same_record a b

let float_cells =
  [ 0.; -0.; nan; Int64.float_of_bits 0x7FF0_0000_0000_0001L;
    Int64.float_of_bits 0xFFF8_0000_0000_0ABCL; infinity; neg_infinity;
    4.9e-324; 1e300; 0.25 ]

let string_cells = [ ""; "x"; "\xc3\xa9t\xc3\xa9"; "\xe6\x97\xa5\xe6\x9c\xac"; "\000"; "a longer label" ]

let random_cell rng = function
  | Datatype.TInt ->
    Value.Int
      (Workload.Prng.pick rng
         [ min_int; max_int; 0; -1; 1; 4095; 4096; Workload.Prng.int rng 1_000_000 ])
  | Datatype.TFloat ->
    Value.Float
      (if Workload.Prng.chance rng 0.3 then
         float_of_int (Workload.Prng.int rng 1000) /. 8.
       else Workload.Prng.pick rng float_cells)
  | Datatype.TString -> Value.String (Workload.Prng.pick rng string_cells)
  | Datatype.TBool -> Value.Bool (Workload.Prng.chance rng 0.5)

(* The tables of a [Schema_gen] instance as (name, column types). It draws
   no FLOAT attribute, so every table gets a FLOAT column at the end, and a
   table with a non-ASCII name holds one column of each type. *)
let random_tables rng =
  let inst = Workload.Schema_gen.random rng in
  let db = inst.Workload.Schema_gen.db in
  ("r\xc3\xa9sum\xc3\xa9", [| Datatype.TInt; Datatype.TFloat; Datatype.TString; Datatype.TBool |])
  :: List.map
       (fun name ->
         let schema = Database.schema_of db name in
         ( name,
           Array.append
             (Array.map (fun c -> c.Schema.col_type) schema.Schema.columns)
             [| Datatype.TFloat |] ))
       inst.Workload.Schema_gen.all_tables

(* An update changes a random subset of its columns, the key included. *)
let random_delta rng tables =
  let table, types = Workload.Prng.pick rng tables in
  let row () = Array.map (random_cell rng) types in
  match Workload.Prng.int rng 3 with
  | 0 -> Delta.insert table (row ())
  | 1 -> Delta.delete table (row ())
  | _ ->
    let before = row () in
    let after =
      Array.mapi
        (fun i v -> if Workload.Prng.chance rng 0.4 then random_cell rng types.(i) else v)
        before
    in
    Delta.update table ~before ~after

let random_records seed =
  let rng = Workload.Prng.create seed in
  let tables = random_tables rng in
  List.init (1 + Workload.Prng.int rng 4) (fun k ->
      let seq = if Workload.Prng.chance rng 0.1 then max_int - k else k + 1 in
      if Workload.Prng.chance rng 0.2 then Wal.Abort { seq }
      else
        Wal.Batch
          { seq; deltas = List.init (Workload.Prng.int rng 24) (fun _ -> random_delta rng tables) })

(* The after-image's unchanged cells are the before-image's boxes. *)
let shares_unchanged = function
  | Wal.Abort _ -> true
  | Wal.Batch { deltas; _ } ->
    List.for_all
      (fun (d : Delta.t) ->
        match d.change with
        | Delta.Update { before; after } ->
          Array.for_all2 (fun b a -> (not (same_cell b a)) || b == a) before after
        | Delta.Insert _ | Delta.Delete _ -> true)
      deltas

let print_records seed =
  Printf.sprintf "seed %d: %s" seed
    (String.concat "; "
       (List.map
          (function
            | Wal.Abort { seq } -> Printf.sprintf "abort %d" seq
            | Wal.Batch { seq; deltas } ->
              Printf.sprintf "batch %d [%s]" seq
                (String.concat ", " (List.map (Format.asprintf "%a" Delta.pp) deltas)))
          (random_records seed)))

let write_v1 path records =
  let oc = open_out_bin path in
  output_string oc "minview-wal/1\n";
  List.iter
    (fun (r : Wal.record) ->
      let payload = Marshal.to_string r [] in
      let header = Bytes.create 8 in
      Bytes.set_int32_le header 0 (Int32.of_int (String.length payload));
      Bytes.set_int32_le header 4
        (Int32.of_int (Warehouse.Checksum.string payload));
      output_bytes oc header;
      output_string oc payload)
    records;
  close_out oc

let prop_wal_round_trip =
  QCheck2.Test.make ~count:200
    ~name:"typed WAL frame: decode (encode r) == r, through a log file too"
    ~print:print_records QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let records = random_records seed in
      let check what ok = ok || QCheck2.Test.fail_reportf "%s" what in
      let decoded = List.map (fun r -> Wal.decode ~version:3 (Wal.encode r)) records in
      let path = tmp "wal_round_trip.bin" in
      let w = Wal.create path in
      List.iter (Wal.append w) records;
      Wal.close w;
      let s = Wal.scan path in
      Sys.remove path;
      check "payload round trip" (same_records records decoded)
      && check "unchanged cells shared" (List.for_all shares_unchanged decoded)
      && check "scan of the written log"
           (s.Wal.s_version = 3 && s.Wal.s_damage = None
           && same_records records s.Wal.s_records))

let prop_wal_v1_same_record =
  QCheck2.Test.make ~count:100
    ~name:"a version-1 frame of the same batch decodes to the same record"
    ~print:print_records QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let records = random_records seed in
      let check what ok = ok || QCheck2.Test.fail_reportf "%s" what in
      let path = tmp "wal_v1_frames.bin" in
      write_v1 path records;
      let v1 = Wal.scan path in
      (* opening it for appending rewrites it in the current format *)
      Wal.close (Wal.open_append path);
      let v3 = Wal.scan path in
      Sys.remove path;
      check "payloads"
        (List.for_all
           (fun r -> same_record r (Wal.decode ~version:1 (Marshal.to_string r [])))
           records)
      && check "version-1 scan" (v1.Wal.s_version = 1 && same_records records v1.Wal.s_records)
      && check "rewritten as version 3"
           (v3.Wal.s_version = 3 && v3.Wal.s_damage = None
           && same_records records v3.Wal.s_records))

let wal_format_tests =
  [
    QCheck_alcotest.to_alcotest prop_wal_round_trip;
    QCheck_alcotest.to_alcotest prop_wal_v1_same_record;
    test "an unencodable batch is refused before any byte is written"
      (fun () ->
        let path = tmp "wal_unencodable.bin" in
        let w = Wal.create path in
        let good = Wal.Batch { seq = 1; deltas = [ Delta.insert "t" [| i 1; s "a" |] ] } in
        Wal.append w good;
        let length () = (Unix.stat path).Unix.st_size in
        let before = length () in
        List.iter
          (fun (what, deltas) ->
            match Wal.append w (Wal.Batch { seq = 2; deltas }) with
            | () -> Alcotest.failf "%s was logged" what
            | exception Wal.Unencodable _ ->
              Alcotest.(check int) (what ^ ": log untouched") before (length ()))
          [
            ("a NULL cell", [ Delta.insert "t" [| i 2; Value.Null |] ]);
            ( "a mistyped cell",
              [ Delta.insert "t" [| i 2; s "b" |]; Delta.insert "t" [| i 3; i 4 |] ] );
            ( "a short row",
              [ Delta.insert "t" [| i 2; s "b" |]; Delta.delete "t" [| i 3 |] ] );
            ( "a long after-image",
              [ Delta.update "t" ~before:[| i 2; s "b" |] ~after:[| i 2; s "b"; s "c" |] ] );
          ];
        (* the log is intact: the next batch appends on a record boundary *)
        Wal.append w (Wal.Abort { seq = 2 });
        Wal.close w;
        let s = Wal.scan path in
        Sys.remove path;
        Alcotest.(check bool) "both records, nothing else" true
          (s.Wal.s_damage = None
          && same_records [ good; Wal.Abort { seq = 2 } ] s.Wal.s_records));
    test "the golden version-2 log replays and is rewritten as version 3"
      (fun () ->
        let db, views = golden_source () in
        let dir = fresh_dir "wh_golden_wal_v2" in
        Sys.mkdir dir 0o755;
        List.iter
          (fun f ->
            write_file (Filename.concat dir f)
              (read_file (golden (Filename.concat "wal-v2" f))))
          [ "snapshot.bin"; "wal.bin" ];
        let wal = Filename.concat dir "wal.bin" in
        let logged = Wal.scan wal in
        Alcotest.(check int) "a version-2 log" 2 logged.Wal.s_version;
        let wh = Warehouse.recover ~dir in
        Alcotest.(check int) "every batch replayed" 3
          (Warehouse.ingested_batches wh);
        List.iter
          (fun (v : View.t) ->
            Alcotest.check relation v.View.name (Algebra.Eval.eval db v)
              (snd (Warehouse.query wh v.View.name)))
          views;
        Warehouse.close wh;
        let s = Wal.scan wal in
        Alcotest.(check int) "rewritten as version 3" 3 s.Wal.s_version;
        Alcotest.(check bool) "with the same records" true
          (s.Wal.s_damage = None
          && same_records logged.Wal.s_records s.Wal.s_records));
    test "a version-1 live log recovers and is rewritten before the next append"
      (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_wal_v1_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 47 in
        for _ = 1 to 3 do
          Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:25)
        done;
        Warehouse.close wh;
        (* the same log as the previous format wrote it *)
        let wal = Filename.concat dir "wal.bin" in
        let logged = (Wal.scan wal).Wal.s_records in
        write_v1 wal logged;
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "every batch replayed" 3 (Warehouse.ingested_batches wh');
        check_views wh' db;
        let s = Wal.scan wal in
        Alcotest.(check int) "rewritten as version 3" 3 s.Wal.s_version;
        Alcotest.(check bool) "with the same records" true
          (same_records logged s.Wal.s_records);
        Warehouse.ingest wh' (Workload.Delta_gen.stream rng db ~n:25);
        Warehouse.close wh';
        let s = Wal.scan wal in
        Alcotest.(check bool) "the next batch follows them" true
          (s.Wal.s_version = 3 && s.Wal.s_damage = None
          && List.length s.Wal.s_records = 4);
        let wh'' = Warehouse.recover ~dir in
        Alcotest.(check int) "four batches" 4 (Warehouse.ingested_batches wh'');
        check_views wh'' db;
        Warehouse.close wh'');
  ]

let () =
  Alcotest.run "recovery"
    [
      ("checksum", checksum_tests);
      ("wal-format", wal_format_tests);
      ("parallel-build", fan_out_tests);
      ("crash-points", crash_tests); ("durability", durability_tests);
      ("generation-chain", chain_tests);
      ("replay-failures", replay_failure_tests);
      ("wal-segments", segment_tests);
      ("snapshot-corruption", corruption_tests);
      ("snapshot-sections", section_tests);
      ("v3-compat", v3_tests); ("v4-compat", v4_tests);
      ("v5-upgrade", v5_upgrade_tests);
    ]
