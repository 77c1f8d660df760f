(* The chaos harness: a randomized crash-site x corruption-kind x seed
   sweep over the self-healing storage stack. Every iteration crashes a
   batched ingestion run at an armed fault point, or takes a crash state
   inside a checkpoint or a WAL append from the run's trace of durable
   operations ([Crash_model]), optionally damages the
   state directory the way real hardware would (torn tail, snapshot rot at
   its end or inside one of its sections, mid-WAL bit flip), recovers —
   through [Warehouse.repair] when recovery refuses — resumes the stream,
   and cross-checks the result against a serial no-fault oracle
   (from-scratch view evaluation over the evolved source) plus
   lineage-file/WAL-sequence agreement.

   Plus directed tests for an engine failure on the netted path, a failed
   WAL write or barrier (never retried: the log is replaced, or ingestion
   stops until a checkpoint), the dead-letter queue, and a TELEMETRY=off
   regression sweep. *)

open Helpers
module Faults = Maintenance.Faults
module Durable = Warehouse.Durable

let test case fn = Alcotest.test_case case `Quick fn

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* state directories now contain generations/ — clean recursively, so a
   previous run's archived segments cannot leak into this one *)
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
    Workload.Retail.days = 6;
    stores = 2;
    products = 10;
    sold_per_store_day = 3;
    tx_per_product = 2;
    brands = 3;
    seed = 29;
  }

let all_views =
  [ Workload.Retail.product_sales; Workload.Retail.monthly_revenue;
    Workload.Retail.sales_by_time ]

let build () =
  let db = Workload.Retail.load tiny in
  let wh = Warehouse.create db in
  Warehouse.add_view wh Workload.Retail.product_sales;
  Warehouse.add_view ~strategy:Warehouse.Psj wh Workload.Retail.monthly_revenue;
  Warehouse.add_view ~strategy:Warehouse.Replicate wh
    Workload.Retail.sales_by_time;
  (db, wh)

let check_views ?(what = "") wh db =
  List.iter
    (fun v ->
      Alcotest.check relation (v.View.name ^ what) (Algebra.Eval.eval db v)
        (snd (Warehouse.query wh v.View.name)))
    all_views

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let flip_byte path offset =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s offset (Char.chr (Char.code (Bytes.get s offset) lxor 0x55));
  write_file path (Bytes.to_string s)

let append_garbage path =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
  in
  output_string oc "torn frame that never finished hitting the disk";
  close_out oc

(* highest committed transaction recorded in the lineage sink; every
   committed batch leaves one line keyed by its WAL sequence number *)
let max_lineage_txn dir =
  let path = Filename.concat dir "lineage.jsonl" in
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in path in
    let best = ref 0 in
    (try
       while true do
         match Scanf.sscanf_opt (input_line ic) "{\"txn\":%d" Fun.id with
         | Some n -> if n > !best then best := n
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    !best
  end

(* --- the chaos property -------------------------------------------------- *)

(* What the iteration does to the state directory after the crash, before
   recovery — the damage a real deployment could find on disk. *)
type corruption = Clean | Torn_tail | Flip_snapshot | Flip_section | Flip_wal

let corruption_label = function
  | Clean -> "clean"
  | Torn_tail -> "torn-tail"
  | Flip_snapshot -> "flip-snapshot"
  | Flip_section -> "flip-section"
  | Flip_wal -> "flip-wal"

let wal_header_len = String.length "minview-wal/3\n"

let has_generation_snapshot dir =
  let gdir = Filename.concat dir "generations" in
  match Sys.readdir gdir with
  | entries ->
    Array.exists (fun f -> String.starts_with ~prefix:"snapshot-" f) entries
  | exception Sys_error _ -> false

let chaos_seeds = [ 101; 102; 103; 104; 105; 106; 107 ]

(* Apply [kind] if its precondition holds (e.g. a snapshot flip without an
   older generation to fall back to would be unrecoverable by design);
   returns the corruption actually inflicted. [Flip_section] flips one
   byte of a section of kind [k mod n] of the [n] in
   [Warehouse.Snapshot.kinds] on the [k]-th seed (from 0), so the seven
   seeds of the sweep reach every kind while there are at most seven. *)
let corrupt dir kind ~k =
  let wal = Filename.concat dir "wal.bin" in
  let snap = Filename.concat dir "snapshot.bin" in
  match kind with
  | Clean -> Clean
  | Torn_tail ->
    if Sys.file_exists wal then begin
      append_garbage wal;
      Torn_tail
    end
    else Clean
  | Flip_snapshot ->
    if Sys.file_exists snap && has_generation_snapshot dir then begin
      let len = String.length (read_file snap) in
      flip_byte snap (len - 1);
      Flip_snapshot
    end
    else Clean
  | Flip_section ->
    if Sys.file_exists snap && has_generation_snapshot dir then begin
      let kinds = Warehouse.Snapshot.kinds in
      let nk = List.length kinds in
      if nk > List.length chaos_seeds then
        Alcotest.failf "%d section kinds, fewer seeds" nk;
      let sections = snapshot_sections (read_file snap) in
      Alcotest.(check (list int))
        "the snapshot holds a section of every kind, and no other"
        (List.sort compare kinds)
        (List.sort_uniq compare (List.map (fun sec -> sec.sec_kind) sections));
      let of_kind =
        List.filter (fun sec -> sec.sec_kind = List.nth kinds (k mod nk)) sections
      in
      let sec = List.nth of_kind (k / nk mod List.length of_kind) in
      flip_byte snap (sec.sec_off + (131 * (k + 1) mod sec.sec_len));
      Flip_section
    end
    else Clean
  | Flip_wal ->
    let len = if Sys.file_exists wal then String.length (read_file wal) else 0 in
    if len > wal_header_len + 8 then begin
      flip_byte wal (wal_header_len + ((len - wal_header_len) / 2));
      Flip_wal
    end
    else Clean

(* Recovery under damage: [recover] either succeeds directly (clean state,
   auto-salvaged torn tail, generation-chain fallback) or refuses with
   [Corrupt_state] when damage may hide committed batches — then [repair]
   must quarantine the damage and a second [recover] must succeed. *)
let robust_recover dir =
  match Warehouse.recover ~dir with
  | wh -> wh
  | exception Warehouse.Error { kind = Warehouse.Corrupt_state; _ } ->
    let r = Warehouse.repair ~dir in
    Alcotest.(check bool) "repair leaves a recoverable directory" true
      r.Warehouse.repair_recoverable;
    Alcotest.(check bool) "repair quarantined something" true
      (r.Warehouse.repair_actions <> []);
    Warehouse.recover ~dir

let total_batches = 8

(* One chaos iteration. [done_before_crash] counts the ingest calls that
   returned: those batches are acknowledged-committed, and only a mid-WAL
   bit flip (damage [repair] explicitly accepts losing data to) may lose
   them. *)
let chaos_iteration site kind seed =
  let label = Crash_model.site_label site in
  let ctx =
    Printf.sprintf " [%s/%s/seed %d]" label (corruption_label kind) seed
  in
  let db, wh = build () in
  let root =
    fresh_dir
      (Printf.sprintf "wh_chaos_%s_%s_%d" label (corruption_label kind) seed)
  in
  Sys.mkdir root 0o755;
  let dir = Filename.concat root "state" in
  let rng = Workload.Prng.create seed in
  (* generated up front: the stream evolves db to its final state, which is
     the serial no-fault oracle the recovered warehouse must reach *)
  let batches =
    List.init total_batches (fun _ -> Workload.Delta_gen.stream rng db ~n:10)
  in
  (* the third batch's append or commit, or the checkpoint that follows
     it *)
  let done_before_crash =
    Crash_model.crash ~root
      ~attach:(fun dir -> Warehouse.attach wh ~dir)
      ~ingest:(ingest_checkpointing ~every:3 wh)
      batches ~batch:3 site ~seed
  in
  Warehouse.close wh;
  let inflicted = corrupt dir kind ~k:(seed - List.hd chaos_seeds) in
  let wh' = robust_recover dir in
  (match inflicted with
  | Flip_snapshot | Flip_section ->
    Alcotest.(check bool)
      ("the damaged snapshot was set aside" ^ ctx)
      true
      (Sys.file_exists (Filename.concat dir "snapshot.bin.quarantine"))
  | Clean | Torn_tail | Flip_wal -> ());
  let already = Warehouse.ingested_batches wh' in
  Alcotest.(check bool)
    ("recovery never invents batches" ^ ctx)
    true
    (already <= total_batches);
  (* the loss invariant: every acknowledged batch survives any crash and any
     damage except a mid-stream WAL flip, where repair explicitly accepts
     losing the records behind the flipped byte (still only a suffix: frames
     cannot resync past damage, so the survivors are a prefix) *)
  (match inflicted with
  | Clean | Torn_tail | Flip_snapshot | Flip_section ->
    Alcotest.(check bool)
      ("no committed batch lost" ^ ctx)
      true
      (already >= done_before_crash)
  | Flip_wal -> ());
  (* resume the stream where the recovered warehouse says it stands; the
     result must be indistinguishable from a run that never crashed *)
  List.iteri
    (fun idx batch -> if idx >= already then Warehouse.ingest wh' batch)
    batches;
  Alcotest.(check int)
    ("resume reaches the full stream" ^ ctx)
    total_batches
    (Warehouse.ingested_batches wh');
  check_views ~what:ctx wh' db;
  (* lineage / WAL-sequence agreement: the newest lineage record carries the
     final WAL sequence number *)
  Alcotest.(check int)
    ("lineage agrees with the WAL sequence" ^ ctx)
    total_batches (max_lineage_txn dir);
  Warehouse.close wh';
  rm_rf root

let chaos_tests =
  let kinds = [ Clean; Torn_tail; Flip_snapshot; Flip_section; Flip_wal ] in
  (* 8 sites x 5 corruption kinds x 7 seeds = 280 iterations *)
  List.concat_map
    (fun site ->
      List.map
        (fun kind ->
          test
            (Printf.sprintf "crash at %s + %s damage (7 seeds)"
               (Crash_model.site_label site) (corruption_label kind))
            (fun () -> List.iter (chaos_iteration site kind) chaos_seeds))
        kinds)
    Crash_model.serial_sites

(* --- an engine failure on the netted path -------------------------------- *)

(* Batch [k] of 512 distinct sale inserts. *)
let sale_batch k = sale_inserts tiny ~first:(3_000_000 + (k * 512)) 512

let engine_failure_tests =
  [
    test "an engine failure on the netted path aborts the batch" (fun () ->
        let _db, wh = build () in
        let contents v = snd (Warehouse.query wh v.View.name) in
        let views0 = List.map contents all_views in
        let source0 = store_image (Warehouse.believed_source wh) in
        (* the fault strikes after the first view applied the batch: the
           batch must abort whole *)
        Faults.arm ~mode:Faults.Fail Faults.Mid_engine_apply;
        let r =
          Fun.protect ~finally:Faults.disarm (fun () ->
              Warehouse.ingest_report wh (sale_batch 0))
        in
        Alcotest.(check int) "the batch aborts" 0 r.Warehouse.applied;
        Alcotest.(check int)
          "every delta is quarantined as an engine failure" 512
          (List.length
             (List.filter
                (fun rj -> rj.Delta.reason = Delta.Engine_failure)
                r.Warehouse.rejected));
        List.iter2
          (fun v before ->
            Alcotest.check relation ("unchanged " ^ v.View.name) before
              (contents v))
          all_views views0;
        Alcotest.check store_image_t "the believed source is unchanged" source0
          (store_image (Warehouse.believed_source wh));
        (* and the next batch commits on the same path *)
        Warehouse.ingest wh (sale_batch 1);
        check_views wh (Warehouse.believed_source wh));
  ]

(* --- a failed WAL write or barrier: never retried ---------------------------
   The first failed write or fsync of the log aborts the batch and replaces
   the log. *)

let expect_io_error what f =
  match f () with
  | () -> Alcotest.fail (what ^ ": expected Io_error")
  | exception Warehouse.Error { kind = Warehouse.Io_error; detail } -> detail

let sale_rows db = Database.row_count db "sale"

(* [failing_barrier f] runs [f] with the WAL barrier failing as an [EIO]
   would; [torn_write f] fails the log's frame write after half of the
   frame reached the file. *)
let failing_barrier f =
  Faults.arm ~mode:Faults.Fail Faults.Wal_fsync;
  Fun.protect ~finally:Faults.disarm f

let torn_write f =
  Crash_model.with_hook
    (function
      | Durable.Write { path; bytes } ->
        Out_channel.with_open_gen
          [ Open_wronly; Open_append; Open_binary ]
          0o644 path
          (fun oc ->
            output_string oc (String.sub bytes 0 (String.length bytes / 2)));
        Crash_model.eio ()
      | _ -> ())
    f

(* A failed batch stays failed in the archived log: with batch 2 failed by
   [failing] and the live snapshot unverifiable, recovery falls back to the
   generation the log's replacement archived and replays its segment —
   batch 1, not batch 2. *)
let failed_log_fallback name failing () =
  let db, wh = build () in
  let dir = fresh_dir ("wh_failed_log_" ^ name ^ "_dir") in
  Warehouse.attach wh ~dir;
  Warehouse.ingest wh (sale_batch 0);
  let committed = Warehouse.believed_source wh in
  ignore
    (expect_io_error "the failed batch" (fun () ->
         failing (fun () -> Warehouse.ingest wh (sale_batch 1))));
  Warehouse.close wh;
  let snap = Filename.concat dir "snapshot.bin" in
  flip_byte snap (String.length (read_file snap) - 1);
  let wh' = Warehouse.recover ~dir in
  Alcotest.(check int) "batch 1 served, batch 2 not" (sale_rows db + 512)
    (sale_rows (Warehouse.believed_source wh'));
  check_views wh' committed;
  Alcotest.(check int) "both sequence numbers consumed" 2
    (Warehouse.ingested_batches wh');
  Warehouse.close wh';
  rm_rf dir

let failed_log_tests =
  [
    test "a batch failed at its barrier is not replayed from the archive"
      (failed_log_fallback "barrier" failing_barrier);
    test "a torn failed batch leaves a replayable archive"
      (failed_log_fallback "torn" torn_write);
    test "a failed WAL barrier is not retried" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_barrier_dir" in
        Warehouse.attach wh ~dir;
        let epoch = Warehouse.snapshot_epoch (Warehouse.current_snapshot wh) in
        Faults.arm ~mode:Faults.Fail Faults.Wal_fsync;
        let detail =
          expect_io_error "the failed barrier" (fun () ->
              Warehouse.ingest wh (sale_batch 0))
        in
        Faults.disarm ();
        Alcotest.(check bool) "the error names the barrier" true
          (contains detail "barrier");
        Alcotest.(check int) "nothing was published" epoch
          (Warehouse.snapshot_epoch (Warehouse.current_snapshot wh));
        (* aborted like an engine failure: the whole batch is quarantined *)
        let letters = Warehouse.dead_letters wh in
        Alcotest.(check int) "the whole batch quarantined" 512
          (List.length letters);
        Alcotest.(check bool) "as engine failures of the WAL barrier" true
          (List.for_all
             (fun r ->
               r.Delta.reason = Delta.Engine_failure
               && contains r.Delta.detail "barrier")
             letters);
        Alcotest.(check bool) "a fresh log replaced the failed one" true
          (Warehouse.wal_attached wh);
        let r = Warehouse.ingest_report wh (sale_batch 1) in
        Alcotest.(check int) "the next ingest commits" 512 r.Warehouse.applied;
        let believed = Warehouse.believed_source wh in
        Alcotest.(check int) "the believed source lacks the failed batch"
          (sale_rows db + 512) (sale_rows believed);
        Warehouse.close wh;
        (* the failed batch consumed its sequence number, and the snapshot
           that replaced the log covers it: recovery cannot resurrect it *)
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "aborted + committed batches" 2
          (Warehouse.ingested_batches wh');
        check_views wh' believed;
        Warehouse.close wh';
        rm_rf dir);
    test "failed barrier, then failed checkpoint: no log until a checkpoint"
      (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_barrier_checkpoint_dir" in
        Warehouse.attach wh ~dir;
        Warehouse.ingest wh (sale_batch 0);
        (* the log's replacement writes snapshot.bin.new.tmp, whose fsync
           fails too *)
        let tmp = Filename.concat dir "snapshot.bin.new.tmp" in
        ignore
          (expect_io_error "the failed barrier" (fun () ->
               Crash_model.with_hook
                 (function
                   | Durable.Fsync p when p = tmp -> Crash_model.eio ()
                   | _ -> ())
                 (fun () ->
                   failing_barrier (fun () ->
                       Warehouse.ingest wh (sale_batch 1)))));
        Alcotest.(check bool) "no log" false (Warehouse.wal_attached wh);
        (* as minview serve --metrics-port asks it *)
        Alcotest.(check bool) "the health check fails" false
          (Telemetry.Http_exporter.healthy (Warehouse.health wh));
        let letters = List.length (Warehouse.dead_letters wh) in
        ignore
          (expect_io_error "an ingest without a log" (fun () ->
               Warehouse.ingest wh (sale_batch 2)));
        Alcotest.(check int) "the refused ingest quarantined nothing" letters
          (List.length (Warehouse.dead_letters wh));
        Alcotest.(check bool)
          "the failed snapshot write removed its temporary file" false
          (Sys.file_exists tmp);
        Warehouse.checkpoint wh;
        Alcotest.(check bool) "the checkpoint opened a fresh log" true
          (Warehouse.wal_attached wh);
        Alcotest.(check bool) "the health check passes again" true
          (Telemetry.Http_exporter.healthy (Warehouse.health wh));
        Warehouse.ingest wh (sale_batch 2);
        let believed = Warehouse.believed_source wh in
        Alcotest.(check int) "every acknowledged batch, not the failed one"
          (sale_rows db + 1024) (sale_rows believed);
        Warehouse.close wh;
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "committed, aborted, committed" 3
          (Warehouse.ingested_batches wh');
        check_views wh' believed;
        Warehouse.close wh';
        rm_rf dir);
    test "a failed barrier names its batch and log, and ran once" (fun () ->
        let _db, wh = build () in
        let dir = fresh_dir "wh_barrier_names_dir" in
        Warehouse.attach wh ~dir;
        let syncs = Telemetry.Counter.make "minview_wal_syncs_total" in
        let before = Telemetry.Counter.value syncs in
        Faults.arm ~mode:Faults.Fail Faults.Wal_fsync;
        let detail =
          expect_io_error "ingest_report" (fun () ->
              ignore
                (Warehouse.ingest_report wh (sale_batch 0) : Warehouse.report))
        in
        Faults.disarm ();
        Alcotest.(check bool) ("names the batch: " ^ detail) true
          (contains detail "batch 1");
        Alcotest.(check bool) ("names the log: " ^ detail) true
          (contains detail (Filename.concat dir "wal.bin"));
        (* the replacement log's checkpoint syncs files of its own, never a
           barrier: one barrier ran, the failed one *)
        Alcotest.(check int) "the barrier ran once" (before + 1)
          (Telemetry.Counter.value syncs);
        Warehouse.close wh;
        rm_rf dir);
    test "a failed frame write rolls the validator back; ingestion continues"
      (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_failed_write_dir" in
        Warehouse.attach wh ~dir;
        (* a write error after half of the frame reached the log: the torn
           frame stays in the failed log, which is replaced *)
        let detail =
          expect_io_error "the failed write" (fun () ->
              torn_write (fun () -> Warehouse.ingest wh (sale_batch 0)))
        in
        Alcotest.(check bool) ("names the write: " ^ detail) true
          (contains detail "wal.bin: write");
        Alcotest.(check int) "the whole batch quarantined" 512
          (List.length (Warehouse.dead_letters wh));
        (* the validator transaction was rolled back: the very same inserts
           are still fresh, so re-ingesting them commits every one *)
        let r = Warehouse.ingest_report wh (sale_batch 0) in
        Alcotest.(check int) "the same batch commits" 512 r.Warehouse.applied;
        Alcotest.(check int) "under the next number" 2 r.Warehouse.batch;
        let believed = Warehouse.believed_source wh in
        Alcotest.(check int) "the batch is in once" (sale_rows db + 512)
          (sale_rows believed);
        check_views wh believed;
        Warehouse.close wh;
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "aborted + committed batches" 2
          (Warehouse.ingested_batches wh');
        check_views wh' believed;
        Warehouse.close wh';
        rm_rf dir);
    test "the dead-letter queue keeps every rejection, oldest first"
      (fun () ->
        let _db, wh = build () in
        let dir = fresh_dir "wh_dead_letters_dir" in
        Warehouse.attach wh ~dir;
        (* saleids duplicating existing rows would vary by seed, so use
           unknown foreign keys — deterministic rejects *)
        let bad j =
          Delta.insert "sale" (row [ i (4_000_000 + j); i 999; i 1; i 1; i 5 ])
        in
        for j = 0 to 4 do
          Warehouse.ingest wh [ bad j ]
        done;
        let ids wh =
          List.map
            (fun r ->
              match r.Delta.delta.Delta.change with
              | Delta.Insert t -> t.(0)
              | _ -> Value.Null)
            (Warehouse.dead_letters wh)
        in
        let all = List.init 5 (fun j -> i (4_000_000 + j)) in
        Alcotest.(check (list value)) "all five, oldest first" all (ids wh);
        (* the queue is part of the snapshot: a checkpoint and recovery
           keep every letter in order *)
        Warehouse.checkpoint wh;
        Warehouse.close wh;
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check (list value)) "recovered in order" all (ids wh');
        Warehouse.close wh';
        rm_rf dir);
  ]

(* --- fsck / repair ------------------------------------------------------- *)

let fsck_tests =
  [
    test "a healthy directory is clean and recoverable" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_fsck_clean_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 12 in
        for _ = 1 to 5 do
          ingest_checkpointing ~every:2 wh
            (Workload.Delta_gen.stream rng db ~n:10)
        done;
        Warehouse.close wh;
        let r = Warehouse.fsck ~dir in
        Alcotest.(check bool) "clean" true r.Warehouse.fsck_clean;
        Alcotest.(check bool) "recoverable" true r.Warehouse.fsck_recoverable;
        Alcotest.(check bool) "every entry verifies" true
          (List.for_all (fun e -> e.Warehouse.f_ok) r.Warehouse.fsck_entries);
        (* repair on a clean directory is a no-op *)
        let rep = Warehouse.repair ~dir in
        Alcotest.(check int) "nothing to repair" 0
          (List.length rep.Warehouse.repair_actions);
        rm_rf dir);
    test "snapshot rot is flagged, repaired and survived via the chain"
      (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_fsck_rot_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 13 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:10);
        Warehouse.checkpoint wh;
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:10);
        Warehouse.close wh;
        let snap = Filename.concat dir "snapshot.bin" in
        flip_byte snap (String.length (read_file snap) - 1);
        let r = Warehouse.fsck ~dir in
        Alcotest.(check bool) "not clean" false r.Warehouse.fsck_clean;
        Alcotest.(check bool) "still recoverable (the chain holds)" true
          r.Warehouse.fsck_recoverable;
        let rep = Warehouse.repair ~dir in
        Alcotest.(check bool) "repair quarantined the snapshot" true
          (List.exists
             (fun (f, _) -> f = "snapshot.bin")
             rep.Warehouse.repair_actions);
        Alcotest.(check bool) "recoverable after repair" true
          rep.Warehouse.repair_recoverable;
        let wh' = Warehouse.recover ~dir in
        Alcotest.(check int) "both batches recovered from gen K-1" 2
          (Warehouse.ingested_batches wh');
        check_views wh' db;
        Warehouse.close wh';
        rm_rf dir);
    test "an unrecoverable directory is reported as such" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_fsck_dead_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 14 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:10);
        Warehouse.close wh;
        let snap = Filename.concat dir "snapshot.bin" in
        flip_byte snap (String.length (read_file snap) - 1);
        let r = Warehouse.fsck ~dir in
        Alcotest.(check bool) "not recoverable" false
          r.Warehouse.fsck_recoverable;
        let rep = Warehouse.repair ~dir in
        Alcotest.(check bool) "repair cannot save it" false
          rep.Warehouse.repair_recoverable;
        rm_rf dir);
    test "fsck refuses a non-directory" (fun () ->
        match Warehouse.fsck ~dir:(tmp "wh_fsck_missing_dir") with
        | exception Warehouse.Error { kind = Warehouse.Io_error; _ } -> ()
        | _ -> Alcotest.fail "expected Io_error");
    test "an operational load failure never demotes the snapshot" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_io_error_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 15 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:10);
        Warehouse.checkpoint wh;
        Warehouse.close wh;
        (* make opening the live snapshot fail operationally (EISDIR) — an
           OS-level failure, not failed verification *)
        let snap = Filename.concat dir "snapshot.bin" in
        Sys.remove snap;
        Sys.mkdir snap 0o755;
        (match Warehouse.recover ~dir with
        | _ -> Alcotest.fail "expected Io_error"
        | exception Warehouse.Error { kind = Warehouse.Io_error; _ } -> ());
        (* the transient failure must not quarantine the live snapshot or
           fall back to the older generation *)
        Alcotest.(check bool) "nothing was quarantined" false
          (Sys.file_exists (snap ^ ".quarantine"));
        rm_rf dir);
    test "repeated quarantines never clobber earlier evidence" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_quarantine_unique_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 16 in
        let snap = Filename.concat dir "snapshot.bin" in
        let corrupt_live () =
          flip_byte snap (String.length (read_file snap) - 1)
        in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:10);
        Warehouse.checkpoint wh;
        Warehouse.close wh;
        corrupt_live ();
        let wh' = Warehouse.recover ~dir in
        (* regrow the live snapshot, then rot it again *)
        Warehouse.checkpoint wh';
        Warehouse.close wh';
        corrupt_live ();
        let wh'' = Warehouse.recover ~dir in
        check_views wh'' db;
        Warehouse.close wh'';
        Alcotest.(check bool) "first quarantine preserved" true
          (Sys.file_exists (snap ^ ".quarantine"));
        Alcotest.(check bool) "second quarantine got a fresh name" true
          (Sys.file_exists (snap ^ ".quarantine.1"));
        rm_rf dir);
    test "a quarantined generation index is never reallocated" (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_gen_index_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 17 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:10);
        Warehouse.checkpoint wh;
        (* archives generation 1 *)
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:10);
        Warehouse.checkpoint wh;
        (* archives generation 2 *)
        let gdir = Filename.concat dir "generations" in
        let gfile name = Filename.concat gdir name in
        (* simulate a past fallback: generation 2's snapshot was quarantined
           and its WAL segment never reached the disk (crash between the
           snapshot rename and the rotation) *)
        Sys.rename
          (gfile "snapshot-00000002.bin")
          (gfile "snapshot-00000002.bin.quarantine");
        Sys.remove (gfile "wal-00000002.bin");
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:10);
        Warehouse.checkpoint wh;
        (* the quarantined index 2 must not be reallocated: a re-used index
           would pair the new snapshot with the old wal-2 segment and the
           rotation would clobber it *)
        Alcotest.(check bool) "index 3 allocated" true
          (Sys.file_exists (gfile "snapshot-00000003.bin"));
        Alcotest.(check bool) "quarantined snapshot untouched" true
          (Sys.file_exists (gfile "snapshot-00000002.bin.quarantine"));
        Warehouse.close wh;
        rm_rf dir);
  ]

(* --- frame-level corruption of the typed WAL ------------------------------- *)

module Wal = Warehouse.Wal

(* The records of a log compared by their encoding, which is canonical. *)
let same_records a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> String.equal (Wal.encode x) (Wal.encode y)) a b

(* A committed version-3 log of three small batches, cut at every byte
   and, separately, with one bit flipped in every byte of every frame. The
   scan keeps only records that were written, never one past the damage,
   and classifies the damage; recovery follows its policy: a torn tail of
   the live log is salvaged and the batches before it are served as they
   were committed, bit rot is refused with [Corrupt_state]. *)
let frame_tests =
  [
    test "every truncation and every bit flip of a committed log is caught"
      (fun () ->
        let db, wh = build () in
        let dir = fresh_dir "wh_frames_dir" in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 33 in
        let views () =
          List.map
            (fun (v : View.t) -> snd (Warehouse.query wh v.View.name))
            all_views
        in
        (* served.(k): the views after the first k batches *)
        let served = Array.make 4 (views ()) in
        for k = 1 to 3 do
          Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:3);
          served.(k) <- views ()
        done;
        Warehouse.close wh;
        let wal = read_file (Filename.concat dir "wal.bin") in
        let snapshot = read_file (Filename.concat dir "snapshot.bin") in
        let written = (Wal.scan (Filename.concat dir "wal.bin")).Wal.s_records in
        Alcotest.(check int) "three frames" 3 (List.length written);
        (* the frame boundaries *)
        let rec ends at acc =
          if at >= String.length wal then List.rev acc
          else
            let next = at + 8 + Int32.to_int (String.get_int32_le wal at) in
            ends next (next :: acc)
        in
        let ends = ends wal_header_len [] in
        let whole_frames before =
          List.length (List.filter (fun e -> e <= before) ends)
        in
        let case = fresh_dir "wh_frames_case" in
        let try_log what log ~intact ~clean =
          rm_rf case;
          Sys.mkdir case 0o755;
          write_file (Filename.concat case "snapshot.bin") snapshot;
          write_file (Filename.concat case "wal.bin") log;
          let s = Wal.scan (Filename.concat case "wal.bin") in
          let kept = List.length s.Wal.s_records in
          if not (same_records s.Wal.s_records (List.filteri (fun i _ -> i < kept) written))
          then Alcotest.failf "%s: scan returned a record that was not written" what;
          if kept > intact then
            Alcotest.failf "%s: %d record(s) past the damage" what kept;
          let kind =
            match s.Wal.s_damage with
            | None when clean && kept = intact -> None
            | None -> Alcotest.failf "%s: damage not detected" what
            | Some _ when clean -> Alcotest.failf "%s: a whole frame refused" what
            | Some d -> Some d.Wal.d_kind
          in
          (* the recovery policy: a torn tail of the live log is salvaged
             and the batches before it served; bit rot is refused *)
          match (Warehouse.recover ~dir:case, kind) with
          | wh', (None | Some Wal.Torn_write) ->
            let k = Warehouse.ingested_batches wh' in
            if k <> kept then
              Alcotest.failf "%s: batch %d served, %d scanned" what k kept;
            List.iter2
              (fun (v : View.t) rows ->
                Alcotest.check relation (what ^ ": " ^ v.View.name) rows
                  (snd (Warehouse.query wh' v.View.name)))
              all_views served.(k);
            Warehouse.close wh'
          | wh', Some Wal.Bit_flip ->
            Warehouse.close wh';
            Alcotest.failf "%s: bit rot recovered" what
          | exception Warehouse.Error { kind = Warehouse.Corrupt_state; _ }
            when kind = Some Wal.Bit_flip ->
            ()
        in
        for cut = wal_header_len to String.length wal - 1 do
          try_log
            (Printf.sprintf "cut at %d" cut)
            (String.sub wal 0 cut) ~intact:(whole_frames cut)
            ~clean:(List.mem cut (wal_header_len :: ends))
        done;
        for at = wal_header_len to String.length wal - 1 do
          let b = Bytes.of_string wal in
          Bytes.set b at
            (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl (at mod 8))));
          try_log
            (Printf.sprintf "bit %d of byte %d flipped" (at mod 8) at)
            (Bytes.to_string b) ~intact:(whole_frames at) ~clean:false
        done;
        rm_rf case;
        rm_rf dir);
  ]

(* --- TELEMETRY=off regression -------------------------------------------- *)

let telemetry_off_tests =
  [
    test "crash, fsck, repair and recovery stay green with telemetry off"
      (fun () ->
        Telemetry.set_enabled false;
        Fun.protect ~finally:(fun () -> Telemetry.set_enabled true)
        @@ fun () ->
        let db, wh = build () in
        let root = fresh_dir "wh_telemetry_off" in
        Sys.mkdir root 0o755;
        let dir = Filename.concat root "state" in
        let rng = Workload.Prng.create 21 in
        let batches =
          List.init 6 (fun _ -> Workload.Delta_gen.stream rng db ~n:10)
        in
        (* death inside the checkpoint after the third batch *)
        ignore
          (Crash_model.crash ~root
             ~attach:(fun dir -> Warehouse.attach wh ~dir)
             ~ingest:(ingest_checkpointing ~every:3 wh)
             batches ~batch:3 Crash_model.In_checkpoint ~seed:5);
        Warehouse.close wh;
        append_garbage (Filename.concat dir "wal.bin");
        let r = Warehouse.fsck ~dir in
        Alcotest.(check bool) "recoverable" true r.Warehouse.fsck_recoverable;
        ignore (Warehouse.repair ~dir);
        let wh' = robust_recover dir in
        let already = Warehouse.ingested_batches wh' in
        List.iteri
          (fun idx batch -> if idx >= already then Warehouse.ingest wh' batch)
          batches;
        check_views wh' db;
        Warehouse.close wh';
        rm_rf root);
  ]

let () =
  Alcotest.run "chaos"
    [
      ("chaos", chaos_tests); ("engine-failure", engine_failure_tests);
      ("failed-log", failed_log_tests); ("fsck", fsck_tests);
      ("wal-frames", frame_tests);
      ("telemetry-off", telemetry_off_tests);
    ]
