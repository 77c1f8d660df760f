(* Crash states from a trace: a scenario runs once on disk while
   [Crash_model] records every durable operation; then every prefix of
   the trace is materialized as the disk a process death and a power cut
   would leave there, [Warehouse.recover] runs on it, every acknowledged
   batch must be served, and resuming the stream must reach recomputation
   over the fully evolved source. *)

open Helpers
module Durable = Warehouse.Durable
module Cm = Crash_model

let test case fn = Alcotest.test_case case `Quick fn

let rm_rf = Cm.rm_rf

(* an empty directory of that name under the temporary directory *)
let fresh_root name =
  let root = Filename.concat (Filename.get_temp_dir_name ()) name in
  rm_rf root;
  Sys.mkdir root 0o755;
  root

let tiny =
  {
    Workload.Retail.days = 6;
    stores = 2;
    products = 10;
    sold_per_store_day = 3;
    tx_per_product = 2;
    brands = 3;
    seed = 37;
  }

let all_views =
  [ Workload.Retail.product_sales; Workload.Retail.monthly_revenue;
    Workload.Retail.sales_by_time ]

let build db =
  let wh = Warehouse.create db in
  Warehouse.add_view wh Workload.Retail.product_sales;
  Warehouse.add_view ~strategy:Warehouse.Psj wh Workload.Retail.monthly_revenue;
  Warehouse.add_view ~strategy:Warehouse.Replicate wh
    Workload.Retail.sales_by_time;
  wh

let check_views what wh db =
  List.iter
    (fun v ->
      Alcotest.check relation (v.View.name ^ what) (Algebra.Eval.eval db v)
        (snd (Warehouse.query wh v.View.name)))
    all_views

let expect_io_error what f =
  match f () with
  | () -> Alcotest.fail (what ^ ": expected Io_error")
  | exception Warehouse.Error { kind = Warehouse.Io_error; _ } -> ()

(* --- the model itself ---------------------------------------------------- *)

let paths st = List.map fst st
let contents st p = Option.join (List.assoc_opt p st)

let model_tests =
  [
    test "a rename is durable only once its directory is synced" (fun () ->
        let root = fresh_root "cm_rename" in
        let a = Filename.concat root "a" in
        let r = Cm.record ~root in
        Durable.replace_file a (fun oc -> output_string oc "one");
        let t = Cm.stop r in
        (* fsync a.tmp, rename it to a, fsync the directory *)
        Alcotest.(check int) "three operations" 3 (Array.length t.Cm.t_events);
        let at k mode = Cm.state t ~prefix:k mode in
        Alcotest.(check (list string)) "synced, not yet renamed" [ "a.tmp" ]
          (paths (at 1 Cm.Process_death));
        Alcotest.(check (list string)) "renamed" [ "a" ]
          (paths (at 2 Cm.Process_death));
        Alcotest.(check (list string)) "a power cut reverts the rename" []
          (paths (at 2 Cm.Power_cut));
        Alcotest.(check (option string)) "the synced directory keeps it"
          (Some "one") (contents (at 3 Cm.Power_cut) "a");
        rm_rf root);
    test "a power cut tears the unsynced tail in half" (fun () ->
        let root = fresh_root "cm_torn" in
        let w = Filename.concat root "w" in
        let r = Cm.record ~root in
        Durable.replace_file w (fun oc -> output_string oc "head");
        let fd = Unix.openfile w [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
        Durable.write w fd (Bytes.of_string "12345678") 0 8;
        Durable.barrier w fd;
        Unix.close fd;
        let t = Cm.stop r in
        let at k mode = contents (Cm.state t ~prefix:k mode) "w" in
        let before_barrier = Array.length t.Cm.t_events - 1 in
        Alcotest.(check (option string)) "process death keeps the write"
          (Some "head12345678") (at before_barrier Cm.Process_death);
        Alcotest.(check (option string)) "a power cut keeps half of it"
          (Some "head1234")
          (at before_barrier Cm.Power_cut);
        Alcotest.(check (option string)) "the barrier makes it durable"
          (Some "head12345678")
          (at (Array.length t.Cm.t_events) Cm.Power_cut);
        rm_rf root);
  ]

(* --- the scenario --------------------------------------------------------- *)

type run = {
  trace : Cm.trace;
  batches : Delta.t list array;
  sources : Database.t array;
      (** [sources.(p)]: the source after the first [p] batches *)
  acks : (int * int) list;
      (** (trace length, batches acknowledged) at each acknowledgement,
          newest first; [attach]'s return acknowledges none *)
}

let n_batches = 8

(* the fourth batch's first attempt fails at its barrier: it consumes seq 4,
   and the batch commits as seq 5 *)
let failed_seq = 4

(* attach (its checkpoint), ingest through [ingest_checkpointing], which
   checkpoints after batches 3, 6 and 9, and one more checkpoint after
   batch 3, so generations are archived and pruned; a batch whose barrier
   fails (its log is archived with an abort marker; the batch commits when
   ingested again), a torn tail that a recovery salvages, and ingest after
   that recovery, whose last batch is checkpointed *)
let scenario () =
  let root = fresh_root "cm_scenario" in
  let dir = Filename.concat root "state" in
  let db = Workload.Retail.load tiny in
  let wh = ref (build db) in
  let rng = Workload.Prng.create 41 in
  let sources = Array.make (n_batches + 1) (Database.copy db) in
  let batches =
    Array.init n_batches (fun p ->
        let b = Workload.Delta_gen.stream rng db ~n:8 in
        sources.(p + 1) <- Database.copy db;
        b)
  in
  let r = Cm.record ~root in
  let acks = ref [] in
  let ack p = acks := (Cm.length r, p) :: !acks in
  let ingest p =
    ingest_checkpointing ~every:3 !wh batches.(p);
    ack (p + 1)
  in
  Warehouse.attach !wh ~dir;
  ack 0;
  List.iter ingest [ 0; 1; 2 ];
  Warehouse.checkpoint !wh;
  Cm.fail_next r (function Durable.Barrier _ -> true | _ -> false);
  expect_io_error "the failed barrier" (fun () ->
      Warehouse.ingest !wh batches.(failed_seq - 1));
  let gdir = Filename.concat dir "generations" in
  Alcotest.(check bool) "the failed log is archived with an abort marker" true
    (Array.exists
       (fun f ->
         String.starts_with ~prefix:"wal-" f
         && List.exists
              (function Warehouse.Wal.Abort _ -> true | _ -> false)
              (Warehouse.Wal.scan (Filename.concat gdir f))
                .Warehouse.Wal.s_records)
       (Sys.readdir gdir));
  List.iter ingest [ 3; 4; 5 ];
  Warehouse.close !wh;
  let wal = Filename.concat dir "wal.bin" in
  let fd = Unix.openfile wal [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
  let torn = Bytes.of_string "\xff\x00\x00\x00torn" in
  Durable.write wal fd torn 0 (Bytes.length torn);
  Unix.close fd;
  wh := Warehouse.recover ~dir;
  List.iter ingest [ 6; 7 ];
  Warehouse.close !wh;
  let trace = Cm.stop r in
  (* the scenario did what it says *)
  Alcotest.(check bool) "the torn tail was salvaged" true
    (Sys.file_exists (wal ^ ".quarantine"));
  Alcotest.(check bool) "generations were pruned" false
    (Sys.file_exists (Filename.concat gdir "snapshot-1.bin"));
  Alcotest.(check bool) "the recovered warehouse checkpointed batch 9" true
    (List.exists
       (fun e ->
         String.equal e.Warehouse.f_file "snapshot.bin"
         && String.equal e.Warehouse.f_detail "verified, batch 9")
       (Warehouse.fsck ~dir).Warehouse.fsck_entries);
  rm_rf root;
  { trace; batches; sources; acks = !acks }

(* the batches acknowledged before operation [prefix]; [None] before
   [attach] returned *)
let acked run ~prefix =
  List.find_map (fun (len, p) -> if len <= prefix then Some p else None)
    run.acks

(* the stream prefix the recovered warehouse serves *)
let position run wh =
  let image = store_image (Warehouse.believed_source wh) in
  let rec find p =
    if p > n_batches then None
    else if store_image run.sources.(p) = image then Some p
    else find (p + 1)
  in
  find 0

type tally = {
  mutable states : int;
  mutable distinct : int;
  mutable unacknowledged : int;
      (** distinct states that serve the batch whose barrier failed *)
}

let check_state run seen tally ~prefix mode =
  let st = Cm.state run.trace ~prefix mode in
  let acked = acked run ~prefix in
  tally.states <- tally.states + 1;
  let key = (Digest.string (Marshal.to_string st []), acked) in
  if not (Hashtbl.mem seen key) then begin
    Hashtbl.add seen key ();
    tally.distinct <- tally.distinct + 1;
    let ctx =
      Printf.sprintf " [%s before operation %d%s]" (Cm.mode_label mode) prefix
        (if prefix < Array.length run.trace.Cm.t_events then
           ": " ^ Cm.describe run.trace.Cm.t_events.(prefix).Cm.op
         else ", the end")
    in
    let root = fresh_root "cm_state" in
    Cm.materialize st ~root;
    let dir = Filename.concat root "state" in
    (match (Warehouse.recover ~dir, acked) with
    | exception Warehouse.Error _ when acked = None -> ()
    | exception Warehouse.Error { kind; detail } ->
      Alcotest.failf "recovery failed%s: [%s] %s" ctx
        (Warehouse.kind_label kind) detail
    | wh, None -> Warehouse.close wh
    | wh, Some acked ->
      let p =
        match position run wh with
        | Some p -> p
        | None ->
          Alcotest.failf
            "recovery serves %d batch(es) of a source that is no stream \
             prefix%s"
            (Warehouse.ingested_batches wh) ctx
      in
      if p < acked then
        Alcotest.failf "%d acknowledged batch(es), %d served%s" acked p ctx;
      (* the failed attempt consumed seq [failed_seq]; a state that serves
         the batch under that seq replayed the failed attempt's frame *)
      if p = failed_seq && Warehouse.ingested_batches wh = failed_seq then
        tally.unacknowledged <- tally.unacknowledged + 1;
      check_views (" served" ^ ctx) wh run.sources.(p);
      for q = p to n_batches - 1 do
        Warehouse.ingest wh run.batches.(q)
      done;
      check_views (" resumed" ^ ctx) wh run.sources.(n_batches);
      Warehouse.close wh);
    rm_rf root
  end

let sweep mode () =
  let run = scenario () in
  let seen = Hashtbl.create 256 in
  let tally = { states = 0; distinct = 0; unacknowledged = 0 } in
  let ops = Array.length run.trace.Cm.t_events in
  for prefix = 0 to ops do
    check_state run seen tally ~prefix mode
  done;
  Printf.printf
    "%s: %d operations, %d states, %d distinct, %d serving the batch whose \
     barrier failed\n%!"
    (Cm.mode_label mode) ops tally.states tally.distinct tally.unacknowledged

let sweep_tests =
  [
    test "every prefix, process death" (sweep Cm.Process_death);
    test "every prefix, power cut" (sweep Cm.Power_cut);
    test "one write per batch frame" (fun () ->
        let root = fresh_root "cm_one_write" in
        let dir = Filename.concat root "state" in
        let db = Workload.Retail.load tiny in
        let wh = build db in
        let r = Cm.record ~root in
        Warehouse.attach wh ~dir;
        let rng = Workload.Prng.create 43 in
        let wal = Filename.concat dir "wal.bin" in
        let spans =
          List.init 3 (fun _ ->
              let batch = Workload.Delta_gen.stream rng db ~n:10 in
              let before = ((Unix.stat wal).Unix.st_size, Cm.length r) in
              Warehouse.ingest wh batch;
              (before, ((Unix.stat wal).Unix.st_size, Cm.length r)))
        in
        let ops = Cm.ops (Cm.stop r) in
        List.iter
          (fun ((size, first), (size', last)) ->
            match Array.sub ops first (last - first) with
            | [| Durable.Write { path; bytes }; Durable.Barrier path' |] ->
              Alcotest.(check string) "to the log" wal path;
              Alcotest.(check string) "its barrier" wal path';
              Alcotest.(check int) "the whole frame" (size' - size)
                (String.length bytes)
            | _ -> Alcotest.fail "expected one write, then the barrier")
          spans;
        Warehouse.close wh;
        rm_rf root);
  ]

let () =
  Alcotest.run "crash_model"
    [ ("model", model_tests); ("sweep", sweep_tests) ]
