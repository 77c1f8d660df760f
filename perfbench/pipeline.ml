(* The pipeline benchmark: ingest through the public [Warehouse] API into
   an attached state directory (one fsync per batch), read back over the
   [Serve] line protocol, then checkpoint, crash and recover.

     pipeline.exe --workload NAME --seed N --seconds S --trace 0|1 --state DIR
       [--baseline-ms MS]

   The last line of standard output is one JSON object
   [{"correct","attempted","failed","metrics"}]: the end-to-end metrics
   with [--trace 0], the per-layer metrics with [--trace 1]. The line
   before it, [EXACT {...}], holds the counts that must repeat exactly
   between runs of one seed. [LATE_COMMIT_P50_MS] of an untraced run is
   the [--baseline-ms] of a traced run of the same seed. See run.py for
   the driver. *)

module W = Warehouse
module View = Algebra.View
module Engines = Maintenance.Engines
module Validator = Relational.Validator
module Relation = Relational.Relation
module Value = Relational.Value
module Histogram = Telemetry.Histogram
open Util

(* --- workloads ----------------------------------------------------------- *)

type mix =
  | Uniform  (** 50% fresh inserts, 30% updates, 20% deletes *)
  | Churn  (** 10% fresh inserts, Zipf(1) updates of 10k hot facts *)

type workload = {
  name : string;
  views : [ `View of View.t | `Sql of string ] list;
  batch : int;  (** deltas per batch *)
  mix : mix;
  reads : int;  (** reads after each commit *)
  read_views : string list;  (** cycled through, in order *)
  compacted : bool;  (** apply through [Shard.serial]'s compacted path *)
  rate : float;
      (** timed batches per second of [--seconds], sized on a 2-core
          x86-64 VM; [min_samples] sizes the slower workloads *)
}

(* 365 days x 8 stores x 40 sales per store and day. *)
let star =
  { Gen.days = 365; stores = 8; products = 2_000; brands = 50; facts = 116_800 }

let amount_by_city =
  "CREATE VIEW amount_by_city AS SELECT store.city, SUM(amount) AS Amount, \
   AVG(amount) AS AvgAmount, COUNT(*) AS Sales FROM sale, store WHERE \
   sale.storeid = store.id GROUP BY store.city;"

let star_views =
  [ `View Workload.Retail.sales_by_time; `View Workload.Retail.monthly_revenue;
    `Sql amount_by_city ]

(* Each workload puts one layer in front; the per-layer table of a traced
   run shows which. *)
let workloads =
  [
    (* Every view is CSMAS (the float view included): engine apply is
       O(delta) routing, so the validator and the WAL are a large share of
       commit beside it; the two small views read are bound by the socket. *)
    {
      name = "star_csmas";
      views = star_views;
      batch = 500;
      mix = Uniform;
      reads = 4;
      read_views = [ "monthly_revenue"; "amount_by_city" ];
      compacted = false;
      rate = 90.;
    };
    (* Deletes and updates force COUNT DISTINCT and MAX groups to be
       recomputed: view update dominates. *)
    {
      name = "star_recompute";
      views =
        [ `View Workload.Retail.product_sales;
          `View Workload.Retail.product_sales_max ];
      batch = 500;
      mix = Uniform;
      reads = 1;
      read_views = [ "product_sales_max" ];
      compacted = false;
      rate = 16.;
    };
    (* Zipf(1) updates of a hot set, netted and merged by the compacted
       path (run inline by [Shard.serial]: main and serve are the only
       domains). *)
    {
      name = "churn_compact";
      views = star_views;
      batch = 5_000;
      mix = Churn;
      reads = 1;
      read_views = [ "monthly_revenue"; "amount_by_city" ];
      compacted = true;
      rate = 16.;
    };
  ]

let warmup = 10 (* batches before timing starts *)
let min_samples = 110 (* p90 needs 10 samples beyond it *)
let tail = 5 (* WAL batches between a checkpoint and the crash *)
let setups = 3
let rounds = 6 (* each: two checkpoints and one crash *)
let late_round = (rounds / 2) + 1 (* a traced run shadows this round and later *)

let next_batch w g =
  match w.mix with
  | Uniform -> Gen.uniform_batch g ~size:w.batch ~insert_pct:50 ~update_pct:30
  | Churn -> Gen.churn_batch g ~size:w.batch ~hot:10_000 ~insert_pct:10

(* --- outcome accounting -------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let check what ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    Printf.printf "FAILED: %s\n%!" what
  end

(* The serve protocol's row rendering, from [query_sorted]. *)
let render_rows rows =
  List.map
    (fun (tup, mult) ->
      String.concat "\t"
        (string_of_int mult :: List.map Value.to_string (Array.to_list tup)))
    rows

(* Rows served over the socket must be [query_sorted] at the served
   epoch: the benchmark is the only writer and is blocked in the read, so
   the latest epoch is the pinned one. *)
let check_served wh view response =
  match String.split_on_char '\n' response with
  | head :: _header :: rest -> (
    match String.split_on_char ' ' head with
    | [ "+ROWS"; n; _epoch; seq ] ->
      let n = int_of_string n in
      let _, expected = W.query_sorted wh view in
      let served = List.filteri (fun i _ -> i < n) rest in
      int_of_string seq = W.ingested_batches wh
      && List.length expected = n
      && List.equal String.equal served (render_rows expected)
    | _ -> false)
  | _ -> false

(* --- the traced shadow pipeline ------------------------------------------ *)

(* Layer costs, summed over the traced batches. *)
type layers = {
  mutable batches : int;
  mutable deltas : int;
  mutable ingest_s : float;  (** the real [ingest_report] calls *)
  mutable validator_s : float;
  mutable validator_alloc : float;
  mutable engine_s : float;
  mutable engine_alloc : float;
  phase_s : float array;  (** per entry of [phases] *)
  mutable flow_in : int;
  mutable flow_netted : int;
  mutable flow_applied : int;
  mutable capture_s : float;
  mutable capture_rows : int;
  mutable capture_alloc : float;
  mutable fsync_s : float;
  mutable fsyncs : int;
}

(* The program's existing histograms (registration is idempotent). *)
let phases = [| "view-update"; "compact"; "weighted-merge"; "prepare"; "shard-apply" |]

let phase_hists =
  Array.map
    (fun p -> Histogram.make ~labels:[ ("phase", p) ] "minview_engine_phase_seconds")
    phases

let fsync_hist = Histogram.make "minview_wal_fsync_seconds"

type span = {
  sp_id : int;
  sp_name : string;
  sp_start : float;
  sp_end : float;
  sp_parent : int;  (** 0 = root *)
  sp_seq : int;  (** WAL seq of the batch: the request id *)
}

let spans = ref []
let span_count = ref 0

let span ~parent ~seq name f =
  incr span_count;
  let id = !span_count in
  let t0 = now () in
  let r = f id in
  spans :=
    { sp_id = id; sp_name = name; sp_start = t0; sp_end = now ();
      sp_parent = parent; sp_seq = seq }
    :: !spans;
  r

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":%s,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"seq\":%d}\n"
            (if i = 0 then "" else ",")
            s.sp_id (json_str s.sp_name) s.sp_start s.sp_end s.sp_parent
            s.sp_seq)
        (List.rev !spans);
      output_string oc "]\n")

type shadow = {
  sh_validator : Validator.t;
  sh_engines : Engines.t list;
  sh_pool : Maintenance.Shard.pool option;
}

(* A second pipeline of public calls over the warehouse's believed source,
   fed the same batches in the order [ingest_report] makes them. *)
let make_shadow wh pool =
  let src = W.believed_source wh in
  {
    sh_validator = Validator.of_database src;
    sh_engines = List.map (fun v -> Engines.minimal src v) (W.views wh);
    sh_pool = pool;
  }

(* Bytes allocated by this domain, exact at any point: [Gc.minor_words]
   counts pending minor-heap words (the [Gc.counters] minor count only
   advances at a collection, which the serve domain can trigger at any
   time), and [major - promoted] is what was allocated directly in the
   major heap. *)
let alloc () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

let phase_seconds l p =
  let rec find i = if phases.(i) = p then l.phase_s.(i) else find (i + 1) in
  find 0

let shadow_batch l sh ~parent ~seq batch =
  let a0 = alloc () in
  let (), dv =
    time (fun () ->
        span ~parent ~seq "validator" (fun _ ->
            Validator.begin_txn sh.sh_validator;
            List.iter
              (fun d ->
                match Validator.admit sh.sh_validator d with
                | Ok _ -> ()
                | Error _ -> check "shadow validator admits the batch" false)
              batch;
            Validator.commit sh.sh_validator))
  in
  let a1 = alloc () in
  let before = Array.map Histogram.sum phase_hists in
  let (), de =
    time (fun () ->
        span ~parent ~seq "engines" (fun id ->
            List.iter
              (fun e ->
                span ~parent:id ~seq "engine.apply_batch" (fun _ ->
                    Engines.begin_txn e;
                    Engines.apply_batch ?parallel:sh.sh_pool e batch;
                    Engines.commit e))
              sh.sh_engines))
  in
  let a2 = alloc () in
  Array.iteri
    (fun i h -> l.phase_s.(i) <- l.phase_s.(i) +. Histogram.sum h -. before.(i))
    phase_hists;
  List.iter
    (fun e ->
      match Engines.last_flow e with
      | Some f ->
        l.flow_in <- l.flow_in + f.Telemetry.Lineage.deltas_in;
        l.flow_netted <- l.flow_netted + f.Telemetry.Lineage.netted;
        l.flow_applied <- l.flow_applied + f.Telemetry.Lineage.applied
      | None -> ())
    sh.sh_engines;
  let rows, dc =
    time (fun () ->
        span ~parent ~seq "capture" (fun _ ->
            List.fold_left
              (fun acc e -> acc + Relation.cardinality (Engines.capture e))
              0 sh.sh_engines))
  in
  let a3 = alloc () in
  l.validator_s <- l.validator_s +. dv;
  l.validator_alloc <- l.validator_alloc +. (a1 -. a0);
  l.engine_s <- l.engine_s +. de;
  l.engine_alloc <- l.engine_alloc +. (a2 -. a1);
  l.capture_s <- l.capture_s +. dc;
  l.capture_rows <- l.capture_rows + rows;
  l.capture_alloc <- l.capture_alloc +. (a3 -. a2)

(* --- one run ------------------------------------------------------------- *)

type result = {
  e2e : (string * string * float) list;
  raw : (string * string * float) list;  (** unscaled times, printed *)
  tails : (string * string * float) list;  (** printed, not in the JSON *)
  per_layer : (string * string * float) list;
  exact : (string * float) list;
  shares : (string * float) list;  (** layer shares of commit time, largest first *)
  late_commit_ms : float;  (** commit p50 of rounds [late_round] and later *)
}

let add_view wh = function
  | `View v -> W.add_view wh v
  | `Sql sql -> W.add_view_sql wh sql

let setup w src dir =
  let wh = W.create src in
  List.iter (add_view wh) w.views;
  W.attach wh ~dir;
  wh

(* Wall time of each stage of a run, on standard error. *)
let stage =
  let t0 = now () in
  fun name -> Printf.eprintf "[%7.2f s] %s\n%!" (now () -. t0) name

(* [baseline_ms] is the untraced commit p50 of rounds [late_round] and
   later of a run of the same seed: a traced run's overhead is taken
   against it, on the same batches and the same warehouse state. *)
let run w ~seed ~seconds ~traced ~baseline_ms ~state =
  let path name = Filename.concat state name in
  let main_dir = path "wh" in
  let setups_t = timed () in
  (* inputs: the operational store and the stream mirroring its facts *)
  let wh, gen =
    let src, gen = Gen.create star ~seed in
    stage "inputs built";
    let kept = ref None in
    for i = 1 to setups do
      let dir = if i = setups then main_dir else path (Printf.sprintf "setup%d" i) in
      let wh = measure setups_t (fun () -> setup w src dir) in
      if i = setups then kept := Some wh
      else begin
        W.close wh;
        remove_tree dir;
        (* a discarded set-up is the harness's garbage: collect it before
           the next one *)
        Gc.full_major ()
      end
    done;
    (* the source store is dropped here: only the warehouse holds it *)
    (Option.get !kept, gen)
  in
  Gc.full_major ();
  (* the peak resident set covers the run from here, not the set-ups *)
  reset_peak_rss ();
  stage "setup done";
  let pool = if w.compacted then Some Maintenance.Shard.serial else None in
  W.set_parallel wh pool;
  let server = Serve.create ~port:0 wh in
  let serving = Domain.spawn (fun () -> Serve.run server) in
  let client = Client.connect (Serve.port server) in
  (* enough commits that both commits and reads get [min_samples] *)
  let timed_batches =
    List.fold_left max (int_of_float (Float.round (seconds *. w.rate)))
      [ min_samples; (min_samples + w.reads - 1) / w.reads ]
  in
  let per_round = max (tail + 1) ((timed_batches + rounds - 1) / rounds) in
  (* the traced run times the first rounds plainly (the GC baseline) and
     shadows the rest *)
  let trace_round = if traced then late_round else max_int in
  let round = ref 0 in
  let commits = timed () and late = timed () in
  let scales = samples () in
  let reads = timed () in
  let read_query = samples () and read_sort = samples () and read_render = samples () in
  let response_bytes = ref 0 and response_rows = ref 0 in
  let deltas = ref 0 and ingest = timed () and committed = ref 0 in
  let gc_alloc = ref 0. and gc_minor = ref 0 and gc_major = ref 0 and gc_deltas = ref 0 in
  let read_no = ref 0 in
  let l =
    {
      batches = 0; deltas = 0; ingest_s = 0.; validator_s = 0.;
      validator_alloc = 0.; engine_s = 0.; engine_alloc = 0.;
      phase_s = Array.make (Array.length phases) 0.; flow_in = 0; flow_netted = 0;
      flow_applied = 0; capture_s = 0.; capture_rows = 0; capture_alloc = 0.;
      fsync_s = 0.; fsyncs = 0;
    }
  in
  let shadow = ref None in
  let read_views = Array.of_list w.read_views in
  let ingest_batch ~timed_batch ~parent ~seq ~k batch =
    let in_trace = parent > 0 in
    let a0 = alloc () in
    let f0 = Histogram.sum fsync_hist in
    let c0 = Histogram.count fsync_hist in
    let report, dt =
      time (fun () ->
          if in_trace then
            span ~parent ~seq "warehouse.ingest_report" (fun _ ->
                W.ingest_report wh batch)
          else W.ingest_report wh batch)
    in
    let a1 = alloc () in
    let n = List.length batch in
    tally.attempted <- tally.attempted + n;
    committed := !committed + report.W.applied;
    let rejected = List.length report.W.rejected in
    tally.failed <- tally.failed + rejected;
    if rejected > 0 then
      Printf.printf "FAILED: %d delta(s) rejected in batch %d\n%!" rejected seq;
    if timed_batch then begin
      deltas := !deltas + report.W.applied;
      record ingest dt k;
      if !round >= late_round then record late dt k;
      if not in_trace then begin
        record commits dt k;
        gc_alloc := !gc_alloc +. (a1 -. a0);
        gc_deltas := !gc_deltas + n
      end
    end;
    if in_trace then begin
      l.batches <- l.batches + 1;
      l.deltas <- l.deltas + n;
      l.ingest_s <- l.ingest_s +. dt;
      l.fsync_s <- l.fsync_s +. (Histogram.sum fsync_hist -. f0);
      l.fsyncs <- l.fsyncs + (Histogram.count fsync_hist - c0)
    end
  in
  let checks = ref [] in
  let read ~timed_batch ~parent ~seq ~k =
    let in_trace = parent > 0 in
    let view = read_views.(!read_no mod Array.length read_views) in
    incr read_no;
    let response, dt =
      time (fun () ->
          if in_trace then
            span ~parent ~seq "serve.read" (fun _ ->
                Client.pin_and_query client view)
          else Client.pin_and_query client view)
    in
    if timed_batch then record reads dt k;
    (* verified after the step, outside its GC accounting *)
    checks :=
      (fun () -> check ("served rows of " ^ view) (check_served wh view response))
      :: !checks;
    if in_trace then begin
      let (_, rows), ds = time (fun () -> W.query_sorted wh view) in
      add read_query dt;
      add read_sort ds;
      add read_render (dt -. ds);
      response_bytes := !response_bytes + String.length response;
      response_rows := !response_rows + List.length rows
    end
  in
  (* one batch: commit, the reads after it, and in a traced round the
     shadow pipeline *)
  let step ~timed_batch =
    let k = speed () in
    add scales k;
    let batch = next_batch w gen in
    let seq = W.ingested_batches wh + 1 in
    let body parent =
      ingest_batch ~timed_batch ~parent ~seq ~k batch;
      for _ = 1 to w.reads do
        read ~timed_batch ~parent ~seq ~k
      done;
      Option.iter (fun sh -> shadow_batch l sh ~parent ~seq batch) !shadow
    in
    if !shadow <> None then span ~parent:0 ~seq "batch" body
    else begin
      (* collections are counted over the commit and its reads: the serve
         domain triggers some of them while it renders *)
      let q0 = Gc.quick_stat () in
      body 0;
      let q1 = Gc.quick_stat () in
      if timed_batch then begin
        gc_minor := !gc_minor + q1.Gc.minor_collections - q0.Gc.minor_collections;
        gc_major := !gc_major + q1.Gc.major_collections - q0.Gc.major_collections
      end
    end;
    List.iter (fun f -> f ()) (List.rev !checks);
    checks := []
  in
  let cps = timed () and saves = timed () in
  let recs = timed () and loads = timed () in
  let wal_bytes = ref 0 and snapshot_bytes_per_fact = ref 0. in
  let wal_file = Filename.concat main_dir "wal.bin" in
  let crashes = ref [] in
  for _ = 1 to warmup do
    step ~timed_batch:false
  done;
  (* Each round: a block of batches, checkpoints, a WAL tail of [tail]
     batches, then a crash: a copy of the state directory, recovered once
     the ingest phase is over. Spreading the checkpoints over the run
     samples them at different moments. *)
  for r = 1 to rounds do
    round := r;
    if r = trace_round then shadow := Some (make_shadow wh pool);
    for _ = 1 to per_round - tail do
      step ~timed_batch:true
    done;
    if traced then begin
      let side = path "side-snapshot.bin" in
      measure saves (fun () -> W.save wh side);
      Sys.remove side
    end;
    wal_bytes := !wal_bytes + file_size wal_file;
    (* two checkpoints back to back: checkpoint time is the noisiest *)
    for _ = 1 to 2 do
      measure cps (fun () -> W.checkpoint wh)
    done;
    snapshot_bytes_per_fact :=
      float_of_int (file_size (Filename.concat main_dir "snapshot.bin"))
      /. float_of_int (Gen.live_facts gen);
    for _ = 1 to tail do
      step ~timed_batch:true
    done;
    let dir = path (Printf.sprintf "crashed%d" r) in
    copy_tree main_dir dir;
    let before = List.map (fun v -> (v, W.query_sorted wh v)) (W.view_names wh) in
    crashes := (dir, before) :: !crashes;
    stage (Printf.sprintf "round %d: checkpoint %.3f s" r
             cps.scaled.data.(cps.scaled.len - 1))
  done;
  (* ingest, serve and checkpoint of the live warehouse *)
  let peak_live = peak_rss_mb () in
  shadow := None;
  Client.close client;
  Serve.request_stop server;
  Domain.join serving;
  let live = float_of_int (Gen.live_facts gen) in
  wal_bytes := !wal_bytes + file_size wal_file;
  let wal_bytes_per_delta = float_of_int !wal_bytes /. float_of_int !committed in
  let resident =
    List.fold_left
      (fun acc (_, objs) -> List.fold_left (fun acc (_, b) -> acc + b) acc objs)
      0 (W.measured_bytes wh)
  in
  List.iter
    (fun (view, ok) -> check ("audit of " ^ view) ok)
    (W.audit wh ~reference:(W.believed_source wh));
  W.close wh;
  Gc.full_major ();
  reset_peak_rss ();
  stage "audit done";
  (* Recover each crashed copy with the live warehouse closed, as a
     restarted process would: one warehouse in memory at a time. Every
     recovered view must equal the live one at the crash. *)
  List.iter
    (fun (dir, before) ->
      if traced then
        ignore (measure loads (fun () -> W.load (Filename.concat dir "snapshot.bin")));
      let r = measure recs (fun () -> W.recover ~dir) in
      List.iter
        (fun (view, rows) -> check ("recovered " ^ view) (W.query_sorted r view = rows))
        before;
      W.close r;
      remove_tree dir;
      Gc.full_major ())
    (List.rev !crashes);
  let peak_recover = peak_rss_mb () in
  stage
    (Printf.sprintf "recoveries done; peak RSS %.0f MiB live, %.0f MiB in recovery"
       peak_live peak_recover);
  let peak = Float.max peak_live peak_recover in
  Printf.printf "host speed: kernel pass %.1f us at the median (reference %.1f us)\n"
    (1e6 *. reference_s /. median (values scales)) (1e6 *. reference_s);
  let timed_deltas = float_of_int !gc_deltas in
  let sum s = Array.fold_left ( +. ) 0. (values s) in
  let setup_s = median (values setups_t.scaled) in
  let commit_v = values commits.scaled and read_v = values reads.scaled in
  let e2e =
    [
      ("setup_s", "s", setup_s);
      ("ingest_rows_per_s", "1/s", float_of_int !deltas /. sum ingest.scaled);
      ("commit_p50_ms", "ms", 1e3 *. median commit_v);
      ("read_p50_ms", "ms", 1e3 *. median read_v);
      ("checkpoint_s", "s", trimmed_mean (values cps.scaled));
      ("recover_s", "s", trimmed_mean (values recs.scaled));
      ("resident_bytes_per_fact", "B", float_of_int resident /. live);
      ("snapshot_bytes_per_fact", "B", !snapshot_bytes_per_fact);
      ("wal_bytes_per_delta", "B", wal_bytes_per_delta);
      ("peak_rss_mb", "MiB", peak);
    ]
  in
  (* the same figures as measured, before the speed correction, and the
     correction's factor *)
  let raw =
    [
      ("setup_s", "s", median (values setups_t.raw));
      ("ingest_rows_per_s", "1/s", float_of_int !deltas /. sum ingest.raw);
      ("commit_p50_ms", "ms", 1e3 *. median (values commits.raw));
      ("read_p50_ms", "ms", 1e3 *. median (values reads.raw));
      ("checkpoint_s", "s", trimmed_mean (values cps.raw));
      ("recover_s", "s", trimmed_mean (values recs.raw));
      ("scale_factor_p50", "ratio", median (values scales));
      ("scale_factor_min", "ratio", Array.fold_left Float.min infinity (values scales));
      ("scale_factor_max", "ratio", Array.fold_left Float.max 0. (values scales));
    ]
  in
  let gc =
    [
      ("gc.minor_per_1k_deltas", "count", 1e3 *. float_of_int !gc_minor /. timed_deltas);
      ("gc.major_per_1k_deltas", "count", 1e3 *. float_of_int !gc_major /. timed_deltas);
      ("gc.alloc_bytes_per_delta", "B", !gc_alloc /. timed_deltas);
    ]
  in
  let late_commit_ms = 1e3 *. median (values late.scaled) in
  let per_layer =
    if not traced then []
    else begin
      let nb = float_of_int l.batches and nd = float_of_int l.deltas in
      let phase p = 1e3 *. phase_seconds l p /. nb in
      let layer_s = l.validator_s +. l.engine_s +. l.capture_s +. l.fsync_s in
      let flows = float_of_int l.flow_in in
      let cp = trimmed_mean (values cps.scaled) and save = trimmed_mean (values saves.scaled) in
      let rc = trimmed_mean (values recs.scaled) and load = trimmed_mean (values loads.scaled) in
      [
        ("validator.admit_us_per_delta", "us", 1e6 *. l.validator_s /. nd);
        ("validator.alloc_bytes_per_delta", "B", l.validator_alloc /. nd);
        ("engine.apply_ms_per_batch", "ms", 1e3 *. l.engine_s /. nb);
        ("engine.alloc_bytes_per_delta", "B", l.engine_alloc /. nd);
        ("engine.view_update_ms_per_batch", "ms", phase "view-update");
        ("engine.compact_ms_per_batch", "ms", phase "compact");
        ("engine.weighted_merge_ms_per_batch", "ms", phase "weighted-merge");
        ("engine.prepare_ms_per_batch", "ms", phase "prepare");
        ("engine.shard_apply_ms_per_batch", "ms", phase "shard-apply");
        ("delta_batch.netted_per_input", "ratio", float_of_int l.flow_netted /. flows);
        ("engine.applied_per_input", "ratio", float_of_int l.flow_applied /. flows);
        ("capture.ms_per_commit", "ms", 1e3 *. l.capture_s /. nb);
        ("capture.rows_per_commit", "rows", float_of_int l.capture_rows /. nb);
        ("capture.alloc_bytes_per_commit", "B", l.capture_alloc /. nb);
        ("wal.fsync_ms", "ms", 1e3 *. l.fsync_s /. float_of_int (max 1 l.fsyncs));
        ("warehouse.unattributed_ms_per_batch", "ms", 1e3 *. (l.ingest_s -. layer_s) /. nb);
        ("trace.coverage", "ratio", layer_s /. l.ingest_s);
        ("trace.overhead", "ratio", (late_commit_ms /. baseline_ms) -. 1.);
        ("serve.query_ms", "ms", 1e3 *. median (values read_query));
        ("serve.sort_ms", "ms", 1e3 *. median (values read_sort));
        ("serve.render_socket_ms", "ms", 1e3 *. median (values read_render));
        ("serve.response_bytes_per_row", "B",
          float_of_int !response_bytes /. float_of_int (max 1 !response_rows));
        ("checkpoint.save_s", "s", save);
        ("checkpoint.other_s", "s", cp -. save);
        ("recover.load_s", "s", load);
        ("recover.replay_ms_per_batch", "ms", 1e3 *. (rc -. load) /. float_of_int tail);
      ]
      @ gc
    end
  in
  let exact =
    [
      ("resident_bytes_per_fact", float_of_int resident /. live);
      ("snapshot_bytes_per_fact", !snapshot_bytes_per_fact);
      ("wal_bytes_per_delta", wal_bytes_per_delta);
      ("timed_batches", float_of_int timed_batches);
    ]
    @ List.map (fun (n, _, v) -> (n, v)) gc
    @ (if traced then
         List.filter_map
           (fun (n, _, v) ->
             if List.mem n
                  [ "validator.alloc_bytes_per_delta"; "engine.alloc_bytes_per_delta";
                    "delta_batch.netted_per_input"; "engine.applied_per_input";
                    "capture.rows_per_commit"; "capture.alloc_bytes_per_commit";
                    "serve.response_bytes_per_row" ]
             then Some (n, v)
             else None)
           per_layer
       else [])
  in
  let shares =
    if not traced then []
    else
      let phase = phase_seconds l in
      let compacted =
        phase "compact" +. phase "weighted-merge" +. phase "prepare" +. phase "shard-apply"
      in
      let layers =
        [
          ("validator", l.validator_s);
          ("engine.view_update", phase "view-update");
          ("engine.compacted_path", compacted);
          ("engine.other", l.engine_s -. phase "view-update" -. compacted);
          ("capture", l.capture_s);
          ("wal.fsync", l.fsync_s);
        ]
      in
      let rest = l.ingest_s -. List.fold_left (fun acc (_, s) -> acc +. s) 0. layers in
      List.map (fun (n, s) -> (n, s /. l.ingest_s)) (("unattributed", rest) :: layers)
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  if traced then write_spans (path "spans.json");
  let tails =
    [
      ("commit_p90_ms", "ms", 1e3 *. quantile commit_v 0.9);
      ("read_p90_ms", "ms", 1e3 *. quantile read_v 0.9);
    ]
  in
  { e2e; raw; tails; per_layer; exact; shares; late_commit_ms }

(* --- report -------------------------------------------------------------- *)

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (n, u, v) -> Printf.printf "  %-38s %16.6g %s\n" n v u) rows

let json_metrics rows =
  String.concat ","
    (List.map
       (fun (n, u, v) ->
         Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_str n) (json_num v)
           (json_str u))
       rows)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and state = ref "" and baseline_ms = ref nan in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (sizes the run)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--state", Arg.Set_string state, "DIR scratch directory for state");
      ("--baseline-ms", Arg.Set_float baseline_ms,
       "MS untraced LATE_COMMIT_P50_MS of the same seed (traced runs)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pipeline.exe --workload NAME --seed N --seconds S --trace 0|1 --state DIR \
     [--baseline-ms MS]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline
        ("unknown workload; one of: "
        ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  if !state = "" then (prerr_endline "--state DIR is required"; exit 2);
  let traced = !trace = 1 in
  let r =
    run w ~seed:!seed ~seconds:!seconds ~traced ~baseline_ms:!baseline_ms ~state:!state
  in
  print_table (Printf.sprintf "%s seed %d: end to end" w.name !seed) r.e2e;
  print_table "unscaled (as measured) and the speed scale factor" r.raw;
  (* Tail latencies follow the host's scheduling and disk stalls, which
     the speed scaling does not see: a set of runs on a busy host spread
     them past any usable bound, so they are reported but not gated. *)
  print_table "tails (not gated)" r.tails;
  if traced then begin
    print_table "per layer (traced run)" r.per_layer;
    Printf.printf "layer shares of the traced commit time:\n";
    List.iter (fun (n, share) -> Printf.printf "  %-24s %5.1f%%\n" n (100. *. share)) r.shares;
    (match r.shares with
    | (n, _) :: _ -> Printf.printf "dominant layer: %s\n" n
    | [] -> ())
  end;
  Printf.printf "LATE_COMMIT_P50_MS %s\n" (json_num r.late_commit_ms);
  Printf.printf "EXACT {%s}\n"
    (String.concat ","
       (List.map (fun (n, v) -> Printf.sprintf "%s:%s" (json_str n) (json_num v)) r.exact));
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (tally.failed = 0) tally.attempted tally.failed
    (json_metrics (if traced then r.per_layer else r.e2e))
