(* Process-global workload registry. Cardinality is bounded the same way
   everywhere: at most [max_views] named accumulators, overflow shares
   "_other". The note_* paths touch only atomics and the view's sketch;
   everything string- or list-shaped happens on read. *)

let max_views = 64
let overflow_view = "_other"
let topk = 32
let hot_share_n = 8 (* top-N estimates summed into the skew coefficient *)
let ring_cap = 512
let max_shards = 64

type view_stats = {
  v_name : string;
  v_hot : Sketch.Space_saving.t;
  v_writes : int Atomic.t; (* exact netted write weight, via note_batch *)
  v_write_events : int Atomic.t; (* exact group-key touches, via note_batch *)
  v_batches : int Atomic.t;
  v_deltas_in : int Atomic.t;
  v_netted : int Atomic.t;
  v_applied : int Atomic.t;
  v_reads_query : int Atomic.t;
  v_reads_reconstruct : int Atomic.t;
}

let views : (string, view_stats) Hashtbl.t = Hashtbl.create 16
let views_m = Mutex.create ()

(* Elapsed workload time: from the first recorded event, plus whatever a
   restored profile had already observed. *)
let first_event_s = ref 0.
let first_m = Mutex.create ()
let restored_elapsed_s = ref 0.

let mark_active () =
  if !first_event_s = 0. then begin
    Mutex.lock first_m;
    if !first_event_s = 0. then first_event_s := Metrics.now_s ();
    Mutex.unlock first_m
  end

let elapsed_s () =
  let live =
    match !first_event_s with 0. -> 0. | t0 -> Metrics.now_s () -. t0
  in
  live +. !restored_elapsed_s

(* Epoch-lag distribution, registered on first read so idle processes
   don't grow their metric dump. *)
let lag_hist = ref None

let get_lag_hist () =
  match !lag_hist with
  | Some h -> h
  | None ->
    Mutex.lock views_m;
    let h =
      match !lag_hist with
      | Some h -> h
      | None ->
        let h =
          Metrics.Histogram.make ~lo:1. ~factor:2. ~buckets:16
            ~help:"Epochs a serve read was pinned behind the published head"
            "minview_workload_epoch_lag_batches"
        in
        lag_hist := Some h;
        h
    in
    Mutex.unlock views_m;
    h

(* Shard heat: cumulative per-shard busy seconds and applied ops, plus a
   bounded ring of per-dispatch imbalance samples (max/mean busy) — the
   time series Shard's scalar [minview_shard_imbalance_ratio] cannot give.
   Updated once per batch, so a single mutex is cheap. *)
type shard_state = {
  sh_m : Mutex.t;
  mutable sh_runs : int;
  mutable sh_workers : int; (* worker count of the last dispatch *)
  sh_busy_s : float array;
  sh_ops : int array;
  sh_ring : float array;
  mutable sh_ring_pos : int;
  mutable sh_ring_len : int;
}

let shards =
  {
    sh_m = Mutex.create ();
    sh_runs = 0;
    sh_workers = 0;
    sh_busy_s = Array.make max_shards 0.;
    sh_ops = Array.make max_shards 0;
    sh_ring = Array.make ring_cap 0.;
    sh_ring_pos = 0;
    sh_ring_len = 0;
  }

let make_stats name =
  {
    v_name = name;
    v_hot = Sketch.Space_saving.create ~k:topk;
    v_writes = Atomic.make 0;
    v_write_events = Atomic.make 0;
    v_batches = Atomic.make 0;
    v_deltas_in = Atomic.make 0;
    v_netted = Atomic.make 0;
    v_applied = Atomic.make 0;
    v_reads_query = Atomic.make 0;
    v_reads_reconstruct = Atomic.make 0;
  }

let view name =
  Mutex.lock views_m;
  let find_or_add name =
    match Hashtbl.find_opt views name with
    | Some vs -> vs
    | None ->
      let vs = make_stats name in
      Hashtbl.replace views name vs;
      vs
  in
  let vs =
    match Hashtbl.find_opt views name with
    | Some vs -> vs
    | None ->
      if Hashtbl.length views >= max_views then find_or_add overflow_view
      else find_or_add name
  in
  Mutex.unlock views_m;
  vs

let view_name vs = vs.v_name

let atomic_add a d = ignore (Atomic.fetch_and_add a d)

(* Sketch updates are sampled one write event in [1 lsl sample_shift],
   with the fed weight scaled back up so frequency estimates stay
   unbiased: the producer keeps its own plain event counter (single
   domain, no synchronization), feeds a sampled event through
   [note_hot_key] when [counter land sample_mask = 0], and pushes the
   exact write/event totals here once per batch with [note_batch] — so
   the engine's per-tuple hot path touches nothing shared (the overhead
   gate budgets the whole telemetry layer at a few percent). *)
let sample_shift = 5
let sample_mask = (1 lsl sample_shift) - 1

let note_hot_key ?(weight = 1) vs ~hash ~label =
  Sketch.Space_saving.touch vs.v_hot ~weight:(weight lsl sample_shift) ~hash
    ~label

let note_batch vs ~deltas_in ~netted ~applied ~writes ~events =
  if Metrics.enabled () then begin
    mark_active ();
    atomic_add vs.v_writes writes;
    atomic_add vs.v_write_events events;
    atomic_add vs.v_batches 1;
    atomic_add vs.v_deltas_in deltas_in;
    atomic_add vs.v_netted netted;
    atomic_add vs.v_applied applied
  end

let note_read vs ~verb ~lag =
  if Metrics.enabled () then begin
    mark_active ();
    (match verb with
    | `Query -> atomic_add vs.v_reads_query 1
    | `Reconstruct -> atomic_add vs.v_reads_reconstruct 1);
    Metrics.Histogram.observe (get_lag_hist ()) (float_of_int (max 0 lag))
  end

let note_shard_run ~workers ~busy =
  if Metrics.enabled () && workers > 0 then begin
    mark_active ();
    let s = shards in
    Mutex.lock s.sh_m;
    s.sh_runs <- s.sh_runs + 1;
    s.sh_workers <- workers;
    let total = ref 0. and hot = ref 0. in
    Array.iteri
      (fun i b ->
        if i < max_shards then s.sh_busy_s.(i) <- s.sh_busy_s.(i) +. b;
        total := !total +. b;
        if b > !hot then hot := b)
      busy;
    let mean = !total /. float_of_int (Array.length busy) in
    let imbalance = if mean > 0. then !hot /. mean else 1. in
    s.sh_ring.(s.sh_ring_pos) <- imbalance;
    s.sh_ring_pos <- (s.sh_ring_pos + 1) mod ring_cap;
    if s.sh_ring_len < ring_cap then s.sh_ring_len <- s.sh_ring_len + 1;
    Mutex.unlock s.sh_m
  end

let note_shard_ops ops =
  if Metrics.enabled () then begin
    let s = shards in
    Mutex.lock s.sh_m;
    Array.iteri
      (fun i n -> if i < max_shards && n > 0 then s.sh_ops.(i) <- s.sh_ops.(i) + n)
      ops;
    Mutex.unlock s.sh_m
  end

(* --- profile rendering --------------------------------------------------- *)

let profile_schema = 1

let fmt_f f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let sorted_views () =
  Mutex.lock views_m;
  let all = Hashtbl.fold (fun _ vs acc -> vs :: acc) views [] in
  Mutex.unlock views_m;
  List.sort (fun a b -> compare a.v_name b.v_name) all

let reads_total vs =
  Atomic.get vs.v_reads_query + Atomic.get vs.v_reads_reconstruct

(* Skew coefficient: share of the total stream held by the top few keys.
   Uniform streams over many keys sit near [hot_share_n / distinct]; zipf
   streams push it toward 1. *)
let hot_key_share vs =
  let total = Sketch.Space_saving.total vs.v_hot in
  if total = 0 then 0.
  else begin
    let top = Sketch.Space_saving.top ~n:hot_share_n vs.v_hot in
    let est =
      List.fold_left
        (fun acc (e : Sketch.Space_saving.entry) -> acc + e.e_est)
        0 top
    in
    Float.min 1. (float_of_int est /. float_of_int total)
  end

let compaction_ratio vs =
  let din = Atomic.get vs.v_deltas_in in
  if din = 0 then 1.
  else float_of_int (Atomic.get vs.v_netted) /. float_of_int din

let update_read_ratio vs =
  let w = Atomic.get vs.v_writes and r = reads_total vs in
  if r = 0 then float_of_int w else float_of_int w /. float_of_int r

let view_json vs =
  let b = Buffer.create 1024 in
  let el = elapsed_s () in
  let rate n = if el > 0. then float_of_int n /. el else 0. in
  Buffer.add_string b
    (Printf.sprintf
       "{\"view\":\"%s\",\"writes\":%d,\"write_events\":%d,\"batches\":%d,\"deltas_in\":%d,\"netted\":%d,\"applied\":%d,\"reads\":{\"query\":%d,\"reconstruct\":%d},\"write_rate_per_s\":%s,\"read_rate_per_s\":%s,\"update_read_ratio\":%s,\"skew\":{\"hot_key_share\":%s,\"compaction_ratio\":%s}"
       (Trace.json_escape vs.v_name)
       (Atomic.get vs.v_writes)
       (Atomic.get vs.v_write_events)
       (Atomic.get vs.v_batches)
       (Atomic.get vs.v_deltas_in)
       (Atomic.get vs.v_netted)
       (Atomic.get vs.v_applied)
       (Atomic.get vs.v_reads_query)
       (Atomic.get vs.v_reads_reconstruct)
       (fmt_f (rate (Atomic.get vs.v_writes)))
       (fmt_f (rate (reads_total vs)))
       (fmt_f (update_read_ratio vs))
       (fmt_f (hot_key_share vs))
       (fmt_f (compaction_ratio vs)));
  Buffer.add_string b ",\"hot_keys\":[";
  List.iteri
    (fun i (e : Sketch.Space_saving.entry) ->
      if i > 0 then Buffer.add_char b ',';
      (* hashes as strings: 63-bit ints do not survive a double round-trip *)
      Buffer.add_string b
        (Printf.sprintf "{\"key\":\"%s\",\"hash\":\"%d\",\"est\":%d,\"err\":%d}"
           (Trace.json_escape e.e_key) e.e_hash e.e_est e.e_err))
    (Sketch.Space_saving.top vs.v_hot);
  Buffer.add_string b
    (Printf.sprintf "],\"sketch_total\":%d}"
       (Sketch.Space_saving.total vs.v_hot));
  Buffer.contents b

let lag_snapshot () =
  match !lag_hist with
  | None -> None
  | Some h ->
    let bounds = Metrics.Histogram.bucket_bounds h in
    let counts = Metrics.Histogram.bucket_counts h in
    Some
      {
        Metrics.h_count = Metrics.Histogram.count h;
        h_sum = Metrics.Histogram.sum h;
        h_min = Metrics.Histogram.min_value h;
        h_max = Metrics.Histogram.max_value h;
        h_buckets = Array.mapi (fun i le -> (le, counts.(i))) bounds;
      }

let shards_json () =
  let s = shards in
  Mutex.lock s.sh_m;
  let runs = s.sh_runs and workers = s.sh_workers in
  let busy = Array.copy s.sh_busy_s and ops = Array.copy s.sh_ops in
  let recent =
    let n = min 32 s.sh_ring_len in
    List.init n (fun i ->
        let idx = (s.sh_ring_pos - n + i + ring_cap) mod ring_cap in
        s.sh_ring.(idx))
  in
  Mutex.unlock s.sh_m;
  (* trim trailing idle shards so 4-worker runs do not print 64 zeros *)
  let live = ref 0 in
  Array.iteri
    (fun i b -> if b > 0. || ops.(i) > 0 then live := i + 1)
    busy;
  let live = max !live workers in
  let floats a =
    String.concat ","
      (List.init live (fun i -> fmt_f a.(i)))
  in
  let ints a =
    String.concat "," (List.init live (fun i -> string_of_int a.(i)))
  in
  Printf.sprintf
    "{\"runs\":%d,\"workers\":%d,\"busy_s\":[%s],\"ops\":[%s],\"recent_imbalance\":[%s]}"
    runs workers (floats busy) (ints ops)
    (String.concat "," (List.map fmt_f recent))

let profile_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":%d,\"generated_unix_s\":%s,\"elapsed_s\":%s,\"views\":["
       profile_schema
       (fmt_f (Metrics.now_s ()))
       (fmt_f (elapsed_s ())));
  List.iteri
    (fun i vs ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (view_json vs))
    (sorted_views ());
  Buffer.add_string b "],\"epoch_lag\":";
  (match lag_snapshot () with
  | None -> Buffer.add_string b "{\"count\":0}"
  | Some h ->
    Buffer.add_string b
      (Printf.sprintf
         "{\"count\":%d,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"max\":%s}"
         h.Metrics.h_count
         (fmt_f (Metrics.percentile h 0.50))
         (fmt_f (Metrics.percentile h 0.95))
         (fmt_f (Metrics.percentile h 0.99))
         (fmt_f h.Metrics.h_max)));
  Buffer.add_string b ",\"shards\":";
  Buffer.add_string b (shards_json ());
  Buffer.add_char b '}';
  Buffer.contents b

(* --- persistence --------------------------------------------------------- *)

let write_profile ~path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (profile_json ());
      output_char oc '\n');
  Sys.rename tmp path

let load_profile ~path =
  match
    if Sys.file_exists path then (
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic))))
    else None
  with
  | None -> false
  | Some raw -> (
    match Json.parse raw with
    | Error _ -> false
    | Ok j ->
      let num ?(default = 0.) o =
        match Option.bind o Json.to_float with Some f -> f | None -> default
      in
      let inum ?default o = int_of_float (num ?default o) in
      (match Json.member "schema" j with
      | Some s when inum (Some s) = profile_schema ->
        restored_elapsed_s :=
          !restored_elapsed_s +. num (Json.member "elapsed_s" j);
        List.iter
          (fun vj ->
            match Option.bind (Json.member "view" vj) Json.to_string with
            | None -> ()
            | Some name ->
              let vs = view name in
              atomic_add vs.v_writes (inum (Json.member "writes" vj));
              atomic_add vs.v_write_events
                (inum (Json.member "write_events" vj));
              atomic_add vs.v_batches (inum (Json.member "batches" vj));
              atomic_add vs.v_deltas_in (inum (Json.member "deltas_in" vj));
              atomic_add vs.v_netted (inum (Json.member "netted" vj));
              atomic_add vs.v_applied (inum (Json.member "applied" vj));
              atomic_add vs.v_reads_query
                (inum (Json.path [ "reads"; "query" ] vj));
              atomic_add vs.v_reads_reconstruct
                (inum (Json.path [ "reads"; "reconstruct" ] vj));
              let entries =
                Json.member "hot_keys" vj
                |> Option.map Json.to_list
                |> Option.value ~default:[]
                |> List.filter_map (fun e ->
                       match
                         ( Option.bind (Json.member "key" e) Json.to_string,
                           Option.bind (Json.member "hash" e) Json.to_string )
                       with
                       | Some key, Some hash_s -> (
                         match int_of_string_opt hash_s with
                         | None -> None
                         | Some hash ->
                           Some
                             {
                               Sketch.Space_saving.e_key = key;
                               e_hash = hash;
                               e_est = inum (Json.member "est" e);
                               e_err = inum (Json.member "err" e);
                             })
                       | _ -> None)
              in
              Sketch.Space_saving.restore vs.v_hot entries
                ~total:(inum (Json.member "sketch_total" vj)))
          (Json.member "views" j |> Option.map Json.to_list
         |> Option.value ~default:[]);
        (match Json.member "shards" j with
        | None -> ()
        | Some sj ->
          let s = shards in
          Mutex.lock s.sh_m;
          s.sh_runs <- s.sh_runs + inum (Json.member "runs" sj);
          s.sh_workers <- max s.sh_workers (inum (Json.member "workers" sj));
          let add_arr name f =
            Json.member name sj
            |> Option.map Json.to_list
            |> Option.value ~default:[]
            |> List.iteri (fun i v ->
                   if i < max_shards then f i (num (Some v)))
          in
          add_arr "busy_s" (fun i v ->
              s.sh_busy_s.(i) <- s.sh_busy_s.(i) +. v);
          add_arr "ops" (fun i v ->
              s.sh_ops.(i) <- s.sh_ops.(i) + int_of_float v);
          Mutex.unlock s.sh_m);
        true
      | _ -> false))

let reset () =
  Mutex.lock views_m;
  Hashtbl.iter
    (fun _ vs ->
      Sketch.Space_saving.reset vs.v_hot;
      Atomic.set vs.v_writes 0;
      Atomic.set vs.v_write_events 0;
      Atomic.set vs.v_batches 0;
      Atomic.set vs.v_deltas_in 0;
      Atomic.set vs.v_netted 0;
      Atomic.set vs.v_applied 0;
      Atomic.set vs.v_reads_query 0;
      Atomic.set vs.v_reads_reconstruct 0)
    views;
  Mutex.unlock views_m;
  let s = shards in
  Mutex.lock s.sh_m;
  s.sh_runs <- 0;
  s.sh_workers <- 0;
  Array.fill s.sh_busy_s 0 max_shards 0.;
  Array.fill s.sh_ops 0 max_shards 0;
  Array.fill s.sh_ring 0 ring_cap 0.;
  s.sh_ring_pos <- 0;
  s.sh_ring_len <- 0;
  Mutex.unlock s.sh_m;
  first_event_s := 0.;
  restored_elapsed_s := 0.
