(* Process-global workload registry. Cardinality is bounded the same way
   everywhere: at most [max_views] named accumulators, overflow shares
   "_other". The note_* paths touch only atomics and the view's sketch;
   everything string- or list-shaped happens on read. *)

let max_views = 64
let overflow_view = "_other"
let topk = 32
let hot_share_n = 8 (* top-N estimates summed into the skew coefficient *)

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

let atomic_add a d = ignore (Atomic.fetch_and_add a d)

(* Sketch updates are sampled one write event in [1 lsl sample_shift],
   with the fed weight scaled back up so frequency estimates stay
   unbiased: the producer keeps its own plain event counter (single
   domain, no synchronization), feeds a sampled event through
   [note_hot_key] when [counter land sample_mask = 0], and pushes the
   exact write/event totals here once per batch with [note_batch] — so
   the engine's per-tuple hot path touches nothing shared (telemetry's
   cost is budgeted in exact minor words per ingest, E41). *)
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

let lag_snapshot () = Option.map Metrics.histogram_snapshot !lag_hist

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
  first_event_s := 0.;
  restored_elapsed_s := 0.
