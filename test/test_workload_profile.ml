(* Workload intelligence: the streaming sketch error bounds (Space-Saving
   guaranteed heavy hitters, count-min one-sided error), concurrent writers
   on one sketch against a single-domain oracle, and the persisted workload
   profile round-trip — standalone and through a warehouse
   checkpoint/recover cycle. *)

open Helpers
module Gen = QCheck2.Gen
module Metrics = Telemetry.Metrics
module Json = Telemetry.Json
module Sketch = Telemetry.Sketch
module Wk = Telemetry.Workload

let test case fn = Alcotest.test_case case `Quick fn
let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

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
    seed = 31;
  }

(* streams are (key, weight) lists over a small key universe; the key
   itself serves as the hash, so distinct keys never collide *)
let stream_gen =
  Gen.(
    list_size (int_range 1 400)
      (pair (int_range 0 40) (int_range 1 9)))

let true_counts stream =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (key, w) ->
      Hashtbl.replace h key (w + Option.value ~default:0 (Hashtbl.find_opt h key)))
    stream;
  h

let feed_ss ss stream =
  List.iter
    (fun (key, w) ->
      Sketch.Space_saving.touch ~weight:w ss ~hash:key
        ~label:(fun () -> string_of_int key))
    stream

let feed_cms cms stream =
  List.iter (fun (key, w) -> Sketch.Count_min.add ~weight:w cms ~hash:key) stream

(* check est >= true and est - err <= true for every merged entry, plus the
   guaranteed-hitter property: true count > total/k implies tracked *)
let check_ss_bounds ~k ss truth =
  let entries = Sketch.Space_saving.top ~n:max_int ss in
  let total = Sketch.Space_saving.total ss in
  List.iter
    (fun e ->
      let t =
        Option.value ~default:0
          (Hashtbl.find_opt truth e.Sketch.Space_saving.e_hash)
      in
      if e.Sketch.Space_saving.e_est < t then
        Alcotest.failf "key %d: est %d < true %d" e.Sketch.Space_saving.e_hash
          e.Sketch.Space_saving.e_est t;
      if e.Sketch.Space_saving.e_est - e.Sketch.Space_saving.e_err > t then
        Alcotest.failf "key %d: est %d - err %d > true %d"
          e.Sketch.Space_saving.e_hash e.Sketch.Space_saving.e_est
          e.Sketch.Space_saving.e_err t)
    entries;
  let tracked = List.map (fun e -> e.Sketch.Space_saving.e_hash) entries in
  Hashtbl.iter
    (fun key t ->
      if t * k > total && not (List.mem key tracked) then
        Alcotest.failf "guaranteed hitter %d (true %d > %d/%d) missing" key t
          total k)
    truth;
  true

let sketch_props =
  [
    QCheck2.Test.make ~count:200
      ~name:"space-saving: bounds hold and guaranteed hitters are tracked"
      stream_gen
      (fun stream ->
        Metrics.reset ();
        let k = 8 in
        let ss = Sketch.Space_saving.create ~k in
        feed_ss ss stream;
        check_ss_bounds ~k ss (true_counts stream));
    QCheck2.Test.make ~count:200 ~name:"count-min never under-estimates"
      stream_gen
      (fun stream ->
        Metrics.reset ();
        let cms = Sketch.Count_min.create ~depth:3 ~width:32 () in
        feed_cms cms stream;
        let truth = true_counts stream in
        Hashtbl.iter
          (fun key t ->
            let est = Sketch.Count_min.estimate cms ~hash:key in
            if est < t then
              Alcotest.failf "key %d: cms estimate %d < true %d" key est t)
          truth;
        true);
    QCheck2.Test.make ~count:60
      ~name:"space-saving totals and restore are additive" stream_gen
      (fun stream ->
        Metrics.reset ();
        let ss = Sketch.Space_saving.create ~k:8 in
        feed_ss ss stream;
        let total = Sketch.Space_saving.total ss in
        let expect = List.fold_left (fun acc (_, w) -> acc + w) 0 stream in
        if total <> expect then
          Alcotest.failf "total %d <> stream weight %d" total expect;
        let entries = Sketch.Space_saving.top ~n:max_int ss in
        let ss2 = Sketch.Space_saving.create ~k:8 in
        Sketch.Space_saving.restore ss2 entries ~total;
        if Sketch.Space_saving.total ss2 <> total then
          Alcotest.failf "restored total %d <> %d"
            (Sketch.Space_saving.total ss2)
            total;
        (* the restored summary keeps every entry's upper bound *)
        check_ss_bounds ~k:8 ss2 (true_counts stream));
  ]

(* --- concurrent writers on one sketch vs a single-domain oracle ---------- *)

let split4 stream =
  let parts = [| []; []; []; [] |] in
  List.iteri (fun i x -> parts.(i land 3) <- x :: parts.(i land 3)) stream;
  parts

let domain_props =
  [
    QCheck2.Test.make ~count:30
      ~name:"count-min: 4 domains writing one matrix equal the serial oracle"
      stream_gen
      (fun stream ->
        Metrics.reset ();
        let par = Sketch.Count_min.create ~depth:3 ~width:32 () in
        let ser = Sketch.Count_min.create ~depth:3 ~width:32 () in
        feed_cms ser stream;
        let parts = split4 stream in
        Array.to_list parts
        |> List.map (fun part -> Domain.spawn (fun () -> feed_cms par part))
        |> List.iter Domain.join;
        (* additions commute, so the matrix is independent of the order
           in which the domains' updates took the lock *)
        if Sketch.Count_min.total par <> Sketch.Count_min.total ser then
          Alcotest.failf "totals differ: %d vs %d"
            (Sketch.Count_min.total par)
            (Sketch.Count_min.total ser);
        Hashtbl.iter
          (fun key _ ->
            let a = Sketch.Count_min.estimate par ~hash:key in
            let b = Sketch.Count_min.estimate ser ~hash:key in
            if a <> b then
              Alcotest.failf "key %d: parallel %d <> serial %d" key a b)
          (true_counts stream);
        true);
    QCheck2.Test.make ~count:30
      ~name:"space-saving: 4 domains writing one summary keep bounds and hitters"
      stream_gen
      (fun stream ->
        Metrics.reset ();
        let k = 8 in
        let ss = Sketch.Space_saving.create ~k in
        let parts = split4 stream in
        Array.to_list parts
        |> List.map (fun part -> Domain.spawn (fun () -> feed_ss ss part))
        |> List.iter Domain.join;
        check_ss_bounds ~k ss (true_counts stream));
  ]

(* --- the persisted workload profile -------------------------------------- *)

let jget path j =
  match Json.path path j with
  | Some v -> v
  | None -> Alcotest.failf "profile is missing %s" (String.concat "." path)

let jnum path j =
  match Json.to_float (jget path j) with
  | Some f -> f
  | None -> Alcotest.failf "profile field %s is not a number"
              (String.concat "." path)

let view_obj name j =
  match
    List.find_opt
      (fun v -> Json.member "view" v = Some (Json.Str name))
      (Json.to_list (jget [ "views" ] j))
  with
  | Some v -> v
  | None -> Alcotest.failf "profile has no view %S" name

let parsed_profile () = Json.parse_exn (Wk.profile_json ())

let feed_view name =
  let vs = Wk.view name in
  (* a producer's local accounting, the engine's discipline: sample the
     sketch feeds, record the batch with its exact totals once *)
  let events = ref 0 and writes = ref 0 in
  for round = 1 to 100 do
    (* zipf-ish: key 1 dominates *)
    let key = if round mod 10 = 0 then round / 10 else 1 in
    if !events land Wk.sample_mask = 0 then
      Wk.note_hot_key ~weight:2 vs ~hash:key ~label:(fun () ->
          "k" ^ string_of_int key);
    incr events;
    writes := !writes + 2
  done;
  Wk.note_batch vs ~deltas_in:200 ~netted:110 ~applied:110 ~writes:!writes
    ~events:!events;
  Wk.note_read vs ~verb:`Query ~lag:0;
  Wk.note_read vs ~verb:`Reconstruct ~lag:3;
  vs

let profile_tests =
  [
    test "profile_json reports counters, skew and hot keys" (fun () ->
        Metrics.reset ();
        Wk.reset ();
        let _ = feed_view "wkp_basic" in
        Wk.note_shard_run ~workers:2 ~busy:[| 0.3; 0.1 |];
        Wk.note_shard_ops [| 5; 7 |];
        (* observed time is positive, so both rates are *)
        Unix.sleepf 0.002;
        let j = parsed_profile () in
        Alcotest.(check (float 1e-9))
          "schema" (float_of_int Wk.profile_schema) (jnum [ "schema" ] j);
        let v = view_obj "wkp_basic" j in
        Alcotest.(check (float 1e-9)) "writes" 200. (jnum [ "writes" ] v);
        Alcotest.(check (float 1e-9))
          "write events" 100. (jnum [ "write_events" ] v);
        Alcotest.(check (float 1e-9)) "query reads" 1.
          (jnum [ "reads"; "query" ] v);
        Alcotest.(check (float 1e-9))
          "reconstruct reads" 1.
          (jnum [ "reads"; "reconstruct" ] v);
        (* 200 netted write weight over 2 reads *)
        Alcotest.(check (float 1e-9))
          "update/read ratio" 100.
          (jnum [ "update_read_ratio" ] v);
        let write_rate = jnum [ "write_rate_per_s" ] v
        and read_rate = jnum [ "read_rate_per_s" ] v in
        Alcotest.(check bool) "read rate positive" true (read_rate > 0.);
        (* both rates share one observed interval *)
        Alcotest.(check (float 1e-4))
          "write rate is 100 read rates" 1.
          (write_rate /. (100. *. read_rate));
        Alcotest.(check (float 1e-9))
          "compaction ratio" 0.55
          (jnum [ "skew"; "compaction_ratio" ] v);
        (* 90% of the weight is on one key *)
        Alcotest.(check bool)
          "hot-key share is skewed" true
          (jnum [ "skew"; "hot_key_share" ] v > 0.8);
        let hot = Json.to_list (jget [ "hot_keys" ] v) in
        Alcotest.(check bool) "hot keys non-empty" true (hot <> []);
        let first = List.hd hot in
        Alcotest.(check (option string))
          "hottest key label" (Some "k1")
          (Option.bind (Json.member "key" first) Json.to_string);
        (* epoch lag: two reads observed *)
        Alcotest.(check (float 1e-9))
          "lag count" 2.
          (jnum [ "epoch_lag"; "count" ] j);
        Alcotest.(check (float 1e-9))
          "shard runs" 1.
          (jnum [ "shards"; "runs" ] j));
    test "write/reset/load round-trips additively" (fun () ->
        Metrics.reset ();
        Wk.reset ();
        let _ = feed_view "wkp_round" in
        let before = parsed_profile () in
        let path = tmp "wkp_round_profile.json" in
        Wk.write_profile ~path;
        Wk.reset ();
        Alcotest.(check bool) "load succeeds" true (Wk.load_profile ~path);
        let after = parsed_profile () in
        let v0 = view_obj "wkp_round" before
        and v1 = view_obj "wkp_round" after in
        List.iter
          (fun field ->
            Alcotest.(check (float 1e-9))
              field
              (jnum [ field ] v0)
              (jnum [ field ] v1))
          [ "writes"; "write_events"; "batches"; "deltas_in"; "netted" ];
        Alcotest.(check (float 1e-9))
          "hottest estimate survives"
          (jnum [ "est" ] (List.hd (Json.to_list (jget [ "hot_keys" ] v0))))
          (jnum [ "est" ] (List.hd (Json.to_list (jget [ "hot_keys" ] v1))));
        (* loading the same file again doubles the counters: the merge is
           additive by design (restore + WAL replay discipline) *)
        Alcotest.(check bool) "second load" true (Wk.load_profile ~path);
        let twice = view_obj "wkp_round" (parsed_profile ()) in
        Alcotest.(check (float 1e-9))
          "additive merge" (2. *. jnum [ "writes" ] v0)
          (jnum [ "writes" ] twice));
    test "load_profile is false on a missing file" (fun () ->
        Metrics.reset ();
        Wk.reset ();
        Alcotest.(check bool)
          "missing" false
          (Wk.load_profile ~path:(tmp "wkp_no_such_profile.json")));
  ]

(* --- through the warehouse: checkpoint persists, recover restores -------- *)

let fresh_id = ref 7_000_000

let skewed_sales n =
  (* product 1 takes most of the stream: a hot group key for product_sales.
     timeid 4+ lands in the 1997 half of the tiny calendar, which the view's
     year predicate requires *)
  List.init n (fun idx ->
      incr fresh_id;
      let product = if idx mod 10 = 0 then 1 + (idx mod 5) else 1 in
      Delta.insert "sale"
        (row
           [ i !fresh_id; i (4 + (idx mod 3)); i product; i 1;
             i (10 + (idx mod 7)) ]))

let warehouse_tests =
  [
    test "checkpoint writes the profile; recover restores the sketches"
      (fun () ->
        Metrics.reset ();
        Wk.reset ();
        let db = Workload.Retail.load tiny in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.product_sales;
        let dir = fresh_dir "wkp_wh_dir" in
        Warehouse.attach wh ~dir;
        Warehouse.ingest wh (skewed_sales 60);
        Warehouse.checkpoint wh;
        let path = Warehouse.workload_profile_path dir in
        Alcotest.(check bool)
          "profile file exists" true (Sys.file_exists path);
        let saved = parsed_profile () in
        let writes_before = jnum [ "writes" ] (view_obj "product_sales" saved) in
        Alcotest.(check bool) "writes recorded" true (writes_before > 0.);
        Wk.reset ();
        let wh2 = Warehouse.recover ~dir in
        let restored = parsed_profile () in
        let v = view_obj "product_sales" restored in
        Alcotest.(check bool)
          "writes restored" true
          (jnum [ "writes" ] v >= writes_before);
        let hot = Json.to_list (jget [ "hot_keys" ] v) in
        Alcotest.(check bool) "hot keys restored" true (hot <> []);
        (* the dominant product-1 key must still lead the restored top-k *)
        Alcotest.(check bool)
          "top key has the bulk of the weight" true
          (jnum [ "est" ] (List.hd hot) > 0.5 *. jnum [ "sketch_total" ] v);
        Warehouse.close wh2);
    test "write_workload_profile needs an attached directory" (fun () ->
        Metrics.reset ();
        Wk.reset ();
        let db = Workload.Retail.load tiny in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.product_sales;
        (match Warehouse.write_workload_profile wh with
        | _ -> Alcotest.fail "expected Not_durable on a detached warehouse"
        | exception _ -> ());
        let dir = fresh_dir "wkp_wh_ondemand" in
        Warehouse.attach wh ~dir;
        let path = Warehouse.write_workload_profile wh in
        Alcotest.(check bool) "written on demand" true (Sys.file_exists path));
  ]

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "workload_profile"
    [
      ("sketch bounds", List.map to_alcotest sketch_props);
      ("concurrent writers", List.map to_alcotest domain_props);
      ("profile round-trip", profile_tests);
      ("warehouse round-trip", warehouse_tests);
    ]
