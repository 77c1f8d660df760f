(* Snapshot renderers: JSON lines and Prometheus text exposition. Kept
   separate from the [Telemetry] facade so the HTTP exporter (which the
   facade re-exports) can render without a dependency cycle. *)

(* JSON-safe float: JSON has no nan/inf, so map them to null / signed
   "Inf" strings; integers render without an exponent. *)
let json_float f =
  if Float.is_nan f then "null"
  else if f = infinity then "\"+Inf\""
  else if f = neg_infinity then "\"-Inf\""
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let json_labels labels =
  labels
  |> List.map (fun (k, v) ->
         Printf.sprintf "\"%s\":\"%s\"" (Trace.json_escape k)
           (Trace.json_escape v))
  |> String.concat ","

let snap_to_json (s : Metrics.snap) =
  let common =
    Printf.sprintf "\"name\":\"%s\",\"labels\":{%s}"
      (Trace.json_escape s.s_name)
      (json_labels s.s_labels)
  in
  match s.s_value with
  | Metrics.Counter_v v ->
    Printf.sprintf "{%s,\"type\":\"counter\",\"value\":%d}" common v
  | Metrics.Gauge_v v ->
    Printf.sprintf "{%s,\"type\":\"gauge\",\"value\":%s}" common (json_float v)
  | Metrics.Histogram_v h ->
    let buckets =
      h.h_buckets |> Array.to_list
      |> List.map (fun (le, n) ->
             Printf.sprintf "{\"le\":%s,\"count\":%d}" (json_float le) n)
      |> String.concat ","
    in
    (* count and sum travel next to the percentile estimates so external
       tooling can compute averages without touching the raw buckets; avg
       is precomputed for the common case *)
    let avg =
      if h.h_count = 0 then Float.nan
      else h.h_sum /. float_of_int h.h_count
    in
    Printf.sprintf
      "{%s,\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"avg\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"buckets\":[%s]}"
      common h.h_count (json_float h.h_sum) (json_float avg)
      (json_float h.h_min)
      (json_float h.h_max)
      (json_float (Metrics.percentile h 0.50))
      (json_float (Metrics.percentile h 0.95))
      (json_float (Metrics.percentile h 0.99))
      buckets

(* One metric per line: greppable, diffable, and a valid JSONL stream. *)
let dump_json () =
  Metrics.snapshot () |> List.map snap_to_json |> String.concat "\n"

(* --- Prometheus text exposition ----------------------------------------- *)

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v))
           labels)
    ^ "}"

(* Build identity, scrape-only: emitted as literal lines rather than a
   registered gauge so [reset] cannot zero it, TELEMETRY=off cannot blank
   it, and the JSON dump (cram-pinned) stays unchanged. The sha is the
   program's to set. *)
let build_sha = Atomic.make "unknown"
let set_build_sha sha = Atomic.set build_sha sha

let build_info_lines () =
  let sha = Atomic.get build_sha in
  Printf.sprintf
    "# HELP minview_build_info Build identity of this binary (value is \
     always 1)\n\
     # TYPE minview_build_info gauge\n\
     minview_build_info%s 1\n"
    (prom_labels [ ("ocaml_version", Sys.ocaml_version); ("sha", sha) ])

let to_prometheus () =
  let snaps = Metrics.snapshot () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (build_info_lines ());
  let last_header = ref "" in
  let header name help kind =
    if !last_header <> name then begin
      last_header := name;
      (* HELP is always emitted so scrapes are self-describing; metrics
         registered without help text say so instead of going silent *)
      let help = if help = "" then "(no help registered)" else help in
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (s : Metrics.snap) ->
      let lbl extra = prom_labels (s.s_labels @ extra) in
      match s.s_value with
      | Metrics.Counter_v v ->
        header s.s_name s.s_help "counter";
        Buffer.add_string buf
          (Printf.sprintf "%s%s %d\n" s.s_name (lbl []) v)
      | Metrics.Gauge_v v ->
        header s.s_name s.s_help "gauge";
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" s.s_name (lbl []) (prom_float v))
      | Metrics.Histogram_v h ->
        header s.s_name s.s_help "histogram";
        let cum = ref 0 in
        Array.iter
          (fun (le, n) ->
            cum := !cum + n;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" s.s_name
                 (lbl [ ("le", prom_float le) ])
                 !cum))
          h.h_buckets;
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" s.s_name (lbl [])
             (prom_float h.h_sum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" s.s_name (lbl []) h.h_count))
    snaps;
  (* percentile estimates as separate gauge families, grouped per quantile
     so each synthetic family gets exactly one TYPE header *)
  let histograms =
    List.filter_map
      (fun (s : Metrics.snap) ->
        match s.s_value with
        | Metrics.Histogram_v h -> Some (s, h)
        | _ -> None)
      snaps
  in
  if histograms <> [] then
    List.iter
      (fun (suffix, q) ->
        last_header := "";
        List.iter
          (fun ((s : Metrics.snap), h) ->
            let name = s.s_name ^ suffix in
            header name
              (Printf.sprintf "Estimated %g-quantile of %s" q s.s_name)
              "gauge";
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" name
                 (prom_labels s.s_labels)
                 (prom_float (Metrics.percentile h q))))
          histograms)
      [ ("_p50", 0.50); ("_p95", 0.95); ("_p99", 0.99) ];
  Buffer.contents buf
