(* Lineage records: a bounded ring of per-transaction flow summaries plus
   the caller's rotating JSONL file, if it has one. Emission happens once
   per committed batch (never per row). *)

type aux_flow = {
  aux : string;
  base : string;
  resident_delta : int;
  detail_delta : int;
  folded : int;
}

type view_flow = {
  view : string;
  mode : string;
  deltas_in : int;
  netted : int;
  applied : int;
  group_delta : int;
  aux_flows : aux_flow list;
}

type record = {
  txn : int;
  tables : (string * int) list;
  flows : view_flow list;
}

let ring_capacity = 256

let ring = Trace.Ring.create ring_capacity { txn = 0; tables = []; flows = [] }

let records_total =
  Metrics.Counter.make
    ~help:"Lineage records emitted for committed transactions"
    "minview_lineage_records_total"

let audit_checked view =
  Metrics.Counter.make ~help:"Group keys cross-checked by the drift auditor"
    ~labels:[ ("view", view) ]
    "minview_lineage_audit_checked_total"

let audit_divergences view =
  Metrics.Counter.make
    ~help:"Sampled group keys whose recomputation disagreed with the view"
    ~labels:[ ("view", view) ]
    "minview_lineage_audit_divergences_total"

(* --- JSON rendering ------------------------------------------------------ *)

let aux_flow_to_json a =
  Printf.sprintf
    "{\"aux\":\"%s\",\"base\":\"%s\",\"resident_delta\":%d,\"detail_delta\":%d,\"folded\":%d}"
    (Trace.json_escape a.aux) (Trace.json_escape a.base) a.resident_delta
    a.detail_delta a.folded

let view_flow_to_json f =
  Printf.sprintf
    "{\"view\":\"%s\",\"mode\":\"%s\",\"deltas_in\":%d,\"netted\":%d,\"applied\":%d,\"group_delta\":%d,\"aux\":[%s]}"
    (Trace.json_escape f.view) (Trace.json_escape f.mode) f.deltas_in f.netted
    f.applied f.group_delta
    (String.concat "," (List.map aux_flow_to_json f.aux_flows))

let record_to_json r =
  let tables =
    r.tables
    |> List.map (fun (t, n) ->
           Printf.sprintf "\"%s\":%d" (Trace.json_escape t) n)
    |> String.concat ","
  in
  Printf.sprintf "{\"txn\":%d,\"tables\":{%s},\"flows\":[%s]}" r.txn tables
    (String.concat "," (List.map view_flow_to_json r.flows))

(* --- emission ------------------------------------------------------------ *)

let emit ~sink r =
  if Metrics.enabled () then begin
    Metrics.Counter.one records_total;
    Trace.Ring.push ring r;
    (match sink with
    | Some s -> Jsonl_sink.write_line s (record_to_json r)
    | None -> ());
    let deltas = List.fold_left (fun acc (_, n) -> acc + n) 0 r.tables in
    Trace.event "lineage.record"
      ~attrs:
        [
          ("txn", string_of_int r.txn);
          ("tables", string_of_int (List.length r.tables));
          ("deltas", string_of_int deltas);
        ]
  end

let recent ?txn ?table () =
  Trace.Ring.recent ring
  |> List.filter (fun r ->
         (match txn with Some t -> r.txn = t | None -> true)
         &&
         match table with
         | Some t -> List.mem_assoc t r.tables
         | None -> true)

let clear () = Trace.Ring.clear ring

(* --- drift auditor ------------------------------------------------------- *)

let sample_indices ~sample ~total =
  if total <= 0 || sample <= 0 then []
  else if sample >= total then List.init total Fun.id
  else List.init sample (fun i -> i * total / sample)

let audit ~view ~sample ~total ~check =
  let idxs = sample_indices ~sample ~total in
  let checked = List.length idxs in
  let divergences =
    List.fold_left (fun acc i -> if check i then acc else acc + 1) 0 idxs
  in
  if Metrics.enabled () then begin
    Metrics.Counter.inc (audit_checked view) checked;
    (* registered even at 0: a clean audit must be told from no audit *)
    Metrics.Counter.inc (audit_divergences view) divergences;
    Trace.event "lineage.audit"
      ~attrs:
        [
          ("view", view);
          ("checked", string_of_int checked);
          ("divergences", string_of_int divergences);
        ]
  end;
  (checked, divergences)
