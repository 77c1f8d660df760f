(* Savings attribution (the paper's Tables 4-6, measured live): replay the
   derivation's reduction waterfall against an actual database and count
   the rows/fields each technique removes. Survivor key sets are built
   bottom-up over the join tree so semijoin tests see exactly what the
   target's auxview would store. *)

module View = Algebra.View
module Attr = Algebra.Attr
module Predicate = Algebra.Predicate
module Database = Relational.Database
module Schema = Relational.Schema

type t = {
  table : string;
  aux : string;
  retained : bool;
  compressed : bool;
  raw_rows : int;
  raw_fields : int;
  kept_fields : int;
  stored_fields : int;
  rows_after_local : int;
  rows_after_join : int;
  resident_rows : int;
}

let fold_factor a =
  if a.resident_rows = 0 then 1.0
  else float_of_int a.rows_after_join /. float_of_int a.resident_rows

type bytes_breakdown = {
  raw_bytes : int;
  local_selection : int;
  local_projection : int;
  join_reduction : int;
  compression : int;
  elimination : int;
  stored_bytes : int;
}

(* Waterfall stages in bytes; consecutive differences attribute the savings
   so the decomposition telescopes exactly: raw = sum of savings + stored. *)
let bytes a =
  let b = 8 (* bytes per stored field *) in
  let s0 = a.raw_rows * a.raw_fields * b in
  let s1 = a.rows_after_local * a.raw_fields * b in
  let s2 = a.rows_after_local * a.stored_fields * b in
  let s3 = a.rows_after_join * a.stored_fields * b in
  let s4 = a.resident_rows * a.stored_fields * b in
  let s5 = if a.retained then s4 else 0 in
  {
    raw_bytes = s0;
    local_selection = s0 - s1;
    local_projection = s1 - s2;
    join_reduction = s2 - s3;
    compression = s3 - s4;
    elimination = s4 - s5;
    stored_bytes = s5;
  }

let rec post_order g t =
  List.concat_map (post_order g) (Join_graph.children g t) @ [ t ]

(* The spec an omitted table would have had, so elimination savings can be
   priced against the footprint the other techniques would have left. *)
let ghost_spec (d : Derive.t) db table =
  let o = d.Derive.options in
  Compression.compress ~enabled:o.Derive.compression
    ~append_only:o.Derive.append_only db d.Derive.view
    (Reduction.local ~push_locals:o.Derive.push_locals
       ~join_reductions:o.Derive.join_reductions db d.Derive.view table)

let measure db (d : Derive.t) =
  let survivors :
      (string, (Relational.Value.t, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let measure_one table =
    let retained, spec =
      match List.assoc table d.Derive.decisions with
      | Derive.Retained s -> (true, s)
      | Derive.Omitted _ -> (false, ghost_spec d db table)
    in
    let schema = Database.schema_of db table in
    let raw_fields = Schema.arity schema in
    let key_idx = Schema.key_index schema in
    let sj_checks =
      List.map
        (fun (sj : Auxview.semijoin) ->
          let fk_idx = Schema.index_of schema sj.Auxview.fk in
          let keys =
            match Hashtbl.find_opt survivors sj.Auxview.target with
            | Some h -> h
            | None -> Hashtbl.create 0
          in
          fun (tup : Relational.Tuple.t) -> Hashtbl.mem keys tup.(fk_idx))
        spec.Auxview.semijoins
    in
    let group_idxs =
      Auxview.group_columns spec |> List.map (Schema.index_of schema)
    in
    let my_survivors = Hashtbl.create 64 in
    Hashtbl.replace survivors table my_survivors;
    let groups = Hashtbl.create 64 in
    let raw_rows = ref 0 and after_local = ref 0 and after_join = ref 0 in
    Database.fold db table
      (fun tup () ->
        incr raw_rows;
        let lookup (a : Attr.t) = tup.(Schema.index_of schema a.Attr.column) in
        if List.for_all (fun p -> Predicate.holds p lookup) spec.Auxview.locals
        then begin
          incr after_local;
          if List.for_all (fun check -> check tup) sj_checks then begin
            incr after_join;
            Hashtbl.replace my_survivors tup.(key_idx) ();
            Hashtbl.replace groups (List.map (fun i -> tup.(i)) group_idxs) ()
          end
        end)
      ();
    let resident_rows =
      if spec.Auxview.compressed then Hashtbl.length groups else !after_join
    in
    let kept_fields =
      spec.Auxview.columns
      |> List.filter_map (fun (_, c) ->
             match c with
             | Auxview.Plain b
             | Auxview.Sum_of b
             | Auxview.Min_of b
             | Auxview.Max_of b -> Some b
             | Auxview.Count_star -> None)
      |> List.sort_uniq String.compare
      |> List.length
    in
    {
      table;
      aux = spec.Auxview.name;
      retained;
      compressed = spec.Auxview.compressed;
      raw_rows = !raw_rows;
      raw_fields;
      kept_fields;
      stored_fields = List.length spec.Auxview.columns;
      rows_after_local = !after_local;
      rows_after_join = !after_join;
      resident_rows;
    }
  in
  (* children before parents, so semijoin targets are measured first *)
  let order = post_order d.Derive.graph (Join_graph.root d.Derive.graph) in
  let measured = List.map (fun tbl -> (tbl, measure_one tbl)) order in
  List.map (fun tbl -> List.assoc tbl measured) d.Derive.view.View.tables

(* --- rendering ----------------------------------------------------------- *)

let render ?measured ~view attrs =
  (* the measured column is an actual byte count from the columnar
     segments; an auxview without one (omitted, or kept by an engine with
     boxed state) falls back to the waterfall's bytes-per-field estimate *)
  let measured_of a =
    match measured with
    | None -> None
    | Some f ->
      Some (match f a.aux with Some b -> b | None -> (bytes a).stored_bytes)
  in
  let headers =
    [
      "table"; "aux view"; "raw"; "local sel"; "local proj"; "join red";
      "dup comp"; "eliminated"; "stored";
    ]
    @ (if Option.is_some measured then [ "measured" ] else [])
  in
  let row_of a =
    let b = bytes a in
    [
      a.table;
      (if a.retained then a.aux else a.aux ^ " (omitted)");
      string_of_int b.raw_bytes;
      string_of_int b.local_selection;
      string_of_int b.local_projection;
      string_of_int b.join_reduction;
      string_of_int b.compression;
      string_of_int b.elimination;
      string_of_int b.stored_bytes;
    ]
    @ (match measured_of a with None -> [] | Some m -> [ string_of_int m ])
  in
  let total =
    List.fold_left
      (fun acc a ->
        let b = bytes a in
        List.map2 ( + ) acc
          ([
             b.raw_bytes; b.local_selection; b.local_projection;
             b.join_reduction; b.compression; b.elimination; b.stored_bytes;
           ]
          @ match measured_of a with None -> [] | Some m -> [ m ]))
      (if Option.is_some measured then [ 0; 0; 0; 0; 0; 0; 0; 0 ]
       else [ 0; 0; 0; 0; 0; 0; 0 ])
      attrs
  in
  let total_row = "TOTAL" :: "" :: List.map string_of_int total in
  let rows = List.map row_of attrs @ [ total_row ] in
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map String.length headers)
      rows
  in
  let line =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "+"
  in
  let render_row row =
    "|"
    ^ String.concat "|"
        (List.map2
           (fun w c -> Printf.sprintf " %s%s " c (String.make (w - String.length c) ' '))
           widths row)
    ^ "|"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "== savings attribution (view %s, bytes) ==\n" view);
  Buffer.add_string buf (line ^ "\n");
  Buffer.add_string buf (render_row headers ^ "\n");
  Buffer.add_string buf (line ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render_row r ^ "\n")) rows;
  Buffer.add_string buf (line ^ "\n");
  Buffer.add_string buf "row flow:\n";
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %s: %d rows -> local %d -> join %d -> resident %d (fold %.3gx, \
            %d of %d columns kept)%s\n"
           a.table a.raw_rows a.rows_after_local a.rows_after_join
           a.resident_rows (fold_factor a) a.kept_fields a.raw_fields
           (if a.retained then "" else " [eliminated]")))
    attrs;
  Buffer.contents buf

let to_json ?measured ~view a =
  let esc = Telemetry.Trace.json_escape in
  let b = bytes a in
  let measured_field =
    match measured with
    | None -> ""
    | Some f ->
      Printf.sprintf ",\"measured_stored\":%d"
        (match f a.aux with Some m -> m | None -> b.stored_bytes)
  in
  Printf.sprintf
    "{\"view\":\"%s\",\"table\":\"%s\",\"aux\":\"%s\",\"retained\":%b,\"compressed\":%b,\"raw_rows\":%d,\"raw_fields\":%d,\"kept_fields\":%d,\"stored_fields\":%d,\"rows_after_local\":%d,\"rows_after_join\":%d,\"resident_rows\":%d,\"fold_factor\":%.6g,\"bytes\":{\"raw\":%d,\"local_selection\":%d,\"local_projection\":%d,\"join_reduction\":%d,\"compression\":%d,\"elimination\":%d,\"stored\":%d%s}}"
    (esc view) (esc a.table) (esc a.aux) a.retained a.compressed a.raw_rows
    a.raw_fields a.kept_fields a.stored_fields a.rows_after_local
    a.rows_after_join a.resident_rows (fold_factor a) b.raw_bytes
    b.local_selection b.local_projection b.join_reduction b.compression
    b.elimination b.stored_bytes measured_field

(* layout ballast, never called (see [Warehouse.Storage]'s) *)
let _ballast x y z =
  (x * 3) + (y lsr 2) + (x lxor y) + (x land 7) + y * 5 + z * y + z / 3 + z mod 7
  + (x lor z) + (y * 11) + 1
