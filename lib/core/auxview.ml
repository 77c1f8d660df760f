module Predicate = Algebra.Predicate

type out_col =
  | Plain of string
  | Sum_of of string
  | Min_of of string
  | Max_of of string
  | Count_star

type semijoin = { fk : string; target : string; target_key : string }

type t = {
  base : string;
  name : string;
  locals : Predicate.t list;
  columns : (string * out_col) list;
  semijoins : semijoin list;
  compressed : bool;
}

let default_name base = base ^ "DTL"

let column_names spec = List.map fst spec.columns

let group_columns spec =
  List.filter_map
    (fun (_, def) -> match def with Plain c -> Some c | _ -> None)
    spec.columns

let ext_columns spec =
  List.filter_map
    (fun (_, def) ->
      match def with
      | Min_of c -> Some (c, true)
      | Max_of c -> Some (c, false)
      | Plain _ | Sum_of _ | Count_star -> None)
    spec.columns

let find_index p spec =
  let rec loop i = function
    | [] -> None
    | (_, def) :: rest -> if p def then Some i else loop (i + 1) rest
  in
  loop 0 spec.columns

let count_index = find_index (function Count_star -> true | _ -> false)

let plain_index spec col =
  find_index
    (function Plain c -> String.equal c col | _ -> false)
    spec

let sum_index spec col =
  find_index
    (function Sum_of c -> String.equal c col | _ -> false)
    spec

let position_among proj spec col =
  let rec loop i = function
    | [] -> None
    | c :: rest -> if String.equal c col then Some i else loop (i + 1) rest
  in
  loop 0 (proj spec)

let summed_columns spec =
  List.filter_map
    (fun (_, def) -> match def with Sum_of c -> Some c | _ -> None)
    spec.columns

let plain_position spec col = position_among group_columns spec col
let sum_position spec col = position_among summed_columns spec col

let ext_position ~is_min spec col =
  let rec loop i = function
    | [] -> None
    | (c, mn) :: rest ->
      if String.equal c col && mn = is_min then Some i else loop (i + 1) rest
  in
  loop 0 (ext_columns spec)

let min_position spec col = ext_position ~is_min:true spec col
let max_position spec col = ext_position ~is_min:false spec col

let keeps_key spec ~key = plain_index spec key <> None

let to_sql spec =
  let buf = Buffer.create 128 in
  Buffer.add_string buf ("CREATE VIEW " ^ spec.name ^ " AS\n  SELECT ");
  let item (name, def) =
    match def with
    | Plain c -> if String.equal c name then c else c ^ " AS " ^ name
    | Sum_of c -> Printf.sprintf "SUM(%s) AS %s" c name
    | Min_of c -> Printf.sprintf "MIN(%s) AS %s" c name
    | Max_of c -> Printf.sprintf "MAX(%s) AS %s" c name
    | Count_star -> Printf.sprintf "COUNT(*) AS %s" name
  in
  Buffer.add_string buf (String.concat ", " (List.map item spec.columns));
  Buffer.add_string buf ("\n  FROM " ^ spec.base);
  let conds =
    List.map (Format.asprintf "%a" Predicate.pp) spec.locals
    @ List.map
        (fun sj ->
          Printf.sprintf "%s IN (SELECT %s FROM %s)" sj.fk sj.target_key
            (default_name sj.target))
        spec.semijoins
  in
  if conds <> [] then
    Buffer.add_string buf ("\n  WHERE " ^ String.concat "\n    AND " conds);
  (if spec.compressed then
     match group_columns spec with
     | [] -> ()
     | gs -> Buffer.add_string buf ("\n  GROUP BY " ^ String.concat ", " gs));
  Buffer.contents buf

let pp ppf spec = Format.pp_print_string ppf (to_sql spec)
