module Database = Relational.Database
module Schema = Relational.Schema
module Datatype = Relational.Datatype
module Value = Relational.Value
module Delta = Relational.Delta
module Relation = Relational.Relation
module View = Algebra.View
module Attr = Algebra.Attr
module Aggregate = Algebra.Aggregate
module Select_item = Algebra.Select_item
module Predicate = Algebra.Predicate
module Cmp = Algebra.Cmp

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type outcome =
  | Defined_table of string
  | Defined_view of Algebra.View.t
  | Applied of Delta.t list
  | Queried of string list * Relation.t

let literal_value = function
  | Ast.L_int n -> Value.Int n
  | Ast.L_float f -> Value.Float f
  | Ast.L_string s -> Value.String s
  | Ast.L_bool b -> Value.Bool b

let resolve db ~tables (c : Ast.column_ref) =
  match c.Ast.table with
  | Some t ->
    if not (List.mem t tables) then
      fail "column %s.%s references a table outside FROM" t c.Ast.column;
    Attr.make t c.Ast.column
  | None -> (
    match
      List.filter
        (fun t -> Schema.mem (Database.schema_of db t) c.Ast.column)
        tables
    with
    | [ t ] -> Attr.make t c.Ast.column
    | [] -> fail "unknown column %s" c.Ast.column
    | ts ->
      fail "ambiguous column %s (in %s)" c.Ast.column (String.concat ", " ts))

let agg_func = function
  | Ast.F_count -> Aggregate.Count
  | Ast.F_sum -> Aggregate.Sum
  | Ast.F_avg -> Aggregate.Avg
  | Ast.F_min -> Aggregate.Min
  | Ast.F_max -> Aggregate.Max

let default_alias (expr : Ast.select_expr) =
  match expr with
  | Ast.E_column c -> c.Ast.column
  | Ast.E_agg { func; arg = None; _ } ->
    (match func with Ast.F_count -> "count" | _ -> assert false)
  | Ast.E_agg { func; arg = Some c; distinct } ->
    Printf.sprintf "%s_%s%s"
      (String.lowercase_ascii (Ast.func_name func))
      (if distinct then "distinct_" else "")
      c.Ast.column

let cmp_of_string op =
  match Cmp.of_string op with
  | Some c -> c
  | None -> fail "unsupported operator %s" op

let flip = function
  | Cmp.Eq -> Cmp.Eq
  | Cmp.Neq -> Cmp.Neq
  | Cmp.Lt -> Cmp.Gt
  | Cmp.Le -> Cmp.Ge
  | Cmp.Gt -> Cmp.Lt
  | Cmp.Ge -> Cmp.Le

(* Split resolved WHERE conditions into local predicates and key joins. *)
let split_conditions db ~tables conds =
  List.fold_left
    (fun (locals, joins) (c : Ast.condition) ->
      let op = cmp_of_string c.Ast.op in
      match c.Ast.left, c.Ast.right with
      | Ast.O_literal _, Ast.O_literal _ ->
        fail "constant condition is not supported"
      | Ast.O_column l, Ast.O_literal lit ->
        ( { Predicate.left = resolve db ~tables l; op;
            right = Predicate.Const (literal_value lit) }
          :: locals,
          joins )
      | Ast.O_literal lit, Ast.O_column r ->
        ( { Predicate.left = resolve db ~tables r; op = flip op;
            right = Predicate.Const (literal_value lit) }
          :: locals,
          joins )
      | Ast.O_column l, Ast.O_column r ->
        let la = resolve db ~tables l and ra = resolve db ~tables r in
        if String.equal la.Attr.table ra.Attr.table then
          ( { Predicate.left = la; op; right = Predicate.Col ra } :: locals,
            joins )
        else begin
          if op <> Cmp.Eq then
            fail "join condition %s must be an equality"
              (Format.asprintf "%a" Ast.pp_condition c);
          let key_of (a : Attr.t) =
            String.equal (Database.schema_of db a.Attr.table).Schema.key
              a.Attr.column
          in
          if key_of ra then (locals, { View.src = la; dst = ra } :: joins)
          else if key_of la then (locals, { View.src = ra; dst = la } :: joins)
          else
            fail "join %a = %a targets no key (GPSJ views join on keys)"
              Attr.pp la Attr.pp ra
        end)
    ([], []) conds
  |> fun (locals, joins) -> (List.rev locals, List.rev joins)

let view_of_select db ~name (s : Ast.select) =
  let tables = s.Ast.from in
  let items =
    List.map
      (fun (i : Ast.select_item) ->
        let alias =
          match i.Ast.alias with Some a -> a | None -> default_alias i.Ast.expr
        in
        match i.Ast.expr with
        | Ast.E_column c -> Select_item.group ~alias (resolve db ~tables c)
        | Ast.E_agg { func = Ast.F_count; distinct = false; arg = _ } ->
          (* no nulls: COUNT(a) is COUNT( * ) (Section 3.1) *)
          Select_item.Agg (Aggregate.make ~alias Aggregate.Count_star None)
        | Ast.E_agg { func; distinct; arg = Some c } ->
          Select_item.Agg
            (Aggregate.make ~distinct ~alias (agg_func func)
               (Some (resolve db ~tables c)))
        | Ast.E_agg { arg = None; _ } -> assert false)
      s.Ast.items
  in
  let locals, joins = split_conditions db ~tables s.Ast.where in
  let having =
    List.map
      (fun (h : Ast.having_condition) ->
        {
          View.h_column = h.Ast.having_column;
          h_op = cmp_of_string h.Ast.having_op;
          h_const = literal_value h.Ast.having_value;
        })
      s.Ast.having
  in
  let view = { View.name; select = items; tables; locals; joins; having } in
  (* When aggregates or an explicit GROUP BY are present, GROUP BY must list
     exactly the non-aggregate select items. A pure projection without either
     is the duplicate-eliminating generalized projection and needs none. *)
  if View.has_aggregates view || s.Ast.group_by <> [] then begin
    let declared =
      List.map (resolve db ~tables) s.Ast.group_by
      |> List.sort_uniq Attr.compare
    in
    let projected = List.sort_uniq Attr.compare (View.group_attrs view) in
    if not (List.equal Attr.equal declared projected) then
      fail
        "GROUP BY must list exactly the projected non-aggregate columns of %s"
        name
  end;
  View.validate db view;
  view

(* --- DDL ---------------------------------------------------------------- *)

let create_table db name (columns : Ast.column_def list)
    (constraints : Ast.table_constraint list) =
  let keys =
    List.filter_map
      (fun (c : Ast.column_def) ->
        if c.Ast.primary_key then Some c.Ast.col_name else None)
      columns
    @ List.filter_map
        (function Ast.Primary_key c -> Some c | Ast.Foreign_key _ -> None)
        constraints
  in
  let key =
    match keys with
    | [ k ] -> k
    | [] -> fail "table %s: no primary key (single-attribute key required)" name
    | _ -> fail "table %s: multiple primary keys" name
  in
  let schema =
    Schema.make ~name ~key
      (List.map
         (fun (c : Ast.column_def) ->
           match Datatype.of_sql_name c.Ast.col_type with
           | Some ty -> { Schema.col_name = c.Ast.col_name; col_type = ty }
           | None -> fail "table %s: unknown type %s" name c.Ast.col_type)
         columns)
  in
  let updatable =
    List.filter_map
      (fun (c : Ast.column_def) ->
        if c.Ast.updatable then Some c.Ast.col_name else None)
      columns
  in
  Database.add_table db schema ~updatable;
  List.iter
    (fun (src_col, dst_table) ->
      Database.add_reference db
        { Relational.Integrity.src_table = name; src_col; dst_table })
    (List.filter_map
       (fun (c : Ast.column_def) ->
         Option.map (fun t -> (c.Ast.col_name, t)) c.Ast.references)
       columns
    @ List.filter_map
        (function
          | Ast.Foreign_key { column; target } -> Some (column, target)
          | Ast.Primary_key _ -> None)
        constraints)

(* --- DML ---------------------------------------------------------------- *)

let holds_on db table tup (c : Ast.condition) =
  let schema = Database.schema_of db table in
  let value = function
    | Ast.O_literal lit -> literal_value lit
    | Ast.O_column { Ast.table = qualifier; column } ->
      (match qualifier with
      | Some t when not (String.equal t table) ->
        fail "condition references table %s in DML on %s" t table
      | _ -> ());
      tup.(Schema.index_of schema column)
  in
  Cmp.eval (cmp_of_string c.Ast.op) (value c.Ast.left) (value c.Ast.right)

(* In key order, whatever the store's: a statement's changes come out in
   an order that depends only on the rows. *)
let matching_rows db table where =
  List.filter
    (fun tup -> List.for_all (holds_on db table tup) where)
    (Database.rows_by_key db table)

let run db (stmt : Ast.statement) =
  match stmt with
  | Ast.Create_table { name; columns; constraints } ->
    create_table db name columns constraints;
    Defined_table name
  | Ast.Create_view { name; select } ->
    Defined_view (view_of_select db ~name select)
  | Ast.Select_stmt select ->
    let view = view_of_select db ~name:"query" select in
    Queried (Algebra.Eval.output_columns view, Algebra.Eval.eval db view)
  | Ast.Insert { table; values } ->
    let d = Delta.insert table (Array.of_list (List.map literal_value values)) in
    Database.apply db d;
    Applied [ d ]
  | Ast.Delete { table; where } ->
    let ds =
      List.map (fun tup -> Delta.delete table tup) (matching_rows db table where)
    in
    Database.apply_all db ds;
    Applied ds
  | Ast.Update { table; assignments; where } ->
    let schema = Database.schema_of db table in
    let ds =
      List.map
        (fun before ->
          let after = Array.copy before in
          List.iter
            (fun (col, lit) ->
              after.(Schema.index_of schema col) <- literal_value lit)
            assignments;
          Delta.update table ~before ~after)
        (matching_rows db table where)
    in
    Database.apply_all db ds;
    Applied ds

let run_script db input =
  List.map (run db) (Parser.script input)

let views outcomes =
  List.filter_map
    (function Defined_view v -> Some v | _ -> None)
    outcomes

let changes outcomes =
  List.concat_map (function Applied ds -> ds | _ -> []) outcomes
