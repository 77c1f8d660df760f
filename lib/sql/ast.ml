type literal = L_int of int | L_float of float | L_string of string | L_bool of bool

type column_ref = { table : string option; column : string }

type agg_func = F_count | F_sum | F_avg | F_min | F_max

type select_expr =
  | E_column of column_ref
  | E_agg of { func : agg_func; distinct : bool; arg : column_ref option }

type select_item = { expr : select_expr; alias : string option }

type operand = O_column of column_ref | O_literal of literal

type condition = { left : operand; op : string; right : operand }

type having_condition = {
  having_column : string;
  having_op : string;
  having_value : literal;
}

type select = {
  items : select_item list;
  from : string list;
  where : condition list;
  group_by : column_ref list;
  having : having_condition list;
}

type column_def = {
  col_name : string;
  col_type : string;
  primary_key : bool;
  references : string option;
  updatable : bool;
}

type table_constraint =
  | Primary_key of string
  | Foreign_key of { column : string; target : string }

type statement =
  | Create_table of {
      name : string;
      columns : column_def list;
      constraints : table_constraint list;
    }
  | Create_view of { name : string; select : select }
  | Insert of { table : string; values : literal list }
  | Delete of { table : string; where : condition list }
  | Update of {
      table : string;
      assignments : (string * literal) list;
      where : condition list;
    }
  | Select_stmt of select

let pp_literal ppf = function
  | L_int n -> Format.pp_print_int ppf n
  | L_float f -> Format.fprintf ppf "%g" f
  | L_string s -> Format.fprintf ppf "'%s'" s
  | L_bool b -> Format.pp_print_bool ppf b

let pp_column_ref ppf { table; column } =
  match table with
  | Some t -> Format.fprintf ppf "%s.%s" t column
  | None -> Format.pp_print_string ppf column

let func_name = function
  | F_count -> "COUNT"
  | F_sum -> "SUM"
  | F_avg -> "AVG"
  | F_min -> "MIN"
  | F_max -> "MAX"

let pp_operand ppf = function
  | O_column c -> pp_column_ref ppf c
  | O_literal l -> pp_literal ppf l

let pp_condition ppf { left; op; right } =
  Format.fprintf ppf "%a %s %a" pp_operand left op pp_operand right
