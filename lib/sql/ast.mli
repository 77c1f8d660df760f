(** Abstract syntax of the SQL subset, before name resolution. *)

type literal = L_int of int | L_float of float | L_string of string | L_bool of bool

(** Possibly-qualified column reference. *)
type column_ref = { table : string option; column : string }

type agg_func = F_count | F_sum | F_avg | F_min | F_max

type select_expr =
  | E_column of column_ref
  | E_agg of { func : agg_func; distinct : bool; arg : column_ref option }
      (** [arg = None] encodes COUNT( * ) *)

type select_item = { expr : select_expr; alias : string option }

type operand = O_column of column_ref | O_literal of literal

type condition = { left : operand; op : string; right : operand }

type having_condition = {
  having_column : string;  (** an output alias of the select list *)
  having_op : string;
  having_value : literal;
}

type select = {
  items : select_item list;
  from : string list;
  where : condition list;  (** conjunctive *)
  group_by : column_ref list;
  having : having_condition list;  (** conjunctive *)
}

type column_def = {
  col_name : string;
  col_type : string;
  primary_key : bool;
  references : string option;
  updatable : bool;  (** our extension: column may be updated by sources *)
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

(** SQL spelling of an aggregate function, e.g. ["SUM"]. *)
val func_name : agg_func -> string

val pp_condition : Format.formatter -> condition -> unit
