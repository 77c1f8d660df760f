type t = TInt | TFloat | TString | TBool

let equal (a : t) b =
  match (a, b) with
  | TInt, TInt | TFloat, TFloat | TString, TString | TBool, TBool -> true
  | (TInt | TFloat | TString | TBool), _ -> false

let to_string = function
  | TInt -> "INT"
  | TFloat -> "FLOAT"
  | TString -> "TEXT"
  | TBool -> "BOOL"

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_sql_name s =
  match String.uppercase_ascii s with
  | "INT" | "INTEGER" | "BIGINT" -> Some TInt
  | "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" | "NUMERIC" -> Some TFloat
  | "TEXT" | "VARCHAR" | "CHAR" | "STRING" -> Some TString
  | "BOOL" | "BOOLEAN" -> Some TBool
  | _ -> None

let of_value = function
  | Value.Int _ -> TInt
  | Value.Float _ -> TFloat
  | Value.String _ -> TString
  | Value.Bool _ -> TBool
  | Value.Null -> invalid_arg "Datatype.of_value: NULL has no datatype"

(* NULL inhabits no column type: the schema check is where the no-null
   assumption (paper Section 2.1) is enforced at the ingestion boundary. *)
let check t v =
  match (t, v) with
  | TInt, Value.Int _
  | TFloat, Value.Float _
  | TString, Value.String _
  | TBool, Value.Bool _ ->
    true
  | (TInt | TFloat | TString | TBool), _ -> false
let is_numeric = function TInt | TFloat -> true | TString | TBool -> false
