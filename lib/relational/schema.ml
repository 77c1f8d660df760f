type column = { col_name : string; col_type : Datatype.t }
type t = { name : string; columns : column array; key : string }

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let make ~name ~key columns =
  if name = "" then invalid "schema: empty table name";
  if columns = [] then invalid "schema %s: no columns" name;
  let seen = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if c.col_name = "" then invalid "schema %s: empty column name" name;
      if Hashtbl.mem seen c.col_name then
        invalid "schema %s: duplicate column %s" name c.col_name;
      Hashtbl.add seen c.col_name ())
    columns;
  if not (Hashtbl.mem seen key) then
    invalid "schema %s: key %s is not a column" name key;
  { name; columns = Array.of_list columns; key }

let arity s = Array.length s.columns

let index_of s col =
  let rec loop i =
    if i >= Array.length s.columns then raise Not_found
    else if String.equal s.columns.(i).col_name col then i
    else loop (i + 1)
  in
  loop 0

let mem s col = match index_of s col with _ -> true | exception Not_found -> false
let type_of s col = s.columns.(index_of s col).col_type
let key_index s = index_of s s.key
let column_names s = Array.to_list s.columns |> List.map (fun c -> c.col_name)

(* A top-level loop: [Array.for_all2] would allocate a closure per call,
   and every admitted delta is checked here. *)
let rec conforms_from columns tup i =
  i >= Array.length columns
  || Datatype.check columns.(i).col_type tup.(i)
     && conforms_from columns tup (i + 1)

let conforms s tup =
  Array.length tup = Array.length s.columns && conforms_from s.columns tup 0

let pp ppf s =
  Format.fprintf ppf "@[<hov 2>%s(%a)@]" s.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf c ->
         Format.fprintf ppf "%s %a%s" c.col_name Datatype.pp c.col_type
           (if String.equal c.col_name s.key then " KEY" else "")))
    (Array.to_list s.columns)
