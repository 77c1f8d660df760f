type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

let equal a b =
  match a, b with
  | Null, Null -> true
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | String x, String y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | (Null | Int _ | Float _ | String _ | Bool _), _ -> false

let tag = function
  | Null -> 0
  | Int _ -> 1
  | Float _ -> 2
  | String _ -> 3
  | Bool _ -> 4

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | String x, String y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | (Null | Int _ | Float _ | String _ | Bool _), _ ->
    Int.compare (tag a) (tag b)

let hash = function
  | Null -> Hashtbl.hash (-1)
  | Int x -> Hashtbl.hash (0, x)
  | Float x -> Hashtbl.hash (1, x)
  | String x -> Hashtbl.hash (2, x)
  | Bool x -> Hashtbl.hash (3, x)

(* Not through [Format.asprintf]: serving a view renders every cell, and a
   formatter costs about 3 KB per call. *)
let to_string = function
  | Null -> "NULL"
  | Int x -> Int.to_string x
  | Float x -> Printf.sprintf "%g" x
  | String x -> x
  | Bool x -> Bool.to_string x

(* Digits of [n <= 0], most significant first. Working on the negative
   side covers [min_int], whose absolute value is not an [int]. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int_to_buffer b x =
  if x < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b x
  end
  else add_neg_digits b (-x)

let add_to_buffer b = function
  | Int x -> add_int_to_buffer b x
  | String x -> Buffer.add_string b x
  | Null -> Buffer.add_string b "NULL"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Float _ as v -> Buffer.add_string b (to_string v)

let pp ppf v = Format.pp_print_string ppf (to_string v)

let type_name = function
  | Null -> "null"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | Bool _ -> "bool"

let is_null = function Null -> true | Int _ | Float _ | String _ | Bool _ -> false

let numeric_error op a b =
  invalid_arg
    (Printf.sprintf "Value.%s: non-numeric operands (%s, %s)" op (to_string a)
       (to_string b))

let add a b =
  match a, b with
  | Int x, Int y -> Int (x + y)
  | Float x, Float y -> Float (x +. y)
  | Int x, Float y -> Float (float_of_int x +. y)
  | Float x, Int y -> Float (x +. float_of_int y)
  | _ -> numeric_error "add" a b

let sub a b =
  match a, b with
  | Int x, Int y -> Int (x - y)
  | Float x, Float y -> Float (x -. y)
  | Int x, Float y -> Float (float_of_int x -. y)
  | Float x, Int y -> Float (x -. float_of_int y)
  | _ -> numeric_error "sub" a b

let mul a b =
  match a, b with
  | Int x, Int y -> Int (x * y)
  | Float x, Float y -> Float (x *. y)
  | Int x, Float y -> Float (float_of_int x *. y)
  | Float x, Int y -> Float (x *. float_of_int y)
  | _ -> numeric_error "mul" a b

let zero_like = function
  | Float _ -> Float 0.
  | Int _ -> Int 0
  | (Null | String _ | Bool _) as v ->
    invalid_arg ("Value.zero_like: non-numeric value " ^ to_string v)

let is_numeric = function
  | Int _ | Float _ -> true
  | Null | String _ | Bool _ -> false

let scale v n =
  match v with
  | Int x -> Int (x * n)
  | Float x -> Float (x *. float_of_int n)
  | Null | String _ | Bool _ ->
    invalid_arg ("Value.scale: non-numeric value " ^ to_string v)

let to_float = function
  | Int x -> float_of_int x
  | Float x -> x
  | (Null | String _ | Bool _) as v ->
    invalid_arg ("Value.div_as_float: non-numeric value " ^ to_string v)

let div_as_float a b = Float (to_float a /. to_float b)
