type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

(* One box per small non-negative int, shared by every cell that holds
   it: foreign keys into dimensions and small measures repeat down a fact
   table. Values are immutable, so the sharing cannot be observed. *)
let small_ints = Array.init 4096 (fun i -> Int i)

let int x =
  if x >= 0 && x < Array.length small_ints then Array.unsafe_get small_ints x
  else Int x

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

(* [hash] is [Hashtbl.hash (tag, x)], computed without allocating the
   pair: the runtime's mix (runtime/hash.c) over the pair's header and its
   two fields, in 32-bit arithmetic on OCaml ints. The dictionaries' stored
   hashes depend on those values. *)
let mask32 = 0xFFFF_FFFF
let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let mix h d =
  let d = d * 0xcc9e2d51 land mask32 in
  let d = rotl32 d 15 * 0x1b873593 land mask32 in
  let h = rotl32 (h lxor d) 13 in
  ((h * 5) + 0xe6546b64) land mask32

let final_mix h =
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land mask32 in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land mask32 in
  (h lxor (h lsr 16)) land 0x3FFF_FFFF

(* An immediate: its tagged word [2x + 1], folded to 32 bits as
   [caml_hash_mix_intnat] folds it. *)
let mix_int h x = mix h ((x asr 31) lxor (x asr 62) lxor ((x lsl 1) lor 1) land mask32)

(* [caml_hash_mix_double] on the double's high and low 32-bit words:
   NaNs and -0.0 normalized, low word first. *)
let mix_float_words h ~hi ~lo =
  if hi land 0x7FF0_0000 = 0x7FF0_0000 && lo lor (hi land 0xF_FFFF) <> 0 then
    mix (mix h 1) 0x7FF0_0000
  else if hi = 0x8000_0000 && lo = 0 then mix (mix h 0) 0
  else mix (mix h lo) hi

(* [caml_hash_mix_string]: little-endian 32-bit words, then the length. *)
let mix_string h s =
  let len = String.length s in
  let h = ref h and i = ref 0 in
  while !i + 4 <= len do
    h := mix !h (Int32.to_int (String.get_int32_le s !i) land mask32);
    i := !i + 4
  done;
  let w = ref 0 in
  for j = len - 1 downto !i do
    w := (!w lsl 8) lor Char.code (String.unsafe_get s j)
  done;
  if len land 3 <> 0 then h := mix !h !w;
  !h lxor (len land mask32)

(* The pair's header (size 2, tag 0, colour bits clear) and its first
   field, the tag. *)
let pair_prefix tag = mix_int (mix 0 (2 lsl 10)) tag
let prefix_int = pair_prefix 0
let prefix_float = pair_prefix 1
let prefix_string = pair_prefix 2
let prefix_bool = pair_prefix 3
let hash_null = Hashtbl.hash (-1)
let hash_int x = final_mix (mix_int prefix_int x)
let hash_float_words ~hi ~lo = final_mix (mix_float_words prefix_float ~hi ~lo)

let hash_float x =
  let b = Int64.bits_of_float x in
  hash_float_words
    ~hi:(Int64.to_int (Int64.shift_right_logical b 32))
    ~lo:(Int64.to_int b land mask32)

let hash_string x = final_mix (mix_string prefix_string x)
let hash_bool x = final_mix (mix_int prefix_bool (Bool.to_int x))

let hash = function
  | Null -> hash_null
  | Int x -> hash_int x
  | Float x -> hash_float x
  | String x -> hash_string x
  | Bool x -> hash_bool x

(* C's printf on one float, as [Printf] calls it without its format
   interpretation: about half the cost of [Printf.sprintf]. *)
external format_float : string -> float -> string = "caml_format_float"

(* The shortest of 15, 16 and 17 significant digits that reads back to
   the same bits: 17 always does, and 15 is what most decimal data needs.
   nan, the infinities and the zeros print as [%g] prints them. *)
let float_to_string x =
  if x = 0. || not (Float.is_finite x) then format_float "%g" x
  else
    let s = format_float "%.15g" x in
    if Float.equal (float_of_string s) x then s
    else
      let s = format_float "%.16g" x in
      if Float.equal (float_of_string s) x then s else format_float "%.17g" x

(* Not through [Format.asprintf]: a formatter costs about 3 KB per call. *)
let to_string = function
  | Null -> "NULL"
  | Int x -> Int.to_string x
  | Float x -> float_to_string x
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
  | Float x -> Buffer.add_string b (float_to_string x)

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
