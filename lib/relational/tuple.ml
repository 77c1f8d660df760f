type t = Value.t array

(* Top-level loops: a local one, or [Array.for_all2]'s, would allocate
   its closure per call. *)
let rec equal_from a b i =
  i >= Array.length a || (Value.equal a.(i) b.(i) && equal_from a b (i + 1))

let equal a b = Array.length a = Array.length b && equal_from a b 0

let rec compare_from a b i =
  if i >= Array.length a then 0
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t
let project tup idxs = Array.map (fun i -> tup.(i)) idxs

(* The usual arities are array literals, which allocate inline;
   [Array.init] calls into the runtime ([caml_make_vect]) for every row.
   The cells are bound in index order first: a literal's elements are
   evaluated in an unspecified order (right to left under ocamlopt), and
   [f] may read a stream. *)
let init_with n f a b =
  match n with
  | 1 -> [| f a b 0 |]
  | 2 ->
    let v0 = f a b 0 in
    let v1 = f a b 1 in
    [| v0; v1 |]
  | 3 ->
    let v0 = f a b 0 in
    let v1 = f a b 1 in
    let v2 = f a b 2 in
    [| v0; v1; v2 |]
  | 4 ->
    let v0 = f a b 0 in
    let v1 = f a b 1 in
    let v2 = f a b 2 in
    let v3 = f a b 3 in
    [| v0; v1; v2; v3 |]
  | 5 ->
    let v0 = f a b 0 in
    let v1 = f a b 1 in
    let v2 = f a b 2 in
    let v3 = f a b 3 in
    let v4 = f a b 4 in
    [| v0; v1; v2; v3; v4 |]
  | 6 ->
    let v0 = f a b 0 in
    let v1 = f a b 1 in
    let v2 = f a b 2 in
    let v3 = f a b 3 in
    let v4 = f a b 4 in
    let v5 = f a b 5 in
    [| v0; v1; v2; v3; v4; v5 |]
  | n ->
    let tup = Array.make n Value.Null in
    for i = 0 to n - 1 do
      Array.unsafe_set tup i (f a b i)
    done;
    tup
let concat = Array.append

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Value.pp)
    (Array.to_list t)

(* [pp]'s text without a formatter, which costs kilobytes per call: hot
   group keys are labelled with it on the maintenance path. *)
let to_string t =
  let b = Buffer.create 32 in
  Buffer.add_char b '(';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string b ", ";
      Value.add_to_buffer b v)
    t;
  Buffer.add_char b ')';
  Buffer.contents b
