type t = Value.t array

let equal a b =
  Array.length a = Array.length b && Array.for_all2 Value.equal a b

(* A top-level loop: a local one would allocate its closure per call. *)
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
let concat = Array.append

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Value.pp)
    (Array.to_list t)

let to_string t = Format.asprintf "%a" pp t
