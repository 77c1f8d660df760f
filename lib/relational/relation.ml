module H = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

type t = { tbl : int H.t; mutable total : int }

let create ?(size_hint = 64) () = { tbl = H.create size_hint; total = 0 }

let copy r = { tbl = H.copy r.tbl; total = r.total }

let multiplicity r tup = match H.find_opt r.tbl tup with Some n -> n | None -> 0

let insert ?(count = 1) r tup =
  if count <= 0 then invalid_arg "Relation.insert: count <= 0";
  H.replace r.tbl tup (multiplicity r tup + count);
  r.total <- r.total + count

let delete ?(count = 1) r tup =
  if count <= 0 then invalid_arg "Relation.delete: count <= 0";
  let m = multiplicity r tup in
  if m < count then false
  else begin
    if m = count then H.remove r.tbl tup else H.replace r.tbl tup (m - count);
    r.total <- r.total - count;
    true
  end

let mem r tup = multiplicity r tup > 0
let cardinality r = r.total
let distinct_cardinality r = H.length r.tbl
let is_empty r = r.total = 0
let fold f r acc = H.fold f r.tbl acc
let iter f r = H.iter f r.tbl

(* Sorted in place on an array, with no O(n log n) list cells: every served
   query sorts its view. [Array.sort], because [Array.stable_sort] forces a
   minor collection for its scratch array; keys are distinct, so stability
   does not matter. *)
let to_sorted_list r =
  let n = H.length r.tbl in
  let a = Array.make n ([||], 0) in
  let i = ref n in
  H.iter
    (fun tup m ->
      decr i;
      a.(!i) <- (tup, m))
    r.tbl;
  Array.sort (fun (x, _) (y, _) -> Tuple.compare x y) a;
  Array.to_list a

let of_list l =
  let r = create ~size_hint:(List.length l) () in
  List.iter (fun (tup, n) -> insert ~count:n r tup) l;
  r

let equal a b =
  cardinality a = cardinality b
  && distinct_cardinality a = distinct_cardinality b
  && fold (fun tup n ok -> ok && multiplicity b tup = n) a true

let diff a b =
  let r = create () in
  iter
    (fun tup n ->
      let m = n - multiplicity b tup in
      if m > 0 then insert ~count:m r tup)
    a;
  r

let pp ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (tup, n) ->
      if n = 1 then Format.fprintf ppf "%a@," Tuple.pp tup
      else Format.fprintf ppf "%a x%d@," Tuple.pp tup n)
    (to_sorted_list r);
  Format.fprintf ppf "@]"
