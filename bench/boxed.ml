(* The boxed baseline of E20 (bench/main.ml, [columnar]): an auxiliary
   view kept as one record per group, the layout [Aux_state] replaced.
   Groups live in a [Tuple]-keyed hash table of [{cnt; sums; exts}]
   records, and a [by_key] table maps each base key to its group, with the
   same project, probe and update code the replaced store ran outside a
   transaction. The bench times [insert_base], [delete_base], [iter] and
   [to_relation] and measures the heap bytes of a loaded state, so nothing
   else is kept: no undo journal, secondary indexes, copy or equality. Frozen: it is the fixed reference
   the columnar store's footprint and phase gates compare against. *)

module Auxview = Mindetail.Auxview
module Schema = Relational.Schema
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value

module TH = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type group = { mutable cnt : int; sums : Value.t array; exts : Value.t array }

type t = {
  spec : Auxview.t;
  plain_src : int array;  (** base-schema index of each Plain column *)
  sum_src : int array;  (** base-schema index of each Sum_of column *)
  ext_src : (int * bool) array;
      (** base-schema index and is-MIN flag of each extremum column *)
  key_plain_pos : int;  (** position of the base key among plains, or -1 *)
  groups : group TH.t;
  by_key : Tuple.t VH.t option;  (** base key value -> group key *)
  mutable total : int;
  scratch : Tuple.t;
      (** projection buffer for the probe; copied when a group is created *)
}

(* A handle as a scan hands it out: the count snapshotted, the group read
   through. *)
type row = { key_ : Tuple.t; cnt_ : int; g_ : group }

let create spec schema =
  let idx c = Schema.index_of schema c in
  let key_plain_pos =
    Option.value (Auxview.plain_position spec schema.Schema.key) ~default:(-1)
  in
  let plain_src = Array.of_list (List.map idx (Auxview.group_columns spec)) in
  {
    spec;
    plain_src;
    sum_src = Array.of_list (List.map idx (Auxview.summed_columns spec));
    ext_src =
      Array.of_list
        (List.map (fun (c, is_min) -> (idx c, is_min)) (Auxview.ext_columns spec));
    key_plain_pos;
    groups = TH.create 256;
    by_key = (if key_plain_pos >= 0 then Some (VH.create 256) else None);
    total = 0;
    scratch = Array.make (Array.length plain_src) Value.Null;
  }

let combine_ext ~is_min cur v =
  let c = Value.compare v cur in
  if (is_min && c < 0) || ((not is_min) && c > 0) then v else cur

(* Reject a non-aggregatable value before mutating anything. *)
let check_aggregands s tup =
  Array.iter
    (fun src ->
      if not (Value.is_numeric tup.(src)) then
        invalid_arg "Boxed: non-numeric value in summed column")
    s.sum_src;
  Array.iter
    (fun (src, _) ->
      if Value.is_null tup.(src) then
        invalid_arg "Boxed: NULL value in MIN/MAX column")
    s.ext_src

let scratch_key s tup =
  let key = s.scratch in
  Array.iteri (fun i src -> key.(i) <- tup.(src)) s.plain_src;
  key

let insert_base ?(count = 1) s tup =
  if count < 1 then invalid_arg "Boxed.insert_base: count must be >= 1";
  check_aggregands s tup;
  let key = scratch_key s tup in
  (match TH.find_opt s.groups key with
  | Some g ->
    g.cnt <- g.cnt + count;
    Array.iteri
      (fun i src -> g.sums.(i) <- Value.add g.sums.(i) (Value.scale tup.(src) count))
      s.sum_src;
    Array.iteri
      (fun i (src, is_min) -> g.exts.(i) <- combine_ext ~is_min g.exts.(i) tup.(src))
      s.ext_src
  | None ->
    let key = Array.copy key in
    TH.add s.groups key
      {
        cnt = count;
        sums = Array.map (fun src -> Value.scale tup.(src) count) s.sum_src;
        exts = Array.map (fun (src, _) -> tup.(src)) s.ext_src;
      };
    Option.iter (fun by_key -> VH.replace by_key key.(s.key_plain_pos) key) s.by_key);
  s.total <- s.total + count

let delete_base ?(count = 1) s tup =
  if count < 1 then invalid_arg "Boxed.delete_base: count must be >= 1";
  if Array.length s.ext_src > 0 then
    invalid_arg "Boxed.delete_base: append-only view holds MIN/MAX columns";
  check_aggregands s tup;
  let key = scratch_key s tup in
  match TH.find_opt s.groups key with
  | None -> invalid_arg ("Boxed.delete_base: group absent " ^ Tuple.to_string key)
  | Some g ->
    if g.cnt < count then invalid_arg "Boxed.delete_base: count underflow";
    g.cnt <- g.cnt - count;
    Array.iteri
      (fun i src -> g.sums.(i) <- Value.sub g.sums.(i) (Value.scale tup.(src) count))
      s.sum_src;
    s.total <- s.total - count;
    if g.cnt = 0 then begin
      TH.remove s.groups key;
      Option.iter
        (fun by_key ->
          match VH.find_opt by_key key.(s.key_plain_pos) with
          | Some gk when Tuple.equal gk key -> VH.remove by_key key.(s.key_plain_pos)
          | Some _ | None -> ())
        s.by_key
    end

let cnt (r : row) = r.cnt_

let iter s f =
  TH.iter (fun key (g : group) -> f { key_ = key; cnt_ = g.cnt; g_ = g }) s.groups

let to_relation s =
  let rel = Relation.create ~size_hint:(TH.length s.groups) () in
  iter s (fun r ->
      let gi = ref 0 and si = ref 0 and ei = ref 0 in
      let cell (_, def) =
        match def with
        | Auxview.Plain _ ->
          let v = r.key_.(!gi) in
          incr gi;
          v
        | Auxview.Sum_of _ ->
          let v = r.g_.sums.(!si) in
          incr si;
          v
        | Auxview.Min_of _ | Auxview.Max_of _ ->
          let v = r.g_.exts.(!ei) in
          incr ei;
          v
        | Auxview.Count_star -> Value.Int r.cnt_
      in
      let row = Array.of_list (List.map cell s.spec.Auxview.columns) in
      if s.spec.Auxview.compressed then Relation.insert rel row
      else Relation.insert ~count:r.cnt_ rel row);
  rel
