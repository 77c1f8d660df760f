module View = Algebra.View
module Select_item = Algebra.Select_item
module Aggregate = Algebra.Aggregate
module Attr = Algebra.Attr
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value
module Icol = Column.Icol

module TH = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

module VMap = Map.Make (Value)

type contrib =
  | C_count of int
  | C_sum of { amount : Value.t; n : int }
  | C_value of Value.t

(* Physical layout mirrors {!Aux_state}: groups are row ids into parallel
   typed columns — one column per group-key attribute plus per-aggregate
   component columns ([slot]s below) and a dense base-row-count column.
   Extremum and DISTINCT results live in boxed columns because they need
   an absent state; [Value.Null] is the [None] sentinel (base data is
   null-free, Section 2.1). *)

(* Per-group multiplicities of one DISTINCT argument: a persistent map from
   value to the number of base rows carrying it, one per group row. Being
   persistent, a map is its own before-image — journaling a group costs a
   pointer, never a copy. *)
type mcol = { mutable maps : int VMap.t array; mutable len : int }

let mcol_create () = { maps = [||]; len = 0 }

let mcol_append c m =
  if c.len = Array.length c.maps then begin
    let maps = Array.make (max 8 (2 * c.len)) VMap.empty in
    Array.blit c.maps 0 maps 0 c.len;
    c.maps <- maps
  end;
  c.maps.(c.len) <- m;
  c.len <- c.len + 1

let mcol_swap_delete c r =
  c.len <- c.len - 1;
  c.maps.(r) <- c.maps.(c.len);
  c.maps.(c.len) <- VMap.empty

let mcol_copy c = { c with maps = Array.copy c.maps }

(* One aggregate's component storage across all groups of a shard. *)
type slot =
  | L_group  (** group-by item: its cells live in the key columns *)
  | L_count of Icol.t
  | L_sum of { sum : Column.t; n : Icol.t }
  | L_ext of Column.t  (** current extremum; [Null] = pending recompute *)
  | L_dist of { cell : Column.t; vals : mcol }
      (** DISTINCT result ([Null] = pending finalization) and the value
          multiset it is finalized from *)

(* First-touch before-image of one group under an open transaction, keyed
   by group key (row ids are renumbered by swap-with-last deletion, so only
   keys are stable across a batch). *)
type saved_acc =
  | Sv_group
  | Sv_count of int
  | Sv_sum of { sum : Value.t; n : int }
  | Sv_value of Value.t  (** extremum cell, [Null] = pending *)
  | Sv_dist of { cell : Value.t; vals : int VMap.t }

type saved_group =
  | Absent
  | Present of { cnt0 : int; accs : saved_acc array }

type txn = { saved : saved_group TH.t; dirty0 : int TH.t }

(* Why a group is pending in its shard's dirty table, as bits: the engine
   must recompute a MIN/MAX from the auxiliary views, or a DISTINCT result
   must be re-folded from its multiset. *)
let recompute = 1
let refinalize = 2

(* One hash-shard of the view state: key columns, component columns, the
   dirty table and the undo journal all live per shard so parallel appliers
   owning disjoint shards never share a structure. Group keys entering the
   dirty table or the journal are copied on retention, because callers may
   pass reused scratch buffers. *)
type shard = {
  keys : Column.t array;
  slots : slot array;
  cnt0 : Icol.t;
  map : Rowmap.t;  (** group key (= key cells) -> row id *)
  dirty : int TH.t;  (** group key -> [recompute]/[refinalize] bits *)
  mutable txn : txn option;
  mutable kept : saved_group TH.t list;
      (** journals of the transactions committed since the last
          {!publish}: their keys are every group changed since then *)
  mutable untracked : bool;
      (** a group changed outside a transaction since the last {!publish},
          so [kept] does not name every changed group *)
}

type t = {
  view : View.t;
  determined : bool;
  items : Select_item.t array;
  key_pos : int array;  (** positions of the group key in a rendered row *)
  mask : int;  (** shard count - 1 *)
  shards : shard array;
  mutable published : (Tuple.t * int) array option;
      (** the rows last returned by {!publish}, never mutated *)
}

(* Row-key hash over the key cells; must agree with [Tuple.hash] of the
   boxed group key. *)
let key_hash_cols (keys : Column.t array) r =
  let h = ref 17 in
  for i = 0 to Array.length keys - 1 do
    h := (!h * 31) + Column.hash_cell keys.(i) r
  done;
  !h

let nrows (sh : shard) = Icol.length sh.cnt0

let create ?(shards = 1) ?dict_pool view ~determined =
  if shards < 1 || shards land (shards - 1) <> 0 then
    invalid_arg "View_state.create: shard count is not a power of two";
  let items = Array.of_list view.View.select in
  let key_attrs = Array.of_list (View.group_attrs view) in
  let mk_slot (item : Select_item.t) =
    match item with
    | Select_item.Group _ -> L_group
    | Select_item.Agg agg -> (
      if agg.Aggregate.distinct then
        L_dist { cell = Column.create_boxed (); vals = mcol_create () }
      else
        match agg.Aggregate.func with
        | Aggregate.Count | Aggregate.Count_star -> L_count (Icol.create ())
        | Aggregate.Sum | Aggregate.Avg ->
          L_sum { sum = Column.create (); n = Icol.create () }
        | Aggregate.Min | Aggregate.Max -> L_ext (Column.create_boxed ()))
  in
  let mk_shard () =
    let keys =
      Array.map
        (fun (a : Attr.t) ->
          let dict =
            Option.map
              (fun pool -> Dict.shared pool ~table:a.Attr.table ~column:a.Attr.column)
              dict_pool
          in
          Column.create ?dict ())
        key_attrs
    in
    {
      keys;
      slots = Array.map mk_slot items;
      cnt0 = Icol.create ();
      map = Rowmap.create ~hash:(fun r -> key_hash_cols keys r) ();
      dirty = TH.create 16;
      txn = None;
      kept = [];
      untracked = false;
    }
  in
  let key_pos =
    Array.of_list
      (List.filteri
         (fun i _ ->
           match items.(i) with
           | Select_item.Group _ -> true
           | Select_item.Agg _ -> false)
         (List.init (Array.length items) Fun.id))
  in
  {
    view;
    determined;
    items;
    key_pos;
    mask = shards - 1;
    shards = Array.init shards (fun _ -> mk_shard ());
    published = None;
  }

let shard_count t = Array.length t.shards
(* The shard of a group key is its [Tuple.hash] masked: writers hash a key
   once and share the hash between the shard and the row probe. *)
let shard_of_key t key = Tuple.hash key land t.mask
let shard_for t key = t.shards.(shard_of_key t key)

(* Closed equality test for [Rowmap.probe]: the shard and the probed key
   are its context, so a probe allocates nothing. *)
let rec key_matches_from (sh : shard) (key : Tuple.t) r i =
  i >= Array.length key
  || Column.equal_cell sh.keys.(i) r key.(i) && key_matches_from sh key r (i + 1)

let key_matches sh key r = key_matches_from sh key r 0

(* Row of group [key] in [sh], or -1; [hash] is [Tuple.hash key]. *)
let probe_row (sh : shard) ~hash key = Rowmap.probe sh.map ~hash key_matches sh key

let find_row (sh : shard) key =
  let r = probe_row sh ~hash:(Tuple.hash key) key in
  if r < 0 then None else Some r

let key_at (sh : shard) r =
  Array.init (Array.length sh.keys) (fun i -> Column.get sh.keys.(i) r)

(* --- row attach / detach ------------------------------------------------- *)

let saved_accs (sh : shard) r =
  Array.map
    (function
      | L_group -> Sv_group
      | L_count c -> Sv_count (Icol.get c r)
      | L_sum { sum; n } -> Sv_sum { sum = Column.get sum r; n = Icol.get n r }
      | L_ext v -> Sv_value (Column.get v r)
      | L_dist { cell; vals } ->
        Sv_dist { cell = Column.get cell r; vals = vals.maps.(r) })
    sh.slots

(* Append a group with explicit component values (journal restore, group
   moves). *)
let append_saved (sh : shard) key cnt0 accs =
  let r = nrows sh in
  Array.iteri (fun i v -> Column.append sh.keys.(i) v) key;
  Array.iteri
    (fun i slot ->
      match slot, accs.(i) with
      | L_group, Sv_group -> ()
      | L_count c, Sv_count x -> Icol.append c x
      | L_sum { sum; n }, Sv_sum { sum = s; n = m } ->
        Column.append sum s;
        Icol.append n m
      | L_ext v, Sv_value x -> Column.append v x
      | L_dist { cell; vals }, Sv_dist { cell = x; vals = m } ->
        Column.append cell x;
        mcol_append vals m
      | (L_group | L_count _ | L_sum _ | L_ext _ | L_dist _), _ ->
        assert false)
    sh.slots;
  Icol.append sh.cnt0 cnt0;
  Rowmap.add sh.map ~hash:(Tuple.hash key) r;
  r

(* Append a fresh group. Sum components are seeded with the zero of their
   first contribution's type so the column specializes to the right numeric
   storage (a later type change demotes the column to boxed cells). *)
let append_fresh (sh : shard) ~hash key (contribs : contrib option array) =
  let r = nrows sh in
  Array.iteri (fun i v -> Column.append sh.keys.(i) v) key;
  Array.iteri
    (fun i slot ->
      match slot with
      | L_group -> ()
      | L_count c -> Icol.append c 0
      | L_sum { sum; n } ->
        let zero =
          match contribs.(i) with
          | Some (C_sum { amount; n = _ }) -> Value.zero_like amount
          | Some (C_count _ | C_value _) | None -> Value.Int 0
        in
        Column.append sum zero;
        Icol.append n 0
      | L_ext v -> Column.append v Value.Null
      | L_dist { cell; vals } ->
        Column.append cell Value.Null;
        mcol_append vals VMap.empty)
    sh.slots;
  Icol.append sh.cnt0 0;
  Rowmap.add sh.map ~hash r;
  r

(* Swap-with-last removal of row [r], re-pointing the moved row's map
   entry. *)
let delete_row (sh : shard) r =
  let l = nrows sh - 1 in
  ignore (Rowmap.remove_value sh.map ~hash:(key_hash_cols sh.keys r) r);
  if r <> l then
    ignore
      (Rowmap.rename_value sh.map ~hash:(key_hash_cols sh.keys l) ~old_row:l
         ~new_row:r);
  Array.iter (fun c -> Column.swap_delete c r) sh.keys;
  Array.iter
    (function
      | L_group -> ()
      | L_count c -> Icol.swap_delete c r
      | L_sum { sum; n } ->
        Column.swap_delete sum r;
        Icol.swap_delete n r
      | L_ext v -> Column.swap_delete v r
      | L_dist { cell; vals } ->
        Column.swap_delete cell r;
        mcol_swap_delete vals r)
    sh.slots;
  Icol.swap_delete sh.cnt0 r

let copy t =
  let copy_slot = function
    | L_group -> L_group
    | L_count c -> L_count (Icol.copy c)
    | L_sum { sum; n } -> L_sum { sum = Column.copy sum; n = Icol.copy n }
    | L_ext v -> L_ext (Column.copy v)
    | L_dist { cell; vals } ->
      L_dist { cell = Column.copy cell; vals = mcol_copy vals }
  in
  let copy_shard (sh : shard) =
    let keys = Array.map Column.copy sh.keys in
    {
      keys;
      slots = Array.map copy_slot sh.slots;
      cnt0 = Icol.copy sh.cnt0;
      map = Rowmap.copy sh.map ~hash:(fun r -> key_hash_cols keys r);
      dirty = TH.copy sh.dirty;
      txn = None;
      kept = [];
      untracked = false;
    }
  in
  { t with shards = Array.map copy_shard t.shards; published = None }

(* --- transactions -------------------------------------------------------- *)

let in_txn t = t.shards.(0).txn <> None

let begin_txn t =
  if in_txn t then
    invalid_arg "View_state.begin_txn: transaction already open";
  (* the dirty table is saved whole: flushed at the end of every batch, it
     is empty between batches, not sized by the resident state *)
  Array.iter
    (fun sh -> sh.txn <- Some { saved = TH.create 64; dirty0 = TH.copy sh.dirty })
    t.shards

(* Journal [key]'s before-image, once per transaction, before any mutation
   of the group at row [r] ([-1]: before its creation). [key] may alias a
   caller's scratch buffer; copied if retained. *)
let note_known (sh : shard) key r =
  match sh.txn with
  | None -> sh.untracked <- true
  | Some { saved; _ } ->
    if not (TH.mem saved key) then
      TH.add saved (Array.copy key)
        (if r < 0 then Absent
         else Present { cnt0 = Icol.get sh.cnt0 r; accs = saved_accs sh r })

let group_count t = Array.fold_left (fun acc sh -> acc + nrows sh) 0 t.shards

(* The journal's keys are kept for the next {!publish}. Keys of more groups
   than the view holds are forgotten instead — {!publish} then renders in
   full — which also bounds them for a state that is never published. *)
let commit t =
  if t.shards.(0).txn = None then
    invalid_arg "View_state.commit: no open transaction";
  Array.iter
    (fun sh ->
      Option.iter
        (fun { saved; _ } ->
          if TH.length saved > 0 then sh.kept <- saved :: sh.kept)
        sh.txn;
      sh.txn <- None)
    t.shards;
  let kept =
    Array.fold_left
      (fun acc sh ->
        List.fold_left (fun acc saved -> acc + TH.length saved) acc sh.kept)
      0 t.shards
  in
  if kept > group_count t then
    Array.iter
      (fun sh ->
        sh.kept <- [];
        sh.untracked <- true)
      t.shards

let rollback t =
  if t.shards.(0).txn = None then
    invalid_arg "View_state.rollback: no open transaction";
  Array.iter
    (fun (sh : shard) ->
      match sh.txn with
      | None -> ()
      | Some { saved; dirty0 } ->
        TH.iter
          (fun key before ->
            match before, find_row sh key with
            | Absent, Some r -> delete_row sh r
            | Absent, None | Present _, _ -> ())
          saved;
        TH.iter
          (fun key before ->
            match before, find_row sh key with
            | Absent, _ -> ()
            | Present p, Some r ->
              Icol.set sh.cnt0 r p.cnt0;
              Array.iteri
                (fun i slot ->
                  match slot, p.accs.(i) with
                  | L_group, Sv_group -> ()
                  | L_count c, Sv_count x -> Icol.set c r x
                  | L_sum { sum; n }, Sv_sum { sum = s; n = m } ->
                    Column.set sum r s;
                    Icol.set n r m
                  | L_ext v, Sv_value x -> Column.set v r x
                  | L_dist { cell; vals }, Sv_dist { cell = x; vals = m } ->
                    Column.set cell r x;
                    vals.maps.(r) <- m
                  | (L_group | L_count _ | L_sum _ | L_ext _ | L_dist _), _
                    ->
                    assert false)
                sh.slots
            | Present p, None -> ignore (append_saved sh key p.cnt0 p.accs))
          saved;
        TH.reset sh.dirty;
        TH.iter (TH.add sh.dirty) dirty0;
        sh.txn <- None)
    t.shards

let view t = t.view

let mark (sh : shard) key bit =
  match TH.find_opt sh.dirty key with
  | None -> TH.add sh.dirty (Array.copy key) bit
  | Some bits ->
    if bits land bit = 0 then TH.replace sh.dirty (Array.copy key) (bits lor bit)

(* The DISTINCT result over a value multiset, folded in [Value.compare]
   order — the order in which recomputation from base tables sees the
   deduplicated values, so float sums agree bit for bit. *)
let finalize_distinct (agg : Aggregate.t) m =
  let sum () =
    let lo, _ = VMap.min_binding m in
    VMap.fold (fun v _ acc -> Value.add acc v) m (Value.zero_like lo)
  in
  match agg.Aggregate.func with
  | Aggregate.Count -> Value.Int (VMap.cardinal m)
  | Aggregate.Sum -> sum ()
  | Aggregate.Avg -> Value.div_as_float (sum ()) (Value.Int (VMap.cardinal m))
  | Aggregate.Min -> fst (VMap.min_binding m)
  | Aggregate.Max -> fst (VMap.max_binding m)
  | Aggregate.Count_star -> assert false

(* A COUNT or integer SUM DISTINCT result moves exactly by the value that
   entered ([d] = 1) or left ([d] = -1) the multiset; [None] for every
   other result, which is re-folded when the batch is flushed. *)
let distinct_step (agg : Aggregate.t) cur v d =
  let base = function Value.Int n -> Some n | Value.Null -> Some 0 | _ -> None in
  match agg.Aggregate.func, base cur, v with
  | Aggregate.Count, Some n, _ -> Some (Value.Int (n + d))
  | Aggregate.Sum, Some n, Value.Int x -> Some (Value.Int (n + (d * x)))
  | _ -> None

let apply_contrib t (sh : shard) key ~sign ~cnt r i (item : Select_item.t)
    contrib =
  let agg =
    match item with
    | Select_item.Agg a -> a
    | Select_item.Group _ -> assert false (* group items carry no contrib *)
  in
  match sh.slots.(i), contrib with
  | L_count c, C_count d -> Icol.add c r (sign * d)
  | L_sum { sum; n }, C_sum { amount; n = dn } ->
    if sign > 0 then Column.add_cell sum r amount 1
    else Column.sub_cell sum r amount 1;
    Icol.add n r (sign * dn)
  | L_ext cell, C_value v ->
    if sign > 0 then begin
      match Column.get cell r with
      | Value.Null -> Column.set cell r v
      | cur ->
        let better =
          match agg.Aggregate.func with
          | Aggregate.Min -> Value.compare v cur < 0
          | Aggregate.Max -> Value.compare v cur > 0
          | _ -> assert false
        in
        if better then Column.set cell r v
    end
    else if not t.determined then begin
      (* deletion of the current extremum invalidates the component *)
      match Column.get cell r with
      | Value.Null -> ()
      | cur -> if Value.equal cur v then mark sh key recompute
    end
  | L_dist { cell; vals }, C_value v ->
    let m = vals.maps.(r) in
    let before = Option.value (VMap.find_opt v m) ~default:0 in
    let after = before + (sign * cnt) in
    if after < 0 then invalid_arg "View_state: DISTINCT multiplicity underflow";
    vals.maps.(r) <- (if after = 0 then VMap.remove v m else VMap.add v after m);
    (* the result changes only when the value set does *)
    if before = 0 || after = 0 then begin
      match distinct_step agg (Column.get cell r) v sign with
      | Some x -> Column.set cell r x
      | None -> mark sh key refinalize
    end
  | (L_group | L_count _ | L_sum _ | L_ext _ | L_dist _), _ ->
    invalid_arg "View_state: contribution does not match aggregate state"

let apply_contribs t sh key ~sign ~cnt r (contribs : contrib option array) =
  for i = 0 to Array.length contribs - 1 do
    match contribs.(i) with
    | Some contrib -> apply_contrib t sh key ~sign ~cnt r i t.items.(i) contrib
    | None -> ()
  done

let feed t ~key ~cnt contribs =
  let hash = Tuple.hash key in
  let sh = t.shards.(hash land t.mask) in
  let row = probe_row sh ~hash key in
  note_known sh key row;
  let r = if row >= 0 then row else append_fresh sh ~hash key contribs in
  Icol.add sh.cnt0 r cnt;
  apply_contribs t sh key ~sign:1 ~cnt r contribs

let unfeed t ~key ~cnt contribs =
  let hash = Tuple.hash key in
  let sh = t.shards.(hash land t.mask) in
  let r = probe_row sh ~hash key in
  if r < 0 then
    invalid_arg
      (Printf.sprintf "View_state.unfeed: group %s absent"
         (Tuple.to_string key));
  if Icol.get sh.cnt0 r < cnt then
    invalid_arg "View_state.unfeed: count underflow";
  note_known sh key r;
  Icol.add sh.cnt0 r (-cnt);
  if Icol.get sh.cnt0 r = 0 then begin
    delete_row sh r;
    TH.remove sh.dirty key
  end
  else apply_contribs t sh key ~sign:(-1) ~cnt r contribs

let adjust t ~key ~sums ~before ~after =
  let hash = Tuple.hash key in
  let sh = t.shards.(hash land t.mask) in
  let r = probe_row sh ~hash key in
  if r < 0 then
    invalid_arg
      (Printf.sprintf "View_state.adjust: group %s absent"
         (Tuple.to_string key));
  (* everything is checked before the first write, so a rejected update
     leaves the group as it was *)
  for j = 0 to Array.length sums - 1 do
    let item, pos = sums.(j) in
    (match sh.slots.(item) with
    | L_sum _ -> ()
    | L_group | L_count _ | L_ext _ | L_dist _ ->
      invalid_arg "View_state.adjust: item is not a SUM or AVG");
    if not (Value.is_numeric before.(pos) && Value.is_numeric after.(pos)) then
      invalid_arg "View_state.adjust: non-numeric value in a summed item"
  done;
  note_known sh key r;
  (* the order of an unfeed then a feed, so float sums agree *)
  for j = 0 to Array.length sums - 1 do
    let item, pos = sums.(j) in
    match sh.slots.(item) with
    | L_sum { sum; _ } ->
      Column.sub_cell sum r before.(pos) 1;
      Column.add_cell sum r after.(pos) 1
    | L_group | L_count _ | L_ext _ | L_dist _ -> ()
  done

(* Re-fold every DISTINCT result of the group at [r] from its multiset. *)
let refold t (sh : shard) key r =
  note_known sh key r;
  Array.iteri
    (fun i slot ->
      match slot, t.items.(i) with
      | L_dist { cell; vals }, Select_item.Agg agg ->
        Column.set cell r (finalize_distinct agg vals.maps.(r))
      | (L_group | L_count _ | L_sum _ | L_ext _ | L_dist _), _ -> ())
    sh.slots

let take_dirty t =
  Array.fold_left
    (fun acc (sh : shard) ->
      let acc =
        TH.fold
          (fun key bits acc ->
            if bits land refinalize <> 0 then
              Option.iter (refold t sh key) (find_row sh key);
            if bits land recompute <> 0 then key :: acc else acc)
          sh.dirty acc
      in
      TH.reset sh.dirty;
      acc)
    [] t.shards

let is_dirty_pending t =
  Array.exists (fun (sh : shard) -> TH.length sh.dirty > 0) t.shards

let set_value t ~key ~item v =
  let sh = shard_for t key in
  match find_row sh key with
  | None -> ()
  | Some r -> (
    note_known sh key r;
    match sh.slots.(item) with
    | L_ext cell -> Column.set cell r v
    | L_group | L_count _ | L_sum _ | L_dist _ ->
      invalid_arg "View_state.set_value: item is not recomputed")

type component_update = Shift_sum of Value.t | Set_current of Value.t

let adjust_group t ~key ~new_key updates =
  let sh = shard_for t key in
  match find_row sh key with
  | None ->
    invalid_arg
      (Printf.sprintf "View_state.adjust_group: group %s absent"
         (Tuple.to_string key))
  | Some r ->
    let moving = not (Tuple.equal key new_key) in
    let sh' = if moving then shard_for t new_key else sh in
    note_known sh key r;
    if moving then
      note_known sh' new_key (probe_row sh' ~hash:(Tuple.hash new_key) new_key);
    List.iter
      (fun (i, upd) ->
        match sh.slots.(i), t.items.(i), upd with
        | L_sum { sum; n }, _, Shift_sum delta ->
          Column.add_cell sum r delta (Icol.get n r)
        | L_ext cell, _, Set_current v -> Column.set cell r v
        | L_dist { cell; vals }, Select_item.Agg agg, Set_current v ->
          (* the argument is determined by the group key: every base row
             of the group now carries [v] *)
          let m = VMap.singleton v (Icol.get sh.cnt0 r) in
          vals.maps.(r) <- m;
          Column.set cell r (finalize_distinct agg m)
        | (L_group | L_count _ | L_sum _ | L_ext _ | L_dist _), _, _ ->
          invalid_arg "View_state.adjust_group: update does not match state")
      updates;
    if moving then begin
      if find_row sh' new_key <> None then
        invalid_arg "View_state.adjust_group: new key collides";
      let cnt0 = Icol.get sh.cnt0 r in
      let accs = saved_accs sh r in
      delete_row sh r;
      ignore (append_saved sh' new_key cnt0 accs);
      match TH.find_opt sh.dirty key with
      | Some bits ->
        TH.remove sh.dirty key;
        TH.add sh'.dirty (Array.copy new_key) bits
      | None -> ()
    end

let multiset t ~key ~item =
  let sh = shard_for t key in
  match find_row sh key, sh.slots.(item) with
  | Some r, L_dist { vals; _ } -> VMap.bindings vals.maps.(r)
  | Some _, (L_group | L_count _ | L_sum _ | L_ext _) | None, _ -> []

let fold_groups t f acc =
  Array.fold_left
    (fun acc (sh : shard) ->
      let acc = ref acc in
      for r = 0 to nrows sh - 1 do
        acc := f (key_at sh r) (Icol.get sh.cnt0 r) !acc
      done;
      !acc)
    acc t.shards

let saved_acc_equal a b =
  match a, b with
  | Sv_group, Sv_group -> true
  | Sv_count n, Sv_count m -> n = m
  | Sv_sum { sum; n }, Sv_sum { sum = sum'; n = m } ->
    Value.equal sum sum' && n = m
  | Sv_value x, Sv_value y -> Value.equal x y
  | Sv_dist { cell; vals }, Sv_dist { cell = cell'; vals = vals' } ->
    Value.equal cell cell' && VMap.equal Int.equal vals vals'
  | (Sv_group | Sv_count _ | Sv_sum _ | Sv_value _ | Sv_dist _), _ -> false

let dirty_count t =
  Array.fold_left (fun acc (sh : shard) -> acc + TH.length sh.dirty) 0 t.shards

(* Structural equality of the resident view state: groups (base counts,
   every aggregate component and DISTINCT multiset) and the dirty table.
   Deliberately independent of the shard layout and of physical row order;
   open transactions are ignored. *)
let equal a b =
  group_count a = group_count b
  && Array.for_all
       (fun (sh : shard) ->
         let ok = ref true in
         for r = 0 to nrows sh - 1 do
           if !ok then begin
             let key = key_at sh r in
             let sh' = shard_for b key in
             match find_row sh' key with
             | Some r' ->
               if
                 not
                   (Icol.get sh.cnt0 r = Icol.get sh'.cnt0 r'
                   && Array.for_all2 saved_acc_equal (saved_accs sh r)
                        (saved_accs sh' r'))
               then ok := false
             | None -> ok := false
           end
         done;
         !ok)
       a.shards
  && dirty_count a = dirty_count b
  && Array.for_all
       (fun (sh : shard) ->
         TH.fold
           (fun key bits acc ->
             acc && TH.find_opt (shard_for b key).dirty key = Some bits)
           sh.dirty true)
       a.shards

(* The select-list row of the group at [r]. *)
let render_row t (sh : shard) r =
  let gi = ref 0 in
  Array.mapi
    (fun i item ->
      match (item : Select_item.t) with
      | Select_item.Group _ ->
        let v = Column.get sh.keys.(!gi) r in
        incr gi;
        v
      | Select_item.Agg agg -> (
        match sh.slots.(i) with
        | L_group -> assert false
        | L_count c -> Value.Int (Icol.get c r)
        | L_sum { sum; n } -> (
          match agg.Aggregate.func with
          | Aggregate.Sum -> Column.get sum r
          | Aggregate.Avg ->
            Value.div_as_float (Column.get sum r) (Value.Int (Icol.get n r))
          | _ -> assert false)
        | L_ext cell | L_dist { cell; _ } -> (
          match Column.get cell r with
          | Value.Null ->
            invalid_arg
              "View_state.render: non-CSMAS component pending recompute"
          | v -> v)))
    t.items

let render t =
  let result = Relation.create ~size_hint:(group_count t) () in
  Array.iter
    (fun (sh : shard) ->
      for r = 0 to nrows sh - 1 do
        Relation.insert result (render_row t sh r)
      done)
    t.shards;
  (* restrictions on groups (HAVING) are applied at read time: the full group
     state is what gets maintained *)
  View.filter_having t.view result

(* --- publication --------------------------------------------------------- *)

let compare_rows ((x : Tuple.t), _) ((y : Tuple.t), _) = Tuple.compare x y

(* Not the identity: the cell in a new block (string payloads are
   shared). *)
let fresh_cell : Value.t -> Value.t = function
  | Value.Int x -> Value.Int x
  | Value.Float x -> Value.Float x
  | Value.String x -> Value.String x
  | Value.Bool x -> Value.Bool x
  | Value.Null -> Value.Null

(* A walk over a publication — every read, and the next [advance] — is
   bound by cache misses, not by work: rows kept from earlier publications
   end up scattered over the heap (a walk over 2,000 such rows took 0.42
   ms, against 0.06 ms once they were copied in order; EXPERIMENTS.md E23).
   So every publication is laid out anew, each row (its pair, tuple and
   boxed cells) copied into fresh blocks in canonical order as it is
   emitted. *)
let lay_row ((row : Tuple.t), m) = (Array.map fresh_cell row, m)

(* The previous publication advanced by the kept keys: its rows of
   untouched groups, merged with the fresh rows of the touched groups that
   still exist and pass HAVING. Rows hold their group key, so no two rows
   compare equal. *)
let advance t prev =
  let touched = TH.create 64 in
  Array.iter
    (fun sh ->
      List.iter (TH.iter (fun key _ -> TH.replace touched key ())) sh.kept)
    t.shards;
  if TH.length touched = 0 then prev
  else begin
    let fresh =
      Array.of_list
        (TH.fold
           (fun key () acc ->
             let sh = shard_for t key in
             match find_row sh key with
             | Some r ->
               let row = render_row t sh r in
               if t.view.View.having = [] || View.passes_having t.view row
               then (row, 1) :: acc
               else acc
             | None -> acc)
           touched [])
    in
    Array.sort compare_rows fresh;
    let nf = Array.length fresh in
    let out = Array.make (Array.length prev + nf) ([||], 0) in
    let n = ref 0 and j = ref 0 in
    let key = Array.make (Array.length t.key_pos) Value.Null in
    Array.iter
      (fun ((row, _) as p) ->
        for k = 0 to Array.length key - 1 do
          key.(k) <- row.(t.key_pos.(k))
        done;
        if not (TH.mem touched key) then begin
          while !j < nf && compare_rows fresh.(!j) p < 0 do
            out.(!n) <- lay_row fresh.(!j);
            incr n;
            incr j
          done;
          out.(!n) <- lay_row p;
          incr n
        end)
      prev;
    for j = !j to nf - 1 do
      out.(!n) <- lay_row fresh.(j);
      incr n
    done;
    if !n = Array.length out then out else Array.sub out 0 !n
  end

let publish t =
  if in_txn t then invalid_arg "View_state.publish: transaction open";
  let rows =
    match t.published with
    | Some prev when not (Array.exists (fun sh -> sh.untracked) t.shards) ->
      advance t prev
    | Some _ | None -> Array.map lay_row (Relation.to_sorted_array (render t))
  in
  Array.iter
    (fun sh ->
      sh.kept <- [];
      sh.untracked <- false)
    t.shards;
  t.published <- Some rows;
  rows

(* --- byte accounting ----------------------------------------------------- *)

(* A multiset column: its row array plus, per entry, one map node (header,
   two subtrees, key, count, height: 6 words) and the boxed key. *)
let mcol_byte_size c =
  let bytes = ref (8 * Array.length c.maps) in
  for r = 0 to c.len - 1 do
    VMap.iter (fun v _ -> bytes := !bytes + 48 + Column.boxed_bytes v) c.maps.(r)
  done;
  !bytes

let fold_columns t f acc =
  Array.fold_left
    (fun acc (sh : shard) ->
      let acc = Array.fold_left f acc sh.keys in
      Array.fold_left
        (fun acc slot ->
          match slot with
          | L_group | L_count _ -> acc
          | L_sum { sum; _ } -> f acc sum
          | L_ext v | L_dist { cell = v; _ } -> f acc v)
        acc sh.slots)
    acc t.shards

let offheap_bytes t =
  fold_columns t (fun acc c -> acc + Column.offheap_bytes c) 0

let byte_size t =
  let cells = fold_columns t (fun acc c -> acc + Column.byte_size c) 0 in
  let icols =
    Array.fold_left
      (fun acc (sh : shard) ->
        Array.fold_left
          (fun acc slot ->
            match slot with
            | L_group | L_ext _ -> acc
            | L_count c -> acc + Icol.byte_size c
            | L_sum { n; _ } -> acc + Icol.byte_size n
            | L_dist { vals; _ } -> acc + mcol_byte_size vals)
          (acc + Icol.byte_size sh.cnt0 + Rowmap.byte_size sh.map)
          sh.slots)
      0 t.shards
  in
  let dicts =
    fold_columns t
      (fun acc c ->
        match Column.dict c with
        | Some d when not (List.memq d acc) -> d :: acc
        | Some _ | None -> acc)
      []
  in
  cells + icols
  + List.fold_left (fun acc d -> acc + Dict.byte_size d) 0 dicts
