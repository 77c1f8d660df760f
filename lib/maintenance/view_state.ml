module View = Algebra.View
module Select_item = Algebra.Select_item
module Aggregate = Algebra.Aggregate
module Attr = Algebra.Attr
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value
module Rowmap = Relational.Rowmap
module Icol = Column.Icol

module TH = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

module VMap = Groups.VMap

(* The groups live in a {!Groups} store keyed by the view's group key: its
   count column is the base-row count [cnt0], and each aggregate keeps its
   components in the store's columns ([slot]s below). Extremum and
   DISTINCT results live in boxed cells because they need an absent
   state; [Value.Null] is the [None] sentinel (base data is null-free,
   Section 2.1). This module adds the aggregate semantics, the dirty table
   and the log retention that {!publish} advances by. *)

(* One aggregate's component columns: the store's own columns, resolved
   once at [create]. *)
type slot =
  | L_group  (** group-by item: its cells live in the key columns *)
  | L_count of Icol.t
  | L_sum of { sum : Column.t; n : Icol.t }
  | L_ext of Column.t  (** current extremum; [Null] = pending recompute *)
  | L_dist of { cell : Column.t; vals : Groups.sets }
      (** DISTINCT result ([Null] = pending finalization) and the value
          multiset it is finalized from *)

(* Why a group is pending in the dirty table, as bits: the engine must
   recompute a MIN/MAX from the auxiliary views, or a DISTINCT result must
   be re-folded from its multiset. *)
let recompute = 1
let refinalize = 2

(* The store, the slots over its columns and the dirty table. Group keys
   entering the dirty table are copied on retention, because callers may
   pass reused scratch buffers. The store's log outlives its transaction:
   the entries since the last {!publish} name every group changed since
   then. *)
type t = {
  view : View.t;
  determined : bool;
  items : Select_item.t array;
  key_pos : int array;  (** positions of the group key in a rendered row *)
  g : Groups.t;
  slots : slot array;
  dirty : int TH.t;  (** group key -> [recompute]/[refinalize] bits *)
  mutable dirty0 : int TH.t option;  (** the dirty table at {!begin_txn} *)
  mutable published : publication option;  (** the last {!publish} *)
}

(* The rows last returned by {!publish}, never mutated, and the hash of
   each row's group key ([Tuple.hash] of its key cells): a publication
   finds the rows of touched groups from the hashes alone, without reading
   the rows, which lie scattered over the heap. *)
and publication = { rows : (Tuple.t * int) array; hashes : int array }

(* What each item keeps in the store: SUM/AVG a running sum and a count,
   COUNT a count, MIN/MAX a boxed extremum, DISTINCT a boxed result and a
   multiset. [slots] reads them back in the same order. *)
let components items =
  Array.fold_left
    (fun (cells, ints, sets) (item : Select_item.t) ->
      match item with
      | Select_item.Group _ -> (cells, ints, sets)
      | Select_item.Agg agg -> (
        if agg.Aggregate.distinct then
          (Column.create_boxed :: cells, ints, sets + 1)
        else
          match agg.Aggregate.func with
          | Aggregate.Count | Aggregate.Count_star -> (cells, ints + 1, sets)
          | Aggregate.Sum | Aggregate.Avg ->
            ((fun () -> Column.create ()) :: cells, ints + 1, sets)
          | Aggregate.Min | Aggregate.Max ->
            (Column.create_boxed :: cells, ints, sets)))
    ([], 0, 0) items

let slots items (g : Groups.t) =
  let c = ref 0 and k = ref 0 and m = ref 0 in
  let next cols i =
    incr i;
    cols.(!i - 1)
  in
  Array.map
    (fun (item : Select_item.t) ->
      match item with
      | Select_item.Group _ -> L_group
      | Select_item.Agg agg -> (
        if agg.Aggregate.distinct then
          let cell = next g.cells c in
          L_dist { cell; vals = next g.sets m }
        else
          match agg.Aggregate.func with
          | Aggregate.Count | Aggregate.Count_star -> L_count (next g.ints k)
          | Aggregate.Sum | Aggregate.Avg ->
            let sum = next g.cells c in
            L_sum { sum; n = next g.ints k }
          | Aggregate.Min | Aggregate.Max -> L_ext (next g.cells c)))
    items

let create ?dict_pool view ~determined =
  let items = Array.of_list view.View.select in
  let cells, ints, sets = components items in
  let g =
    Groups.create
      ~keys:
        (Array.of_list
           (List.map
              (fun (a : Attr.t) ->
                Column.create
                  ?dict:
                    (Option.map
                       (fun pool ->
                         Dict.shared pool ~table:a.Attr.table
                           ~column:a.Attr.column)
                       dict_pool)
                  ())
              (View.group_attrs view)))
      ~cells:(Array.of_list (List.rev_map (fun mk -> mk ()) cells))
      ~ints ~sets
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
    g;
    slots = slots items g;
    dirty = TH.create 16;
    dirty0 = None;
    published = None;
  }

(* The row of group [key], or -1, with the key's hash. *)
let find_group t key =
  let hash = Tuple.hash key in
  (hash, Groups.find t.g ~hash key)

let key_at t r = Groups.key_at t.g r

(* --- transactions -------------------------------------------------------- *)

let in_txn t = Groups.in_txn t.g

let begin_txn t =
  if in_txn t then
    invalid_arg "View_state.begin_txn: transaction already open";
  (* the dirty table is saved whole: flushed at the end of every batch, it
     is empty between batches, not sized by the resident state *)
  t.dirty0 <- (if TH.length t.dirty = 0 then None else Some (TH.copy t.dirty));
  Groups.begin_txn t.g

let group_count t = Groups.group_count t.g

(* The log is kept for the next {!publish}. A log of more entries than the
   view holds groups is dropped instead — {!publish} then renders in full —
   which also bounds it for a state that is never published. *)
let commit t =
  if not (in_txn t) then
    invalid_arg "View_state.commit: no open transaction";
  Groups.commit t.g;
  if Groups.log_length t.g > group_count t then Groups.drop_log t.g

let rollback t =
  if not (in_txn t) then
    invalid_arg "View_state.rollback: no open transaction";
  Groups.rollback t.g;
  TH.reset t.dirty;
  Option.iter (TH.iter (TH.add t.dirty)) t.dirty0;
  t.dirty0 <- None

let view t = t.view

let mark t key bit =
  match TH.find_opt t.dirty key with
  | None -> TH.add t.dirty (Array.copy key) bit
  | Some bits ->
    if bits land bit = 0 then TH.replace t.dirty (Array.copy key) (bits lor bit)

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

(* Checked before the first write of a feed or an unfeed, so a rejected
   row leaves the state as it was: every summed argument is numeric, and
   every item's argument matches its component. *)
let check_args t f =
  let args = Feed.args f in
  for i = 0 to Array.length args - 1 do
    match t.slots.(i), args.(i) with
    | L_group, Feed.Key | L_count _, Feed.Weight -> ()
    | (L_ext _ | L_dist _), Feed.Value _ -> ()
    | L_sum _, Feed.Sum _ ->
      if not (Feed.sum_is_numeric f i) then
        invalid_arg "View_state: non-numeric value in a summed item"
    | (L_group | L_count _ | L_sum _ | L_ext _ | L_dist _), _ ->
      invalid_arg "View_state: contribution does not match aggregate state"
  done

(* One item of a row weighted [cnt], added ([sign] = 1) or removed from the
   group at row [r]. COUNT and SUM/AVG components move in their unboxed
   cells; only extrema and DISTINCT multisets take the argument boxed. *)
let apply_arg t f ~sign ~cnt r i =
  match t.slots.(i) with
  | L_group -> ()
  | L_count c -> Icol.add c r (sign * cnt)
  | L_sum { sum; n } ->
    Feed.add_sum f i sum r ~cnt ~sign;
    Icol.add n r (sign * cnt)
  | L_ext cell ->
    let v = Feed.arg_value f i in
    if sign > 0 then begin
      match Column.get cell r with
      | Value.Null -> Column.set cell r v
      | cur ->
        let better =
          match t.items.(i) with
          | Select_item.Agg { Aggregate.func = Aggregate.Min; _ } ->
            Value.compare v cur < 0
          | Select_item.Agg { Aggregate.func = Aggregate.Max; _ } ->
            Value.compare v cur > 0
          | _ -> assert false
        in
        if better then Column.set cell r v
    end
    else if not t.determined then begin
      (* deletion of the current extremum invalidates the component *)
      match Column.get cell r with
      | Value.Null -> ()
      | cur -> if Value.equal cur v then mark t (key_at t r) recompute
    end
  | L_dist { cell; vals } ->
    let agg =
      match t.items.(i) with
      | Select_item.Agg a -> a
      | Select_item.Group _ -> assert false
    in
    let v = Feed.arg_value f i in
    let m = vals.maps.(r) in
    let before = Option.value (VMap.find_opt v m) ~default:0 in
    let after = before + (sign * cnt) in
    if after < 0 then invalid_arg "View_state: DISTINCT multiplicity underflow";
    vals.maps.(r) <- (if after = 0 then VMap.remove v m else VMap.add v after m);
    (* the result changes only when the value set does *)
    if before = 0 || after = 0 then begin
      match distinct_step agg (Column.get cell r) v sign with
      | Some x -> Column.set cell r x
      | None -> mark t (key_at t r) refinalize
    end

let apply_args t f ~sign ~cnt r =
  for i = 0 to Array.length t.slots - 1 do
    apply_arg t f ~sign ~cnt r i
  done

(* Append a fresh group, its key read off [f]. Sum components are seeded
   with the zero of their first argument's type so the column specializes
   to the right numeric storage (a later type change demotes the column to
   boxed cells). *)
let append_fresh t ~hash f =
  Feed.append_key f t.g.keys;
  Array.iteri
    (fun i slot ->
      match slot with
      | L_group -> ()
      | L_count c -> Icol.append c 0
      | L_sum { sum; n } ->
        Column.append sum (Feed.sum_zero f i);
        Icol.append n 0
      | L_ext v -> Column.append v Value.Null
      | L_dist { cell; vals } ->
        Column.append cell Value.Null;
        Groups.sets_append vals VMap.empty)
    t.slots;
  Groups.add_row t.g ~hash 0

let feed t f ~cnt =
  check_args t f;
  let hash = Feed.hash_key f in
  let g = t.g in
  let r = Rowmap.probe g.map ~hash Feed.key_matches f g.keys in
  let r =
    if r >= 0 then begin
      Groups.note_row g ~hash r;
      r
    end
    else begin
      let r = append_fresh t ~hash f in
      Groups.note_created g ~hash r;
      r
    end
  in
  Icol.add g.cnts r cnt;
  apply_args t f ~sign:1 ~cnt r

(* --- seeding ---------------------------------------------------------------- *)

(* One DISTINCT item's (group, value) pairs, each once: its view group, the
   last locator whose cell holds the value and its summed weight. The
   last, because a multiset keeps the last key it was given of values
   that compare equal (as [0.] and [-0.] do), as the feed keeps it. *)
type pairs = { pg : Icol.t; pat : Icol.t; pw : Icol.t; col : Column.t }

let pair_hash r h = (r * 31) + h

let pair_is p r l q =
  Icol.get p.pg q = r && Column.equal_cells p.col (Icol.get p.pat q) p.col l

(* The codes of [col]'s cells at [at.(k)] for the items [k] that fold,
   when they span under 2^31: their least. *)
let code_base col ~into ~at =
  if not (Column.coded col) then None
  else begin
    let lo = ref max_int and hi = ref min_int in
    Array.iteri
      (fun k r ->
        if r >= 0 then begin
          let c = Column.code col at.(k) in
          if c < !lo then lo := c;
          if c > !hi then hi := c
        end)
      into;
    let span = !hi - !lo in
    if span >= 0 && span < 1 lsl 31 then Some !lo else None
  end

let seed_distinct t agg ~cell ~(vals : Groups.sets) col ~into ~at ~weights =
  let p = { pg = Icol.create (); pat = Icol.create (); pw = Icol.create (); col } in
  let fresh r l w =
    Icol.append p.pg r;
    Icol.append p.pat l;
    Icol.append p.pw w;
    Icol.length p.pg - 1
  in
  (match code_base col ~into ~at with
  | Some lo ->
    (* a value is its code: a pair is named by one int, and equal codes
       hold the very same value *)
    let pairs = Memo.create () in
    Array.iteri
      (fun k r ->
        if r >= 0 then begin
          let key = (r lsl 31) lor (Column.code col at.(k) - lo) in
          let q = Memo.find pairs key in
          if q <> Memo.absent then Icol.add p.pw q weights.(k)
          else Memo.add pairs key (fresh r at.(k) weights.(k))
        end)
      into
  | None ->
    let pairs =
      Rowmap.create
        ~hash:(fun q ->
          pair_hash (Icol.get p.pg q) (Column.hash_cell col (Icol.get p.pat q)))
        ()
    in
    for k = 0 to Array.length into - 1 do
      let r = into.(k) in
      if r >= 0 then begin
        let l = at.(k) in
        let hash = pair_hash r (Column.hash_cell col l) in
        let q = Rowmap.probe3 pairs ~hash pair_is p r l in
        if q >= 0 then begin
          Icol.set p.pat q l;
          Icol.add p.pw q weights.(k)
        end
        else Rowmap.add pairs ~hash (fresh r l weights.(k))
      end
    done);
  for q = 0 to Icol.length p.pg - 1 do
    let r = Icol.get p.pg q in
    vals.maps.(r) <-
      VMap.add (Column.get col (Icol.get p.pat q)) (Icol.get p.pw q) vals.maps.(r)
  done;
  for r = 0 to group_count t - 1 do
    Column.set cell r (finalize_distinct agg vals.maps.(r))
  done

let seed t f ~joined ~counts =
  if group_count t > 0 || in_txn t then
    invalid_arg "View_state.seed: state not empty or in a transaction";
  let g = t.g in
  (* each group's view group and locator in every slot an argument is
     read from *)
  let groups = Icol.length counts in
  let into = Array.make groups (-1) and weights = Icol.to_array counts in
  let locs = Array.make (Feed.slots f) [||] in
  Array.iteri
    (fun i slot ->
      match slot with
      | L_group | L_count _ -> ()
      | L_sum _ | L_ext _ | L_dist _ ->
        let s, _, _ = Feed.arg_column f i in
        if Array.length locs.(s) = 0 then locs.(s) <- Array.make groups (-1))
    t.slots;
  let find () =
    let hash = Feed.hash_key f in
    let r = Rowmap.probe g.map ~hash Feed.key_matches f g.keys in
    if r >= 0 then r
    else begin
      let r = append_fresh t ~hash f in
      Groups.note_created g ~hash r;
      r
    end
  in
  (* a key with a code is probed for once *)
  let plan = ref None and found = Memo.create () in
  for l = 0 to groups - 1 do
    if joined l then begin
      let plan =
        match !plan with
        | Some p -> p
        | None ->
          check_args t f;
          let p = Feed.key_code_plan f in
          plan := Some p;
          p
      in
      let r =
        match plan with
        | Feed.Uncoded -> find ()
        | Feed.Per_loc _ | Feed.Per_code _ ->
          let k = Feed.key_code f plan in
          let r = Memo.find found k in
          if r <> Memo.absent then r
          else begin
            let r = find () in
            Memo.add found k r;
            r
          end
      in
      into.(l) <- r;
      for s = 0 to Array.length locs - 1 do
        if Array.length locs.(s) > 0 then locs.(s).(l) <- Feed.loc f s
      done
    end
  done;
  let add_weights c = Icol.add_at c ~into ~by:weights in
  add_weights g.cnts;
  Array.iteri
    (fun i slot ->
      match slot, t.items.(i) with
      | L_group, _ -> ()
      | L_count c, _ -> add_weights c
      | L_sum { sum; n }, _ ->
        let s, col, weighted = Feed.arg_column f i in
        let at = locs.(s) in
        if not (Column.numeric col) then
          Array.iteri
            (fun l r ->
              if r >= 0 && not (Column.is_numeric_cell col at.(l)) then
                invalid_arg "View_state: non-numeric value in a summed item")
            into;
        Column.fold_add sum ~into col ~at ~by:(if weighted then weights else [||]);
        add_weights n
      | L_ext cell, Select_item.Agg agg ->
        let s, col, _ = Feed.arg_column f i in
        Column.fold_ext cell ~into col ~at:locs.(s)
          ~is_min:(agg.Aggregate.func = Aggregate.Min)
      | L_dist { cell; vals }, Select_item.Agg agg ->
        let s, col, _ = Feed.arg_column f i in
        seed_distinct t agg ~cell ~vals col ~into ~at:locs.(s) ~weights
      | (L_ext _ | L_dist _), Select_item.Group _ -> assert false)
    t.slots

let absent what f =
  invalid_arg
    (Printf.sprintf "View_state.%s: group %s absent" what
       (Tuple.to_string (Feed.key f)))

let unfeed t f ~cnt =
  check_args t f;
  let hash = Feed.hash_key f in
  let g = t.g in
  let r = Rowmap.probe g.map ~hash Feed.key_matches f g.keys in
  if r < 0 then absent "unfeed" f;
  if Icol.get g.cnts r < cnt then
    invalid_arg "View_state.unfeed: count underflow";
  Groups.note_row g ~hash r;
  Icol.add g.cnts r (-cnt);
  if Icol.get g.cnts r = 0 then begin
    if TH.length t.dirty > 0 then TH.remove t.dirty (key_at t r);
    ignore (Groups.delete_row g ~hash r : int)
  end
  else apply_args t f ~sign:(-1) ~cnt r

let adjust t f ~sums ~before ~after =
  let hash = Feed.hash_key f in
  let r = Rowmap.probe t.g.map ~hash Feed.key_matches f t.g.keys in
  if r < 0 then absent "adjust" f;
  (* everything is checked before the first write, so a rejected update
     leaves the group as it was *)
  for j = 0 to Array.length sums - 1 do
    let item, pos = sums.(j) in
    (match t.slots.(item) with
    | L_sum _ -> ()
    | L_group | L_count _ | L_ext _ | L_dist _ ->
      invalid_arg "View_state.adjust: item is not a SUM or AVG");
    if not (Value.is_numeric before.(pos) && Value.is_numeric after.(pos)) then
      invalid_arg "View_state.adjust: non-numeric value in a summed item"
  done;
  Groups.note_row t.g ~hash r;
  (* the order of an unfeed then a feed, so float sums agree *)
  for j = 0 to Array.length sums - 1 do
    let item, pos = sums.(j) in
    match t.slots.(item) with
    | L_sum { sum; _ } ->
      Column.sub_cell sum r before.(pos) 1;
      Column.add_cell sum r after.(pos) 1
    | L_group | L_count _ | L_ext _ | L_dist _ -> ()
  done

(* Re-fold every DISTINCT result of the group at [r] from its multiset. *)
let refold t ~hash r =
  Groups.note_row t.g ~hash r;
  Array.iteri
    (fun i slot ->
      match slot, t.items.(i) with
      | L_dist { cell; vals }, Select_item.Agg agg ->
        Column.set cell r (finalize_distinct agg vals.maps.(r))
      | (L_group | L_count _ | L_sum _ | L_ext _ | L_dist _), _ -> ())
    t.slots

let take_dirty t =
  let acc =
    TH.fold
      (fun key bits acc ->
        (if bits land refinalize <> 0 then
           let hash, r = find_group t key in
           if r >= 0 then refold t ~hash r);
        if bits land recompute <> 0 then key :: acc else acc)
      t.dirty []
  in
  TH.reset t.dirty;
  acc

let is_dirty_pending t = TH.length t.dirty > 0

let set_value t ~key ~item v =
  let hash, r = find_group t key in
  if r >= 0 then begin
    Groups.note_row t.g ~hash r;
    match t.slots.(item) with
    | L_ext cell -> Column.set cell r v
    | L_group | L_count _ | L_sum _ | L_dist _ ->
      invalid_arg "View_state.set_value: item is not recomputed"
  end

type component_update = Shift_sum of Value.t | Set_current of Value.t

let adjust_group t ~key ~new_key updates =
  let hash, r = find_group t key in
  if r < 0 then
    invalid_arg
      (Printf.sprintf "View_state.adjust_group: group %s absent"
         (Tuple.to_string key))
  else begin
    let moving = not (Tuple.equal key new_key) in
    let new_hash = if moving then Tuple.hash new_key else hash in
    Groups.note_row t.g ~hash r;
    List.iter
      (fun (i, upd) ->
        match t.slots.(i), t.items.(i), upd with
        | L_sum { sum; n }, _, Shift_sum delta ->
          Column.add_cell sum r delta (Icol.get n r)
        | L_ext cell, _, Set_current v -> Column.set cell r v
        | L_dist { cell; vals }, Select_item.Agg agg, Set_current v ->
          (* the argument is determined by the group key: every base row
             of the group now carries [v] *)
          let m = VMap.singleton v (Icol.get t.g.cnts r) in
          vals.maps.(r) <- m;
          Column.set cell r (finalize_distinct agg m)
        | (L_group | L_count _ | L_sum _ | L_ext _ | L_dist _), _, _ ->
          invalid_arg "View_state.adjust_group: update does not match state")
      updates;
    if moving then begin
      if Groups.find t.g ~hash:new_hash new_key >= 0 then
        invalid_arg "View_state.adjust_group: new key collides";
      Groups.rekey t.g r ~hash ~key:new_key ~new_hash;
      Groups.note_created t.g ~hash:new_hash r;
      match TH.find_opt t.dirty key with
      | Some bits ->
        TH.remove t.dirty key;
        TH.add t.dirty (Array.copy new_key) bits
      | None -> ()
    end
  end

let multiset t ~key ~item =
  let _, r = find_group t key in
  match t.slots.(item) with
  | L_dist { vals; _ } when r >= 0 -> VMap.bindings vals.maps.(r)
  | L_group | L_count _ | L_sum _ | L_ext _ | L_dist _ -> []

let fold_groups t f acc =
  let acc = ref acc in
  for r = 0 to group_count t - 1 do
    acc := f (key_at t r) (Icol.get t.g.cnts r) !acc
  done;
  !acc

(* Structural equality of the resident view state: groups (base counts,
   every aggregate component and DISTINCT multiset) and the dirty table.
   Deliberately independent of physical row order; open transactions are
   ignored. *)
let equal a b =
  Groups.equal a.g b.g
  && TH.length a.dirty = TH.length b.dirty
  && TH.fold
       (fun key bits acc -> acc && TH.find_opt b.dirty key = Some bits)
       a.dirty true

(* The select-list row of the group at [r]. *)
let render_row t r =
  let gi = ref 0 in
  Array.mapi
    (fun i item ->
      match (item : Select_item.t) with
      | Select_item.Group _ ->
        let v = Column.get t.g.keys.(!gi) r in
        incr gi;
        v
      | Select_item.Agg agg -> (
        match t.slots.(i) with
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
  for r = 0 to group_count t - 1 do
    Relation.insert result (render_row t r)
  done;
  (* restrictions on groups (HAVING) are applied at read time: the full group
     state is what gets maintained *)
  View.filter_having t.view result

(* --- publication --------------------------------------------------------- *)

let compare_rows ((x : Tuple.t), _) ((y : Tuple.t), _) = Tuple.compare x y

(* [Tuple.hash] of [row]'s group key, without building the key. *)
let key_hash t (row : Tuple.t) =
  let h = ref 17 in
  for k = 0 to Array.length t.key_pos - 1 do
    h := (!h * 31) + Value.hash row.(t.key_pos.(k))
  done;
  !h

(* A touched group: its key hash and its fresh row, [no_row] when the group
   is gone or fails HAVING. *)
type touched = {
  hash : int;
  row : Tuple.t * int;
  mutable placed : bool;  (** emitted where its old row was *)
}

(* Also the filler of fresh arrays: not [Array.of_list] or a young first
   element, which make an array of more than 256 words force a minor
   collection (the runtime's [caml_make_vect]). *)
let no_row : Tuple.t * int = ([||], 0)

let no_entry = { hash = 0; row = no_row; placed = false }

(* The previous publication advanced by the logged keys: its rows of
   untouched groups — the very pairs, not copies — and the fresh rows of
   the touched groups that still exist and pass HAVING. Rows hold their
   group key, so no two rows compare equal.

   The previous rows are walked by their key hashes: a bit filter over the
   touched keys' hashes passes most rows without reading them. A touched
   group's fresh row takes the place of its old row when it sorts between
   the row emitted before and the next kept row, as it does whenever its
   ordering cells kept their values; the others (new groups, rows that
   moved) are sorted and merged in by binary search. So the rows of
   untouched groups are never read, and a touched group costs O(1)
   compares, O(log n) when its row moves. *)
let advance t prev =
  let nt = Groups.log_length t.g in
  if nt = 0 then prev
  else begin
    (* 16 bits a touched key: about one untouched row in 16 passes *)
    let bits = ref 64 in
    while !bits < 16 * nt && !bits < 1 lsl 23 do
      bits := 2 * !bits
    done;
    let mask = !bits - 1 in
    let filter = Bytes.make (!bits lsr 3) '\000' in
    let entries = TH.create nt in
    for e = 0 to nt - 1 do
      let key = Groups.log_key t.g e in
      if not (TH.mem entries key) then begin
        let hash = Groups.log_hash t.g e in
        let b = hash land mask in
        Bytes.unsafe_set filter (b lsr 3)
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get filter (b lsr 3))
             lor (1 lsl (b land 7))));
        let r = Groups.find t.g ~hash key in
        let row =
          if r < 0 then no_row
          else
            let row = render_row t r in
            if t.view.View.having = [] || View.passes_having t.view row
            then (row, 1)
            else no_row
        in
        TH.add entries key { hash; row; placed = false }
      end
    done;
    let nt = TH.length entries in
    let filtered h =
      let b = h land mask in
      Char.code (Bytes.unsafe_get filter (b lsr 3)) land (1 lsl (b land 7)) <> 0
    in
    let np = Array.length prev.rows in
    let key = Array.make (Array.length t.key_pos) Value.Null in
    (* the touched entry of previous row [j], if its group was touched *)
    let entry_of j =
      if not (filtered prev.hashes.(j)) then None
      else begin
        let row = fst prev.rows.(j) in
        for k = 0 to Array.length key - 1 do
          key.(k) <- row.(t.key_pos.(k))
        done;
        TH.find_opt entries key
      end
    in
    let cap = np + nt in
    let out = Array.make cap no_row and out_h = Array.make cap 0 in
    let n = ref 0 in
    let emit row h =
      out.(!n) <- row;
      out_h.(!n) <- h;
      incr n
    in
    (* the fresh rows of the touched groups whose old rows came since the
       last kept row, newest first: each takes its old row's place if it
       sorts between the row emitted before it and [next], the next kept
       row ([no_row]: none) *)
    let pending = ref [] in
    let settle next =
      List.iter
        (fun e ->
          if
            (!n = 0 || compare_rows out.(!n - 1) e.row < 0)
            && (next == no_row || compare_rows e.row next < 0)
          then begin
            emit e.row e.hash;
            e.placed <- true
          end)
        (List.rev !pending);
      pending := []
    in
    for j = 0 to np - 1 do
      match entry_of j with
      | None ->
        let row = prev.rows.(j) in
        if !pending <> [] then settle row;
        emit row prev.hashes.(j)
      | Some e -> if e.row != no_row then pending := e :: !pending
    done;
    settle no_row;
    (* the rest: new groups and rows that moved *)
    let rest =
      TH.fold
        (fun _ e acc -> if e.row != no_row && not e.placed then e :: acc else acc)
        entries []
    in
    if rest = [] then
      if !n = cap then { rows = out; hashes = out_h }
      else { rows = Array.sub out 0 !n; hashes = Array.sub out_h 0 !n }
    else begin
      let rest =
        let a = Array.make (List.length rest) no_entry in
        List.iteri (fun i e -> a.(i) <- e) rest;
        a
      in
      Array.sort (fun a b -> compare_rows a.row b.row) rest;
      let m = !n + Array.length rest in
      let rows = Array.make m no_row and hashes = Array.make m 0 in
      let w = ref 0 and from = ref 0 in
      Array.iter
        (fun e ->
          (* the first emitted row at or after [from] that sorts after it *)
          let lo = ref !from and hi = ref !n in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if compare_rows out.(mid) e.row < 0 then lo := mid + 1 else hi := mid
          done;
          let len = !lo - !from in
          Array.blit out !from rows !w len;
          Array.blit out_h !from hashes !w len;
          w := !w + len;
          from := !lo;
          rows.(!w) <- e.row;
          hashes.(!w) <- e.hash;
          incr w)
        rest;
      Array.blit out !from rows !w (!n - !from);
      Array.blit out_h !from hashes !w (!n - !from);
      { rows; hashes }
    end
  end

let publish t =
  if in_txn t then invalid_arg "View_state.publish: transaction open";
  let pub =
    match t.published with
    | Some prev when not t.g.Groups.untracked -> advance t prev
    | Some _ | None ->
      let rows = Relation.to_sorted_array (render t) in
      { rows; hashes = Array.map (fun (row, _) -> key_hash t row) rows }
  in
  Groups.clear_log t.g;
  t.published <- Some pub;
  pub.rows

(* --- byte accounting ----------------------------------------------------- *)

let offheap_bytes t = Groups.offheap_bytes t.g
let byte_size t = Groups.byte_size t.g
