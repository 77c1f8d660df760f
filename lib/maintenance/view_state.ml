module View = Algebra.View
module Select_item = Algebra.Select_item
module Aggregate = Algebra.Aggregate
module Attr = Algebra.Attr
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value
module Icol = Column.Icol
module Marks = Column.Marks

module TH = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

module VMap = Map.Make (Value)

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

(* The boxed components of one group: what a group move carries, and what
   structural equality compares. *)
type saved_acc =
  | Sv_group
  | Sv_count of int
  | Sv_sum of { sum : Value.t; n : int }
  | Sv_value of Value.t  (** extremum cell, [Null] = pending *)
  | Sv_dist of { cell : Value.t; vals : int VMap.t }

(* The undo journal of a shard is a log of group images laid out as the
   shard lays out its groups — typed key cells, component slots and the
   base-row count — plus each key's hash. An entry is the before-image of
   a group's first touch in a transaction, or, with [cnt0 = -1], the
   record that the transaction created the group. Entries are appended
   with the typed cell copies the shard itself uses, so journaling boxes
   nothing; the log keeps its capacity from one transaction to the next
   (see [clear_log]).
   It also outlives its transaction: the entries since the last
   {!publish} name every group changed since then. *)
type log = { lkeys : Column.t array; lslots : slot array; lcnt0 : Icol.t; lhash : Icol.t }

(* The transaction's entries are the log's from [start] on. *)
type txn = { dirty0 : int TH.t option; start : int }

(* Why a group is pending in its shard's dirty table, as bits: the engine
   must recompute a MIN/MAX from the auxiliary views, or a DISTINCT result
   must be re-folded from its multiset. *)
let recompute = 1
let refinalize = 2

(* One hash-shard of the view state: key columns, component columns, the
   dirty table and the undo journal all live per shard so parallel appliers
   owning disjoint shards never share a structure. Group keys entering the
   dirty table are copied on retention, because callers may pass reused
   scratch buffers. *)
type shard = {
  keys : Column.t array;
  slots : slot array;
  cnt0 : Icol.t;
  touched : Marks.t;
      (** row-parallel: marked when the open transaction has journaled the
          row's group, so a later write to it skips the journal without
          hashing its key again *)
  map : Rowmap.t;  (** group key (= key cells) -> row id *)
  dirty : int TH.t;  (** group key -> [recompute]/[refinalize] bits *)
  mutable txn : txn option;
  mutable log : log;
  mutable untracked : bool;
      (** a group changed outside a transaction since the last {!publish},
          or the log was dropped: the log does not name every changed
          group *)
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
  let dicts =
    Array.map
      (fun (a : Attr.t) ->
        Option.map
          (fun pool -> Dict.shared pool ~table:a.Attr.table ~column:a.Attr.column)
          dict_pool)
      key_attrs
  in
  let mk_keys () = Array.map (fun dict -> Column.create ?dict ()) dicts in
  let mk_shard () =
    let keys = mk_keys () in
    {
      keys;
      slots = Array.map mk_slot items;
      cnt0 = Icol.create ();
      touched = Marks.create ();
      map = Rowmap.create ~hash:(fun r -> key_hash_cols keys r) ();
      dirty = TH.create 16;
      txn = None;
      log =
        {
          lkeys = mk_keys ();
          lslots = Array.map mk_slot items;
          lcnt0 = Icol.create ();
          lhash = Icol.create ();
        };
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
let shard_of_feed t f = Feed.hash_key f land t.mask
let shard_for t key = t.shards.(shard_of_key t key)

(* Closed equality test for [Rowmap.probe]: the shard and the probed key
   are its context, so a probe allocates nothing. *)
let rec key_matches_from (sh : shard) (key : Tuple.t) r i =
  i >= Array.length key
  || Column.equal_cell sh.keys.(i) r key.(i) && key_matches_from sh key r (i + 1)

let key_matches sh key r = key_matches_from sh key r 0

(* Row of group [key] in [sh], or -1; [hash] is [Tuple.hash key]. *)
let probe_row (sh : shard) ~hash key = Rowmap.probe sh.map ~hash key_matches sh key

let find_row (sh : shard) ~hash key =
  let r = probe_row sh ~hash key in
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
let append_saved (sh : shard) ~hash key cnt0 accs =
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
  Marks.append sh.touched;
  Rowmap.add sh.map ~hash r;
  r

(* Append a fresh group, its key read off [f]. Sum components are seeded
   with the zero of their first argument's type so the column specializes
   to the right numeric storage (a later type change demotes the column to
   boxed cells). *)
let append_fresh (sh : shard) ~hash f =
  let r = nrows sh in
  Feed.append_key f sh.keys;
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
        mcol_append vals VMap.empty)
    sh.slots;
  Icol.append sh.cnt0 0;
  Marks.append sh.touched;
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
  Icol.swap_delete sh.cnt0 r;
  Marks.swap_delete sh.touched r

(* --- the journal log ------------------------------------------------------- *)

let empty_slot = function
  | L_group -> L_group
  | L_count _ -> L_count (Icol.create ())
  | L_sum { sum; _ } -> L_sum { sum = Column.empty_like sum; n = Icol.create () }
  | L_ext v -> L_ext (Column.empty_like v)
  | L_dist { cell; _ } -> L_dist { cell = Column.empty_like cell; vals = mcol_create () }

let empty_log lg =
  {
    lkeys = Array.map Column.empty_like lg.lkeys;
    lslots = Array.map empty_slot lg.lslots;
    lcnt0 = Icol.create ();
    lhash = Icol.create ();
  }

let log_length lg = Icol.length lg.lcnt0

(* Appends the image of row [r] — typed cells copied as they are stored —
   with [cnt0] (-1: the group was created). *)
let log_row (sh : shard) ~hash ~cnt0 r =
  let lg = sh.log in
  for i = 0 to Array.length lg.lkeys - 1 do
    Column.append_cell lg.lkeys.(i) sh.keys.(i) r
  done;
  for i = 0 to Array.length lg.lslots - 1 do
    match lg.lslots.(i), sh.slots.(i) with
    | L_group, L_group -> ()
    | L_count d, L_count c -> Icol.append d (Icol.get c r)
    | L_sum { sum = d; n = dn }, L_sum { sum; n } ->
      Column.append_cell d sum r;
      Icol.append dn (Icol.get n r)
    | L_ext d, L_ext v -> Column.append_cell d v r
    | L_dist { cell = d; vals = dv }, L_dist { cell; vals } ->
      Column.append_cell d cell r;
      mcol_append dv vals.maps.(r)
    | (L_group | L_count _ | L_sum _ | L_ext _ | L_dist _), _ -> assert false
  done;
  Icol.append lg.lcnt0 cnt0;
  Icol.append lg.lhash hash

let log_key lg e = Array.map (fun c -> Column.get c e) lg.lkeys

let log_accs lg e =
  Array.map
    (function
      | L_group -> Sv_group
      | L_count c -> Sv_count (Icol.get c e)
      | L_sum { sum; n } -> Sv_sum { sum = Column.get sum e; n = Icol.get n e }
      | L_ext v -> Sv_value (Column.get v e)
      | L_dist { cell; vals } ->
        Sv_dist { cell = Column.get cell e; vals = vals.maps.(e) })
    lg.lslots

let truncate_log lg n =
  Array.iter (fun c -> Column.truncate c n) lg.lkeys;
  Array.iter
    (function
      | L_group -> ()
      | L_count c -> Icol.truncate c n
      | L_sum { sum; n = cn } ->
        Column.truncate sum n;
        Icol.truncate cn n
      | L_ext v -> Column.truncate v n
      | L_dist { cell; vals } ->
        Column.truncate cell n;
        if n < vals.len then begin
          Array.fill vals.maps n (vals.len - n) VMap.empty;
          vals.len <- n
        end)
    lg.lslots;
  Icol.truncate lg.lcnt0 n;
  Icol.truncate lg.lhash n

(* Empties the log of [sh]. It keeps its capacity for the next
   transactions unless that is well beyond what it just held: then its
   storage is released, so one large batch does not pin a large log. *)
let clear_log (sh : shard) =
  if Icol.capacity sh.log.lcnt0 > 4 * max 64 (log_length sh.log) then
    sh.log <- empty_log sh.log
  else truncate_log sh.log 0

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
      touched = Marks.copy sh.touched;
      map = Rowmap.copy sh.map ~hash:(fun r -> key_hash_cols keys r);
      dirty = TH.copy sh.dirty;
      txn = None;
      log = empty_log sh.log;
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
    (fun sh ->
      let dirty0 = if TH.length sh.dirty = 0 then None else Some (TH.copy sh.dirty) in
      Marks.next_epoch sh.touched;
      sh.txn <- Some { dirty0; start = log_length sh.log })
    t.shards

(* Before the first mutation of the group at row [r] in a transaction:
   logs its image, once — a row already logged is recognized by its
   [touched] mark, without a probe. [hash] is the group key's hash. *)
let note_row (sh : shard) ~hash r =
  match sh.txn with
  | None -> sh.untracked <- true
  | Some _ ->
    if not (Marks.marked sh.touched r) then begin
      log_row sh ~hash ~cnt0:(Icol.get sh.cnt0 r) r;
      Marks.mark sh.touched r
    end

(* After the creation of the group at row [r]. *)
let note_created (sh : shard) ~hash r =
  match sh.txn with
  | None -> sh.untracked <- true
  | Some _ ->
    log_row sh ~hash ~cnt0:(-1) r;
    Marks.mark sh.touched r

let group_count t = Array.fold_left (fun acc sh -> acc + nrows sh) 0 t.shards

(* The log is kept for the next {!publish}. A log of more entries than the
   view holds groups is dropped instead — {!publish} then renders in full —
   which also bounds it for a state that is never published. *)
let commit t =
  if t.shards.(0).txn = None then
    invalid_arg "View_state.commit: no open transaction";
  Array.iter (fun sh -> sh.txn <- None) t.shards;
  let logged = Array.fold_left (fun acc sh -> acc + log_length sh.log) 0 t.shards in
  if logged > group_count t then
    Array.iter
      (fun sh ->
        clear_log sh;
        sh.untracked <- true)
      t.shards

(* Undoes the transaction's entries: first every group it created is
   removed, then every before-image is restored — a key may carry both,
   when the transaction deleted a group and created it again. *)
let rollback t =
  if t.shards.(0).txn = None then
    invalid_arg "View_state.rollback: no open transaction";
  Array.iter
    (fun (sh : shard) ->
      match sh.txn with
      | None -> ()
      | Some { dirty0; start; _ } ->
        let lg = sh.log in
        let n = log_length lg in
        for e = start to n - 1 do
          if Icol.get lg.lcnt0 e < 0 then
            match find_row sh ~hash:(Icol.get lg.lhash e) (log_key lg e) with
            | Some r -> delete_row sh r
            | None -> ()
        done;
        for e = start to n - 1 do
          let cnt0 = Icol.get lg.lcnt0 e in
          if cnt0 >= 0 then begin
            let key = log_key lg e in
            match find_row sh ~hash:(Icol.get lg.lhash e) key with
            | Some r ->
              Icol.set sh.cnt0 r cnt0;
              Array.iteri
                (fun i slot ->
                  match slot, lg.lslots.(i) with
                  | L_group, L_group -> ()
                  | L_count c, L_count x -> Icol.set c r (Icol.get x e)
                  | L_sum { sum; n }, L_sum { sum = s; n = m } ->
                    Column.set sum r (Column.get s e);
                    Icol.set n r (Icol.get m e)
                  | L_ext v, L_ext x -> Column.set v r (Column.get x e)
                  | L_dist { cell; vals }, L_dist { cell = x; vals = m } ->
                    Column.set cell r (Column.get x e);
                    vals.maps.(r) <- m.maps.(e)
                  | (L_group | L_count _ | L_sum _ | L_ext _ | L_dist _), _
                    ->
                    assert false)
                sh.slots
            | None ->
              ignore
                (append_saved sh ~hash:(Icol.get lg.lhash e) key cnt0
                   (log_accs lg e))
          end
        done;
        truncate_log lg start;
        TH.reset sh.dirty;
        Option.iter (TH.iter (TH.add sh.dirty)) dirty0;
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

(* Checked before the first write of a feed or an unfeed, so a rejected
   row leaves the state as it was: every summed argument is numeric, and
   every item's argument matches its component. *)
let check_args t f =
  let args = Feed.args f in
  for i = 0 to Array.length args - 1 do
    match t.shards.(0).slots.(i), args.(i) with
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
let apply_arg t (sh : shard) f ~sign ~cnt r i =
  match sh.slots.(i) with
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
      | cur -> if Value.equal cur v then mark sh (key_at sh r) recompute
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
      | None -> mark sh (key_at sh r) refinalize
    end

let apply_args t sh f ~sign ~cnt r =
  for i = 0 to Array.length sh.slots - 1 do
    apply_arg t sh f ~sign ~cnt r i
  done

let feed t f ~cnt =
  check_args t f;
  let hash = Feed.hash_key f in
  let sh = t.shards.(hash land t.mask) in
  let r = Rowmap.probe sh.map ~hash Feed.key_matches f sh.keys in
  let r =
    if r >= 0 then begin
      note_row sh ~hash r;
      r
    end
    else begin
      let r = append_fresh sh ~hash f in
      note_created sh ~hash r;
      r
    end
  in
  Icol.add sh.cnt0 r cnt;
  apply_args t sh f ~sign:1 ~cnt r

let absent what f =
  invalid_arg
    (Printf.sprintf "View_state.%s: group %s absent" what
       (Tuple.to_string (Feed.key f)))

let unfeed t f ~cnt =
  check_args t f;
  let hash = Feed.hash_key f in
  let sh = t.shards.(hash land t.mask) in
  let r = Rowmap.probe sh.map ~hash Feed.key_matches f sh.keys in
  if r < 0 then absent "unfeed" f;
  if Icol.get sh.cnt0 r < cnt then
    invalid_arg "View_state.unfeed: count underflow";
  note_row sh ~hash r;
  Icol.add sh.cnt0 r (-cnt);
  if Icol.get sh.cnt0 r = 0 then begin
    if TH.length sh.dirty > 0 then TH.remove sh.dirty (key_at sh r);
    delete_row sh r
  end
  else apply_args t sh f ~sign:(-1) ~cnt r

let adjust t f ~sums ~before ~after =
  let hash = Feed.hash_key f in
  let sh = t.shards.(hash land t.mask) in
  let r = Rowmap.probe sh.map ~hash Feed.key_matches f sh.keys in
  if r < 0 then absent "adjust" f;
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
  note_row sh ~hash r;
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
let refold t (sh : shard) ~hash r =
  note_row sh ~hash r;
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
            (if bits land refinalize <> 0 then
               let hash = Tuple.hash key in
               Option.iter (refold t sh ~hash) (find_row sh ~hash key));
            if bits land recompute <> 0 then key :: acc else acc)
          sh.dirty acc
      in
      TH.reset sh.dirty;
      acc)
    [] t.shards

let is_dirty_pending t =
  Array.exists (fun (sh : shard) -> TH.length sh.dirty > 0) t.shards

let set_value t ~key ~item v =
  let hash = Tuple.hash key in
  let sh = t.shards.(hash land t.mask) in
  match find_row sh ~hash key with
  | None -> ()
  | Some r -> (
    note_row sh ~hash r;
    match sh.slots.(item) with
    | L_ext cell -> Column.set cell r v
    | L_group | L_count _ | L_sum _ | L_dist _ ->
      invalid_arg "View_state.set_value: item is not recomputed")

type component_update = Shift_sum of Value.t | Set_current of Value.t

let adjust_group t ~key ~new_key updates =
  let hash = Tuple.hash key in
  let sh = t.shards.(hash land t.mask) in
  match find_row sh ~hash key with
  | None ->
    invalid_arg
      (Printf.sprintf "View_state.adjust_group: group %s absent"
         (Tuple.to_string key))
  | Some r ->
    let moving = not (Tuple.equal key new_key) in
    let new_hash = if moving then Tuple.hash new_key else hash in
    let sh' = t.shards.(new_hash land t.mask) in
    note_row sh ~hash r;
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
      if find_row sh' ~hash:new_hash new_key <> None then
        invalid_arg "View_state.adjust_group: new key collides";
      let cnt0 = Icol.get sh.cnt0 r in
      let accs = saved_accs sh r in
      delete_row sh r;
      note_created sh' ~hash:new_hash
        (append_saved sh' ~hash:new_hash new_key cnt0 accs);
      match TH.find_opt sh.dirty key with
      | Some bits ->
        TH.remove sh.dirty key;
        TH.add sh'.dirty (Array.copy new_key) bits
      | None -> ()
    end

let multiset t ~key ~item =
  let hash = Tuple.hash key in
  let sh = t.shards.(hash land t.mask) in
  match find_row sh ~hash key, sh.slots.(item) with
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
             let hash = Tuple.hash key in
             let sh' = b.shards.(hash land b.mask) in
             match find_row sh' ~hash key with
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

(* The previous publication advanced by the logged keys: its rows of
   untouched groups, merged with the fresh rows of the touched groups that
   still exist and pass HAVING. Rows hold their group key, so no two rows
   compare equal. *)
let advance t prev =
  let logged = Array.fold_left (fun acc sh -> acc + log_length sh.log) 0 t.shards in
  let touched = TH.create (max 16 logged) in
  Array.iter
    (fun sh ->
      for e = 0 to log_length sh.log - 1 do
        TH.replace touched (log_key sh.log e) (Icol.get sh.log.lhash e)
      done)
    t.shards;
  if TH.length touched = 0 then prev
  else begin
    let rows =
      TH.fold
        (fun key hash acc ->
          let sh = t.shards.(hash land t.mask) in
          match find_row sh ~hash key with
          | Some r ->
            let row = render_row t sh r in
            if t.view.View.having = [] || View.passes_having t.view row then
              (row, 1) :: acc
            else acc
          | None -> acc)
        touched []
    in
    (* Not [Array.of_list]: an array of more than 256 words made with a
       young first element forces a minor collection (the runtime's
       [caml_make_vect]); a static filler does not. *)
    let fresh = Array.make (List.length rows) ([||], 0) in
    List.iteri (fun i p -> fresh.(i) <- p) rows;
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
      clear_log sh;
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
          (acc + Icol.byte_size sh.cnt0 + Marks.byte_size sh.touched
          + Rowmap.byte_size sh.map)
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
