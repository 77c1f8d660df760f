module Auxview = Mindetail.Auxview
module Schema = Relational.Schema
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value
module Icol = Column.Icol

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

(* Physical layout: groups are row ids into parallel typed columns (see
   {!Column}) — one column per Plain / Sum_of / extremum attribute plus a
   dense count column. [map] indexes group keys (stored in the plain
   columns) to row ids; [by_key] and the secondary indexes likewise hold row
   ids only. Deletion swaps the last row into the hole, so row ids are
   internal and never escape: the public [row] record is materialized on
   demand. *)

(* First-touch before-image of one group, taken when an open transaction
   first mutates it. [Absent] marks a group the batch created. Before-images
   are boxed (keyed by group key, not row id): swap-with-last deletion
   renumbers rows, so only keys are stable across a batch. *)
type saved_group =
  | Absent
  | Present of { cnt : int; sums : Value.t array; exts : Value.t array }

type txn = { saved : saved_group TH.t; total0 : int }

(* One secondary index: per distinct column value, an [Icol] bucket of row
   ids; [pos] is row-parallel and holds each row's offset within its bucket
   so removal is O(1) swap-with-last on the bucket. *)
type index = { buckets : Icol.t VH.t; pos : Icol.t }

(* One hash-shard of the resident state. Every row-parallel structure lives
   per shard, so during a parallel apply each domain owns a disjoint set of
   shards and never touches another domain's columns or tables. *)
type shard = {
  plains : Column.t array;
  sums : Column.t array;
  exts : Column.t array;
  cnts : Icol.t;
  map : Rowmap.t;  (** group key (= plain cells) -> row id *)
  by_key : Rowmap.t option;  (** base key value -> row id *)
  indexes : (int * index) list;
      (** per indexed column: its position among plains, and its index *)
  mutable total : int;
  mutable txn : txn option;
  scratch : Tuple.t;
      (** reusable projection buffer for the journal path; copied only when
          a key must be retained *)
}

type t = {
  spec : Auxview.t;
  plain_pos : (string, int) Hashtbl.t;
      (** base column -> position among the Plain columns, resolved once in
          [create] *)
  plain_src : int array;  (** base-schema index of each Plain column *)
  sum_src : int array;  (** base-schema index of each Sum_of column *)
  ext_src : (int * bool) array;
      (** base-schema index and is-MIN flag of each extremum column *)
  key_plain_pos : int;  (** position of the base key among plains, or -1 *)
  mask : int;  (** shard count - 1; shard of a key is [hash land mask] *)
  shards : shard array;
}

(* A row is a cursor into a shard's columns, not a materialized record: a
   count-only scan over a million groups allocates one 4-word handle per
   group and nothing else. Accessors fetch (and box) cells on demand. The
   snapshotted count keeps the handle meaningful for the engine's
   capture-then-mutate pattern; positional cells are invalidated by the
   next mutation of the owning state (swap-with-last moves rows). *)
type row = { sh_ : shard; r_ : int; cnt_ : int }

(* Row-key hash over the plain cells; must agree with [Tuple.hash] of the
   materialized group key (shard routing and probes hash boxed tuples on
   one side, stored cells on the other). *)
let key_hash_cols (plains : Column.t array) r =
  Array.fold_left (fun acc c -> (acc * 31) + Column.hash_cell c r) 17 plains

let nrows sh = Icol.length sh.cnts

let create ?(indexed_columns = []) ?(shards = 1) ?dict_pool spec schema =
  if shards < 1 || shards land (shards - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Aux_state.create(%s): shard count %d is not a power of two"
         spec.Auxview.name shards);
  let idx c = Schema.index_of schema c in
  let plain_cols = Auxview.group_columns spec in
  let plain_pos = Hashtbl.create 8 in
  List.iteri
    (fun i c -> if not (Hashtbl.mem plain_pos c) then Hashtbl.add plain_pos c i)
    plain_cols;
  let key_plain_pos =
    Option.value (Hashtbl.find_opt plain_pos schema.Schema.key) ~default:(-1)
  in
  let plain_src = Array.of_list (List.map idx plain_cols) in
  let dict_for col =
    Option.map
      (fun pool -> Dict.shared pool ~table:spec.Auxview.base ~column:col)
      dict_pool
  in
  let mk_shard () =
    let plains =
      Array.of_list
        (List.map (fun col -> Column.create ?dict:(dict_for col) ()) plain_cols)
    in
    let indexes =
      List.map
        (fun col ->
          match Hashtbl.find_opt plain_pos col with
          | Some pos -> (pos, { buckets = VH.create 64; pos = Icol.create () })
          | None ->
            (* a misspelled index column must not degrade to a silent full
               scan on every probe *)
            invalid_arg
              (Printf.sprintf
                 "Aux_state.create(%s): indexed column %s is not a plain \
                  column of the view"
                 spec.Auxview.name col))
        (List.sort_uniq String.compare indexed_columns)
    in
    {
      plains;
      sums =
        Array.of_list
          (List.map
             (fun col -> Column.create ?dict:(dict_for col) ())
             (Auxview.summed_columns spec));
      exts =
        Array.of_list
          (List.map
             (fun (col, _) -> Column.create ?dict:(dict_for col) ())
             (Auxview.ext_columns spec));
      cnts = Icol.create ();
      map = Rowmap.create ~hash:(fun r -> key_hash_cols plains r) ();
      by_key =
        (if key_plain_pos >= 0 then
           Some
             (Rowmap.create
                ~hash:(fun r -> Column.hash_cell plains.(key_plain_pos) r)
                ())
         else None);
      indexes;
      total = 0;
      txn = None;
      scratch = Array.make (Array.length plain_src) Value.Null;
    }
  in
  {
    spec;
    plain_pos;
    plain_src;
    sum_src = Array.of_list (List.map idx (Auxview.summed_columns spec));
    ext_src =
      Array.of_list
        (List.map
           (fun (c, is_min) -> (idx c, is_min))
           (Auxview.ext_columns spec));
    key_plain_pos;
    mask = shards - 1;
    shards = Array.init shards (fun _ -> mk_shard ());
  }

let spec s = s.spec
let shard_count s = Array.length s.shards

let group_key_of_base s tup = Tuple.project tup s.plain_src

(* Shard routing must agree with [Tuple.hash (group_key_of_base s tup)]
   without materializing the projection; this mirrors [Tuple.hash]'s fold. *)
let hash_base s tup =
  Array.fold_left (fun acc src -> (acc * 31) + Value.hash tup.(src)) 17 s.plain_src

let shard_of_base s tup = if s.mask = 0 then 0 else hash_base s tup land s.mask
let shard_of_key s key = if s.mask = 0 then 0 else Tuple.hash key land s.mask

(* --- probes -------------------------------------------------------------- *)

let row_matches_base s (sh : shard) r tup =
  let n = Array.length s.plain_src in
  let rec ok i =
    i >= n
    || Column.equal_cell sh.plains.(i) r tup.(s.plain_src.(i)) && ok (i + 1)
  in
  ok 0

let row_matches_key (sh : shard) r (key : Tuple.t) =
  let n = Array.length key in
  let rec ok i =
    i >= n || Column.equal_cell sh.plains.(i) r key.(i) && ok (i + 1)
  in
  ok 0

let find_row_base s sh ~hash tup =
  Rowmap.find sh.map ~hash ~eq:(fun r -> row_matches_base s sh r tup)

let find_row_key sh key =
  Rowmap.find sh.map ~hash:(Tuple.hash key) ~eq:(fun r -> row_matches_key sh r key)

let group_key_at (sh : shard) r =
  Array.init (Array.length sh.plains) (fun i -> Column.get sh.plains.(i) r)

(* --- secondary indexes --------------------------------------------------- *)

let index_add_row (sh : shard) r =
  List.iter
    (fun (pos, idx) ->
      let v = Column.get sh.plains.(pos) r in
      let bucket =
        match VH.find_opt idx.buckets v with
        | Some b -> b
        | None ->
          let b = Icol.create () in
          VH.add idx.buckets v b;
          b
      in
      Icol.append bucket r;
      Icol.append idx.pos (Icol.length bucket - 1))
    sh.indexes

(* Remove row [r] from every bucket (its [pos] slot is reclaimed by the
   caller's row-parallel swap-delete). *)
let index_remove_row (sh : shard) r =
  List.iter
    (fun (pos, idx) ->
      let v = Column.get sh.plains.(pos) r in
      let bucket = VH.find idx.buckets v in
      let p = Icol.get idx.pos r in
      let last = Icol.length bucket - 1 in
      let moved = Icol.get bucket last in
      Icol.set bucket p moved;
      Icol.set idx.pos moved p;
      Icol.swap_delete bucket last;
      if Icol.length bucket = 0 then VH.remove idx.buckets v)
    sh.indexes

(* --- row attach / detach ------------------------------------------------- *)

let by_key_attach s (sh : shard) r =
  Option.iter
    (fun bk ->
      let kp = s.key_plain_pos in
      let v = Column.get sh.plains.(kp) r in
      (* steal semantics: a new group with the same base key value takes
         over the mapping *)
      ignore
        (Rowmap.replace bk
           ~hash:(Column.hash_cell sh.plains.(kp) r)
           ~eq:(fun r' -> Column.equal_cell sh.plains.(kp) r' v)
           r))
    sh.by_key

let append_from_base s (sh : shard) ~hash tup count =
  let r = nrows sh in
  Array.iteri (fun i src -> Column.append sh.plains.(i) tup.(src)) s.plain_src;
  Array.iteri
    (fun i src -> Column.append sh.sums.(i) (Value.scale tup.(src) count))
    s.sum_src;
  Array.iteri (fun i (src, _) -> Column.append sh.exts.(i) tup.(src)) s.ext_src;
  Icol.append sh.cnts count;
  Rowmap.add sh.map ~hash r;
  by_key_attach s sh r;
  index_add_row sh r

let append_from_values s (sh : shard) key cnt (sums : Value.t array) (exts : Value.t array) =
  let r = nrows sh in
  Array.iteri (fun i v -> Column.append sh.plains.(i) v) key;
  Array.iteri (fun i v -> Column.append sh.sums.(i) v) sums;
  Array.iteri (fun i v -> Column.append sh.exts.(i) v) exts;
  Icol.append sh.cnts cnt;
  Rowmap.add sh.map ~hash:(Tuple.hash key) r;
  by_key_attach s sh r;
  index_add_row sh r

(* Swap-with-last removal of row [r], repairing every row-id holder: the
   key map, by_key (both the deleted row's entry, if it still points here,
   and the moved row's), and each secondary index. [hash] is row [r]'s
   group-key hash, which every caller already has in hand. *)
let delete_row s (sh : shard) ~hash r =
  let l = nrows sh - 1 in
  Option.iter
    (fun bk ->
      (* remove only if the mapping still points at this row — reordered
         replay (insertions before deletions) may have re-pointed this base
         key at the updated row's group, and that live mapping must not be
         clobbered *)
      ignore
        (Rowmap.remove_value bk
           ~hash:(Column.hash_cell sh.plains.(s.key_plain_pos) r)
           r))
    sh.by_key;
  index_remove_row sh r;
  ignore (Rowmap.remove_value sh.map ~hash r);
  if r <> l then begin
    (* row [l] is about to move into slot [r]; re-point its entries while
       its cells are still readable at [l] *)
    ignore
      (Rowmap.rename_value sh.map ~hash:(key_hash_cols sh.plains l) ~old_row:l
         ~new_row:r);
    Option.iter
      (fun bk ->
        ignore
          (Rowmap.rename_value bk
             ~hash:(Column.hash_cell sh.plains.(s.key_plain_pos) l)
             ~old_row:l ~new_row:r))
      sh.by_key;
    List.iter
      (fun (pos, idx) ->
        let v = Column.get sh.plains.(pos) l in
        let bucket = VH.find idx.buckets v in
        Icol.set bucket (Icol.get idx.pos l) r)
      sh.indexes
  end;
  Array.iter (fun c -> Column.swap_delete c r) sh.plains;
  Array.iter (fun c -> Column.swap_delete c r) sh.sums;
  Array.iter (fun c -> Column.swap_delete c r) sh.exts;
  Icol.swap_delete sh.cnts r;
  List.iter (fun (_, idx) -> Icol.swap_delete idx.pos r) sh.indexes

(* --- transactions -------------------------------------------------------- *)

let begin_txn s =
  if s.shards.(0).txn <> None then
    invalid_arg
      (Printf.sprintf "Aux_state.begin_txn(%s): transaction already open"
         s.spec.Auxview.name);
  Array.iter
    (fun sh -> sh.txn <- Some { saved = TH.create 64; total0 = sh.total })
    s.shards

(* Journal [key]'s before-image, once per transaction. Must run before any
   mutation of the group at [row] (or its creation). [key] may alias a
   scratch buffer; it is copied if retained. *)
let note_known (sh : shard) key row =
  match sh.txn with
  | None -> ()
  | Some { saved; _ } ->
    if not (TH.mem saved key) then
      TH.add saved (Array.copy key)
        (match row with
        | None -> Absent
        | Some r ->
          Present
            {
              cnt = Icol.get sh.cnts r;
              sums =
                Array.init (Array.length sh.sums) (fun i ->
                    Column.get sh.sums.(i) r);
              exts =
                Array.init (Array.length sh.exts) (fun i ->
                    Column.get sh.exts.(i) r);
            })

let commit s =
  if s.shards.(0).txn = None then
    invalid_arg
      (Printf.sprintf "Aux_state.commit(%s): no open transaction"
         s.spec.Auxview.name);
  Array.iter (fun sh -> sh.txn <- None) s.shards

let rollback_shard s sh =
  match sh.txn with
  | None -> ()
  | Some { saved; total0 } ->
    (* by_key and index membership are pure functions of the stored cells,
       so restoring group presence restores them too. Two phases: first
       drop every group created inside the transaction, then restore the
       pre-existing ones — a created and a restored group can share a base
       key value (e.g. a root-tuple update rewrote an aggregated column),
       and removal must not clobber the restored by_key mapping. *)
    TH.iter
      (fun key before ->
        match before, find_row_key sh key with
        | Absent, Some r -> delete_row s sh ~hash:(Tuple.hash key) r
        | Absent, None | Present _, _ -> ())
      saved;
    TH.iter
      (fun key before ->
        match before, find_row_key sh key with
        | Absent, _ -> ()
        | Present p, Some r ->
          Icol.set sh.cnts r p.cnt;
          Array.iteri (fun i v -> Column.set sh.sums.(i) r v) p.sums;
          Array.iteri (fun i v -> Column.set sh.exts.(i) r v) p.exts;
          (* the mapping may have been stolen by a since-removed group *)
          by_key_attach s sh r
        | Present p, None -> append_from_values s sh key p.cnt p.sums p.exts)
      saved;
    sh.total <- total0;
    sh.txn <- None

let rollback s =
  if s.shards.(0).txn = None then
    invalid_arg
      (Printf.sprintf "Aux_state.rollback(%s): no open transaction"
         s.spec.Auxview.name);
  Array.iter (rollback_shard s) s.shards

(* Reject NULL (and any other non-aggregatable value) in aggregated columns
   before mutating anything, so a poisoned tuple cannot leave a group with
   its count bumped but its sums untouched. *)
let check_aggregands s op tup =
  Array.iter
    (fun src ->
      if not (Value.is_numeric tup.(src)) then
        invalid_arg
          (Printf.sprintf
             "Aux_state.%s(%s): %s value in summed column (index %d)" op
             s.spec.Auxview.name
             (Value.type_name tup.(src))
             src))
    s.sum_src;
  Array.iter
    (fun (src, _) ->
      if Value.is_null tup.(src) then
        invalid_arg
          (Printf.sprintf
             "Aux_state.%s(%s): NULL value in MIN/MAX column (index %d)" op
             s.spec.Auxview.name src))
    s.ext_src

(* Project [tup]'s group key into the shard's scratch buffer — valid only
   until the next projection on the same shard, and only retained via
   copies (the journal path). *)
let scratch_key sh s tup =
  let key = sh.scratch in
  Array.iteri (fun i src -> key.(i) <- tup.(src)) s.plain_src;
  key

let insert_base ?(count = 1) s tup =
  if count < 1 then invalid_arg "Aux_state.insert_base: count must be >= 1";
  check_aggregands s "insert_base" tup;
  let sh = s.shards.(shard_of_base s tup) in
  let hash = hash_base s tup in
  let row = find_row_base s sh ~hash tup in
  if sh.txn <> None then note_known sh (scratch_key sh s tup) row;
  (match row with
  | Some r ->
    Icol.add sh.cnts r count;
    Array.iteri
      (fun i src -> Column.add_cell sh.sums.(i) r tup.(src) count)
      s.sum_src;
    Array.iteri
      (fun i (src, is_min) -> Column.combine_ext sh.exts.(i) r tup.(src) ~is_min)
      s.ext_src
  | None -> append_from_base s sh ~hash tup count);
  sh.total <- sh.total + count

let delete_base ?(count = 1) s tup =
  if count < 1 then invalid_arg "Aux_state.delete_base: count must be >= 1";
  if Array.length s.ext_src > 0 then
    invalid_arg
      (Printf.sprintf
         "Aux_state.delete_base(%s): append-only view holds MIN/MAX columns"
         s.spec.Auxview.name);
  check_aggregands s "delete_base" tup;
  let sh = s.shards.(shard_of_base s tup) in
  let hash = hash_base s tup in
  match find_row_base s sh ~hash tup with
  | None ->
    invalid_arg
      (Printf.sprintf "Aux_state.delete_base(%s): group %s absent"
         s.spec.Auxview.name
         (Tuple.to_string (scratch_key sh s tup)))
  | Some r ->
    let cnt = Icol.get sh.cnts r in
    if cnt < count then
      invalid_arg
        (Printf.sprintf "Aux_state.delete_base(%s): count underflow"
           s.spec.Auxview.name);
    if sh.txn <> None then note_known sh (scratch_key sh s tup) (Some r);
    Icol.set sh.cnts r (cnt - count);
    Array.iteri
      (fun i src -> Column.sub_cell sh.sums.(i) r tup.(src) count)
      s.sum_src;
    sh.total <- sh.total - count;
    if cnt = count then delete_row s sh ~hash r

let copy s =
  let copy_shard (sh : shard) =
    let plains = Array.map Column.copy sh.plains in
    {
      plains;
      sums = Array.map Column.copy sh.sums;
      exts = Array.map Column.copy sh.exts;
      cnts = Icol.copy sh.cnts;
      map = Rowmap.copy sh.map ~hash:(fun r -> key_hash_cols plains r);
      by_key =
        Option.map
          (fun bk ->
            Rowmap.copy bk ~hash:(fun r ->
                Column.hash_cell plains.(s.key_plain_pos) r))
          sh.by_key;
      indexes =
        List.map
          (fun (pos, idx) ->
            let buckets = VH.create (max 16 (VH.length idx.buckets)) in
            VH.iter (fun v b -> VH.add buckets v (Icol.copy b)) idx.buckets;
            (pos, { buckets; pos = Icol.copy idx.pos }))
          sh.indexes;
      total = sh.total;
      txn = None;
      scratch = Array.copy sh.scratch;
    }
  in
  { s with shards = Array.map copy_shard s.shards }

let sum_over_shards s f = Array.fold_left (fun acc sh -> acc + f sh) 0 s.shards
let group_count s = sum_over_shards s nrows

let by_key_size s =
  sum_over_shards s (fun sh ->
      match sh.by_key with Some bk -> Rowmap.length bk | None -> 0)

(* b's by_key mapping for a base key lives in the shard of its *group* key. *)
let by_key_mem b k gkey =
  let sh = b.shards.(shard_of_key b gkey) in
  match sh.by_key with
  | None -> false
  | Some bk -> (
    match
      Rowmap.find bk ~hash:(Value.hash k) ~eq:(fun r ->
          Column.equal_cell sh.plains.(b.key_plain_pos) r k)
    with
    | Some r -> row_matches_key sh r gkey
    | None -> false)

let index_positions s =
  match Array.to_list s.shards with
  | [] -> []
  | sh :: _ -> List.map fst sh.indexes

let index_size s pos =
  sum_over_shards s (fun sh ->
      match List.assoc_opt pos sh.indexes with
      | None -> 0
      | Some idx ->
        VH.fold (fun _ bucket acc -> acc + Icol.length bucket) idx.buckets 0)

let index_mem b pos v key =
  let sh = b.shards.(shard_of_key b key) in
  match List.assoc_opt pos sh.indexes with
  | None -> false
  | Some idx -> (
    match VH.find_opt idx.buckets v with
    | None -> false
    | Some bucket ->
      let n = Icol.length bucket in
      let rec scan i =
        i < n
        && (row_matches_key sh (Icol.get bucket i) key || scan (i + 1))
      in
      scan 0)

let group_cells_equal (sh : shard) r (cnt, (sums : Value.t array), (exts : Value.t array)) =
  Icol.get sh.cnts r = cnt
  && Array.length sums = Array.length sh.sums
  && Array.length exts = Array.length sh.exts
  && Array.for_all
       (fun i -> Column.equal_cell sh.sums.(i) r sums.(i))
       (Array.init (Array.length sums) Fun.id)
  && Array.for_all
       (fun i -> Column.equal_cell sh.exts.(i) r exts.(i))
       (Array.init (Array.length exts) Fun.id)

(* Structural equality of the full resident state: groups (counts, sums,
   extrema), the by-key map, every secondary index (positions and bucket
   membership), and the base-row total. Deliberately independent of the
   shard layout and of physical row order, so a 1-shard serial state
   compares equal to a 16-shard parallel one. Open transactions are
   ignored. *)
let equal a b =
  sum_over_shards a (fun sh -> sh.total) = sum_over_shards b (fun sh -> sh.total)
  && group_count a = group_count b
  && Array.for_all
       (fun sh ->
         let ok = ref true in
         for r = 0 to nrows sh - 1 do
           if !ok then begin
             let key = group_key_at sh r in
             let sh' = b.shards.(shard_of_key b key) in
             match find_row_key sh' key with
             | Some r' ->
               let cnt = Icol.get sh.cnts r in
               let sums =
                 Array.init (Array.length sh.sums) (fun i ->
                     Column.get sh.sums.(i) r)
               in
               let exts =
                 Array.init (Array.length sh.exts) (fun i ->
                     Column.get sh.exts.(i) r)
               in
               if not (group_cells_equal sh' r' (cnt, sums, exts)) then
                 ok := false
             | None -> ok := false
           end
         done;
         !ok)
       a.shards
  && by_key_size a = by_key_size b
  && Array.for_all
       (fun sh ->
         match sh.by_key with
         | None -> true
         | Some bk ->
           let ok = ref true in
           Rowmap.iter bk (fun r ->
               if !ok then begin
                 let k = Column.get sh.plains.(a.key_plain_pos) r in
                 let gkey = group_key_at sh r in
                 if not (by_key_mem b k gkey) then ok := false
               end);
           !ok)
       a.shards
  && (match a.shards.(0).by_key, b.shards.(0).by_key with
     | None, None | Some _, Some _ -> true
     | Some _, None | None, Some _ -> false)
  && index_positions a = index_positions b
  && List.for_all
       (fun pos ->
         index_size a pos = index_size b pos
         && Array.for_all
              (fun sh ->
                match List.assoc_opt pos sh.indexes with
                | None -> true
                | Some idx ->
                  VH.fold
                    (fun v bucket acc ->
                      acc
                      &&
                      let n = Icol.length bucket in
                      let rec scan i =
                        i >= n
                        || index_mem b pos v
                             (group_key_at sh (Icol.get bucket i))
                           && scan (i + 1)
                      in
                      scan 0)
                    idx.buckets true)
              a.shards)
       (index_positions a)

let row_count = group_count
let base_count s = sum_over_shards s (fun sh -> sh.total)

let row_of (sh : shard) r : row = { sh_ = sh; r_ = r; cnt_ = Icol.get sh.cnts r }
let cnt (row : row) = row.cnt_
let plains _s (row : row) = group_key_at row.sh_ row.r_

let sums _s (row : row) =
  Array.init (Array.length row.sh_.sums) (fun i ->
      Column.get row.sh_.sums.(i) row.r_)

let exts _s (row : row) =
  Array.init (Array.length row.sh_.exts) (fun i ->
      Column.get row.sh_.exts.(i) row.r_)

let find_by_key s k =
  if s.key_plain_pos < 0 then
    invalid_arg
      (Printf.sprintf "Aux_state.find_by_key(%s): key not kept"
         s.spec.Auxview.name);
  let n = Array.length s.shards in
  let rec scan i =
    if i >= n then None
    else
      let sh = s.shards.(i) in
      match sh.by_key with
      | None -> None
      | Some bk -> (
        match
          Rowmap.find bk ~hash:(Value.hash k) ~eq:(fun r ->
              Column.equal_cell sh.plains.(s.key_plain_pos) r k)
        with
        | Some r -> Some (row_of sh r)
        | None -> scan (i + 1))
  in
  scan 0

let mem_key s k = find_by_key s k <> None

let iter s f =
  Array.iter
    (fun sh ->
      for r = 0 to nrows sh - 1 do
        f (row_of sh r)
      done)
    s.shards

let plain_position s col = Hashtbl.find_opt s.plain_pos col

(* Membership of a stored cell in a small value set, without boxing the
   cell: candidates are bucketed by [Value.hash], which [Column.hash_cell]
   reproduces on stored cells. *)
module IH = Hashtbl.Make (Int)

let value_set vs =
  let h = IH.create 16 in
  List.iter
    (fun v ->
      let k = Value.hash v in
      let bucket = Option.value (IH.find_opt h k) ~default:[] in
      if not (List.exists (Value.equal v) bucket) then IH.replace h k (v :: bucket))
    vs;
  h

let cell_in set (col : Column.t) r =
  match IH.find_opt set (Column.hash_cell col r) with
  | None -> false
  | Some vs -> List.exists (Column.equal_cell col r) vs

let iter_where s conds f =
  let conds =
    List.map
      (fun (column, vs) ->
        match plain_position s column with
        | Some pos -> (pos, vs)
        | None -> raise Not_found)
      conds
  in
  let sets = List.map (fun (pos, vs) -> (pos, value_set vs)) conds in
  let passes (sh : shard) r =
    List.for_all (fun (pos, set) -> cell_in set sh.plains.(pos) r) sets
  in
  Array.iter
    (fun (sh : shard) ->
      (* an indexed condition column turns the scan into bucket walks *)
      match
        List.find_map
          (fun (pos, vs) ->
            Option.map (fun idx -> (idx, vs)) (List.assoc_opt pos sh.indexes))
          conds
      with
      | Some (idx, vs) ->
        List.iter
          (fun v ->
            match VH.find_opt idx.buckets v with
            | None -> ()
            | Some bucket ->
              for i = 0 to Icol.length bucket - 1 do
                let r = Icol.get bucket i in
                if passes sh r then f (row_of sh r)
              done)
          (List.sort_uniq Value.compare vs)
      | None ->
        for r = 0 to nrows sh - 1 do
          if passes sh r then f (row_of sh r)
        done)
    s.shards

let rows_with s ~column v =
  let acc = ref [] in
  iter_where s [ (column, [ v ]) ] (fun row -> acc := row :: !acc);
  !acc

let plain_of s (row : row) col =
  match plain_position s col with
  | Some i -> Column.get row.sh_.plains.(i) row.r_
  | None -> raise Not_found

let plain_at (row : row) i = Column.get row.sh_.plains.(i) row.r_
let sum_at (row : row) i = Column.get row.sh_.sums.(i) row.r_
let ext_at (row : row) i = Column.get row.sh_.exts.(i) row.r_

let to_relation s =
  let rel = Relation.create ~size_hint:(group_count s) () in
  Array.iter
    (fun (sh : shard) ->
      for r = 0 to nrows sh - 1 do
        let gi = ref 0 and si = ref 0 and ei = ref 0 in
        let cell (_, def) =
          match def with
          | Auxview.Plain _ ->
            let v = Column.get sh.plains.(!gi) r in
            incr gi;
            v
          | Auxview.Sum_of _ ->
            let v = Column.get sh.sums.(!si) r in
            incr si;
            v
          | Auxview.Min_of _ | Auxview.Max_of _ ->
            let v = Column.get sh.exts.(!ei) r in
            incr ei;
            v
          | Auxview.Count_star -> Value.Int (Icol.get sh.cnts r)
        in
        let row = Array.of_list (List.map cell s.spec.Auxview.columns) in
        if s.spec.Auxview.compressed then Relation.insert rel row
        else Relation.insert ~count:(Icol.get sh.cnts r) rel row
      done)
    s.shards;
  rel

(* --- byte accounting ----------------------------------------------------- *)

let fold_columns s f acc =
  Array.fold_left
    (fun acc (sh : shard) ->
      let acc = Array.fold_left f acc sh.plains in
      let acc = Array.fold_left f acc sh.sums in
      Array.fold_left f acc sh.exts)
    acc s.shards

let offheap_bytes s =
  fold_columns s (fun acc c -> acc + Column.offheap_bytes c) 0

(* Per-entry estimate for a stdlib Hashtbl bucket (Cons: 4 words). *)
let table_entry_bytes = 32

let byte_size s =
  let cells = fold_columns s (fun acc c -> acc + Column.byte_size c) 0 in
  let structures =
    Array.fold_left
      (fun acc (sh : shard) ->
        acc + Icol.byte_size sh.cnts + Rowmap.byte_size sh.map
        + (match sh.by_key with Some bk -> Rowmap.byte_size bk | None -> 0)
        + List.fold_left
            (fun acc (_, idx) ->
              VH.fold
                (fun _ bucket acc ->
                  acc + Icol.byte_size bucket + table_entry_bytes)
                idx.buckets
                (acc + Icol.byte_size idx.pos))
            0 sh.indexes)
      0 s.shards
  in
  (* dictionaries, deduplicated by physical identity: shards of one state
     share per-column dictionaries (and pooled states share across states —
     those are charged once per state here, which over-reports slightly) *)
  let dicts =
    fold_columns s
      (fun acc c ->
        match Column.dict c with
        | Some d when not (List.memq d acc) -> d :: acc
        | Some _ | None -> acc)
      []
  in
  cells + structures + List.fold_left (fun acc d -> acc + Dict.byte_size d) 0 dicts
