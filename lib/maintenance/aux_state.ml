module Auxview = Mindetail.Auxview
module Schema = Relational.Schema
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value
module Rowmap = Relational.Rowmap
module Database = Relational.Database
module Icol = Column.Icol

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* The groups live in a {!Groups} store: its key columns are the Plain
   columns, its cells the Sum_of columns and then the extremum columns.
   This module adds what an auxiliary view needs on top: the projection of
   base tuples, the by-key map and the secondary indexes (which hold row
   ids, repaired from the rows a deletion moves), the base-row total and
   locators. Row ids are internal and never escape: the public [row] is a
   cursor read on demand. *)

(* One secondary index: per distinct column value, an [Icol] bucket of row
   ids; [pos] is row-parallel and holds each row's offset within its bucket
   so removal is O(1) swap-with-last on the bucket. *)
type index = { buckets : Icol.t VH.t; pos : Icol.t }

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
  g : Groups.t;
  by_key : Rowmap.t option;  (** base key value -> row id *)
  mutable indexes : (int * index) list;
      (** per indexed column: its position among plains, and its index
          (empty while {!load} runs; it builds them at the end) *)
  mutable total : int;
  mutable total0 : int;  (** [total] at {!begin_txn} *)
}

(* A row is a cursor into the store's columns, not a materialized record:
   a count-only scan over a million groups allocates one 4-word handle per
   group and nothing else. Accessors fetch (and box) cells on demand. The
   snapshotted count keeps the handle meaningful for the engine's
   capture-then-mutate pattern; positional cells are invalidated by the
   next mutation of the owning state (swap-with-last moves rows). *)
type row = { g_ : Groups.t; r_ : int; cnt_ : int }

(* The extremum columns follow the sums among the store's cells. *)
let ext_col s i = s.g.cells.(Array.length s.sum_src + i)

let create ?(indexed_columns = []) ?dict_pool spec schema =
  let idx c = Schema.index_of schema c in
  let plain_cols = Auxview.group_columns spec in
  let plain_pos = Hashtbl.create 8 in
  List.iteri
    (fun i c -> if not (Hashtbl.mem plain_pos c) then Hashtbl.add plain_pos c i)
    plain_cols;
  let key_plain_pos =
    Option.value (Hashtbl.find_opt plain_pos schema.Schema.key) ~default:(-1)
  in
  let columns cols =
    Array.of_list
      (List.map
         (fun col ->
           Column.create
             ?dict:
               (Option.map
                  (fun pool ->
                    Dict.shared pool ~table:spec.Auxview.base ~column:col)
                  dict_pool)
             ())
         cols)
  in
  let g =
    Groups.create ~keys:(columns plain_cols)
      ~cells:
        (columns
           (Auxview.summed_columns spec
           @ List.map fst (Auxview.ext_columns spec)))
      ~ints:0 ~sets:0
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
               "Aux_state.create(%s): indexed column %s is not a plain column \
                of the view"
               spec.Auxview.name col))
      (List.sort_uniq String.compare indexed_columns)
  in
  {
    spec;
    plain_pos;
    plain_src = Array.of_list (List.map idx plain_cols);
    sum_src = Array.of_list (List.map idx (Auxview.summed_columns spec));
    ext_src =
      Array.of_list
        (List.map
           (fun (c, is_min) -> (idx c, is_min))
           (Auxview.ext_columns spec));
    key_plain_pos;
    g;
    by_key =
      (if key_plain_pos >= 0 then
         Some
           (Rowmap.create
              ~hash:(fun r -> Column.hash_cell g.keys.(key_plain_pos) r)
              ())
       else None);
    indexes;
    total = 0;
    total0 = 0;
  }

let spec s = s.spec

let group_key_of_base s tup = Tuple.project tup s.plain_src

(* Closed equality test for [Rowmap.probe]: the column and the probed
   value are its context, so a probe allocates nothing. *)
let cell_is col v r = Column.equal_cell col r v

(* --- secondary indexes --------------------------------------------------- *)

let rec index_add s r = function
  | [] -> ()
  | (pos, idx) :: rest ->
    let v = Column.get s.g.keys.(pos) r in
    let bucket =
      match VH.find_opt idx.buckets v with
      | Some b -> b
      | None ->
        let b = Icol.create () in
        VH.add idx.buckets v b;
        b
    in
    Icol.append bucket r;
    Icol.append idx.pos (Icol.length bucket - 1);
    index_add s r rest

let index_add_row s r = index_add s r s.indexes

(* Remove row [r] from every bucket (its [pos] slot is reclaimed by the
   caller's row-parallel swap-delete). *)
let index_remove_row s r =
  List.iter
    (fun (pos, idx) ->
      let v = Column.get s.g.keys.(pos) r in
      let bucket = VH.find idx.buckets v in
      let p = Icol.get idx.pos r in
      let last = Icol.length bucket - 1 in
      let moved = Icol.get bucket last in
      Icol.set bucket p moved;
      Icol.set idx.pos moved p;
      Icol.swap_delete bucket last;
      if Icol.length bucket = 0 then VH.remove idx.buckets v)
    s.indexes

(* [r] holds the key in cell [j] of [src]. *)
let key_cell_is col src j r = Column.equal_cells col r src j

(* The index of plain column [pos] over the present rows: each row's
   value is numbered, then each value's rows are laid into a bucket
   allocated once at its final size. A column that is the whole group key
   numbers its values by the rows themselves; another, through the cells'
   codes where it has them ({!Column.number}), else through a closed
   probe on its cells. A value's first row stands for it: the bucket
   table, made at its final size, boxes the value from that row alone. *)
let build_index s pos =
  let col = s.g.keys.(pos) in
  let n = Groups.group_count s.g in
  let ids, values =
    if Array.length s.g.keys = 1 then (Array.init n Fun.id, n)
    else if n = 0 || Column.coded col then Column.number col n
    else begin
      let ids = Array.make n 0 and values = ref 0 in
      let firsts = Rowmap.create ~hash:(Column.hash_cell col) () in
      for r = 0 to n - 1 do
        let hash = Column.hash_cell col r in
        let first = Rowmap.probe3 firsts ~hash key_cell_is col col r in
        if first >= 0 then ids.(r) <- ids.(first)
        else begin
          Rowmap.add firsts ~hash r;
          ids.(r) <- !values;
          incr values
        end
      done;
      (ids, !values)
    end
  in
  let buckets, offsets = Icol.buckets ~ids ~values in
  let idx = { buckets = VH.create (max 16 values); pos = offsets } in
  Array.iter
    (fun bucket -> VH.add idx.buckets (Column.get col (Icol.get bucket 0)) bucket)
    buckets;
  idx

(* --- row attach / detach ------------------------------------------------- *)

(* Points row [r]'s base key at [r]. Steal semantics: a new group with the
   same base key value takes over the mapping, and the row it took the
   mapping from is returned ([-1] when there was none). *)
let by_key_attach s r =
  match s.by_key with
  | None -> -1
  | Some bk ->
    let col = s.g.keys.(s.key_plain_pos) in
    Rowmap.replace3 bk ~hash:(Column.hash_cell col r) key_cell_is col col r r

(* Swap-with-last removal of row [r], repairing every row-id holder the
   store does not own: by_key (the deleted row's entry, if it still points
   here, and the moved row's) and each secondary index. [hash] is row
   [r]'s group-key hash, which every caller already has in hand. *)
let delete_row s ~hash r =
  Option.iter
    (fun bk ->
      (* remove only if the mapping still points at this row — reordered
         replay (insertions before deletions) may have re-pointed this base
         key at the updated row's group, and that live mapping must not be
         clobbered *)
      ignore
        (Rowmap.remove_value bk
           ~hash:(Column.hash_cell s.g.keys.(s.key_plain_pos) r)
           r))
    s.by_key;
  index_remove_row s r;
  let moved = Groups.delete_row s.g ~hash r in
  if moved >= 0 then begin
    (* the row that was at [moved] is now at [r] *)
    Option.iter
      (fun bk ->
        ignore
          (Rowmap.rename_value bk
             ~hash:(Column.hash_cell s.g.keys.(s.key_plain_pos) r)
             ~old_row:moved ~new_row:r))
      s.by_key;
    List.iter
      (fun (pos, idx) ->
        let bucket = VH.find idx.buckets (Column.get s.g.keys.(pos) r) in
        Icol.set bucket (Icol.get idx.pos moved) r)
      s.indexes
  end;
  List.iter (fun (_, idx) -> Icol.swap_delete idx.pos r) s.indexes

(* --- transactions -------------------------------------------------------- *)

let check_txn s what ~open_ =
  if Groups.in_txn s.g <> open_ then
    invalid_arg
      (Printf.sprintf "Aux_state.%s(%s): %s" what s.spec.Auxview.name
         (if open_ then "no open transaction" else "transaction already open"))

let begin_txn s =
  check_txn s "begin_txn" ~open_:false;
  Groups.begin_txn s.g;
  s.total0 <- s.total

let commit s =
  check_txn s "commit" ~open_:true;
  Groups.commit s.g;
  Groups.clear_log s.g

(* by_key and index membership are pure functions of the stored cells, so
   restoring group presence restores them too. Created groups leave
   first: a created and a restored group can share a base key value (e.g.
   a root-tuple update rewrote an aggregated column), and removal must not
   clobber the restored by_key mapping. *)
let rollback s =
  check_txn s "rollback" ~open_:true;
  Groups.rollback s.g
    ~delete:(fun ~hash r -> delete_row s ~hash r)
    ~restored:(fun ~appended r ->
      if appended then index_add_row s r;
      (* the mapping may have been stolen by a since-removed group *)
      ignore (by_key_attach s r : int));
  s.total <- s.total0

(* --- writes from base rows ------------------------------------------------ *)

let check_key_kept s =
  if s.key_plain_pos < 0 then
    invalid_arg
      (Printf.sprintf "Aux_state.locate_key(%s): key not kept"
         s.spec.Auxview.name)

module type ROWS = sig
  type row

  val insert : ?count:int -> t -> row -> unit
  val locate_key : t -> row -> int -> int
end

(* The one probe-and-add path of a base row into the groups, wherever the
   row's cells are: a delta's tuple or a shadow row ({!Cells}). Probes
   are closed equality tests, so a write allocates nothing but the cells
   a new group appends. *)
module Rows (C : Cells.S) = struct
  type row = C.row

  (* The group-key hash of a base row: agrees with [Tuple.hash
     (group_key_of_base s tup)] without materializing the projection (it
     mirrors [Tuple.hash]'s fold). *)
  let hash s row =
    let h = ref 17 in
    for i = 0 to Array.length s.plain_src - 1 do
      h := (!h * 31) + C.hash row s.plain_src.(i)
    done;
    !h

  let rec matches_from s row r i =
    i >= Array.length s.plain_src
    || C.equal s.g.keys.(i) r row s.plain_src.(i)
       && matches_from s row r (i + 1)

  let matches s row r = matches_from s row r 0

  (* Reject NULL (and any other non-aggregatable value) in aggregated
     columns before mutating anything, so a poisoned row cannot leave a
     group with its count bumped but its sums untouched. *)
  let check_aggregands s op row =
    for i = 0 to Array.length s.sum_src - 1 do
      let src = s.sum_src.(i) in
      if not (C.is_numeric row src) then
        invalid_arg
          (Printf.sprintf
             "Aux_state.%s(%s): %s value in summed column (index %d)" op
             s.spec.Auxview.name
             (Value.type_name (C.value row src))
             src)
    done;
    for i = 0 to Array.length s.ext_src - 1 do
      let src = fst s.ext_src.(i) in
      if C.is_null row src then
        invalid_arg
          (Printf.sprintf
             "Aux_state.%s(%s): NULL value in MIN/MAX column (index %d)" op
             s.spec.Auxview.name src)
    done

  let append s ~hash row count =
    let g = s.g in
    for i = 0 to Array.length s.plain_src - 1 do
      C.append g.keys.(i) row s.plain_src.(i)
    done;
    for i = 0 to Array.length s.sum_src - 1 do
      C.append_scaled g.cells.(i) row s.sum_src.(i) count
    done;
    for i = 0 to Array.length s.ext_src - 1 do
      C.append (ext_col s i) row (fst s.ext_src.(i))
    done;
    let r = Groups.add_row g ~hash count in
    let stolen = by_key_attach s r in
    (* the group that held the mapping is journaled too, untouched as it
       is: a rollback deletes [r] with its entry, and restoring the
       group's image gives the mapping back *)
    if stolen >= 0 then Groups.note_row g ~hash:(Groups.row_hash g stolen) stolen;
    index_add_row s r;
    r

  (* Folds [count] copies of [row] into its group. *)
  let write s row count =
    let hash = hash s row in
    let g = s.g in
    let r = Rowmap.probe g.map ~hash matches s row in
    if r >= 0 then begin
      Groups.note_row g ~hash r;
      Icol.add g.cnts r count;
      for i = 0 to Array.length s.sum_src - 1 do
        C.add g.cells.(i) r row s.sum_src.(i) count
      done;
      for i = 0 to Array.length s.ext_src - 1 do
        let src, is_min = s.ext_src.(i) in
        C.combine_ext (ext_col s i) r row src ~is_min
      done;
      s.total <- s.total + count
    end
    else begin
      Groups.note_created g ~hash (append s ~hash row count);
      s.total <- s.total + count
    end

  let insert ?(count = 1) s row =
    if count < 1 then invalid_arg "Aux_state.insert_base: count must be >= 1";
    check_aggregands s "insert_base" row;
    write s row count

  let key_is col row pos r = C.equal col r row pos

  let locate_key s row pos =
    check_key_kept s;
    match s.by_key with
    | None -> -1
    | Some bk ->
      Rowmap.probe3 bk ~hash:(C.hash row pos) key_is
        s.g.keys.(s.key_plain_pos) row pos
end

module Tuples = Rows (Cells.Tuple)
module Stored = Rows (Cells.Stored)

let insert_base = Tuples.insert

let delete_base ?(count = 1) s tup =
  if count < 1 then invalid_arg "Aux_state.delete_base: count must be >= 1";
  if Array.length s.ext_src > 0 then
    invalid_arg
      (Printf.sprintf
         "Aux_state.delete_base(%s): append-only view holds MIN/MAX columns"
         s.spec.Auxview.name);
  Tuples.check_aggregands s "delete_base" tup;
  let hash = Tuples.hash s tup in
  let g = s.g in
  let r = Rowmap.probe g.map ~hash Tuples.matches s tup in
  if r < 0 then
    invalid_arg
      (Printf.sprintf "Aux_state.delete_base(%s): group %s absent"
         s.spec.Auxview.name
         (Tuple.to_string (Tuple.project tup s.plain_src)));
  let cnt = Icol.get g.cnts r in
  if cnt < count then
    invalid_arg
      (Printf.sprintf "Aux_state.delete_base(%s): count underflow"
         s.spec.Auxview.name);
  Groups.note_row g ~hash r;
  Icol.set g.cnts r (cnt - count);
  for i = 0 to Array.length s.sum_src - 1 do
    Column.sub_cell g.cells.(i) r tup.(s.sum_src.(i)) count
  done;
  s.total <- s.total - count;
  if cnt = count then delete_row s ~hash r

let adjust s ~before ~after =
  if Array.length s.ext_src > 0 then
    invalid_arg
      (Printf.sprintf
         "Aux_state.adjust(%s): append-only view holds MIN/MAX columns"
         s.spec.Auxview.name);
  Tuples.check_aggregands s "adjust" before;
  Tuples.check_aggregands s "adjust" after;
  let hash = Tuples.hash s before in
  let g = s.g in
  let r = Rowmap.probe g.map ~hash Tuples.matches s before in
  if r < 0 then
    invalid_arg
      (Printf.sprintf "Aux_state.adjust(%s): group %s absent"
         s.spec.Auxview.name
         (Tuple.to_string (Tuple.project before s.plain_src)));
  if not (Tuples.matches s after r) then
    invalid_arg
      (Printf.sprintf "Aux_state.adjust(%s): the update moves its group"
         s.spec.Auxview.name);
  Groups.note_row g ~hash r;
  (* the order of a deletion then an insertion, so float sums agree *)
  for i = 0 to Array.length s.sum_src - 1 do
    let src = s.sum_src.(i) in
    Column.sub_cell g.cells.(i) r before.(src) 1;
    Column.add_cell g.cells.(i) r after.(src) 1
  done

let row_count s = Groups.group_count s.g
let base_count s = s.total

(* A build's scan of the rows: the row under the cursor and its key
   hash, and the groups found so far. Its probe table holds a (key hash,
   group) pair in each slot (group [-1]: empty), placed and grown as the
   store's key map places and grows its slots, so the map can take them
   as they lie ({!Rowmap.load}): a probe compares the key cells only
   of a group whose hash is the row's, and reads no memory but its slots
   on the way. *)
type scan = {
  st : t;
  cur : Database.Cursor.t;
  mutable hash : int;
  mutable slots : int array;
  mutable found : int;  (** groups found *)
}

(* The group of the scanned row, or [-1 - i] for the empty slot [i] that
   ends its chain. *)
let rec scan_find sc mask i =
  let id = Array.unsafe_get sc.slots ((2 * i) + 1) in
  if id < 0 then -1 - i
  else if
    Array.unsafe_get sc.slots (2 * i) = sc.hash
    && Stored.matches sc.st sc.cur id
  then id
  else scan_find sc mask ((i + 1) land mask)

let rec free_slot slots mask i =
  if Array.unsafe_get slots ((2 * i) + 1) < 0 then i
  else free_slot slots mask ((i + 1) land mask)

(* Numbers group [id], new, with the scanned row's key in slot [i] of the
   probe table: its key cells are appended, for the next rows' probes. *)
let scan_add sc i =
  let id = sc.found in
  for k = 0 to Array.length sc.st.plain_src - 1 do
    Cells.Stored.append sc.st.g.keys.(k) sc.cur sc.st.plain_src.(k)
  done;
  sc.slots.(2 * i) <- sc.hash;
  sc.slots.((2 * i) + 1) <- id;
  sc.found <- id + 1;
  let old = sc.slots in
  let cap = Array.length old / 2 in
  if 4 * sc.found > 3 * cap then begin
    let slots = Array.make (4 * cap) (-1) and mask = (2 * cap) - 1 in
    for j = 0 to cap - 1 do
      let hash = old.(2 * j) and g = old.((2 * j) + 1) in
      if g >= 0 then begin
        let k = free_slot slots mask (Rowmap.home hash mask) in
        slots.(2 * k) <- hash;
        slots.((2 * k) + 1) <- g
      end
    done;
    sc.slots <- slots
  end;
  id

(* A build in column passes. The one pass over the rows finds each kept
   row's group, numbered in order of first appearance. The store then
   registers the groups and their counts, and each component column is
   folded from the rows in its own typed loop, in row order; the maps are
   made at their final sizes. *)
let load s cur ~keep ~admit =
  if row_count s > 0 || Groups.in_txn s.g then
    invalid_arg
      (Printf.sprintf "Aux_state.load(%s): state not empty or in a transaction"
         s.spec.Auxview.name);
  let positions = List.map fst s.indexes in
  s.indexes <- [];
  Fun.protect
    ~finally:(fun () ->
      s.indexes <- List.map (fun pos -> (pos, build_index s pos)) positions)
    (fun () ->
      let rows = Database.Cursor.rows cur in
      let into = Array.make rows (-1) in
      let sc =
        {
          st = s;
          cur;
          hash = 0;
          slots = Array.make 128 (-1);
          found = 0;
        }
      in
      (* a shadow row holds no NULL and its cells have its table's types:
         the first row kept answers for every other *)
      let checked = ref false in
      for r = 0 to rows - 1 do
        Database.Cursor.seek cur r;
        if keep cur then begin
          if not !checked then begin
            Stored.check_aggregands s "load" cur;
            checked := true
          end;
          sc.hash <- Database.Cursor.hash_key cur s.plain_src;
          let mask = (Array.length sc.slots / 2) - 1 in
          let id = scan_find sc mask (Rowmap.home sc.hash mask) in
          let id =
            if id >= 0 then id
            else if admit cur then scan_add sc (-1 - id)
            else -1
          in
          if id >= 0 then begin
            into.(r) <- id;
            s.total <- s.total + 1
          end
        end
      done;
      let groups = sc.found in
      let g = s.g in
      Groups.load_rows g ~into ~pairs:sc.slots groups;
      Array.iteri
        (fun i src ->
          Column.fold_stored g.cells.(i) cur src ~into ~groups Column.Sum)
        s.sum_src;
      Array.iteri
        (fun i (src, is_min) ->
          Column.fold_stored (ext_col s i) cur src ~into ~groups
            (if is_min then Column.Min else Column.Max))
        s.ext_src;
      Option.iter (fun bk -> Rowmap.reserve bk groups) s.by_key;
      for r = 0 to groups - 1 do
        let stolen = by_key_attach s r in
        if stolen >= 0 then
          Groups.note_row g ~hash:(Groups.row_hash g stolen) stolen
      done)

let by_key_size s =
  match s.by_key with Some bk -> Rowmap.length bk | None -> 0

(* The row of group [key] in [b]. *)
let find_group b key = Groups.find b.g ~hash:(Tuple.hash key) key

(* Whether [b] maps base key [k] to group [gkey]. *)
let by_key_mem b k gkey =
  match b.by_key with
  | None -> false
  | Some bk ->
    let r = find_group b gkey in
    r >= 0
    && Rowmap.probe bk ~hash:(Value.hash k) cell_is b.g.keys.(b.key_plain_pos) k
       = r

let index_positions s = List.map fst s.indexes

let index_size s pos =
  match List.assoc_opt pos s.indexes with
  | None -> 0
  | Some idx ->
    VH.fold (fun _ bucket acc -> acc + Icol.length bucket) idx.buckets 0

let index_mem b pos v key =
  let r = find_group b key in
  match List.assoc_opt pos b.indexes with
  | None -> false
  | Some idx -> (
    match VH.find_opt idx.buckets v with
    | None -> false
    | Some bucket ->
      let n = Icol.length bucket in
      let rec scan i = i < n && (Icol.get bucket i = r || scan (i + 1)) in
      r >= 0 && scan 0)

(* Structural equality of the full resident state: groups (counts, sums,
   extrema), the by-key map, every secondary index (positions and bucket
   membership), and the base-row total. Deliberately independent of
   physical row order. Open transactions are ignored. *)
let equal a b =
  a.total = b.total
  && Groups.equal a.g b.g
  && by_key_size a = by_key_size b
  && (match a.by_key, b.by_key with
     | None, None -> true
     | Some bk, Some _ ->
       let ok = ref true in
       Rowmap.iter bk (fun r ->
           if !ok then begin
             let k = Column.get a.g.keys.(a.key_plain_pos) r in
             if not (by_key_mem b k (Groups.key_at a.g r)) then ok := false
           end);
       !ok
     | Some _, None | None, Some _ -> false)
  && index_positions a = index_positions b
  && List.for_all
       (fun (pos, idx) ->
         index_size a pos = index_size b pos
         && VH.fold
              (fun v bucket acc ->
                acc
                &&
                let n = Icol.length bucket in
                let rec scan i =
                  i >= n
                  || index_mem b pos v (Groups.key_at a.g (Icol.get bucket i))
                     && scan (i + 1)
                in
                scan 0)
              idx.buckets true)
       a.indexes

let row_of s r : row = { g_ = s.g; r_ = r; cnt_ = Icol.get s.g.cnts r }
let cnt (row : row) = row.cnt_
let plains _s (row : row) = Groups.key_at row.g_ row.r_

let sums s (row : row) =
  Array.init (Array.length s.sum_src) (fun i -> Column.get s.g.cells.(i) row.r_)

let exts s (row : row) =
  Array.init (Array.length s.ext_src) (fun i -> Column.get (ext_col s i) row.r_)

(* --- locators ------------------------------------------------------------ *)

(* A locator is the group's row: what a typed reader keeps per joined
   table instead of a [row] handle. *)
let loc_of_row _s (row : row) = row.r_
let loc_cnt s l = Icol.get s.g.cnts l
let counts s = s.g.cnts
let plain_column s i = s.g.keys.(i)
let sum_column s i = s.g.cells.(i)
let ext_column = ext_col

let locate_key s k = Tuples.locate_key s [| k |] 0

let mem_key s k = locate_key s k >= 0

let locate_key_cell s src j =
  check_key_kept s;
  match s.by_key with
  | None -> -1
  | Some bk ->
    Rowmap.probe3 bk ~hash:(Column.hash_cell src j) key_cell_is
      s.g.keys.(s.key_plain_pos) src j

let iter s f =
  for r = 0 to row_count s - 1 do
    f (row_of s r)
  done

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
  let passes r =
    List.for_all (fun (pos, set) -> cell_in set s.g.keys.(pos) r) sets
  in
  (* an indexed condition column turns the scan into bucket walks *)
  match
    List.find_map
      (fun (pos, vs) ->
        Option.map (fun idx -> (idx, vs)) (List.assoc_opt pos s.indexes))
      conds
  with
  | Some (idx, vs) ->
    List.fold_left
      (fun examined v ->
        match VH.find_opt idx.buckets v with
        | None -> examined
        | Some bucket ->
          let n = Icol.length bucket in
          for i = 0 to n - 1 do
            let r = Icol.get bucket i in
            if passes r then f (row_of s r)
          done;
          examined + n)
      0
      (List.sort_uniq Value.compare vs)
  | None ->
    let n = row_count s in
    for r = 0 to n - 1 do
      if passes r then f (row_of s r)
    done;
    n

let rows_with s ~column v =
  let acc = ref [] in
  let (_ : int) =
    iter_where s [ (column, [ v ]) ] (fun row -> acc := row :: !acc)
  in
  !acc

let plain_of s (row : row) col =
  match plain_position s col with
  | Some i -> Column.get row.g_.keys.(i) row.r_
  | None -> raise Not_found

let plain_at (row : row) i = Column.get row.g_.keys.(i) row.r_

let to_relation s =
  let rel = Relation.create ~size_hint:(row_count s) () in
  for r = 0 to row_count s - 1 do
    let gi = ref 0 and si = ref 0 and ei = ref 0 in
    let next col i =
      let v = Column.get col r in
      incr i;
      v
    in
    let cell (_, def) =
      match def with
      | Auxview.Plain _ -> next s.g.keys.(!gi) gi
      | Auxview.Sum_of _ -> next s.g.cells.(!si) si
      | Auxview.Min_of _ | Auxview.Max_of _ -> next (ext_col s !ei) ei
      | Auxview.Count_star -> Value.Int (Icol.get s.g.cnts r)
    in
    let row = Array.of_list (List.map cell s.spec.Auxview.columns) in
    if s.spec.Auxview.compressed then Relation.insert rel row
    else Relation.insert ~count:(Icol.get s.g.cnts r) rel row
  done;
  rel

(* --- byte accounting ----------------------------------------------------- *)

let offheap_bytes s = Groups.offheap_bytes s.g

(* Per-entry estimate for a stdlib Hashtbl bucket (Cons: 4 words). *)
let table_entry_bytes = 32

let byte_size s =
  Groups.byte_size s.g
  + (match s.by_key with Some bk -> Rowmap.byte_size bk | None -> 0)
  + List.fold_left
      (fun acc (_, idx) ->
        VH.fold
          (fun _ bucket acc -> acc + Icol.byte_size bucket + table_entry_bytes)
          idx.buckets
          (acc + Icol.byte_size idx.pos))
      0 s.indexes
