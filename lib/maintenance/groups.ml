module Value = Relational.Value
module Tuple = Relational.Tuple
module Rowmap = Relational.Rowmap
module Icol = Column.Icol
module Marks = Column.Marks
module VMap = Map.Make (Value)

type sets = { mutable maps : int VMap.t array; mutable len : int }

let sets_create () = { maps = [||]; len = 0 }

let sets_append c m =
  if c.len = Array.length c.maps then begin
    let maps = Array.make (max 8 (2 * c.len)) VMap.empty in
    Array.blit c.maps 0 maps 0 c.len;
    c.maps <- maps
  end;
  c.maps.(c.len) <- m;
  c.len <- c.len + 1

let sets_swap_delete c r =
  c.len <- c.len - 1;
  c.maps.(r) <- c.maps.(c.len);
  c.maps.(c.len) <- VMap.empty

let sets_truncate c n =
  if n < c.len then begin
    Array.fill c.maps n (c.len - n) VMap.empty;
    c.len <- n
  end

(* The row array plus, per entry, one map node (header, two subtrees,
   key, count, height: 6 words) and the boxed key. *)
let sets_byte_size c =
  let bytes = ref (8 * Array.length c.maps) in
  for r = 0 to c.len - 1 do
    VMap.iter (fun v _ -> bytes := !bytes + 48 + Column.boxed_bytes v) c.maps.(r)
  done;
  !bytes

(* The undo log of a shard: group images laid out as the shard lays out
   its groups, appended with the typed cell copies the shard itself uses,
   so journaling boxes nothing, plus each key's hash. [lcnt = -1] records
   a group the transaction created. Images are keyed by group key, not
   row id: swap-with-last deletion renumbers rows. *)
type log = {
  lkeys : Column.t array;
  lcells : Column.t array;
  lints : Icol.t array;
  lsets : sets array;
  lcnt : Icol.t;
  lhash : Icol.t;
}

type shard = {
  keys : Column.t array;
  cells : Column.t array;
  ints : Icol.t array;
  sets : sets array;
  cnts : Icol.t;
  touched : Marks.t;
  map : Rowmap.t;
  mutable log : log;
  mutable start : int;
  mutable untracked : bool;
}

type t = { mask : int; shards : shard array }

(* Agrees with [Tuple.hash] of the boxed key. *)
let key_hash_cols (keys : Column.t array) r =
  let h = ref 17 in
  for i = 0 to Array.length keys - 1 do
    h := (!h * 31) + Column.hash_cell keys.(i) r
  done;
  !h

let nrows sh = Icol.length sh.cnts
let group_count t = Array.fold_left (fun acc sh -> acc + nrows sh) 0 t.shards

let empty_log keys cells ints sets =
  {
    lkeys = Array.map Column.empty_like keys;
    lcells = Array.map Column.empty_like cells;
    lints = Array.map (fun _ -> Icol.create ()) ints;
    lsets = Array.map (fun _ -> sets_create ()) sets;
    lcnt = Icol.create ();
    lhash = Icol.create ();
  }

let create ~shards ~keys ~cells ~ints ~sets =
  let mk _ =
    let keys = keys () and cells = cells () in
    let ints = Array.init ints (fun _ -> Icol.create ()) in
    let sets = Array.init sets (fun _ -> sets_create ()) in
    {
      keys;
      cells;
      ints;
      sets;
      cnts = Icol.create ();
      touched = Marks.create ();
      map = Rowmap.create ~hash:(fun r -> key_hash_cols keys r) ();
      log = empty_log keys cells ints sets;
      start = -1;
      untracked = false;
    }
  in
  { mask = shards - 1; shards = Array.init shards mk }

(* --- probes -------------------------------------------------------------- *)

(* Closed equality tests for [Rowmap.probe]: a probe allocates nothing. *)
let rec key_matches_from sh (key : Tuple.t) r i =
  i >= Array.length key
  || Column.equal_cell sh.keys.(i) r key.(i) && key_matches_from sh key r (i + 1)

let key_matches sh key r = key_matches_from sh key r 0
let find sh ~hash key = Rowmap.probe sh.map ~hash key_matches sh key

(* Row [r] of [sh] holds the key in cells [j] of [src]. *)
let rec cells_match_from sh src j r i =
  i >= Array.length src
  || Column.equal_cells sh.keys.(i) r src.(i) j
     && cells_match_from sh src j r (i + 1)

let cells_match sh src j r = cells_match_from sh src j r 0
let find_cells sh ~hash src j = Rowmap.probe3 sh.map ~hash cells_match sh src j

let key_at sh r =
  Array.init (Array.length sh.keys) (fun i -> Column.get sh.keys.(i) r)

(* --- rows ----------------------------------------------------------------- *)

let add_row sh ~hash cnt =
  let r = nrows sh in
  Icol.append sh.cnts cnt;
  Marks.append sh.touched;
  Rowmap.add sh.map ~hash r;
  r

let delete_row sh ~hash r =
  let l = nrows sh - 1 in
  ignore (Rowmap.remove_value sh.map ~hash r);
  if r <> l then
    ignore
      (Rowmap.rename_value sh.map ~hash:(key_hash_cols sh.keys l) ~old_row:l
         ~new_row:r);
  for i = 0 to Array.length sh.keys - 1 do
    Column.swap_delete sh.keys.(i) r
  done;
  for i = 0 to Array.length sh.cells - 1 do
    Column.swap_delete sh.cells.(i) r
  done;
  for i = 0 to Array.length sh.ints - 1 do
    Icol.swap_delete sh.ints.(i) r
  done;
  for i = 0 to Array.length sh.sets - 1 do
    sets_swap_delete sh.sets.(i) r
  done;
  Icol.swap_delete sh.cnts r;
  Marks.swap_delete sh.touched r;
  if r <> l then l else -1

(* Appends the components and count of row [r] of [src] (shaped like
   [dst]) to [dst], whose key the caller has appended. *)
let append_from dst ~hash ~src_cells ~src_ints ~src_sets ~cnt r =
  for i = 0 to Array.length dst.cells - 1 do
    Column.append_cell dst.cells.(i) src_cells.(i) r
  done;
  for i = 0 to Array.length dst.ints - 1 do
    Icol.append dst.ints.(i) (Icol.get src_ints.(i) r)
  done;
  for i = 0 to Array.length dst.sets - 1 do
    sets_append dst.sets.(i) src_sets.(i).maps.(r)
  done;
  add_row dst ~hash cnt

let move_row ~src r ~hash ~dst ~key ~new_hash =
  Array.iteri (fun i v -> Column.append dst.keys.(i) v) key;
  let r' =
    append_from dst ~hash:new_hash ~src_cells:src.cells ~src_ints:src.ints
      ~src_sets:src.sets ~cnt:(Icol.get src.cnts r) r
  in
  let moved = delete_row src ~hash r in
  (* in one shard the new row is the last, so the deletion moves it *)
  if src == dst && moved = r' then r else r'

(* --- undo journal -------------------------------------------------------- *)

let log_length sh = Icol.length sh.log.lcnt
let log_hash sh e = Icol.get sh.log.lhash e
let log_key sh e = Array.map (fun c -> Column.get c e) sh.log.lkeys

let truncate_log lg n =
  Array.iter (fun c -> Column.truncate c n) lg.lkeys;
  Array.iter (fun c -> Column.truncate c n) lg.lcells;
  Array.iter (fun c -> Icol.truncate c n) lg.lints;
  Array.iter (fun c -> sets_truncate c n) lg.lsets;
  Icol.truncate lg.lcnt n;
  Icol.truncate lg.lhash n

let release_log sh =
  let lg = sh.log in
  if Icol.capacity lg.lcnt > 4 * max 64 (log_length sh) then
    sh.log <- empty_log lg.lkeys lg.lcells lg.lints lg.lsets
  else truncate_log lg 0

let clear_log sh =
  release_log sh;
  sh.untracked <- false

let drop_log sh =
  release_log sh;
  sh.untracked <- true

(* Appends the image of row [r] with [cnt] (-1: the group was created). *)
let log_row sh ~hash ~cnt r =
  let lg = sh.log in
  for i = 0 to Array.length lg.lkeys - 1 do
    Column.append_cell lg.lkeys.(i) sh.keys.(i) r
  done;
  for i = 0 to Array.length lg.lcells - 1 do
    Column.append_cell lg.lcells.(i) sh.cells.(i) r
  done;
  for i = 0 to Array.length lg.lints - 1 do
    Icol.append lg.lints.(i) (Icol.get sh.ints.(i) r)
  done;
  for i = 0 to Array.length lg.lsets - 1 do
    sets_append lg.lsets.(i) sh.sets.(i).maps.(r)
  done;
  Icol.append lg.lcnt cnt;
  Icol.append lg.lhash hash

let in_txn sh = sh.start >= 0

let begin_txn sh =
  Marks.next_epoch sh.touched;
  sh.start <- log_length sh

let note_row sh ~hash r =
  if sh.start < 0 then sh.untracked <- true
  else if not (Marks.marked sh.touched r) then begin
    log_row sh ~hash ~cnt:(Icol.get sh.cnts r) r;
    Marks.mark sh.touched r
  end

let note_created sh ~hash r =
  if sh.start < 0 then sh.untracked <- true
  else begin
    log_row sh ~hash ~cnt:(-1) r;
    Marks.mark sh.touched r
  end

let commit sh = sh.start <- -1

(* Cells are boxed only here, on the cold path. *)
let restore_row sh lg e r =
  Icol.set sh.cnts r (Icol.get lg.lcnt e);
  Array.iteri (fun i c -> Column.set c r (Column.get lg.lcells.(i) e)) sh.cells;
  Array.iteri (fun i c -> Icol.set c r (Icol.get lg.lints.(i) e)) sh.ints;
  Array.iteri (fun i c -> c.maps.(r) <- lg.lsets.(i).maps.(e)) sh.sets

let rollback ?delete ?(restored = fun ~appended:_ _ -> ()) sh =
  if sh.start >= 0 then begin
    let lg = sh.log and start = sh.start in
    let n = log_length sh in
    for e = start to n - 1 do
      if Icol.get lg.lcnt e < 0 then begin
        let hash = Icol.get lg.lhash e in
        let r = find_cells sh ~hash lg.lkeys e in
        if r >= 0 then
          match delete with
          | Some delete -> delete ~hash r
          | None -> ignore (delete_row sh ~hash r : int)
      end
    done;
    for e = start to n - 1 do
      let cnt = Icol.get lg.lcnt e in
      if cnt >= 0 then begin
        let hash = Icol.get lg.lhash e in
        let r = find_cells sh ~hash lg.lkeys e in
        if r >= 0 then begin
          restore_row sh lg e r;
          restored ~appended:false r
        end
        else begin
          Array.iteri (fun i c -> Column.append_cell c lg.lkeys.(i) e) sh.keys;
          restored ~appended:true
            (append_from sh ~hash ~src_cells:lg.lcells ~src_ints:lg.lints
               ~src_sets:lg.lsets ~cnt e)
        end
      end
    done;
    if start = 0 then release_log sh else truncate_log lg start;
    sh.start <- -1
  end

(* --- whole store ---------------------------------------------------------- *)

let rows_equal sh r sh' r' =
  let rec all a f i = i >= Array.length a || (f i && all a f (i + 1)) in
  Icol.get sh.cnts r = Icol.get sh'.cnts r'
  && all sh.cells (fun i -> Column.equal_cells sh'.cells.(i) r' sh.cells.(i) r) 0
  && all sh.ints (fun i -> Icol.get sh.ints.(i) r = Icol.get sh'.ints.(i) r') 0
  && all sh.sets
       (fun i -> VMap.equal Int.equal sh.sets.(i).maps.(r) sh'.sets.(i).maps.(r'))
       0

let equal a b =
  group_count a = group_count b
  && Array.for_all
       (fun sh ->
         let rec from r =
           r >= nrows sh
           ||
           let hash = key_hash_cols sh.keys r in
           let sh' = b.shards.(hash land b.mask) in
           let r' = find_cells sh' ~hash sh.keys r in
           r' >= 0 && rows_equal sh r sh' r' && from (r + 1)
         in
         from 0)
       a.shards

(* --- byte accounting ----------------------------------------------------- *)

let fold_columns t f acc =
  Array.fold_left
    (fun acc sh -> Array.fold_left f (Array.fold_left f acc sh.keys) sh.cells)
    acc t.shards

let offheap_bytes t = fold_columns t (fun acc c -> acc + Column.offheap_bytes c) 0

let byte_size t =
  let cells = fold_columns t (fun acc c -> acc + Column.byte_size c) 0 in
  let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  let structures =
    sum
      (fun sh ->
        Icol.byte_size sh.cnts + Marks.byte_size sh.touched
        + Rowmap.byte_size sh.map + sum Icol.byte_size sh.ints
        + sum sets_byte_size sh.sets)
      t.shards
  in
  (* dictionaries, deduplicated by physical identity: shards share
     per-column dictionaries (and pooled stores share across stores —
     those are charged once per store here, which over-reports slightly) *)
  let dicts =
    fold_columns t
      (fun acc c ->
        match Column.dict c with
        | Some d when not (List.memq d acc) -> d :: acc
        | Some _ | None -> acc)
      []
  in
  cells + structures + List.fold_left (fun acc d -> acc + Dict.byte_size d) 0 dicts
