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

(* The undo log: group images laid out as the store lays out its groups,
   appended with the typed cell copies the store itself uses, so
   journaling boxes nothing, plus each key's hash. [lcnt = -1] records a
   group the transaction created. Images are keyed by group key, not row
   id: swap-with-last deletion renumbers rows. *)
type log = {
  lkeys : Column.t array;
  lcells : Column.t array;
  lints : Icol.t array;
  lsets : sets array;
  lcnt : Icol.t;
  lhash : Icol.t;
}

type t = {
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

(* Agrees with [Tuple.hash] of the boxed key. *)
let key_hash_cols (keys : Column.t array) r =
  let h = ref 17 in
  for i = 0 to Array.length keys - 1 do
    h := (!h * 31) + Column.hash_cell keys.(i) r
  done;
  !h

let row_hash g r = key_hash_cols g.keys r
let in_txn g = g.start >= 0
let group_count g = Icol.length g.cnts

let empty_log keys cells ints sets =
  {
    lkeys = Array.map Column.empty_like keys;
    lcells = Array.map Column.empty_like cells;
    lints = Array.map (fun _ -> Icol.create ()) ints;
    lsets = Array.map (fun _ -> sets_create ()) sets;
    lcnt = Icol.create ();
    lhash = Icol.create ();
  }

let create ~keys ~cells ~ints ~sets =
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

(* --- probes -------------------------------------------------------------- *)

(* Closed equality tests for [Rowmap.probe]: a probe allocates nothing. *)
let rec key_matches_from g (key : Tuple.t) r i =
  i >= Array.length key
  || Column.equal_cell g.keys.(i) r key.(i) && key_matches_from g key r (i + 1)

let key_matches g key r = key_matches_from g key r 0
let find g ~hash key = Rowmap.probe g.map ~hash key_matches g key

(* Row [r] of [g] holds the key in cells [j] of [src]. *)
let rec cells_match_from g src j r i =
  i >= Array.length src
  || Column.equal_cells g.keys.(i) r src.(i) j
     && cells_match_from g src j r (i + 1)

let cells_match g src j r = cells_match_from g src j r 0
let find_cells g ~hash src j = Rowmap.probe3 g.map ~hash cells_match g src j

let key_at g r =
  Array.init (Array.length g.keys) (fun i -> Column.get g.keys.(i) r)

(* --- rows ----------------------------------------------------------------- *)

let add_row g ~hash cnt =
  let r = group_count g in
  Rowmap.check_row r;
  Icol.append g.cnts cnt;
  Marks.append g.touched;
  Rowmap.add g.map ~hash r;
  r

(* Groups created outside a transaction go unnamed by the log, as
   [note_created] records them. *)
let load_rows g ~into ~pairs n =
  if group_count g > 0 || in_txn g then
    invalid_arg "Groups.load_rows: store not empty or in a transaction";
  if n > 0 then Rowmap.check_row (n - 1);
  Icol.append_counts g.cnts ~into n;
  Marks.append_n g.touched n;
  Rowmap.load g.map pairs;
  if n > 0 then g.untracked <- true

let delete_row g ~hash r =
  let l = group_count g - 1 in
  ignore (Rowmap.remove_value g.map ~hash r);
  if r <> l then
    ignore
      (Rowmap.rename_value g.map ~hash:(key_hash_cols g.keys l) ~old_row:l
         ~new_row:r);
  for i = 0 to Array.length g.keys - 1 do
    Column.swap_delete g.keys.(i) r
  done;
  for i = 0 to Array.length g.cells - 1 do
    Column.swap_delete g.cells.(i) r
  done;
  for i = 0 to Array.length g.ints - 1 do
    Icol.swap_delete g.ints.(i) r
  done;
  for i = 0 to Array.length g.sets - 1 do
    sets_swap_delete g.sets.(i) r
  done;
  Icol.swap_delete g.cnts r;
  Marks.swap_delete g.touched r;
  if r <> l then l else -1

(* Appends the components and count of row [r] of [src] (shaped like
   [g]) to [g], whose key the caller has appended. *)
let append_from g ~hash ~src_cells ~src_ints ~src_sets ~cnt r =
  for i = 0 to Array.length g.cells - 1 do
    Column.append_cell g.cells.(i) src_cells.(i) r
  done;
  for i = 0 to Array.length g.ints - 1 do
    Icol.append g.ints.(i) (Icol.get src_ints.(i) r)
  done;
  for i = 0 to Array.length g.sets - 1 do
    sets_append g.sets.(i) src_sets.(i).maps.(r)
  done;
  add_row g ~hash cnt

let rekey g r ~hash ~key ~new_hash =
  ignore (Rowmap.remove_value g.map ~hash r : bool);
  Array.iteri (fun i v -> Column.set g.keys.(i) r v) key;
  Rowmap.add g.map ~hash:new_hash r

(* --- undo journal -------------------------------------------------------- *)

let log_length g = Icol.length g.log.lcnt
let log_hash g e = Icol.get g.log.lhash e
let log_key g e = Array.map (fun c -> Column.get c e) g.log.lkeys

let truncate_log lg n =
  Array.iter (fun c -> Column.truncate c n) lg.lkeys;
  Array.iter (fun c -> Column.truncate c n) lg.lcells;
  Array.iter (fun c -> Icol.truncate c n) lg.lints;
  Array.iter (fun c -> sets_truncate c n) lg.lsets;
  Icol.truncate lg.lcnt n;
  Icol.truncate lg.lhash n

let release_log g =
  let lg = g.log in
  if Icol.capacity lg.lcnt > 4 * max 64 (log_length g) then
    g.log <- empty_log lg.lkeys lg.lcells lg.lints lg.lsets
  else truncate_log lg 0

let clear_log g =
  release_log g;
  g.untracked <- false

let drop_log g =
  release_log g;
  g.untracked <- true

(* Appends the image of row [r] with [cnt] (-1: the group was created). *)
let log_row g ~hash ~cnt r =
  let lg = g.log in
  for i = 0 to Array.length lg.lkeys - 1 do
    Column.append_cell lg.lkeys.(i) g.keys.(i) r
  done;
  for i = 0 to Array.length lg.lcells - 1 do
    Column.append_cell lg.lcells.(i) g.cells.(i) r
  done;
  for i = 0 to Array.length lg.lints - 1 do
    Icol.append lg.lints.(i) (Icol.get g.ints.(i) r)
  done;
  for i = 0 to Array.length lg.lsets - 1 do
    sets_append lg.lsets.(i) g.sets.(i).maps.(r)
  done;
  Icol.append lg.lcnt cnt;
  Icol.append lg.lhash hash

let begin_txn g =
  Marks.next_epoch g.touched;
  g.start <- log_length g

let note_row g ~hash r =
  if g.start < 0 then g.untracked <- true
  else if not (Marks.marked g.touched r) then begin
    log_row g ~hash ~cnt:(Icol.get g.cnts r) r;
    Marks.mark g.touched r
  end

let note_created g ~hash r =
  if g.start < 0 then g.untracked <- true
  else begin
    log_row g ~hash ~cnt:(-1) r;
    Marks.mark g.touched r
  end

let commit g = g.start <- -1

(* Cells are boxed only here, on the cold path. *)
let restore_row g lg e r =
  Icol.set g.cnts r (Icol.get lg.lcnt e);
  Array.iteri (fun i c -> Column.set c r (Column.get lg.lcells.(i) e)) g.cells;
  Array.iteri (fun i c -> Icol.set c r (Icol.get lg.lints.(i) e)) g.ints;
  Array.iteri (fun i c -> c.maps.(r) <- lg.lsets.(i).maps.(e)) g.sets

let rollback ?delete ?(restored = fun ~appended:_ _ -> ()) g =
  if g.start >= 0 then begin
    let lg = g.log and start = g.start in
    let n = log_length g in
    for e = start to n - 1 do
      if Icol.get lg.lcnt e < 0 then begin
        let hash = Icol.get lg.lhash e in
        let r = find_cells g ~hash lg.lkeys e in
        if r >= 0 then
          match delete with
          | Some delete -> delete ~hash r
          | None -> ignore (delete_row g ~hash r : int)
      end
    done;
    for e = start to n - 1 do
      let cnt = Icol.get lg.lcnt e in
      if cnt >= 0 then begin
        let hash = Icol.get lg.lhash e in
        let r = find_cells g ~hash lg.lkeys e in
        if r >= 0 then begin
          restore_row g lg e r;
          restored ~appended:false r
        end
        else begin
          Array.iteri (fun i c -> Column.append_cell c lg.lkeys.(i) e) g.keys;
          restored ~appended:true
            (append_from g ~hash ~src_cells:lg.lcells ~src_ints:lg.lints
               ~src_sets:lg.lsets ~cnt e)
        end
      end
    done;
    if start = 0 then release_log g else truncate_log lg start;
    g.start <- -1
  end

(* --- whole store ---------------------------------------------------------- *)

let rows_equal g r g' r' =
  let rec all a f i = i >= Array.length a || (f i && all a f (i + 1)) in
  Icol.get g.cnts r = Icol.get g'.cnts r'
  && all g.cells (fun i -> Column.equal_cells g'.cells.(i) r' g.cells.(i) r) 0
  && all g.ints (fun i -> Icol.get g.ints.(i) r = Icol.get g'.ints.(i) r') 0
  && all g.sets
       (fun i -> VMap.equal Int.equal g.sets.(i).maps.(r) g'.sets.(i).maps.(r'))
       0

let equal a b =
  group_count a = group_count b
  &&
  let rec from r =
    r >= group_count a
    ||
    let r' = find_cells b ~hash:(key_hash_cols a.keys r) a.keys r in
    r' >= 0 && rows_equal a r b r' && from (r + 1)
  in
  from 0

(* --- byte accounting ----------------------------------------------------- *)

let columns g = Array.append g.keys g.cells
let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a
let offheap_bytes g = sum Column.offheap_bytes (columns g)

let byte_size g =
  let structures =
    Icol.byte_size g.cnts + Marks.byte_size g.touched + Rowmap.byte_size g.map
    + sum Icol.byte_size g.ints + sum sets_byte_size g.sets
  in
  (* dictionaries, deduplicated by physical identity: columns can share a
     dictionary (and pooled stores share across stores — those are
     charged once per store here, which over-reports slightly) *)
  let dicts =
    Array.fold_left
      (fun acc c ->
        match Column.dict c with
        | Some d when not (List.memq d acc) -> d :: acc
        | Some _ | None -> acc)
      [] (columns g)
  in
  sum Column.byte_size (columns g) + structures
  + List.fold_left (fun acc d -> acc + Dict.byte_size d) 0 dicts
