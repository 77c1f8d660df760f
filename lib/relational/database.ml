(* A table's rows are fixed-width and unboxed: row [r] is [width] bytes,
   an 8-byte word per column, then one for its reference count (how many
   rows reference its key, across all incoming constraints). Rows are
   row-major in [Bytes] blocks of [block_rows] rows, so growing copies no
   row and the C allocator can reuse a freed block for the next (see
   DESIGN.md, "Validation and the dead-letter queue"). An INT or BOOL word
   holds the value, a FLOAT word its IEEE bits; a TEXT word is 0 and the
   string is in the column's [texts] array, at the same row. Words are
   native-endian: only [add_rows] and [restore_rows] cross the snapshot
   encoding. Deletion moves the last row into the hole, so row numbers
   are internal. [index] finds a key's row, comparing the key cell where
   it is stored. *)

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

type table = {
  schema : Schema.t;
  key : int;
  updatable : string list;
  types : Datatype.t array;
  text_cols : int array;  (** the TEXT columns *)
  width : int;  (** bytes per row *)
  mutable blocks : Bytes.t array;
      (** [block_rows * width] bytes each, but a table's one block *)
  texts : string array array;
      (** per column: a TEXT column's strings, row-parallel; [||] else *)
  mutable rows : int;
  mutable referenced : int;  (** rows whose reference count is positive *)
  mutable index : Rowmap.t;
  (* the constraints this table is the source of, resolved when declared *)
  mutable outgoing : outgoing list;
}

and outgoing = { ref : Integrity.reference; col : int; dst : table }

type t = {
  tables : (string, table) Hashtbl.t;
  mutable refs : Integrity.reference list;
}

exception Violation of string

let violation fmt = Format.kasprintf (fun s -> raise (Violation s)) fmt

let create () = { tables = Hashtbl.create 8; refs = [] }

let table db name =
  match Hashtbl.find db.tables name with
  | t -> t
  | exception Not_found -> violation "unknown table %s" name

(* --- cells ------------------------------------------------------------ *)

let block_bits = 10
let block_rows = 1 lsl block_bits

(* Row [r]'s block, and the offset of its cell [c] there. *)
let block t r = Array.unsafe_get t.blocks (r lsr block_bits)
let word t r c = ((r land (block_rows - 1)) * t.width) + (8 * c)
let count_word t r = word t r (Array.length t.types)
let get_int b o = Int64.to_int (get64u b o)
let set_int b o x = set64u b o (Int64.of_int x)

(* [Value.equal] of cell [c] of row [r] and [v], without building the
   cell. *)
let cell_equal t r c v =
  let b = block t r and o = word t r c in
  match (Array.unsafe_get t.types c, v) with
  | Datatype.TInt, Value.Int x -> get_int b o = x
  | Datatype.TFloat, Value.Float x ->
    Float.equal (Int64.float_of_bits (get64u b o)) x
  | Datatype.TBool, Value.Bool x -> Bool.equal (get_int b o <> 0) x
  | Datatype.TString, Value.String x -> String.equal t.texts.(c).(r) x
  | _ -> false

(* [Value.hash] of cell [c] of row [r], whose block is [b] and whose
   first word is at [o] of it, without building the cell. *)
let hash_at types texts b o r c =
  let w = get64u b (o + (8 * c)) in
  match Array.unsafe_get types c with
  | Datatype.TInt -> Value.hash_int (Int64.to_int w)
  | Datatype.TFloat ->
    Value.hash_float_words
      ~hi:(Int64.to_int (Int64.shift_right_logical w 32))
      ~lo:(Int64.to_int w land 0xFFFF_FFFF)
  | Datatype.TBool -> Value.hash_bool (not (Int64.equal w 0L))
  | Datatype.TString -> Value.hash_string texts.(c).(r)

let cell_hash t r c = hash_at t.types t.texts (block t r) (word t r 0) r c

(* [v] inhabits the column's type: the row conforms. *)
let set_cell t r c v =
  let b = block t r and o = word t r c in
  match v with
  | Value.Int x -> set_int b o x
  | Value.Float x -> set64u b o (Int64.bits_of_float x)
  | Value.Bool x -> set_int b o (Bool.to_int x)
  | Value.String x ->
    set64u b o 0L;
    t.texts.(c).(r) <- x
  | Value.Null -> invalid_arg "Database: a NULL cell"

let rec set_cells t r tup c =
  if c < Array.length tup then begin
    set_cell t r c (Array.unsafe_get tup c);
    set_cells t r tup (c + 1)
  end

let rec row_equal t r tup c =
  c >= Array.length tup
  || (cell_equal t r c (Array.unsafe_get tup c) && row_equal t r tup (c + 1))

(* Cell [c] of row [r], as [hash_at] finds it. *)
let cell_at types texts b o r c =
  let w = get64u b (o + (8 * c)) in
  match Array.unsafe_get types c with
  | Datatype.TInt -> Value.int (Int64.to_int w)
  | Datatype.TFloat -> Value.Float (Int64.float_of_bits w)
  | Datatype.TBool -> Value.Bool (not (Int64.equal w 0L))
  | Datatype.TString -> Value.String texts.(c).(r)

(* Cell [c] of row [r]. *)
let row_cell t r c = cell_at t.types t.texts (block t r) (word t r 0) r c

(* A row as a fresh tuple, built without a call into the runtime
   ([Tuple.init_with]): that call was half of what a fold of the fact
   table cost. *)
let tuple_of t r = Tuple.init_with (Array.length t.types) row_cell t r

let count t r = get_int (block t r) (count_word t r)
let set_count t r n = set_int (block t r) (count_word t r) n

(* --- the key index ---------------------------------------------------- *)

let key_hash t r = cell_hash t r t.key

(* Closed equality tests for [Rowmap.probe]: a probe allocates nothing. *)
let key_is t v r = cell_equal t r t.key v

(* Row [i]'s key is row [r]'s. *)
let same_key t i r =
  let a = get64u (block t i) (word t i t.key)
  and b = get64u (block t r) (word t r t.key) in
  match Array.unsafe_get t.types t.key with
  | Datatype.TInt | Datatype.TBool -> Int64.equal a b
  | Datatype.TFloat ->
    Float.equal (Int64.float_of_bits a) (Int64.float_of_bits b)
  | Datatype.TString -> String.equal t.texts.(t.key).(i) t.texts.(t.key).(r)

(* The row whose key is [v], or [-1]. *)
let find t v = Rowmap.probe t.index ~hash:(Value.hash v) key_is t v

(* An index sized for [n] keys: none of them grows it. *)
let new_index t n = Rowmap.create ~hint:((4 * n / 3) + 1) ~hash:(key_hash t) ()

(* --- storage ---------------------------------------------------------- *)

(* Only a table's one block can be short of [block_rows] rows. *)
let capacity t =
  match Array.length t.blocks with
  | 0 -> 0
  | n -> ((n - 1) * block_rows) + (Bytes.length t.blocks.(n - 1) / t.width)

(* Room for [n] rows. A table of at most [block_rows] rows keeps one
   block, grown by doubling; a larger one adds whole blocks. *)
let reserve t n =
  let cap = capacity t in
  if n > cap then begin
    let block i =
      if i < Array.length t.blocks then t.blocks.(i) else Bytes.empty
    in
    (* [b], or a copy of it [rows] rows long *)
    let sized b rows =
      if Bytes.length b = rows * t.width then b
      else begin
        let b' = Bytes.create (rows * t.width) in
        Bytes.blit b 0 b' 0 (Bytes.length b);
        b'
      end
    in
    t.blocks <-
      (if n <= block_rows then
         [| sized (block 0) (min block_rows (max n (max 8 (2 * cap)))) |]
       else
         Array.init
           ((n + block_rows - 1) lsr block_bits)
           (fun i -> sized (block i) block_rows));
    (* the TEXT columns double, so their copies stay O(1) a row *)
    let cap = capacity t in
    Array.iter
      (fun c ->
        let len = Array.length t.texts.(c) in
        if len < cap then begin
          let a = Array.make (max cap (2 * len)) "" in
          Array.blit t.texts.(c) 0 a 0 t.rows;
          t.texts.(c) <- a
        end)
      t.text_cols
  end

let append t tup =
  reserve t (t.rows + 1);
  let r = t.rows in
  set_cells t r tup 0;
  set_count t r 0;
  t.rows <- r + 1;
  Rowmap.add t.index ~hash:(Value.hash tup.(t.key)) r

(* Swap-with-last: the last row moves into [r]. *)
let remove_row t r =
  ignore (Rowmap.remove_value t.index ~hash:(key_hash t r) r : bool);
  let last = t.rows - 1 in
  if r <> last then begin
    Bytes.blit (block t last) (word t last 0) (block t r) (word t r 0) t.width;
    for i = 0 to Array.length t.text_cols - 1 do
      let col = t.texts.(t.text_cols.(i)) in
      col.(r) <- col.(last)
    done;
    ignore
      (Rowmap.rename_value t.index ~hash:(key_hash t r) ~old_row:last
         ~new_row:r
        : bool)
  end;
  for i = 0 to Array.length t.text_cols - 1 do
    t.texts.(t.text_cols.(i)).(last) <- ""
  done;
  t.rows <- last

let new_table schema ~updatable =
  let types = Array.map (fun c -> c.Schema.col_type) schema.Schema.columns in
  let text_cols =
    Array.of_list
      (List.filter
         (fun c -> Datatype.equal types.(c) Datatype.TString)
         (List.init (Array.length types) Fun.id))
  in
  let t =
    { schema; key = Schema.key_index schema; updatable; types; text_cols;
      width = 8 * (Array.length types + 1); blocks = [||];
      texts = Array.make (Array.length types) [||]; rows = 0; referenced = 0;
      index = Rowmap.create ~hash:(fun _ -> 0) (); outgoing = [] }
  in
  t.index <- new_index t 0;
  t

let add_table db (schema : Schema.t) ~updatable =
  if Hashtbl.mem db.tables schema.name then
    violation "table %s already exists" schema.name;
  List.iter
    (fun c ->
      if not (Schema.mem schema c) then
        violation "table %s: updatable column %s not in schema" schema.name c)
    updatable;
  Hashtbl.add db.tables schema.name (new_table schema ~updatable)

(* Attach [r] to its source table. Each table's [outgoing] is newest first,
   like [db.refs]. *)
let resolve db (r : Integrity.reference) =
  let src = table db r.src_table in
  let col = Schema.index_of src.schema r.src_col in
  src.outgoing <- { ref = r; col; dst = table db r.dst_table } :: src.outgoing

let add_reference db (r : Integrity.reference) =
  let src = table db r.src_table in
  let dst = table db r.dst_table in
  if not (Schema.mem src.schema r.src_col) then
    violation "reference %a: no column %s.%s" Integrity.pp r r.src_table
      r.src_col;
  let src_ty = Schema.type_of src.schema r.src_col in
  let dst_ty = Schema.type_of dst.schema dst.schema.key in
  if not (Datatype.equal src_ty dst_ty) then
    violation "reference %a: type mismatch" Integrity.pp r;
  if List.exists (Integrity.equal r) db.refs then
    violation "reference %a declared twice" Integrity.pp r;
  if src.rows > 0 then
    violation "reference %a: declare constraints before loading data"
      Integrity.pp r;
  resolve db r;
  db.refs <- r :: db.refs

let schema_of db name = (table db name).schema
let references db = db.refs
let updatable_columns db name = (table db name).updatable

let table_names db =
  Hashtbl.fold (fun name _ acc -> name :: acc) db.tables []
  |> List.sort String.compare

let table_count db = Hashtbl.length db.tables
let mem_table db name = Hashtbl.mem db.tables name

(* --- checks ------------------------------------------------------------- *)

(* Every check runs before anything changes, in one fixed order: unknown
   table, schema, missing row, not updatable, referenced key, duplicate key,
   dangling reference. A passed check returns the stored row it found
   ([-1] for an insert), which the write then reuses. *)

let reject delta reason fmt =
  Format.kasprintf (fun detail -> Error { Delta.delta; reason; detail }) fmt

(* The row that stores [tup] itself, or [-1]: its key finds it. *)
let stored t tup =
  let r = find t tup.(t.key) in
  if r >= 0 && row_equal t r tup 0 then r else -1

(* The first outgoing reference of [tup] with no referent. For an update,
   [before] limits the search to the columns it changes: a stored row's
   references all have referents, so an unchanged one cannot dangle. *)
let rec dangling before tup = function
  | [] -> None
  | o :: rest ->
    let v = tup.(o.col) in
    let unchanged =
      match before with Some b -> Value.equal b.(o.col) v | None -> false
    in
    if (not unchanged) && find o.dst v < 0 then Some (o.ref, v)
    else dangling before tup rest

let check_refs ?before d t tup r =
  match dangling before tup t.outgoing with
  | None -> Ok r
  | Some (rf, v) ->
    reject d Delta.Dangling_reference "%a = %a has no referent" Integrity.pp
      rf Value.pp v

let check_insert d t tup =
  if not (Schema.conforms t.schema tup) then
    reject d Delta.Schema_mismatch "tuple %a does not conform to %a" Tuple.pp
      tup Schema.pp t.schema
  else if find t tup.(t.key) >= 0 then
    reject d Delta.Duplicate_key "key %a already present in %s" Value.pp
      tup.(t.key) t.schema.name
  else check_refs d t tup (-1)

let check_delete d t tup =
  if not (Schema.conforms t.schema tup) then
    reject d Delta.Schema_mismatch "tuple %a does not conform to %a" Tuple.pp
      tup Schema.pp t.schema
  else
    let r = stored t tup in
    if r < 0 then
      reject d Delta.Missing_row "tuple %a is not stored in %s" Tuple.pp tup
        t.schema.name
    else
      let n = count t r in
      if n > 0 then
        reject d Delta.Referenced_key "key %a is referenced by %d row(s)"
          Value.pp tup.(t.key) n
      else Ok r

(* The first column [after] changes that sources may not update. *)
let rec frozen t before after i =
  if i >= Array.length before then None
  else if
    (not (Value.equal before.(i) after.(i)))
    && not (List.mem t.schema.columns.(i).col_name t.updatable)
  then Some t.schema.columns.(i).col_name
  else frozen t before after (i + 1)

let check_update d t ~before ~after =
  if not (Schema.conforms t.schema before && Schema.conforms t.schema after)
  then
    reject d Delta.Schema_mismatch "before/after image does not conform to %a"
      Schema.pp t.schema
  else
    let r = stored t before in
    if r < 0 then
      reject d Delta.Missing_row "before-image %a is not stored in %s" Tuple.pp
        before t.schema.name
    else
      (* sources may only update columns declared updatable: the
         warehouse's exposed-updates analysis (Section 2.1) relies on
         this contract *)
      match frozen t before after 0 with
      | Some col ->
        reject d Delta.Not_updatable "column %s is not declared updatable" col
      | None ->
        let kb = before.(t.key) and ka = after.(t.key) in
        if Value.equal kb ka then check_refs ~before d t after r
        else
          let n = count t r in
          if n > 0 then
            reject d Delta.Referenced_key
              "cannot change key %a: referenced by %d row(s)" Value.pp kb n
          else if find t ka >= 0 then
            reject d Delta.Duplicate_key "new key %a already present" Value.pp
              ka
          else check_refs ~before d t after r

let check t (d : Delta.t) =
  match d.change with
  | Delta.Insert tup -> check_insert d t tup
  | Delta.Delete tup -> check_delete d t tup
  | Delta.Update { before; after } -> check_update d t ~before ~after

(* --- mutation, after a passed check ------------------------------------- *)

(* Add [delta] to the reference count of [dst]'s row keyed [v]. *)
let bump dst v delta =
  let r = find dst v in
  if r < 0 then violation "internal: a reference to an absent key";
  let n = count dst r in
  let next = n + delta in
  if next < 0 then violation "internal: negative reference count";
  if n = 0 && next > 0 then dst.referenced <- dst.referenced + 1
  else if n > 0 && next = 0 then dst.referenced <- dst.referenced - 1;
  set_count dst r next

let rec bump_all tup delta = function
  | [] -> ()
  | o :: rest ->
    bump o.dst tup.(o.col) delta;
    bump_all tup delta rest

let rec bump_changed before after = function
  | [] -> ()
  | o :: rest ->
    let vb = before.(o.col) and va = after.(o.col) in
    if not (Value.equal vb va) then begin
      bump o.dst vb (-1);
      bump o.dst va 1
    end;
    bump_changed before after rest

(* [r] is the row the check found. *)
let write t r (change : Delta.change) =
  match change with
  | Delta.Insert tup ->
    append t tup;
    bump_all tup 1 t.outgoing
  | Delta.Delete tup ->
    bump_all tup (-1) t.outgoing;
    remove_row t r
  | Delta.Update { before; after } ->
    let kb = before.(t.key) and ka = after.(t.key) in
    if Value.equal kb ka then set_cells t r after 0
    else begin
      (* a re-keyed row is unreferenced, so its count stays 0 *)
      ignore (Rowmap.remove_value t.index ~hash:(Value.hash kb) r : bool);
      set_cells t r after 0;
      Rowmap.add t.index ~hash:(Value.hash ka) r
    end;
    bump_changed before after t.outgoing

let admit db (d : Delta.t) =
  match Hashtbl.find db.tables d.table with
  | exception Not_found ->
    reject d Delta.Unknown_table "no base table named %s" d.table
  | t -> (
    match check t d with
    | Ok r ->
      write t r d.change;
      Ok ()
    | Error _ as e -> e)

let apply db d =
  match admit db d with
  | Ok () -> ()
  | Error rej -> violation "%a" Delta.pp_rejection rej

let apply_all db = List.iter (apply db)
let insert db name tup = apply db (Delta.insert name tup)
let delete db name tup = apply db (Delta.delete name tup)
let update db name ~before ~after = apply db (Delta.update name ~before ~after)

let find_by_key db name k =
  let t = table db name in
  let r = find t k in
  if r < 0 then None else Some (tuple_of t r)

let fold db name f acc =
  let t = table db name in
  let acc = ref acc in
  for r = 0 to t.rows - 1 do
    acc := f (tuple_of t r) !acc
  done;
  !acc

(* --- cursors ------------------------------------------------------------ *)

module Cursor = struct
  (* [block] is row [row]'s block and [base] the offset of its first word
     there, both set by [seek]. *)
  type nonrec t = {
    types : Datatype.t array;
    texts : string array array;
    blocks : Bytes.t array;
    width : int;
    rows : int;
    mutable row : int;
    mutable block : Bytes.t;
    mutable base : int;
  }

  let create db name =
    let t = table db name in
    { types = t.types; texts = t.texts; blocks = t.blocks; width = t.width;
      rows = t.rows; row = -1; block = Bytes.empty; base = 0 }

  let rows c = c.rows

  let seek c r =
    if r < 0 || r >= c.rows then
      invalid_arg (Printf.sprintf "Database.Cursor.seek: row %d of %d" r c.rows);
    c.row <- r;
    c.block <- Array.unsafe_get c.blocks (r lsr block_bits);
    c.base <- (r land (block_rows - 1)) * c.width

  let text c j = c.texts.(j).(c.row)
  let int c j = get_int c.block (c.base + (8 * j))

  let hash_key c positions =
    let h = ref 17 in
    for i = 0 to Array.length positions - 1 do
      h :=
        (!h * 31)
        + hash_at c.types c.texts c.block c.base c.row
            (Array.unsafe_get positions i)
    done;
    !h
  let cell c j = cell_at c.types c.texts c.block c.base c.row j
  let hash c j = hash_at c.types c.texts c.block c.base c.row j

  (* The rank of a type in [Value.compare]'s order of values of different
     types. *)
  let tag = function
    | Datatype.TInt -> 1
    | Datatype.TFloat -> 2
    | Datatype.TString -> 3
    | Datatype.TBool -> 4

  let value_tag = function
    | Value.Null -> 0
    | Value.Int _ -> 1
    | Value.Float _ -> 2
    | Value.String _ -> 3
    | Value.Bool _ -> 4

  let compare c j v =
    let w = get64u c.block (c.base + (8 * j)) in
    match Array.unsafe_get c.types j, v with
    | Datatype.TInt, Value.Int x -> Int.compare (Int64.to_int w) x
    | Datatype.TFloat, Value.Float x -> Float.compare (Int64.float_of_bits w) x
    | Datatype.TString, Value.String x -> String.compare (text c j) x
    | Datatype.TBool, Value.Bool x -> Bool.compare (not (Int64.equal w 0L)) x
    | ty, _ -> Int.compare (tag ty) (value_tag v)

  let compare_cells c i j =
    let wi = get64u c.block (c.base + (8 * i))
    and wj = get64u c.block (c.base + (8 * j)) in
    match Array.unsafe_get c.types i, Array.unsafe_get c.types j with
    | Datatype.TInt, Datatype.TInt | Datatype.TBool, Datatype.TBool ->
      Int.compare (Int64.to_int wi) (Int64.to_int wj)
    | Datatype.TFloat, Datatype.TFloat ->
      Float.compare (Int64.float_of_bits wi) (Int64.float_of_bits wj)
    | Datatype.TString, Datatype.TString -> String.compare (text c i) (text c j)
    | ti, tj -> Int.compare (tag ti) (tag tj)
end

let rows_by_key db name =
  let key = (table db name).key in
  List.sort
    (fun a b -> Value.compare a.(key) b.(key))
    (fold db name List.cons [])

let row_count db name = (table db name).rows

let reference_count db name k =
  let t = table db name in
  let r = find t k in
  if r < 0 then 0 else count t r

let probes db =
  Hashtbl.fold (fun _ t n -> n + Rowmap.probes t.index) db.tables 0

(* The references resolve to the copied tables. *)
let copy db =
  let c = { tables = Hashtbl.create 8; refs = db.refs } in
  Hashtbl.iter
    (fun name t ->
      let t' =
        { t with
          blocks = Array.map Bytes.copy t.blocks;
          texts = Array.map Array.copy t.texts;
          outgoing = [] }
      in
      t'.index <- Rowmap.copy t.index ~hash:(key_hash t');
      Hashtbl.add c.tables name t')
    db.tables;
  List.iter (resolve c) (List.rev db.refs);
  c

(* --- snapshot sections ------------------------------------------------ *)

let column_types (schema : Schema.t) =
  Array.map (fun c -> c.Schema.col_type) schema.columns

let key_type (schema : Schema.t) = Schema.type_of schema schema.key

(* Tables by name, then references oldest first: [restore_catalog]
   declares them in this order, so [references] comes back newest first. *)
let add_catalog db w =
  let names = table_names db in
  Codec.add_varint w (List.length names);
  List.iter
    (fun name ->
      let t = table db name in
      Codec.add_string w name;
      Codec.add_string w t.schema.key;
      Codec.add_varint w (Array.length t.schema.columns);
      Array.iter
        (fun c ->
          Codec.add_string w c.Schema.col_name;
          Codec.add_datatype w c.Schema.col_type)
        t.schema.columns;
      Codec.add_varint w (List.length t.updatable);
      List.iter (Codec.add_string w) t.updatable)
    names;
  Codec.add_varint w (List.length db.refs);
  List.iter
    (fun (r : Integrity.reference) ->
      Codec.add_string w r.src_table;
      Codec.add_string w r.src_col;
      Codec.add_string w r.dst_table)
    (List.rev db.refs)

let list_of r f = List.init (Codec.count r) (fun _ -> f r)

let restore_catalog r =
  let db = create () in
  let tables =
    list_of r (fun r ->
        let name = Codec.string r in
        let key = Codec.string r in
        let columns =
          list_of r (fun r ->
              let col_name = Codec.string r in
              { Schema.col_name; col_type = Codec.datatype r })
        in
        let updatable = list_of r Codec.string in
        (Schema.make ~name ~key columns, updatable))
  in
  List.iter (fun (schema, updatable) -> add_table db schema ~updatable) tables;
  List.iter
    (fun r -> add_reference db r)
    (list_of r (fun r ->
         let src_table = Codec.string r in
         let src_col = Codec.string r in
         { Integrity.src_table; src_col; dst_table = Codec.string r }));
  db

(* Cell [c] of row [r], whose first word is at [o] of block [b], after a
   room check of its own: a TEXT cell longer than a chunk goes through
   [Codec.add_string], which splits it. *)
let add_cell w t b o r c =
  match t.types.(c) with
  | Datatype.TString -> Codec.add_string w t.texts.(c).(r)
  | ty ->
    ignore (Codec.room w 9 : bool);
    Codec.put_words w ty b (o + (8 * c)) 1

(* A table's columns as runs [(ty, first, len)] of adjacent columns of one
   type; a TEXT column is a run of its own. *)
let runs t =
  let n = Array.length t.types in
  let rec from c =
    if c = n then []
    else begin
      let ty = t.types.(c) in
      let len = ref 1 in
      if ty <> Datatype.TString then
        while c + !len < n && t.types.(c + !len) = ty do
          incr len
        done;
      (ty, c, !len) :: from (c + !len)
    end
  in
  Array.of_list (from 0)

(* Rows stream a row at a time: one room check covers a row's cells, 9
   bytes per non-TEXT cell (the longest varint) and a TEXT cell's 9 plus
   its length, and the cells follow unchecked, a run of words at a time.
   A row that does not fit in a chunk goes cell by cell. *)
let add_rows db name w =
  let t = table db name in
  let n = Array.length t.types and runs = runs t in
  let fixed = 9 * (n - Array.length t.text_cols) in
  for r = 0 to t.rows - 1 do
    let b = block t r and o = word t r 0 in
    let bound = ref fixed in
    for i = 0 to Array.length t.text_cols - 1 do
      let c = Array.unsafe_get t.text_cols i in
      bound := !bound + 9 + String.length t.texts.(c).(r)
    done;
    if Codec.room w !bound then
      for i = 0 to Array.length runs - 1 do
        match Array.unsafe_get runs i with
        | Datatype.TString, c, _ -> Codec.put_string w t.texts.(c).(r)
        | ty, c, len -> Codec.put_words w ty b (o + (8 * c)) len
      done
    else
      for c = 0 to n - 1 do
        add_cell w t b o r c
      done
  done

let add_incoming db name w =
  let t = table db name in
  for r = 0 to t.rows - 1 do
    let n = count t r in
    if n > 0 then begin
      add_cell w t (block t r) (word t r 0) r t.key;
      Codec.add_int w n
    end
  done

let incoming_count db name = (table db name).referenced

(* [n] entries that [r] holds, each at least a byte long. *)
let check_fits what n r =
  if n > Codec.remaining r then
    Codec.malformed "%d %s in %d byte(s)" n what (Codec.remaining r)

(* Cell [c] of row [i], decoded straight into its word. *)
let restore_cell t r i c =
  let b = block t i and o = word t i c in
  match Array.unsafe_get t.types c with
  | Datatype.TInt -> set_int b o (Codec.int r)
  | Datatype.TFloat -> Codec.float_to r b o
  | Datatype.TBool -> set_int b o (Bool.to_int (Codec.bool r))
  | Datatype.TString ->
    set64u b o 0L;
    t.texts.(c).(i) <- Codec.string r

let restore_rows db name ~rows r =
  let t = table db name in
  check_fits "rows" rows r;
  t.rows <- 0;
  t.referenced <- 0;
  t.blocks <- [||];
  reserve t rows;
  t.index <- new_index t rows;
  for i = 0 to rows - 1 do
    for c = 0 to Array.length t.types - 1 do
      restore_cell t r i c
    done;
    set_count t i 0;
    let hash = key_hash t i in
    if Rowmap.probe t.index ~hash same_key t i >= 0 then
      Codec.malformed "a key of %s occurs twice among its rows" name;
    t.rows <- i + 1;
    Rowmap.add t.index ~hash i
  done

let restore_incoming db name ~keys r =
  let t = table db name in
  check_fits "reference counts" keys r;
  let ty = key_type t.schema in
  for _ = 1 to keys do
    let k = Codec.cell r ty in
    let n = Codec.int r in
    if n <= 0 then Codec.malformed "reference count %d" n;
    let row = find t k in
    if row < 0 then
      Codec.malformed "a reference count for key %s, which no row of %s holds"
        (Value.to_string k) name;
    if count t row > 0 then
      Codec.malformed "a key of %s occurs twice among its reference counts"
        name;
    set_count t row n;
    t.referenced <- t.referenced + 1
  done

(* --- version-5 snapshots ---------------------------------------------- *)

module V5 = struct
  module VH = Hashtbl.Make (struct
    type t = Value.t

    let equal = Value.equal
    let hash = Value.hash
  end)

  type table = {
    schema : Schema.t;
    key : int;
    mutable by_key : Tuple.t VH.t;
    updatable : string list;
    mutable incoming : int VH.t;
    mutable outgoing : outgoing list;
  }

  and outgoing = { ref : Integrity.reference; col : int; dst : table }

  type t = {
    tables : (string, table) Hashtbl.t;
    mutable refs : Integrity.reference list;
  }
end

(* The stored rows and counts are taken as they are: a version-5 shadow
   was checked as it was built. *)
let of_v5 (v5 : V5.t) =
  let db = create () in
  let names =
    List.sort String.compare
      (Hashtbl.fold (fun name _ acc -> name :: acc) v5.tables [])
  in
  List.iter
    (fun name ->
      let (t5 : V5.table) = Hashtbl.find v5.tables name in
      add_table db t5.schema ~updatable:t5.updatable)
    names;
  List.iter (add_reference db) (List.rev v5.refs);
  List.iter
    (fun name ->
      let (t5 : V5.table) = Hashtbl.find v5.tables name in
      let t = table db name in
      reserve t (V5.VH.length t5.by_key);
      t.index <- new_index t (V5.VH.length t5.by_key);
      V5.VH.iter
        (fun _ tup ->
          if not (Schema.conforms t.schema tup) then
            violation "a row of %s does not conform to its schema" name;
          append t tup)
        t5.by_key;
      V5.VH.iter
        (fun k n ->
          let r = find t k in
          if r < 0 || n <= 0 then
            violation "a reference count of %s is not a stored key's" name;
          set_count t r n;
          t.referenced <- t.referenced + 1)
        t5.incoming)
    names;
  db
