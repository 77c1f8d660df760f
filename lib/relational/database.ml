module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* [by_key] is the table's only store: keys are unique, so key -> tuple
   holds every row exactly once. [by_key] and [incoming] are replaced only
   when a snapshot restores the table, by hashtables sized for it. *)
type table = {
  schema : Schema.t;
  key : int;
  mutable by_key : Tuple.t VH.t;
  updatable : string list;
  (* rows referencing this table's keys, per key value, across all incoming
     constraints; used for O(1) delete checks *)
  mutable incoming : int VH.t;
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
  match Hashtbl.find_opt db.tables name with
  | Some t -> t
  | None -> violation "unknown table %s" name

let new_table schema ~updatable by_key incoming =
  { schema; key = Schema.key_index schema; by_key; updatable; incoming;
    outgoing = [] }

let add_table db (schema : Schema.t) ~updatable =
  if Hashtbl.mem db.tables schema.name then
    violation "table %s already exists" schema.name;
  List.iter
    (fun c ->
      if not (Schema.mem schema c) then
        violation "table %s: updatable column %s not in schema" schema.name c)
    updatable;
  Hashtbl.add db.tables schema.name
    (new_table schema ~updatable (VH.create 64) (VH.create 64))

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
  if VH.length src.by_key > 0 then
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

let mem_table db name = Hashtbl.mem db.tables name

(* --- checks ------------------------------------------------------------- *)

(* Every check runs before anything changes, in one fixed order: unknown
   table, schema, missing row, not updatable, referenced key, duplicate key,
   dangling reference. *)

let reject delta reason fmt =
  Format.kasprintf (fun detail -> Error { Delta.delta; reason; detail }) fmt

(* [tup] itself is stored: its key finds it. *)
let stored t tup =
  match VH.find_opt t.by_key tup.(t.key) with
  | Some s -> Tuple.equal s tup
  | None -> false

let reference_count_of t k =
  match VH.find_opt t.incoming k with Some n -> n | None -> 0

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
    if (not unchanged) && not (VH.mem o.dst.by_key v) then Some (o.ref, v)
    else dangling before tup rest

let check_refs ?before d t tup =
  match dangling before tup t.outgoing with
  | None -> Ok t
  | Some (r, v) ->
    reject d Delta.Dangling_reference "%a = %a has no referent" Integrity.pp r
      Value.pp v

let check_insert d t tup =
  if not (Schema.conforms t.schema tup) then
    reject d Delta.Schema_mismatch "tuple %a does not conform to %a" Tuple.pp
      tup Schema.pp t.schema
  else if VH.mem t.by_key tup.(t.key) then
    reject d Delta.Duplicate_key "key %a already present in %s" Value.pp
      tup.(t.key) t.schema.name
  else check_refs d t tup

let check_delete d t tup =
  if not (Schema.conforms t.schema tup) then
    reject d Delta.Schema_mismatch "tuple %a does not conform to %a" Tuple.pp
      tup Schema.pp t.schema
  else if not (stored t tup) then
    reject d Delta.Missing_row "tuple %a is not stored in %s" Tuple.pp tup
      t.schema.name
  else
    let n = reference_count_of t tup.(t.key) in
    if n > 0 then
      reject d Delta.Referenced_key "key %a is referenced by %d row(s)"
        Value.pp tup.(t.key) n
    else Ok t

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
  else if not (stored t before) then
    reject d Delta.Missing_row "before-image %a is not stored in %s" Tuple.pp
      before t.schema.name
  else
    (* sources may only update columns declared updatable: the warehouse's
       exposed-updates analysis (Section 2.1) relies on this contract *)
    match frozen t before after 0 with
    | Some col ->
      reject d Delta.Not_updatable "column %s is not declared updatable" col
    | None ->
      let kb = before.(t.key) and ka = after.(t.key) in
      if Value.equal kb ka then check_refs ~before d t after
      else
        let n = reference_count_of t kb in
        if n > 0 then
          reject d Delta.Referenced_key
            "cannot change key %a: referenced by %d row(s)" Value.pp kb n
        else if VH.mem t.by_key ka then
          reject d Delta.Duplicate_key "new key %a already present" Value.pp ka
        else check_refs ~before d t after

let check db (d : Delta.t) =
  match Hashtbl.find_opt db.tables d.table with
  | None -> reject d Delta.Unknown_table "no base table named %s" d.table
  | Some t -> (
    match d.change with
    | Delta.Insert tup -> check_insert d t tup
    | Delta.Delete tup -> check_delete d t tup
    | Delta.Update { before; after } -> check_update d t ~before ~after)

(* --- mutation, after a passed check ------------------------------------- *)

let bump_incoming (dst : table) v delta =
  let next = reference_count_of dst v + delta in
  if next < 0 then violation "internal: negative reference count";
  if next = 0 then VH.remove dst.incoming v else VH.replace dst.incoming v next

let write t (change : Delta.change) =
  match change with
  | Delta.Insert tup ->
    VH.replace t.by_key tup.(t.key) tup;
    List.iter (fun o -> bump_incoming o.dst tup.(o.col) 1) t.outgoing
  | Delta.Delete tup ->
    VH.remove t.by_key tup.(t.key);
    List.iter (fun o -> bump_incoming o.dst tup.(o.col) (-1)) t.outgoing
  | Delta.Update { before; after } ->
    let kb = before.(t.key) and ka = after.(t.key) in
    if not (Value.equal kb ka) then VH.remove t.by_key kb;
    VH.replace t.by_key ka after;
    List.iter
      (fun o ->
        let vb = before.(o.col) and va = after.(o.col) in
        if not (Value.equal vb va) then begin
          bump_incoming o.dst vb (-1);
          bump_incoming o.dst va 1
        end)
      t.outgoing

let admit db d =
  match check db d with
  | Ok t ->
    write t d.change;
    Ok ()
  | Error _ as e -> e

let apply db d =
  match admit db d with
  | Ok () -> ()
  | Error rej -> violation "%a" Delta.pp_rejection rej

let apply_all db = List.iter (apply db)
let insert db name tup = apply db (Delta.insert name tup)
let delete db name tup = apply db (Delta.delete name tup)
let update db name ~before ~after = apply db (Delta.update name ~before ~after)
let find_by_key db name k = VH.find_opt (table db name).by_key k
let fold db name f acc =
  VH.fold (fun _ tup acc -> f tup acc) (table db name).by_key acc

let row_count db name = VH.length (table db name).by_key
let reference_count db name k = reference_count_of (table db name) k

(* The references resolve to the copied tables. *)
let copy db =
  let c = { tables = Hashtbl.create 8; refs = db.refs } in
  Hashtbl.iter
    (fun name t ->
      Hashtbl.add c.tables name
        (new_table t.schema ~updatable:t.updatable (VH.copy t.by_key)
           (VH.copy t.incoming)))
    db.tables;
  List.iter (resolve c) (List.rev db.refs);
  c

(* --- snapshot sections ----------------------------------------------------- *)

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

let add_rows db name w =
  let t = table db name in
  let types = column_types t.schema in
  VH.iter (fun _ tup -> Codec.add_row w types tup) t.by_key

let add_incoming db name w =
  let t = table db name in
  let ty = key_type t.schema in
  VH.iter
    (fun k n ->
      Codec.add_cell w ty k;
      Codec.add_int w n)
    t.incoming

let incoming_count db name = VH.length (table db name).incoming

(* An empty key index for [n] entries that [r] holds, each at least a
   byte long. *)
let sized what n r =
  if n > Codec.remaining r then
    Codec.malformed "%d %s in %d byte(s)" n what (Codec.remaining r);
  VH.create n

(* [VH.replace] grows a table only by a new key, so a length short of
   [n] after [n] entries means a key came twice. *)
let check_distinct what name h n =
  if VH.length h <> n then
    Codec.malformed "a key of %s occurs twice among its %s" name what

let restore_rows db name ~rows r =
  let t = table db name in
  let types = column_types t.schema in
  let h = sized "rows" rows r in
  for _ = 1 to rows do
    let tup = Codec.row r types in
    VH.replace h tup.(t.key) tup
  done;
  check_distinct "rows" name h rows;
  t.by_key <- h

let restore_incoming db name ~keys r =
  let t = table db name in
  let ty = key_type t.schema in
  let h = sized "reference counts" keys r in
  for _ = 1 to keys do
    let k = Codec.cell r ty in
    match Codec.int r with
    | n when n > 0 -> VH.replace h k n
    | n -> Codec.malformed "reference count %d" n
  done;
  check_distinct "reference counts" name h keys;
  t.incoming <- h
