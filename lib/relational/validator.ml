(* Delta validation against a shadow of the source (see validator.mli). *)

type t = {
  mutable shadow : Database.t;
  (* open undo journal: deltas admitted since [begin_txn], newest first.
     [None] when no transaction is active. *)
  mutable txn : Delta.t list option;
}

let of_database db = { shadow = Database.copy db; txn = None }
let copy v = { shadow = Database.copy v.shadow; txn = None }
let restore v ~from = v.shadow <- from.shadow
let believed_source v = Database.copy v.shadow
let shadow v = v.shadow

let begin_txn v =
  if v.txn <> None then invalid_arg "Validator.begin_txn: transaction open";
  v.txn <- Some []

let commit v =
  if v.txn = None then invalid_arg "Validator.commit: no open transaction";
  v.txn <- None

let rollback v =
  match v.txn with
  | None -> invalid_arg "Validator.rollback: no open transaction"
  | Some journal ->
    (* the journal is newest-first, so applying each inverse in list order
       replays the history backwards; every inverse is legal against the
       shadow because the original made it so *)
    List.iter (fun d -> Database.apply v.shadow (Delta.invert d)) journal;
    v.txn <- None

let reject delta reason fmt =
  Format.kasprintf
    (fun detail -> Error { Delta.delta; reason; detail })
    fmt

let outgoing_refs db table =
  List.filter
    (fun (r : Integrity.reference) -> String.equal r.Integrity.src_table table)
    (Database.references db)

(* The unique stored tuple matching [tup]'s key, when it is [tup] itself. *)
let stored_image db table schema tup =
  match Database.find_by_key db table tup.(Schema.key_index schema) with
  | Some stored when Tuple.equal stored tup -> Some stored
  | Some _ | None -> None

let check_refs d db table schema tup =
  List.fold_left
    (fun acc (r : Integrity.reference) ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        let v = tup.(Schema.index_of schema r.Integrity.src_col) in
        if Database.find_by_key db r.Integrity.dst_table v = None then
          reject d Delta.Dangling_reference "%a = %a has no referent"
            Integrity.pp r Value.pp v
        else Ok ())
    (Ok ()) (outgoing_refs db table)

let check_insert d db table schema tup =
  if not (Schema.conforms schema tup) then
    reject d Delta.Schema_mismatch "tuple %a does not conform to %a" Tuple.pp
      tup Schema.pp schema
  else
    let key = tup.(Schema.key_index schema) in
    if Database.find_by_key db table key <> None then
      reject d Delta.Duplicate_key "key %a already present in %s" Value.pp key
        table
    else check_refs d db table schema tup

let check_delete d db table schema tup =
  if not (Schema.conforms schema tup) then
    reject d Delta.Schema_mismatch "tuple %a does not conform to %a" Tuple.pp
      tup Schema.pp schema
  else
    match stored_image db table schema tup with
    | None ->
      reject d Delta.Missing_row "tuple %a is not stored in %s" Tuple.pp tup
        table
    | Some _ ->
      let key = tup.(Schema.key_index schema) in
      let n = Database.reference_count db table key in
      if n > 0 then
        reject d Delta.Referenced_key "key %a is referenced by %d row(s)"
          Value.pp key n
      else Ok ()

let check_update d db table schema ~before ~after =
  if not (Schema.conforms schema before && Schema.conforms schema after) then
    reject d Delta.Schema_mismatch "before/after image does not conform to %a"
      Schema.pp schema
  else
    match stored_image db table schema before with
    | None ->
      reject d Delta.Missing_row "before-image %a is not stored in %s"
        Tuple.pp before table
    | Some _ -> (
      let updatable = Database.updatable_columns db table in
      let frozen =
        List.filteri
          (fun _ i ->
            let col = schema.Schema.columns.(i).Schema.col_name in
            not (List.mem col updatable))
          (Delta.changed_indices (Delta.Update { before; after }))
      in
      match frozen with
      | i :: _ ->
        reject d Delta.Not_updatable "column %s is not declared updatable"
          schema.Schema.columns.(i).Schema.col_name
      | [] ->
        let ki = Schema.key_index schema in
        let key_check =
          if Value.equal before.(ki) after.(ki) then Ok ()
          else
            let n = Database.reference_count db table before.(ki) in
            if n > 0 then
              reject d Delta.Referenced_key
                "cannot change key %a: referenced by %d row(s)" Value.pp
                before.(ki) n
            else if Database.find_by_key db table after.(ki) <> None then
              reject d Delta.Duplicate_key "new key %a already present"
                Value.pp after.(ki)
            else Ok ()
        in
        (match key_check with
        | Error _ as e -> e
        | Ok () -> check_refs d db table schema after))

let check v (d : Delta.t) =
  let db = v.shadow in
  if not (Database.mem_table db d.Delta.table) then
    reject d Delta.Unknown_table "no base table named %s" d.Delta.table
  else
    let schema = Database.schema_of db d.Delta.table in
    match
      match d.Delta.change with
      | Delta.Insert tup -> check_insert d db d.Delta.table schema tup
      | Delta.Delete tup -> check_delete d db d.Delta.table schema tup
      | Delta.Update { before; after } ->
        check_update d db d.Delta.table schema ~before ~after
    with
    | Ok () -> Ok d
    | Error _ as e -> e

let admit v d =
  match check v d with
  | Error _ as e -> e
  | Ok d -> (
    (* the checks above mirror the store's constraints exactly; a Violation
       here means they drifted apart — surface it rather than crash *)
    match Database.apply v.shadow d with
    | () ->
      (match v.txn with
      | Some journal -> v.txn <- Some (d :: journal)
      | None -> ());
      Ok d
    | exception Database.Violation msg ->
      reject d Delta.Engine_failure "shadow store refused the change: %s" msg)
