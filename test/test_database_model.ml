(* [Database] against a model of the store it replaced: per table, a
   hashtable from key to tuple and one from key to reference count, with
   the same checks in the same order. Random streams over random schemas
   (valid deltas, forgeries, raw deletes and updates that may be refused,
   transactions that roll back) go through both; every admission must
   agree, reason and detail, and so must the rows, the reference counts,
   copies and a save and load of each. *)

open Helpers
module Integrity = Relational.Integrity
module Validator = Relational.Validator
module Codec = Relational.Codec
module Prng = Workload.Prng

let count = 100

(* --- the model -------------------------------------------------------- *)

module Model = struct
  module VH = Hashtbl.Make (Value)

  type table = {
    schema : Schema.t;
    key : int;
    updatable : string list;
    rows : Tuple.t VH.t;
    incoming : int VH.t;
    outgoing : (Integrity.reference * int * string) list;
        (** newest first, as declared *)
  }

  type t = (string, table) Hashtbl.t

  let of_database db : t =
    let m = Hashtbl.create 8 in
    List.iter
      (fun name ->
        let schema = Database.schema_of db name in
        let key = Schema.key_index schema in
        let rows = VH.create 64 and incoming = VH.create 64 in
        Database.fold db name
          (fun tup () ->
            VH.replace rows tup.(key) tup;
            match Database.reference_count db name tup.(key) with
            | 0 -> ()
            | n -> VH.replace incoming tup.(key) n)
          ();
        let outgoing =
          List.filter_map
            (fun (r : Integrity.reference) ->
              if String.equal r.src_table name then
                Some (r, Schema.index_of schema r.src_col, r.dst_table)
              else None)
            (Database.references db)
        in
        Hashtbl.replace m name
          { schema; key; updatable = Database.updatable_columns db name;
            rows; incoming; outgoing })
      (Database.table_names db);
    m

  let copy (m : t) : t =
    let c = Hashtbl.create 8 in
    Hashtbl.iter
      (fun name t ->
        Hashtbl.replace c name
          { t with rows = VH.copy t.rows; incoming = VH.copy t.incoming })
      m;
    c

  let reject delta reason fmt =
    Format.kasprintf (fun detail -> Error { Delta.delta; reason; detail }) fmt

  let stored t tup =
    match VH.find_opt t.rows tup.(t.key) with
    | Some s -> Tuple.equal s tup
    | None -> false

  let refs t k = Option.value (VH.find_opt t.incoming k) ~default:0

  let check_refs (m : t) ?before d t tup =
    match
      List.find_opt
        (fun (_, col, dst) ->
          let v = tup.(col) in
          let unchanged =
            match before with Some b -> Value.equal b.(col) v | None -> false
          in
          (not unchanged) && not (VH.mem (Hashtbl.find m dst).rows v))
        t.outgoing
    with
    | None -> Ok ()
    | Some (r, col, _) ->
      reject d Delta.Dangling_reference "%a = %a has no referent" Integrity.pp
        r Value.pp tup.(col)

  let frozen t before after =
    let name i = t.schema.Schema.columns.(i).Schema.col_name in
    let rec go i =
      if i >= Array.length before then None
      else if
        (not (Value.equal before.(i) after.(i)))
        && not (List.mem (name i) t.updatable)
      then Some (name i)
      else go (i + 1)
    in
    go 0

  let check (m : t) (d : Delta.t) =
    match Hashtbl.find_opt m d.table with
    | None -> reject d Delta.Unknown_table "no base table named %s" d.table
    | Some t -> (
      match d.change with
      | Delta.Insert tup ->
        if not (Schema.conforms t.schema tup) then
          reject d Delta.Schema_mismatch "tuple %a does not conform to %a"
            Tuple.pp tup Schema.pp t.schema
        else if VH.mem t.rows tup.(t.key) then
          reject d Delta.Duplicate_key "key %a already present in %s" Value.pp
            tup.(t.key) t.schema.Schema.name
        else check_refs m d t tup
      | Delta.Delete tup ->
        if not (Schema.conforms t.schema tup) then
          reject d Delta.Schema_mismatch "tuple %a does not conform to %a"
            Tuple.pp tup Schema.pp t.schema
        else if not (stored t tup) then
          reject d Delta.Missing_row "tuple %a is not stored in %s" Tuple.pp tup
            t.schema.Schema.name
        else
          let n = refs t tup.(t.key) in
          if n > 0 then
            reject d Delta.Referenced_key "key %a is referenced by %d row(s)"
              Value.pp tup.(t.key) n
          else Ok ()
      | Delta.Update { before; after } -> (
        let conforms = Schema.conforms t.schema in
        if not (conforms before && conforms after) then
          reject d Delta.Schema_mismatch
            "before/after image does not conform to %a" Schema.pp t.schema
        else if not (stored t before) then
          reject d Delta.Missing_row "before-image %a is not stored in %s"
            Tuple.pp before t.schema.Schema.name
        else
          match frozen t before after with
          | Some col ->
            reject d Delta.Not_updatable "column %s is not declared updatable"
              col
          | None ->
            let kb = before.(t.key) and ka = after.(t.key) in
            if Value.equal kb ka then check_refs m ~before d t after
            else
              let n = refs t kb in
              if n > 0 then
                reject d Delta.Referenced_key
                  "cannot change key %a: referenced by %d row(s)" Value.pp kb n
              else if VH.mem t.rows ka then
                reject d Delta.Duplicate_key "new key %a already present"
                  Value.pp ka
              else check_refs m ~before d t after))

  let bump (m : t) dst v delta =
    let t = Hashtbl.find m dst in
    match refs t v + delta with
    | 0 -> VH.remove t.incoming v
    | n -> VH.replace t.incoming v n

  let write (m : t) (d : Delta.t) =
    let t = Hashtbl.find m d.table in
    match d.change with
    | Delta.Insert tup ->
      VH.replace t.rows tup.(t.key) tup;
      List.iter (fun (_, col, dst) -> bump m dst tup.(col) 1) t.outgoing
    | Delta.Delete tup ->
      VH.remove t.rows tup.(t.key);
      List.iter (fun (_, col, dst) -> bump m dst tup.(col) (-1)) t.outgoing
    | Delta.Update { before; after } ->
      VH.remove t.rows before.(t.key);
      VH.replace t.rows after.(t.key) after;
      List.iter
        (fun (_, col, dst) ->
          if not (Value.equal before.(col) after.(col)) then begin
            bump m dst before.(col) (-1);
            bump m dst after.(col) 1
          end)
        t.outgoing

  let admit m d =
    match check m d with
    | Ok () ->
      write m d;
      Ok ()
    | Error _ as e -> e

  (* per table, its rows sorted with their reference counts *)
  let image (m : t) =
    List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) m [])
    |> List.map (fun name ->
           let t = Hashtbl.find m name in
           ( name,
             List.sort
               (fun (a, _) (b, _) -> Tuple.compare a b)
               (VH.fold (fun k tup acc -> (tup, refs t k) :: acc) t.rows []) ))
end

(* --- streams ---------------------------------------------------------- *)

(* A stored row of [table], if any. *)
let stored_row rng db table =
  match Database.rows_by_key db table with
  | [] -> None
  | rows -> Some (Prng.pick rng rows)

let random_cell rng = function
  | Datatype.TInt -> i (Prng.int rng 6)
  | Datatype.TFloat -> f (Prng.pick rng [ 0.; -0.; 1.5; Float.nan ])
  | Datatype.TString -> s (Prng.pick rng [ "s0"; "s1"; "x" ])
  | Datatype.TBool -> b (Prng.int rng 2 = 0)

(* Changes that may or may not pass: a stored row deleted (referenced or
   not), one of its cells changed (updatable or not, the key included),
   or a stale before-image. *)
let raw_change rng db =
  let table = Prng.pick rng (Database.table_names db) in
  let schema = Database.schema_of db table in
  Option.map
    (fun tup ->
      let col = Prng.int rng (Array.length tup) in
      let changed = Array.copy tup in
      changed.(col) <-
        random_cell rng schema.Schema.columns.(col).Schema.col_type;
      match Prng.int rng 3 with
      | 0 -> Delta.delete table tup
      | 1 -> Delta.update table ~before:tup ~after:changed
      | _ -> Delta.update table ~before:changed ~after:tup)
    (stored_row rng db table)

(* One batch against [db]: valid changes drawn on a copy of it, with
   forgeries and raw changes in between. *)
let batch rng db tables =
  let valid =
    Workload.Delta_gen.stream_for rng (Database.copy db) ~tables
      ~n:(1 + Prng.int rng 6)
  in
  List.concat_map
    (fun d ->
      match Prng.int rng 4 with
      | 0 -> [ (Workload.Corrupt.forge rng db).Workload.Corrupt.delta; d ]
      | 1 -> Option.to_list (raw_change rng db) @ [ d ]
      | _ -> [ d ])
    valid

let verdict = function
  | Ok () -> "ok"
  | Error (r : Delta.rejection) ->
    Delta.reason_label r.reason ^ ": " ^ r.detail

(* The v6 sections of [db], written and read back. *)
let save_load db =
  let contents w = Bytes.sub (Codec.bytes w) 0 (Codec.length w) in
  let reader b = Codec.reader b 0 (Bytes.length b) in
  let w = Codec.writer 4096 in
  Database.add_catalog db w;
  let names = Database.table_names db in
  let sections =
    List.map
      (fun name ->
        let rows = Codec.writer 4096 and counts = Codec.writer 256 in
        Database.add_rows db name rows;
        Database.add_incoming db name counts;
        ( name,
          (Database.row_count db name, contents rows),
          (Database.incoming_count db name, contents counts) ))
      names
  in
  let db' = Database.restore_catalog (reader (contents w)) in
  List.iter
    (fun (name, (rows, rb), (keys, cb)) ->
      Database.restore_rows db' name ~rows (reader rb);
      Database.restore_incoming db' name ~keys (reader cb))
    sections;
  db'

let image_t = store_image_t

(* Run [batches] batches of [rng]'s stream through both stores, committing
   or rolling back each; [false] with a message at the first divergence. *)
let agree rng db tables ~batches =
  let model = ref (Model.of_database db) in
  let v = Validator.of_shadow db in
  let fail fmt = Format.kasprintf failwith fmt in
  let same what =
    if store_image db <> Model.image !model then
      fail "%s: the stores differ" what
  in
  same "loaded";
  for k = 1 to batches do
    let before = Model.copy !model in
    let copied = Database.copy db and copied_image = store_image db in
    Validator.begin_txn v;
    List.iteri
      (fun j d ->
        let got =
          match Validator.admit v d with Ok _ -> Ok () | Error _ as e -> e
        in
        let want = Model.admit !model d in
        if verdict got <> verdict want then
          fail "batch %d, change %d (%a): store %S, model %S" k j Delta.pp d
            (verdict got) (verdict want))
      (batch rng db tables);
    if Prng.int rng 3 = 0 then begin
      Validator.rollback v;
      model := before
    end
    else Validator.commit v;
    same (Printf.sprintf "batch %d" k);
    if store_image copied <> copied_image then
      fail "batch %d: a copy moved with its source" k
  done;
  (* a copy takes changes its source does not see *)
  let copy = Database.copy db in
  let source_image = store_image db in
  List.iter
    (fun d -> ignore (Database.admit copy d : (unit, Delta.rejection) result))
    (batch rng copy tables);
  if store_image db <> source_image then fail "a source moved with its copy";
  (* save and load: the store through its sections, the model marshaled *)
  let loaded = save_load db in
  let model' : Model.t =
    Marshal.from_string (Marshal.to_string !model []) 0
  in
  Alcotest.check image_t "the loaded store" (Model.image model')
    (store_image loaded);
  true

let prop_random_schemas =
  QCheck2.Test.make ~count
    ~name:
      "Database == the hashtable model (random schemas, rejections, \
       rollbacks)"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = Workload.Schema_gen.random rng in
      agree rng inst.Workload.Schema_gen.db inst.Workload.Schema_gen.all_tables
        ~batches:8)

(* FLOAT keys and cells, whose equality is [Float.equal]: [0.] and [-0.]
   are one key, and so is every NaN. *)
let float_store () =
  let db = Database.create () in
  Database.add_table db
    (Schema.make ~name:"point" ~key:"x"
       [ { Schema.col_name = "x"; col_type = Datatype.TFloat };
         { Schema.col_name = "w"; col_type = Datatype.TFloat } ])
    ~updatable:[ "w" ];
  Database.add_table db
    (Schema.make ~name:"mark" ~key:"id"
       [ { Schema.col_name = "id"; col_type = Datatype.TInt };
         { Schema.col_name = "at"; col_type = Datatype.TFloat } ])
    ~updatable:[ "at" ];
  Database.add_reference db
    { Integrity.src_table = "mark"; src_col = "at"; dst_table = "point" };
  db

let prop_floats =
  QCheck2.Test.make ~count
    ~name:"Database == the hashtable model (FLOAT keys: -0., NaN)"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let db = float_store () in
      let model = Model.of_database db in
      let floats = [ 0.; -0.; 1.5; Float.nan; -.Float.nan ] in
      let fl () = f (Prng.pick rng floats) in
      for j = 1 to 60 do
        let d =
          match Prng.int rng 6 with
          | 0 -> Delta.insert "point" [| fl (); fl () |]
          | 1 -> Delta.insert "mark" [| i (Prng.int rng 4); fl () |]
          | 2 -> Delta.delete "point" [| fl (); fl () |]
          | 3 -> Delta.delete "mark" [| i (Prng.int rng 4); fl () |]
          | 4 ->
            Delta.update "point" ~before:[| fl (); fl () |]
              ~after:[| fl (); fl () |]
          | _ ->
            Delta.update "mark" ~before:[| i (Prng.int rng 4); fl () |]
              ~after:[| i (Prng.int rng 4); fl () |]
        in
        let got = Database.admit db d and want = Model.admit model d in
        if verdict got <> verdict want then
          Alcotest.failf "change %d (%a): store %S, model %S" j Delta.pp d
            (verdict got) (verdict want)
      done;
      (* NaN and -0. compare as the model compares them, so the images are
         compared as printed *)
      let printed img =
        List.map
          (fun (name, rows) ->
            (name, List.map (fun (tup, n) -> (Tuple.to_string tup, n)) rows))
          img
      in
      printed (store_image db) = printed (Model.image model)
      && printed (store_image (save_load db)) = printed (Model.image model))

let () =
  Alcotest.run "database_model"
    [
      ( "model",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_schemas; prop_floats ] );
    ]
