module Database = Relational.Database
module Schema = Relational.Schema
module Value = Relational.Value
module Datatype = Relational.Datatype
module Delta = Relational.Delta
module Integrity = Relational.Integrity

type op_mix = { insert : int; delete : int; update : int }

let default_mix = { insert = 5; delete = 3; update = 4 }

let string_pool = [| "s0"; "s1"; "s2"; "s3"; "s4" |]

let random_value rng = function
  | Datatype.TInt -> Value.Int (Prng.int rng 100 + 1)
  | Datatype.TFloat -> Value.Float (float_of_int (Prng.int rng 100 + 1))
  | Datatype.TString -> Value.String string_pool.(Prng.int rng (Array.length string_pool))
  | Datatype.TBool -> Value.Bool (Prng.int rng 2 = 0)

(* Rows and keys are picked from in key order, never in the store's: a
   seeded stream must not move when the store's layout does. *)
let rows_of = Database.rows_by_key

let keys_of db table =
  let key = Schema.key_index (Database.schema_of db table) in
  List.map (fun tup -> tup.(key)) (rows_of db table)

let fresh_key rng db table =
  let rec loop () =
    let k = Value.Int (Prng.int rng 1_000_000 + 1_000) in
    if Option.is_some (Database.find_by_key db table k) then loop () else k
  in
  loop ()

(* Foreign-key targets per column of [table]. *)
let fk_targets db table =
  List.filter_map
    (fun (r : Integrity.reference) ->
      if String.equal r.Integrity.src_table table then
        Some (r.Integrity.src_col, r.Integrity.dst_table)
      else None)
    (Database.references db)

let synthesize_insert rng db table =
  let schema = Database.schema_of db table in
  let fks = fk_targets db table in
  let make_col (c : Schema.column) =
    if String.equal c.Schema.col_name schema.Schema.key then
      Some (fresh_key rng db table)
    else
      match List.assoc_opt c.Schema.col_name fks with
      | Some target -> (
        match keys_of db target with
        | [] -> None (* no referent available: cannot insert *)
        | ks -> Some (Prng.pick rng ks))
      | None -> Some (random_value rng c.Schema.col_type)
  in
  let cols = Array.map make_col schema.Schema.columns in
  if Array.exists Option.is_none cols then None
  else Some (Array.map Option.get cols)

let deletable_rows db table =
  let schema = Database.schema_of db table in
  List.filter
    (fun tup ->
      Database.reference_count db table tup.(Schema.key_index schema) = 0)
    (rows_of db table)

let synthesize_update rng db table =
  let schema = Database.schema_of db table in
  let updatable = Database.updatable_columns db table in
  if updatable = [] then None
  else
    match rows_of db table with
    | [] -> None
    | rows ->
      let before = Prng.pick rng rows in
      let col = Prng.pick rng updatable in
      let i = Schema.index_of schema col in
      let fks = fk_targets db table in
      let new_value =
        if String.equal col schema.Schema.key then None (* keep keys stable *)
        else
          match List.assoc_opt col fks with
          | Some target -> (
            match keys_of db target with [] -> None | ks -> Some (Prng.pick rng ks))
          | None -> Some (random_value rng schema.Schema.columns.(i).Schema.col_type)
      in
      Option.bind new_value (fun v ->
          if Value.equal before.(i) v then None
          else begin
            let after = Array.copy before in
            after.(i) <- v;
            Some (before, after)
          end)

let one_change mix rng db tables =
  let total = mix.insert + mix.delete + mix.update in
  let table = Prng.pick rng tables in
  let roll = Prng.int rng total in
  if roll < mix.insert then
    Option.map (fun tup -> Delta.insert table tup) (synthesize_insert rng db table)
  else if roll < mix.insert + mix.delete then
    match deletable_rows db table with
    | [] -> None
    | rows -> Some (Delta.delete table (Prng.pick rng rows))
  else
    Option.map
      (fun (before, after) -> Delta.update table ~before ~after)
      (synthesize_update rng db table)

let stream_for ?(mix = default_mix) rng db ~tables ~n =
  let rec loop i attempts acc =
    if i >= n || attempts > n * 20 then List.rev acc
    else
      match one_change mix rng db tables with
      | None -> loop i (attempts + 1) acc
      | Some d ->
        Database.apply db d;
        loop (i + 1) (attempts + 1) (d :: acc)
  in
  loop 0 0 []

let stream ?mix rng db ~n =
  stream_for ?mix rng db ~tables:(Database.table_names db) ~n
