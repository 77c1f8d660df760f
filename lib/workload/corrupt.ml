module Database = Relational.Database
module Schema = Relational.Schema
module Value = Relational.Value
module Datatype = Relational.Datatype
module Delta = Relational.Delta
module Integrity = Relational.Integrity

type forgery = { delta : Delta.t; reason : Delta.reason }

let pick_table rng db = Prng.pick rng (Database.table_names db)

let wrong_typed = function
  (* any value of a different type: validators must flag the column *)
  | Datatype.TString -> Value.Int 0
  | TInt | TFloat | TBool -> Value.String "corrupt"

(* A conforming tuple whose column values sit outside every pool delta_gen
   draws from, so the forgery cannot collide with legitimately generated
   data. *)
let alien_value rng = function
  | Datatype.TInt -> Value.Int (-(Prng.int rng 1_000_000) - 1)
  | Datatype.TFloat -> Value.Float (float_of_int (-(Prng.int rng 1_000_000) - 1))
  | Datatype.TString -> Value.String (Printf.sprintf "corrupt-%d" (Prng.int rng 1_000_000))
  | Datatype.TBool -> Value.Bool (Prng.int rng 2 = 0)

let unknown_table rng =
  {
    delta =
      Delta.insert
        (Printf.sprintf "no_such_table_%d" (Prng.int rng 1000))
        [| Value.Int 0 |];
    reason = Delta.Unknown_table;
  }

let schema_mismatch rng db =
  let table = pick_table rng db in
  let schema = Database.schema_of db table in
  let delta =
    if Prng.chance rng 0.5 then
      (* wrong arity *)
      Delta.insert table
        (Array.make (Schema.arity schema + 1) (Value.Int 0))
    else begin
      (* right arity, one wrongly-typed column *)
      let bad_col = Prng.int rng (Schema.arity schema) in
      Delta.insert table
        (Array.mapi
           (fun i (c : Schema.column) ->
             if i = bad_col then wrong_typed c.Schema.col_type
             else alien_value rng c.Schema.col_type)
           schema.Schema.columns)
    end
  in
  { delta; reason = Delta.Schema_mismatch }

let some_row rng db table =
  match Database.rows_by_key db table with
  | [] -> None
  | rows -> Some (Prng.pick rng rows)

let duplicate_key rng db =
  let candidates =
    List.filter (fun t -> Database.row_count db t > 0) (Database.table_names db)
  in
  match candidates with
  | [] -> None
  | _ ->
    let table = Prng.pick rng candidates in
    Option.map
      (fun row -> { delta = Delta.insert table row; reason = Delta.Duplicate_key })
      (some_row rng db table)

let missing_row rng db =
  (* bool keys cannot be made provably fresh *)
  let keyed_fresh t =
    let schema = Database.schema_of db t in
    match (schema.Schema.columns.(Schema.key_index schema)).Schema.col_type with
    | Datatype.TBool -> false
    | TInt | TFloat | TString -> true
  in
  match List.filter keyed_fresh (Database.table_names db) with
  | [] -> None
  | candidates ->
    let table = Prng.pick rng candidates in
    let schema = Database.schema_of db table in
    let tup =
      Array.map
        (fun (c : Schema.column) -> alien_value rng c.Schema.col_type)
        schema.Schema.columns
    in
    Some { delta = Delta.delete table tup; reason = Delta.Missing_row }

let dangling_reference rng db =
  match Database.references db with
  | [] -> None
  | refs ->
    let r = Prng.pick rng refs in
    let table = r.Integrity.src_table in
    let schema = Database.schema_of db table in
    (* every column is alien: the key cannot collide, and the foreign-key
       value never appears as a key of a legitimate referent *)
    let tup =
      Array.map
        (fun (c : Schema.column) -> alien_value rng c.Schema.col_type)
        schema.Schema.columns
    in
    Some { delta = Delta.insert table tup; reason = Delta.Dangling_reference }

let forge rng db =
  let fallback () =
    if Prng.chance rng 0.5 then unknown_table rng else schema_mismatch rng db
  in
  match Prng.int rng 5 with
  | 0 -> unknown_table rng
  | 1 -> schema_mismatch rng db
  | 2 -> Option.value (duplicate_key rng db) ~default:(fallback ())
  | 3 -> Option.value (missing_row rng db) ~default:(fallback ())
  | _ -> Option.value (dangling_reference rng db) ~default:(fallback ())

let sprinkle rng db ~rate deltas =
  let injected = ref 0 in
  let out =
    List.concat_map
      (fun d ->
        if Prng.chance rng rate then begin
          incr injected;
          let f =
            if Prng.chance rng 0.5 then unknown_table rng
            else schema_mismatch rng db
          in
          [ f.delta; d ]
        end
        else [ d ])
      deltas
  in
  (out, !injected)
