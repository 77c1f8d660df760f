(* Net-effect compaction of a delta batch.

   The paper compresses the *stored* detail data by aggregating duplicates
   (Section 3, Table 2); the same idea applies to the delta stream before it
   ever reaches a maintenance engine.  Within one batch, successive changes
   to the same (table, primary key) slot collapse to their net effect:

     insert ; delete            -> nothing
     insert ; update            -> insert of the final image
     update ; update            -> one update (dropped if it round-trips)
     update ; delete            -> delete of the original image
     delete ; insert            -> update (dropped if the row is unchanged)

   Updates that move a row to a new primary key are first decomposed into a
   delete of the old slot and an insert of the new one, so each slot's
   history is a straight line.  Emission preserves first-touch order of both
   tables and keys, which keeps replay deterministic. *)

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type stats = { input : int; output : int }

type table = { name : string; input : int; deltas : Delta.t list }

type t = { tables : table list; stats : stats }

(* A netted-out slot still constrains later changes, and in two different
   ways: after insert;delete the row is [Absent] (only a fresh insert is
   legal), while after an update round-trip or delete;identical-reinsert the
   row is live and [Unchanged] (updates and deletes of it stay legal, a
   second insert does not). Both emit nothing. *)
type net = Absent | Unchanged of Tuple.t | Net of Delta.change

type slot = { mutable net : net }

type table_acc = {
  ki : int;  (* key position in the tuple layout *)
  mutable ds : Delta.t list;  (* reversed batch order *)
  mutable n : int;
  mutable mixed : bool;  (* saw a delete or an update *)
}

let illegal table what =
  invalid_arg (Printf.sprintf "Delta_batch.net: %s for table %s" what table)

let compose table prev (change : Delta.change) =
  match (prev, change) with
  | None, c -> Net c
  | Some { net = Absent }, Insert t -> Net (Insert t)
  | Some { net = Absent }, Delete _ -> illegal table "delete of a netted-out row"
  | Some { net = Absent }, Update _ -> illegal table "update of a netted-out row"
  | Some { net = Unchanged _ }, Insert _ -> illegal table "insert over a live row"
  | Some { net = Unchanged img }, Delete _ -> Net (Delete img)
  | Some { net = Unchanged img }, Update { after; _ } ->
    if Tuple.equal img after then Unchanged img
    else Net (Update { before = img; after })
  | Some { net = Net (Insert _) }, Insert _ -> illegal table "duplicate insert"
  | Some { net = Net (Insert _) }, Delete _ -> Absent
  | Some { net = Net (Insert _) }, Update { after; _ } -> Net (Insert after)
  | Some { net = Net (Delete before) }, Insert after ->
    if Tuple.equal before after then Unchanged before
    else Net (Update { before; after })
  | Some { net = Net (Delete _) }, Delete _ -> illegal table "double delete"
  | Some { net = Net (Delete _) }, Update _ -> illegal table "update of a deleted row"
  | Some { net = Net (Update _) }, Insert _ -> illegal table "insert over a live row"
  | Some { net = Net (Update { before; _ }) }, Delete _ -> Net (Delete before)
  | Some { net = Net (Update { before; _ }) }, Update { after; _ } ->
    if Tuple.equal before after then Unchanged before
    else Net (Update { before; after })

(* Collapse one table's changes through per-key slots. Only reached when the
   table saw at least one delete or update; pure-insert tables skip it. *)
let net_table table acc changes =
  let slots = VH.create (max 64 acc.n) in
  let slot_order = ref [] in
  let feed (change : Delta.change) =
    let key =
      match change with
      | Insert t | Delete t -> t.(acc.ki)
      | Update { before; _ } -> before.(acc.ki)
    in
    match VH.find_opt slots key with
    | Some slot -> slot.net <- compose table (Some slot) change
    | None ->
      let slot = { net = compose table None change } in
      VH.add slots key slot;
      slot_order := slot :: !slot_order
  in
  List.iter
    (fun (change : Delta.change) ->
      match change with
      | Update { before; after }
        when not (Value.equal before.(acc.ki) after.(acc.ki)) ->
        (* key-changing update: the old slot dies, the new one is born *)
        feed (Delete before);
        feed (Insert after)
      | c -> feed c)
    changes;
  (* slot_order is reversed first-touch order, so a left fold that prepends
     restores it *)
  List.fold_left
    (fun ds slot ->
      match slot.net with
      | Absent | Unchanged _ -> ds
      | Net change -> { Delta.table; change } :: ds)
    [] !slot_order

let net ~key_index (deltas : Delta.t list) =
  (* [None]: a table [key_index] does not know, dropped *)
  let tables : (string, table_acc option) Hashtbl.t = Hashtbl.create 7 in
  let table_order = ref [] in
  List.iter
    (fun (d : Delta.t) ->
      let acc =
        match Hashtbl.find tables d.table with
        | acc -> acc
        | exception Not_found ->
          let acc =
            Option.map
              (fun ki -> { ki; ds = []; n = 0; mixed = false })
              (key_index d.table)
          in
          Hashtbl.add tables d.table acc;
          Option.iter
            (fun acc -> table_order := (d.table, acc) :: !table_order)
            acc;
          acc
      in
      match acc with
      | None -> ()
      | Some acc -> (
        acc.ds <- d :: acc.ds;
        acc.n <- acc.n + 1;
        match d.change with
        | Insert _ -> ()
        | Delete _ | Update _ -> acc.mixed <- true))
    deltas;
  let input = ref 0 and output = ref 0 in
  let tables =
    List.rev_map
      (fun (name, acc) ->
        let ds =
          if not acc.mixed then
            (* inserts can't interact with each other: each targets a fresh
               key (validation rejects duplicates upstream, exactly as the
               serial path assumes), so netting is the identity — skip the
               per-key hashing entirely *)
            List.rev acc.ds
          else
            net_table name acc (List.rev_map (fun d -> d.Delta.change) acc.ds)
        in
        input := !input + acc.n;
        output := !output + List.length ds;
        { name; input = acc.n; deltas = ds })
      !table_order
  in
  { tables; stats = { input = !input; output = !output } }

let deltas t = List.concat_map (fun tb -> tb.deltas) t.tables
