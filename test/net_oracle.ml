(* The netting oracle: net-effect compaction as it was first written, one
   fresh hashtable of slot records per table and batch, and lists of
   changes. [Relational.Delta_batch] must agree with it on every batch —
   the same net changes in the same order, the same counts, and the same
   [Invalid_argument] message for a batch no starting state can replay. *)

module Delta = Relational.Delta
module Tuple = Relational.Tuple
module Value = Relational.Value

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type net = Absent | Unchanged of Tuple.t | Net of Delta.change
type slot = { mutable net : net }

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

let net_table table ki changes =
  let slots = VH.create 64 in
  let order = ref [] in
  let feed (change : Delta.change) =
    let key =
      match change with
      | Insert t | Delete t -> t.(ki)
      | Update { before; _ } -> before.(ki)
    in
    match VH.find_opt slots key with
    | Some slot -> slot.net <- compose table (Some slot) change
    | None ->
      let slot = { net = compose table None change } in
      VH.add slots key slot;
      order := slot :: !order
  in
  List.iter
    (fun (change : Delta.change) ->
      match change with
      | Update { before; after } when not (Value.equal before.(ki) after.(ki))
        ->
        feed (Delete before);
        feed (Insert after)
      | c -> feed c)
    changes;
  List.fold_left
    (fun ds slot ->
      match slot.net with
      | Absent | Unchanged _ -> ds
      | Net change -> { Delta.table; change } :: ds)
    [] !order

(* [(table, input, net deltas)] in first-touch order of the tables
   [key_index] knows; a table that saw only inserts passes through. *)
let net ~key_index (deltas : Delta.t list) =
  let tables = Hashtbl.create 7 in
  let order = ref [] in
  List.iter
    (fun (d : Delta.t) ->
      if not (Hashtbl.mem tables d.table) then begin
        let k = key_index d.table in
        Hashtbl.add tables d.table k;
        if k <> None then order := d.table :: !order
      end)
    deltas;
  (* tables are netted last-touched first, so of two illegal tables the
     later one's message is raised *)
  List.rev_map
    (fun name ->
      let ki = Option.get (Hashtbl.find tables name) in
      let own = List.filter (fun (d : Delta.t) -> d.table = name) deltas in
      let mixed =
        List.exists
          (fun (d : Delta.t) ->
            match d.change with Insert _ -> false | Delete _ | Update _ -> true)
          own
      in
      ( name,
        List.length own,
        if mixed then net_table name ki (List.map (fun d -> d.Delta.change) own)
        else own ))
    !order
