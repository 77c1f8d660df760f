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

type stats = { input : int; output : int }

(* A slot's net change, in [state]. A netted-out slot still constrains
   later changes, and in two different ways: after insert;delete the row
   is [absent] (only a fresh insert is legal), while after an update
   round-trip or delete;identical-reinsert the row is live and [unchanged]
   (updates and deletes of it stay legal, a second insert does not). Both
   emit nothing. *)
let absent = 0
let unchanged = 1
let inserted = 2
let deleted = 3
let updated = 4

(* One table's slots. Slot [s] holds the net change [state.(s)] over
   [img.(s)]: the live image, the inserted or deleted row (the last one
   when [absent]), or an update's before-image, whose after-image is
   [aft.(s)]. Every image of a slot carries its key, so [index] maps a key
   to its slot through [img]. Slots are numbered in first-touch order. The
   fields from [batch] on describe that batch only. *)
type slots = {
  sname : string;
  mutable state : int array;
  mutable img : Tuple.t array;
  mutable aft : Tuple.t array;
  mutable index : Rowmap.t;
  mutable batch : int;
  mutable ki : int;  (* key position; -1: a table the batch drops *)
  mutable seen : int;  (* the batch's deltas of this table *)
  mutable mixed : bool;  (* saw a delete or an update *)
  mutable used : int;
}

type keys = { by_name : (string, slots) Hashtbl.t; mutable batches : int }

type table = {
  name : string;
  input : int;
  output : int;
  slots : slots;
  from : int;  (* [slots.batch] when netted *)
  source : Delta.t list;
}

type t = { tables : table list; stats : stats }

let no_tuple : Tuple.t = [||]

let new_slots name =
  let sl =
    {
      sname = name;
      state = [||];
      img = [||];
      aft = [||];
      index = Rowmap.create ~hash:(fun _ -> 0) ();
      batch = 0;
      ki = -1;
      seen = 0;
      mixed = false;
      used = 0;
    }
  in
  sl.index <- Rowmap.create ~hash:(fun s -> Value.hash sl.img.(s).(sl.ki)) ();
  sl

let keys () = { by_name = Hashtbl.create 8; batches = 0 }

let slots_of k name =
  match Hashtbl.find k.by_name name with
  | sl -> sl
  | exception Not_found ->
    let sl = new_slots name in
    Hashtbl.add k.by_name name sl;
    sl

let grow sl =
  let extend a fill = Array.append a (Array.make (max 16 (Array.length a)) fill) in
  sl.state <- extend sl.state absent;
  sl.img <- extend sl.img no_tuple;
  sl.aft <- extend sl.aft no_tuple

let illegal sl what =
  invalid_arg (Printf.sprintf "Delta_batch.net: %s for table %s" what sl.sname)

let set sl s state img aft =
  sl.state.(s) <- state;
  sl.img.(s) <- img;
  sl.aft.(s) <- aft

(* The change [kind] ([inserted], [deleted] or [updated]) of row [a] (an
   update's before-image, with after-image [b]) composed onto slot [s]. *)
let compose sl s kind a b =
  let img = sl.img.(s) in
  match sl.state.(s) with
  | 0 (* absent *) ->
    if kind = inserted then set sl s inserted a no_tuple
    else if kind = deleted then illegal sl "delete of a netted-out row"
    else illegal sl "update of a netted-out row"
  | 1 (* unchanged *) ->
    if kind = inserted then illegal sl "insert over a live row"
    else if kind = deleted then set sl s deleted img no_tuple
    else if not (Tuple.equal img b) then set sl s updated img b
  | 2 (* inserted *) ->
    if kind = inserted then illegal sl "duplicate insert"
    else if kind = deleted then set sl s absent img no_tuple
    else set sl s inserted b no_tuple
  | 3 (* deleted *) ->
    if kind = inserted then
      if Tuple.equal img a then set sl s unchanged img no_tuple
      else set sl s updated img a
    else if kind = deleted then illegal sl "double delete"
    else illegal sl "update of a deleted row"
  | _ (* updated *) ->
    if kind = inserted then illegal sl "insert over a live row"
    else if kind = deleted then set sl s deleted img no_tuple
    else if Tuple.equal img b then set sl s unchanged img no_tuple
    else set sl s updated img b

let same_key sl key s = Value.equal sl.img.(s).(sl.ki) key

(* One change, keyed by [a]'s key cell, into its slot. *)
let feed sl kind a b =
  let key = a.(sl.ki) in
  let hash = Value.hash key in
  let s = Rowmap.probe sl.index ~hash same_key sl key in
  if s >= 0 then compose sl s kind a b
  else begin
    if sl.used = Array.length sl.state then grow sl;
    let s = sl.used in
    set sl s kind a b;
    sl.used <- s + 1;
    Rowmap.add sl.index ~hash s
  end

let rec feed_table sl = function
  | [] -> ()
  | (d : Delta.t) :: rest ->
    if String.equal d.table sl.sname then begin
      match d.change with
      | Insert t -> feed sl inserted t no_tuple
      | Delete t -> feed sl deleted t no_tuple
      | Update { before; after } ->
        if Value.equal before.(sl.ki) after.(sl.ki) then
          feed sl updated before after
        else begin
          (* key-changing update: the old slot dies, the new one is born *)
          feed sl deleted before no_tuple;
          feed sl inserted after no_tuple
        end
    end;
    feed_table sl rest

(* Count the batch's deltas per table; the tables [key_index] knows, in
   reversed first-touch order. *)
let rec census k key_index order = function
  | [] -> order
  | (d : Delta.t) :: rest ->
    let sl = slots_of k d.table in
    let order =
      if sl.batch = k.batches then order
      else begin
        sl.batch <- k.batches;
        sl.ki <- (match key_index d.table with Some ki -> ki | None -> -1);
        sl.seen <- 0;
        sl.mixed <- false;
        sl.used <- 0;
        if sl.ki >= 0 then sl :: order else order
      end
    in
    if sl.ki >= 0 then begin
      sl.seen <- sl.seen + 1;
      match d.change with
      | Insert _ -> ()
      | Delete _ | Update _ -> sl.mixed <- true
    end;
    census k key_index order rest

let live sl =
  let n = ref 0 in
  for s = 0 to sl.used - 1 do
    if sl.state.(s) >= inserted then incr n
  done;
  !n

let net k ~key_index (deltas : Delta.t list) =
  k.batches <- k.batches + 1;
  let order = census k key_index [] deltas in
  let input = ref 0 and output = ref 0 in
  let tables =
    List.rev_map
      (fun sl ->
        (* inserts can't interact with each other: each targets a fresh key
           (validation rejects duplicates upstream), so a table that saw
           only inserts nets to itself, unhashed and unstored *)
        if sl.mixed then (Rowmap.clear sl.index; feed_table sl deltas);
        let out = if sl.mixed then live sl else sl.seen in
        input := !input + sl.seen;
        output := !output + out;
        { name = sl.sname; input = sl.seen; output = out; slots = sl;
          from = sl.batch; source = deltas })
      order
  in
  { tables; stats = { input = !input; output = !output } }

let name tb = tb.name
let input (tb : table) = tb.input
let output tb = tb.output

let rec iter_source name insert delete update = function
  | [] -> ()
  | (d : Delta.t) :: rest ->
    (if String.equal d.table name then
       match d.change with
       | Insert t -> insert t
       | Delete t -> delete t
       | Update { before; after } -> update before after);
    iter_source name insert delete update rest

let iter tb ~insert ~delete ~update =
  let sl = tb.slots in
  assert (sl.batch = tb.from);
  if not sl.mixed then iter_source tb.name insert delete update tb.source
  else
    for s = 0 to sl.used - 1 do
      match sl.state.(s) with
      | 2 -> insert sl.img.(s)
      | 3 -> delete sl.img.(s)
      | 4 -> update sl.img.(s) sl.aft.(s)
      | _ -> ()
    done

(* Drops the slots' images, so that a batch's rows do not outlive it in
   the arrays: kept past a minor collection, they would be promoted. *)
let release t =
  List.iter
    (fun tb ->
      Array.fill tb.slots.img 0 tb.slots.used no_tuple;
      Array.fill tb.slots.aft 0 tb.slots.used no_tuple)
    t.tables
