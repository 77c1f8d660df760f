module Tuple = Relational.Tuple
module Value = Relational.Value

type cell = { slot : int; base : int; plain : int }

type arg =
  | Key
  | Weight
  | Sum of { c : cell; sum : int }
  | Value of { c : cell; ext : int }

(* A slot whose locator is negative is bound to [tups.(slot)]. *)
type t = {
  auxs : Aux_state.t option array;
  key : cell array;
  args : arg array;
  tups : Tuple.t array;
  locs : int array;
}

let create ~auxs ~key ~args =
  let n = Array.length auxs in
  { auxs; key; args; tups = Array.make n [||]; locs = Array.make n (-1) }

let rebind f = create ~auxs:f.auxs ~key:f.key ~args:f.args
let args f = f.args

let bind_base f s tup =
  f.tups.(s) <- tup;
  f.locs.(s) <- -1

let bind_loc f s l = f.locs.(s) <- l

let aux f s =
  match f.auxs.(s) with
  | Some st -> st
  | None -> invalid_arg "Feed: a slot without an auxiliary view is bound to a group"

(* Every reader below branches once on the slot's binding: the base
   tuple's boxed cell, or the group's cell where its column stores it. *)

let locate f c st =
  let l = f.locs.(c.slot) in
  if l < 0 then Aux_state.Tuples.locate_key st f.tups.(c.slot) c.base
  else
    let src = aux f c.slot in
    Aux_state.locate_key_cell st
      (Aux_state.plain_column src c.plain) l

let value f c =
  let l = f.locs.(c.slot) in
  if l < 0 then f.tups.(c.slot).(c.base)
  else
    let st = aux f c.slot in
    Column.get (Aux_state.plain_column st c.plain) l

let hash_cell f c =
  let l = f.locs.(c.slot) in
  if l < 0 then Value.hash f.tups.(c.slot).(c.base)
  else
    let st = aux f c.slot in
    Column.hash_cell (Aux_state.plain_column st c.plain) l

(* [Tuple.hash]'s fold, over the cells where they are. *)
let rec hash_from f h i =
  if i >= Array.length f.key then h
  else hash_from f ((h * 31) + hash_cell f f.key.(i)) (i + 1)

let hash_key f = hash_from f 17 0

let cell_matches f c col r =
  let l = f.locs.(c.slot) in
  if l < 0 then Column.equal_cell col r f.tups.(c.slot).(c.base)
  else
    let st = aux f c.slot in
    Column.equal_cells col r
      (Aux_state.plain_column st c.plain) l

let rec matches_from f keys r i =
  i >= Array.length f.key
  || cell_matches f f.key.(i) keys.(i) r && matches_from f keys r (i + 1)

let key_matches f keys r = matches_from f keys r 0

let append_key f keys =
  for i = 0 to Array.length f.key - 1 do
    let c = f.key.(i) in
    let l = f.locs.(c.slot) in
    if l < 0 then Column.append keys.(i) f.tups.(c.slot).(c.base)
    else
      let st = aux f c.slot in
      Column.append_cell keys.(i)
        (Aux_state.plain_column st c.plain) l
  done

let key_into f dst =
  for i = 0 to Array.length f.key - 1 do
    dst.(i) <- value f f.key.(i)
  done

let key f = Array.map (value f) f.key

let not_sum () = invalid_arg "Feed: the item is not a SUM or AVG"

let add_sum f i dst r ~cnt ~sign =
  match f.args.(i) with
  | Key | Weight | Value _ -> not_sum ()
  | Sum { c; sum } ->
    let l = f.locs.(c.slot) in
    if l < 0 then begin
      let v = f.tups.(c.slot).(c.base) in
      if sign > 0 then Column.add_cell dst r v cnt
      else Column.sub_cell dst r v cnt
    end
    else
      let st = aux f c.slot in
      (* a running sum already carries its group's weight *)
      if sum >= 0 then begin
        let src = Aux_state.sum_column st sum in
        if sign > 0 then Column.add_cells dst r src l 1
        else Column.sub_cells dst r src l 1
      end
      else
        let src = Aux_state.plain_column st c.plain in
        if sign > 0 then Column.add_cells dst r src l cnt
        else Column.sub_cells dst r src l cnt

(* The column a group-bound SUM argument is read from. *)
let sum_column st c sum =
  if sum >= 0 then Aux_state.sum_column st sum
  else Aux_state.plain_column st c.plain

let sum_zero f i =
  match f.args.(i) with
  | Key | Weight | Value _ -> not_sum ()
  | Sum { c; sum } ->
    let l = f.locs.(c.slot) in
    if l < 0 then Value.zero_like f.tups.(c.slot).(c.base)
    else
      let st = aux f c.slot in
      Column.zero_like_cell (sum_column st c sum) l

let sum_is_numeric f i =
  match f.args.(i) with
  | Key | Weight | Value _ -> not_sum ()
  | Sum { c; sum } ->
    let l = f.locs.(c.slot) in
    if l < 0 then Value.is_numeric f.tups.(c.slot).(c.base)
    else
      let st = aux f c.slot in
      Column.is_numeric_cell (sum_column st c sum) l

let read f c ~ext =
  let l = f.locs.(c.slot) in
  if l >= 0 && ext >= 0 then
    let st = aux f c.slot in
    Column.get (Aux_state.ext_column st ext) l
  else value f c

let arg_value f i =
  match f.args.(i) with
  | Value { c; ext } -> read f c ~ext
  | Key | Weight | Sum _ -> invalid_arg "Feed: the item takes no value"
