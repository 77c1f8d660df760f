module Database = Relational.Database
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value
module Delta = Relational.Delta
module View = Algebra.View
module Aggregate = Algebra.Aggregate
module Select_item = Algebra.Select_item
module Derive = Mindetail.Derive

module TH = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

type t = {
  view : View.t;
  root : string;
  is_old : Tuple.t -> bool;
  old_engine : Engine.t;
  current_engine : Engine.t;
  group_positions : int array;  (** select positions of the group items *)
}

exception Unsupported of string

let check_mergeable (v : View.t) =
  if v.View.having <> [] then
    raise
      (Unsupported
         "partitioned maintenance cannot filter partial views with HAVING");
  List.iter
    (fun (agg : Aggregate.t) ->
      if agg.Aggregate.distinct then
        raise
          (Unsupported
             (Printf.sprintf
                "partitioned maintenance cannot merge DISTINCT aggregate %s"
                agg.Aggregate.alias));
      if agg.Aggregate.func = Aggregate.Avg then
        raise
          (Unsupported
             (Printf.sprintf
                "partitioned maintenance cannot merge AVG %s: store SUM and \
                 COUNT columns instead"
                agg.Aggregate.alias)))
    (View.aggregates v)

(* A replica of [db] holding only the root tuples selected by [keep]. *)
let partition_db db root keep =
  let replica = Database.copy db in
  let victims =
    Database.fold replica root
      (fun tup acc -> if keep tup then acc else tup :: acc)
      []
  in
  List.iter (Database.delete replica root) victims;
  replica

let init db (v : View.t) ~is_old =
  View.validate db v;
  check_mergeable v;
  let root = View.root v in
  let old_db = partition_db db root is_old in
  let current_db = partition_db db root (fun tup -> not (is_old tup)) in
  {
    view = v;
    root;
    is_old;
    old_engine = Engine.init old_db (Derive.derive_with Derive.append_only_options old_db v);
    current_engine = Engine.init current_db (Derive.derive current_db v);
    group_positions =
      List.mapi
        (fun i -> function Select_item.Group _ -> [ i ] | Select_item.Agg _ -> [])
        v.View.select
      |> List.concat |> Array.of_list;
  }

let announce t =
  Engine.announce t.old_engine;
  Engine.announce t.current_engine

type side = Old | Current | Both

(* Where one source change goes: a root change to the partition [is_old]
   picks for it, a dimension change to both engines. *)
let side t (d : Delta.t) =
  if not (String.equal d.Delta.table t.root) then Both
  else
    let pick tup = if t.is_old tup then Old else Current in
    match d.Delta.change with
    | Delta.Insert tup | Delta.Delete tup -> pick tup
    | Delta.Update { before; after } ->
      if t.is_old before <> t.is_old after then
        raise
          (Engine.Invariant
             "partitioned maintenance: update moves a root tuple across the \
              old/current boundary")
      else pick before

let apply_sides t ~olds ~currents =
  Engine.apply_batch t.old_engine olds;
  Engine.apply_batch t.current_engine currents

(* Every change is routed before either engine runs, so a boundary
   violation rejects the batch before any of it is applied, and each engine
   sees its share as one batch, netted on its own. *)
let apply_batch t deltas =
  let olds, currents =
    List.fold_right
      (fun d (olds, currents) ->
        match side t d with
        | Old -> (d :: olds, currents)
        | Current -> (olds, d :: currents)
        | Both -> (d :: olds, d :: currents))
      deltas ([], [])
  in
  apply_sides t ~olds ~currents

let equal_state a b =
  Engine.equal_state a.old_engine b.old_engine
  && Engine.equal_state a.current_engine b.current_engine

let in_txn t = Engine.in_txn t.current_engine

let begin_txn t =
  Engine.begin_txn t.old_engine;
  Engine.begin_txn t.current_engine

let commit t =
  Engine.commit t.old_engine;
  Engine.commit t.current_engine

let rollback t =
  Engine.rollback t.old_engine;
  Engine.rollback t.current_engine

let age_out t facts =
  apply_sides t
    ~olds:(List.map (Delta.insert t.root) facts)
    ~currents:(List.map (Delta.delete t.root) facts)

(* Distributive merge of two partial view results. *)
let merge_rows (v : View.t) group_positions a b =
  let key tup = Tuple.project tup group_positions in
  let acc : Tuple.t TH.t = TH.create 64 in
  let combine existing incoming =
    let out = Array.copy existing in
    List.iteri
      (fun idx item ->
        match item with
        | Select_item.Group _ -> ()
        | Select_item.Agg agg ->
          out.(idx) <-
            (match agg.Aggregate.func with
            | Aggregate.Count | Aggregate.Count_star | Aggregate.Sum ->
              Value.add existing.(idx) incoming.(idx)
            | Aggregate.Min ->
              if Value.compare incoming.(idx) existing.(idx) < 0 then
                incoming.(idx)
              else existing.(idx)
            | Aggregate.Max ->
              if Value.compare incoming.(idx) existing.(idx) > 0 then
                incoming.(idx)
              else existing.(idx)
            | Aggregate.Avg -> assert false (* rejected at init *)))
      v.View.select;
    out
  in
  let feed rel =
    Relation.iter
      (fun tup _ ->
        let k = key tup in
        match TH.find_opt acc k with
        | None -> TH.add acc k tup
        | Some existing -> TH.replace acc k (combine existing tup))
      rel
  in
  feed a;
  feed b;
  let out = Relation.create ~size_hint:(TH.length acc) () in
  TH.iter (fun _ tup -> Relation.insert out tup) acc;
  out

let view_contents t =
  merge_rows t.view t.group_positions
    (Engine.view_contents t.old_engine)
    (Engine.view_contents t.current_engine)

(* [f] of both engines, each object named by its partition *)
let prefixed t rename f =
  List.map (rename "old/") (f t.old_engine)
  @ List.map (rename "current/") (f t.current_engine)

(* the partial views themselves are not detail data *)
let detail_profile t =
  prefixed t
    (fun side (n, r, f) -> (side ^ n, r, f))
    (fun e -> List.tl (Engine.storage_profile e))

let measured_bytes t =
  prefixed t (fun side (n, b) -> (side ^ n, b)) Engine.measured_bytes

let offheap_bytes t =
  Engine.offheap_bytes t.old_engine + Engine.offheap_bytes t.current_engine
