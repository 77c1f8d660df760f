module Database = Relational.Database
module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Delta = Relational.Delta
module View = Algebra.View
module Derive = Mindetail.Derive

type t =
  | Incremental of { name : string; engine : Engine.t }
  | Recompute of {
      replica : Database.t;
      view : View.t;
      (* undo journal: deltas applied since begin_txn, newest first *)
      mutable txn : Delta.t list option;
    }
  | Split of Partitioned.t

let name = function
  | Incremental { name; _ } -> name
  | Recompute _ -> "recompute"
  | Split _ -> "partitioned"

let minimal db view =
  Incremental { name = "minimal"; engine = Engine.init db (Derive.derive db view) }

let psj db view =
  Incremental { name = "psj"; engine = Engine.init db (Mindetail.Psj.derive db view) }

let with_options ~name options db view =
  Incremental { name; engine = Engine.init db (Derive.derive_with options db view) }

let append_only db view =
  with_options ~name:"append-only" Derive.append_only_options db view

let partitioned db view ~is_old = Split (Partitioned.init db view ~is_old)

let announce = function
  | Incremental { engine; _ } -> Engine.announce engine
  | Split p -> Partitioned.announce p
  | Recompute _ -> ()

let as_partitioned = function
  | Split p -> Some p
  | Incremental _ | Recompute _ -> None

let recompute db view =
  View.validate db view;
  Recompute { replica = Database.copy db; view; txn = None }

let copy = function
  | Incremental { name; engine } -> Incremental { name; engine = Engine.copy engine }
  | Recompute { replica; view; txn = _ } ->
    Recompute { replica = Database.copy replica; view; txn = None }
  | Split p -> Split (Partitioned.copy p)

let db_equal a b =
  let ta = List.sort String.compare (Database.table_names a) in
  ta = List.sort String.compare (Database.table_names b)
  && List.for_all
       (fun tbl ->
         let ki = Schema.key_index (Database.schema_of a tbl) in
         Database.row_count a tbl = Database.row_count b tbl
         && Database.fold a tbl
              (fun tup acc ->
                acc
                &&
                match Database.find_by_key b tbl tup.(ki) with
                | Some tup' -> Tuple.equal tup tup'
                | None -> false)
              true)
       ta

let equal_state a b =
  match a, b with
  | Incremental { engine; _ }, Incremental { engine = engine'; _ } ->
    Engine.equal_state engine engine'
  | Recompute { replica; _ }, Recompute { replica = replica'; _ } ->
    db_equal replica replica'
  | Split p, Split p' -> Partitioned.equal_state p p'
  | (Incremental _ | Recompute _ | Split _), _ -> false

let in_txn = function
  | Incremental { engine; _ } -> Engine.in_txn engine
  | Recompute r -> r.txn <> None
  | Split p -> Partitioned.in_txn p

let begin_txn = function
  | Incremental { engine; _ } -> Engine.begin_txn engine
  | Recompute r ->
    if r.txn <> None then invalid_arg "Engines.begin_txn: transaction open";
    r.txn <- Some []
  | Split p -> Partitioned.begin_txn p

let commit = function
  | Incremental { engine; _ } -> Engine.commit engine
  | Recompute r ->
    if r.txn = None then invalid_arg "Engines.commit: no open transaction";
    r.txn <- None
  | Split p -> Partitioned.commit p

let rollback = function
  | Incremental { engine; _ } -> Engine.rollback engine
  | Recompute r -> (
    match r.txn with
    | None -> invalid_arg "Engines.rollback: no open transaction"
    | Some journal ->
      (* newest-first journal: applying the inverses in list order replays
         the applied prefix backwards *)
      List.iter (fun d -> Database.apply r.replica (Delta.invert d)) journal;
      r.txn <- None)
  | Split p -> Partitioned.rollback p

let takes_netted = function
  | Incremental _ -> true
  | Recompute _ | Split _ -> false

let apply_batch ?parallel ?netted t deltas =
  match t with
  | Incremental { engine; _ } ->
    Engine.apply_batch ?parallel ?netted engine deltas
  | Recompute r -> (
    match r.txn with
    | None -> Database.apply_all r.replica deltas
    | Some _ ->
      List.iter
        (fun d ->
          Database.apply r.replica d;
          match r.txn with
          | Some journal -> r.txn <- Some (d :: journal)
          | None -> assert false)
        deltas)
  | Split p -> Partitioned.apply_batch ?parallel p deltas

let view_contents = function
  | Incremental { engine; _ } -> Engine.view_contents engine
  | Recompute { replica; view; _ } -> Algebra.Eval.eval replica view
  | Split p -> Partitioned.view_contents p

(* [view_contents] behind a guard: rendering mid-transaction would freeze
   uncommitted group state. *)
let capture t =
  if in_txn t then
    invalid_arg "Engines.capture: transaction open (capture only at commit)";
  view_contents t

(* Only an incremental engine knows which groups a batch touched; the others
   render in full. *)
let publish = function
  | Incremental { engine; _ } -> Engine.publish engine
  | (Recompute _ | Split _) as t -> Relation.to_sorted_array (capture t)

let detail_profile = function
  | Incremental { engine; _ } ->
    (* drop the view itself: only detail data counts *)
    (match Engine.storage_profile engine with
    | _view :: aux -> aux
    | [] -> [])
  | Split p -> Partitioned.detail_profile p
  | Recompute { replica; view; _ } ->
    List.map
      (fun tbl ->
        ( tbl,
          Database.row_count replica tbl,
          Schema.arity (Database.schema_of replica tbl) ))
      view.View.tables

(* Measured bytes only exist for columnar state; the recompute baseline
   stores a boxed replica, so it keeps the estimate-only path. *)
let measured_bytes = function
  | Incremental { engine; _ } -> Some (Engine.measured_bytes engine)
  | Split p -> Some (Partitioned.measured_bytes p)
  | Recompute _ -> None

(* Off-heap bytes exist only where columnar state does; the boxed-replica
   baseline contributes zero. *)
let offheap_bytes = function
  | Incremental { engine; _ } -> Engine.offheap_bytes engine
  | Split p -> Partitioned.offheap_bytes p
  | Recompute _ -> 0

let derivation = function
  | Incremental { engine; _ } -> Some (Engine.derivation engine)
  | Recompute _ | Split _ -> None

let last_flow = function
  | Incremental { engine; _ } -> Engine.last_flow engine
  | Recompute _ | Split _ -> None

let self_audit ~sample = function
  | Incremental { engine; _ } -> Engine.audit ~sample engine
  | Recompute _ | Split _ -> None
