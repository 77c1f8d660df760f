module Database = Relational.Database
module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Delta = Relational.Delta
module Validator = Relational.Validator
module View = Algebra.View
module Derive = Mindetail.Derive

(* The one engine signature. Every configuration is a module of this type
   packed with its state; [id] witnesses the state's type, so two packed
   configurations compare their states only when they are the same
   implementation. An operation is added here, once in each
   implementation, and as one forwarder at the end of this file. *)
module type S = sig
  type t

  val id : t Type.Id.t
  val announce : t -> unit
  val equal_state : t -> t -> bool
  val in_txn : t -> bool
  val begin_txn : t -> unit
  val commit : t -> unit
  val rollback : t -> unit

  val apply_batch : ?netted:Relational.Delta_batch.t -> t -> Delta.t list -> unit

  val view_contents : t -> Relation.t
  val publish : t -> (Tuple.t * int) array
  val detail_profile : t -> (string * int * int) list
  val measured_bytes : t -> (string * int) list option
  val offheap_bytes : t -> int
  val derivation : t -> Derive.t option
  val last_flow : t -> Telemetry.Lineage.view_flow option
  val self_audit : sample:int -> t -> (int * int) option
end

module Incremental : S with type t = Engine.t = struct
  include Engine

  let id = Type.Id.make ()

  (* drop the view itself: only detail data counts *)
  let detail_profile e = List.tl (storage_profile e)
  let measured_bytes e = Some (measured_bytes e)
  let derivation e = Some (derivation e)
  let self_audit = audit
end

(* The recompute baseline: a full replica of the sources, recomputing the
   view from scratch on every read. The replica is a validator's shadow, so
   a batch transaction is the validator's undo journal. *)
module Replica = struct
  type t = { replica : Validator.t; view : View.t }

  let id : t Type.Id.t = Type.Id.make ()
  let db r = Validator.shadow r.replica
  let announce _ = ()

  let equal_state a b =
    let tables r = List.sort String.compare (Database.table_names (db r)) in
    let rows r tbl =
      List.sort Tuple.compare (Database.fold (db r) tbl List.cons [])
    in
    tables a = tables b
    && List.for_all
         (fun tbl -> List.equal Tuple.equal (rows a tbl) (rows b tbl))
         (tables a)

  let in_txn r = Validator.in_txn r.replica
  let begin_txn r = Validator.begin_txn r.replica
  let commit r = Validator.commit r.replica
  let rollback r = Validator.rollback r.replica

  let apply_batch ?netted:_ r deltas =
    List.iter
      (fun d ->
        match Validator.admit r.replica d with
        | Ok _ -> ()
        | Error rej ->
          raise
            (Database.Violation (Format.asprintf "%a" Delta.pp_rejection rej)))
      deltas

  let view_contents r = Algebra.Eval.eval (db r) r.view
  let publish r = Relation.to_sorted_array (view_contents r)

  let detail_profile r =
    List.map
      (fun tbl ->
        (tbl, Database.row_count (db r) tbl,
          Schema.arity (Database.schema_of (db r) tbl)))
      r.view.View.tables

  (* the boxed replica has no measured size and no columnar storage *)
  let measured_bytes _ = None
  let offheap_bytes _ = 0
  let derivation _ = None
  let last_flow _ = None
  let self_audit ~sample:_ _ = None
end

type t = T : { impl : (module S with type t = 'a); state : 'a; name : string } -> t

let name (T e) = e.name

let incremental name db derivation =
  T { impl = (module Incremental); state = Engine.init db derivation; name }

let minimal db view = incremental "minimal" db (Derive.derive db view)
let psj db view = incremental "psj" db (Mindetail.Psj.derive db view)

let with_options ~name options db view =
  incremental name db (Derive.derive_with options db view)

let append_only db view =
  with_options ~name:"append-only" Derive.append_only_options db view

let recompute db view =
  View.validate db view;
  T
    {
      impl = (module Replica);
      state = { Replica.replica = Validator.of_database db; view };
      name = "recompute";
    }

let announce (T { impl = (module M); state; _ }) = M.announce state

let equal_state (T { impl = (module A); state = a; _ })
    (T { impl = (module B); state = b; _ }) =
  match Type.Id.provably_equal A.id B.id with
  | Some Type.Equal -> A.equal_state a b
  | None -> false

let in_txn (T { impl = (module M); state; _ }) = M.in_txn state
let begin_txn (T { impl = (module M); state; _ }) = M.begin_txn state
let commit (T { impl = (module M); state; _ }) = M.commit state
let rollback (T { impl = (module M); state; _ }) = M.rollback state

let apply_batch ?parallel:_ ?netted (T { impl = (module M); state; _ }) deltas =
  M.apply_batch ?netted state deltas


let view_contents (T { impl = (module M); state; _ }) = M.view_contents state

(* Rendering mid-transaction would freeze uncommitted state. *)
let committed what t =
  if in_txn t then
    invalid_arg ("Engines." ^ what ^ ": transaction open (only at commit)")

let capture t =
  committed "capture" t;
  view_contents t

let publish (T { impl = (module M); state; _ } as t) =
  committed "publish" t;
  M.publish state

let detail_profile (T { impl = (module M); state; _ }) = M.detail_profile state
let measured_bytes (T { impl = (module M); state; _ }) = M.measured_bytes state
let offheap_bytes (T { impl = (module M); state; _ }) = M.offheap_bytes state
let derivation (T { impl = (module M); state; _ }) = M.derivation state
let last_flow (T { impl = (module M); state; _ }) = M.last_flow state

let self_audit ~sample (T { impl = (module M); state; _ }) =
  M.self_audit ~sample state
