(* Delta validation against a shadow of the source (see validator.mli). *)

type t = {
  shadow : Database.t;
  (* open undo journal: deltas admitted since [begin_txn], newest first.
     [None] when no transaction is active. *)
  mutable txn : Delta.t list option;
}

let of_shadow db = { shadow = db; txn = None }
let of_database db = of_shadow (Database.copy db)
let believed_source v = Database.copy v.shadow
let shadow v = v.shadow

let in_txn v = v.txn <> None

let begin_txn v =
  if v.txn <> None then invalid_arg "Validator.begin_txn: transaction open";
  v.txn <- Some []

let commit v =
  if v.txn = None then invalid_arg "Validator.commit: no open transaction";
  v.txn <- None

let rollback v =
  match v.txn with
  | None -> invalid_arg "Validator.rollback: no open transaction"
  | Some journal ->
    (* the journal is newest-first, so applying each inverse in list order
       replays the history backwards; every inverse is legal against the
       shadow because the original made it so *)
    List.iter (fun d -> Database.apply v.shadow (Delta.invert d)) journal;
    v.txn <- None

let admit v d =
  match Database.admit v.shadow d with
  | Error rej -> Error rej
  | Ok () ->
    (match v.txn with
    | Some journal -> v.txn <- Some (d :: journal)
    | None -> ());
    Ok d
