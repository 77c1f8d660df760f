(** Net-effect compaction of a delta batch.

    Collapses successive changes to the same (table, primary key) slot into
    their net effect before the batch reaches a maintenance engine — the
    delta-stream analogue of the paper's smart duplicate compression of the
    stored detail data (Section 3).  Key-changing updates are decomposed
    into delete + insert so every slot's history is linear. *)

type stats = { input : int  (** deltas fed in *); output : int  (** net deltas out *) }

(** One table's share of a netted batch. *)
type table = {
  name : string;
  input : int;  (** the batch's deltas of this table *)
  deltas : Delta.t list;  (** its net deltas, keys in first-touch order *)
}

type t = {
  tables : table list;  (** in first-touch order of the original batch *)
  stats : stats;  (** totals over [tables] *)
}

(** [net ~key_index deltas] compacts the deltas of the tables [key_index]
    knows: [key_index tbl] is [Some] of the primary-key position in [tbl]'s
    tuple layout, or [None] to drop [tbl]'s deltas uncounted.

    @raise Invalid_argument if the batch is not replayable against any
    starting state (duplicate insert, double delete, change to a row the
    batch itself netted out). *)
val net : key_index:(string -> int option) -> Delta.t list -> t

(** Flattened net deltas, tables concatenated in first-touch order. *)
val deltas : t -> Delta.t list
