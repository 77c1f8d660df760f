(** Net-effect compaction of a delta batch.

    Collapses successive changes to the same (table, primary key) slot into
    their net effect before the batch reaches a maintenance engine — the
    delta-stream analogue of the paper's smart duplicate compression of the
    stored detail data (Section 3).  Key-changing updates are decomposed
    into delete + insert so every slot's history is linear. *)

type stats = { input : int  (** deltas fed in *); output : int  (** net deltas out *) }

(** A key table: the per-table slot arrays and key index that {!net}
    reuses from batch to batch. Once they have grown to the largest batch,
    {!net} allocates O(tables) words per batch, however many deltas and
    repeated keys it holds. Its owner is the one caller that nets through
    it (a warehouse, or an engine netting its own batches); it is not
    safe to share between domains. *)
type keys

val keys : unit -> keys

(** One table's share of a netted batch. Its net changes are read with
    {!iter}. *)
type table

val name : table -> string

(** The batch's deltas of this table, and its net changes. *)
val input : table -> int
val output : table -> int

type t = {
  tables : table list;  (** in first-touch order of the original batch *)
  stats : stats;  (** totals over [tables] *)
}

(** [net keys ~key_index deltas] compacts the deltas of the tables
    [key_index] knows: [key_index tbl] is [Some] of the primary-key position
    in [tbl]'s tuple layout, or [None] to drop [tbl]'s deltas uncounted. A
    table that saw only inserts is not hashed: its net changes are its
    deltas, duplicates included. The result reads [keys]' slots, so it is
    valid until the next [net] through [keys] touches its tables, or its
    {!release}.

    @raise Invalid_argument if the batch is not replayable against any
    starting state (duplicate insert, double delete, change to a row the
    batch itself netted out). *)
val net : keys -> key_index:(string -> int option) -> Delta.t list -> t

(** [iter tb ~insert ~delete ~update] calls, for each net change of [tb]
    in first-touch order of its keys, [insert row], [delete row] or
    [update before after]. It allocates nothing of its own. *)
val iter :
  table ->
  insert:(Tuple.t -> unit) ->
  delete:(Tuple.t -> unit) ->
  update:(Tuple.t -> Tuple.t -> unit) ->
  unit

(** [release t] drops the rows [t]'s slots hold, once every reader has
    applied it: the key table keeps its arrays, not the batch. *)
val release : t -> unit
