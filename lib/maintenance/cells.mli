(** Where a base row's cells are read: a delta's tuple, or the row of the
    validator's shadow under a {!Relational.Database.Cursor}.

    One interface over both, so that a base row enters an auxiliary view
    through one probe-and-add code path ({!Aux_state.Rows}) and one
    condition check, whichever holds it. Each operation is the boxed
    operation on cell [pos] of the row; a stored row's cells are read from
    their words and boxed only where a column's storage is boxed. *)

module type S = sig
  type row

  (** [Value.hash] of cell [pos]. *)
  val hash : row -> int -> int

  (** [Value.compare] of cell [pos] and a value, and of two cells. *)
  val compare : row -> int -> Relational.Value.t -> int

  val compare_cells : row -> int -> int -> int

  (** [equal col r row pos]: {!Column.equal_cell} of cell [r] of [col] and
      cell [pos] of [row]. *)
  val equal : Column.t -> int -> row -> int -> bool

  (** [append col row pos] appends cell [pos]; [append_scaled] appends it
      times [n] ([Value.scale]). *)
  val append : Column.t -> row -> int -> unit

  val append_scaled : Column.t -> row -> int -> int -> unit

  (** [add col r row pos n]: {!Column.add_cell} of cell [pos] times [n]. *)
  val add : Column.t -> int -> row -> int -> int -> unit

  val combine_ext : Column.t -> int -> row -> int -> is_min:bool -> unit
  val is_numeric : row -> int -> bool
  val is_null : row -> int -> bool

  (** The cell, boxed: for messages. *)
  val value : row -> int -> Relational.Value.t
end

module Tuple : S with type row = Relational.Tuple.t
module Stored : S with type row = Relational.Database.Cursor.t
