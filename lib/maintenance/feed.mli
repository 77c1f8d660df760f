(** Typed feed plans: how one view reads a joined row.

    [Engine.init] compiles a view's group key and select items into a
    plan of cells — a table slot and the column's position in the base
    tuple and among the plain columns of the slot's auxiliary view. A
    [Feed.t] is that plan plus a joined row: each slot is bound either to
    a base tuple (a delta's) or to a group of the slot's auxiliary view,
    held as an {!Aux_state} locator. {!View_state} hashes, probes, creates
    and adds through it: a cell of a base tuple is read where the tuple
    holds it, a cell of an auxiliary group where its column stores it, and
    neither is boxed on the way. Only MIN/MAX and DISTINCT arguments, whose
    state is boxed, are read as values. *)

(** A view column: its table's slot, its position in the base schema and
    among the plain columns of the slot's auxiliary view ([-1] when not
    kept). *)
type cell = { slot : int; base : int; plain : int }

(** How a select item reads its argument off a joined row. *)
type arg =
  | Key  (** a group-by item: its cell is part of the key *)
  | Weight  (** COUNT( * ) and COUNT: the row's weight *)
  | Sum of { c : cell; sum : int }
      (** a SUM or AVG argument; [sum >= 0] is the running sum the slot's
          auxiliary view keeps for it, read instead of the plain cell (and
          not weighted again) when the slot is bound to a group *)
  | Value of { c : cell; ext : int }
      (** a MIN, MAX or DISTINCT argument; [ext >= 0] is the extremum
          column the slot's auxiliary view keeps for it *)

type t

(** [create ~auxs ~key ~args] is a plan with every slot unbound. [auxs] is
    the auxiliary view of each slot, shared, not copied: a state installed
    in it later is seen. *)
val create :
  auxs:Aux_state.t option array -> key:cell array -> args:arg array -> t

(** The same plan over the same auxiliary views, with a row of its own. *)
val rebind : t -> t

val args : t -> arg array

(** {2 Binding a joined row} *)

val bind_base : t -> int -> Relational.Tuple.t -> unit

(** [bind_loc f s l] binds slot [s] to the group of locator [l]. *)
val bind_loc : t -> int -> int -> unit

(** [locate f c st] is the locator of the group of [st] whose key is cell
    [c] of the joined row, or [-1]. *)
val locate : t -> cell -> Aux_state.t -> int

(** [read f c ~ext] is the boxed value of cell [c] of the joined row, or,
    when [ext >= 0] and [c]'s slot is bound to a group, that group's
    extremum [ext]. *)
val read : t -> cell -> ext:int -> Relational.Value.t

(** {2 The group key} *)

(** [Tuple.hash] of the group key. *)
val hash_key : t -> int

(** [key_matches f keys r]: the group key equals row [r] of the key
    columns [keys]. *)
val key_matches : t -> Column.t array -> int -> bool

(** Appends the group key to the key columns. *)
val append_key : t -> Column.t array -> unit

(** A fresh boxed group key. *)
val key : t -> Relational.Tuple.t

(** [key_into f dst] writes the boxed group key into [dst]. *)
val key_into : t -> Relational.Tuple.t -> unit

(** {2 Item arguments}

    [i] is a select item whose argument is [Sum] (the first three) or
    [Value] (the last). *)

(** [add_sum f i dst r ~cnt ~sign] adds ([sign > 0]) or subtracts the
    argument weighted by [cnt] to cell [r] of [dst], with the arithmetic
    of {!Column.add_cell} and {!Column.sub_cell}. *)
val add_sum : t -> int -> Column.t -> int -> cnt:int -> sign:int -> unit

(** The zero of the argument's numeric type. *)
val sum_zero : t -> int -> Relational.Value.t

val sum_is_numeric : t -> int -> bool
val arg_value : t -> int -> Relational.Value.t
