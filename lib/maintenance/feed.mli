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

val slots : t -> int

(** [loc f s] is the locator slot [s] is bound to, [-1] when it is bound
    to a base tuple. *)
val loc : t -> int -> int

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

(** [column f c] is the column of [c]'s slot's auxiliary view that holds
    [c]'s cells. *)
val column : t -> cell -> Column.t

(** [arg_column f i] is where item [i]'s argument is read when its slot
    is bound to a group: the slot, the column of the slot's auxiliary
    view, and whether a cell is weighted by the joined row's count (a
    plain SUM argument) or not (a running sum, an extremum or a value). *)
val arg_column : t -> int -> int * Column.t * bool

(** {2 Naming a key by one int}

    For a build's memo of the groups it has found: within one build the
    group key of a row whose slots are bound to groups is named by the
    locator of the one slot that holds all its cells (not the root's,
    whose locator differs from row to row), or by the code of its one
    coded cell ({!Column.code}). *)

type key_code =
  | Per_loc of int  (** the locator of this slot *)
  | Per_code of cell  (** the code of this cell *)
  | Uncoded  (** neither *)

(** How [f]'s key is named, decided once [f] is bound to a joined row. *)
val key_code_plan : t -> key_code

(** The name of the bound row's key under the plan: two rows of one build
    with equal names have equal keys.
    @raise Invalid_argument under [Uncoded]. *)
val key_code : t -> key_code -> int
