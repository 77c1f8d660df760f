(** Auxiliary-view specifications (Section 3.2):

    {v X_Ri = (Π_A_Ri σ_S Ri) ⋉C1 X_Rj1 ⋉C2 ... ⋉Cn X_Rjn v}

    Each spec is a local reduction (projection + pushed-down local
    conditions), smart duplicate compression (a generalized projection whose
    grouping attributes are the [Plain] columns and whose aggregates are the
    [Sum_of]/[Count_star] columns), and a list of semijoin reductions against
    the auxiliary views of the tables [Ri] depends on. *)

type out_col =
  | Plain of string  (** base column kept as a grouping attribute *)
  | Sum_of of string  (** SUM(base column) — a Table 2 replacement *)
  | Min_of of string
      (** MIN(base column) — only under the append-only relaxation of
          Section 4, where MIN/MAX become completely self-maintainable *)
  | Max_of of string  (** MAX(base column), append-only mode only *)
  | Count_star  (** the ["COUNT(*)"] added by Algorithm 3.1 *)

(** A semijoin reduction: keep only tuples whose [fk] column matches the
    [target_key] of some tuple in the auxiliary view of [target]. *)
type semijoin = { fk : string; target : string; target_key : string }

type t = {
  base : string;  (** base table Ri *)
  name : string;  (** e.g. [saleDTL] *)
  locals : Algebra.Predicate.t list;
  columns : (string * out_col) list;  (** output name, definition; order fixed *)
  semijoins : semijoin list;
      (** one per table [base] depends on *)
  compressed : bool;
      (** whether duplicate compression applies; [false] means the view
          degenerated into a PSJ-style tuple-level view because its grouping
          attributes include the key of [base] *)
}

val default_name : string -> string

(** Output column names, in order. *)
val column_names : t -> string list

(** Grouping (Plain) columns, in order. *)
val group_columns : t -> string list

(** Position of [Count_star] in the output, if present. *)
val count_index : t -> int option

(** Output position of the [Plain] projection of the given base column, if
    kept. *)
val plain_index : t -> string -> int option

(** Output position of [Sum_of] the given base column, if present. *)
val sum_index : t -> string -> int option

(** Position of the given base column among the [Plain] (grouping) columns
    only — the layout used by the maintenance engine's in-memory state. *)
val plain_position : t -> string -> int option

(** Position of the given base column among the [Sum_of] columns only. *)
val sum_position : t -> string -> int option

(** Base columns of the [Sum_of] outputs, in order. *)
val summed_columns : t -> string list

(** Extremum outputs, in order: (base column, [true] for MIN). *)
val ext_columns : t -> (string * bool) list

(** Position of MIN(col) among the extremum outputs only. *)
val min_position : t -> string -> int option

(** Position of MAX(col) among the extremum outputs only. *)
val max_position : t -> string -> int option

(** Whether the key of [base] is kept as a grouping attribute (the degenerate
    PSJ case). *)
val keeps_key : t -> key:string -> bool

(** SQL-ish rendering, matching the paper's examples (the semijoins render as
    [IN (SELECT ...)] subqueries). *)
val to_sql : t -> string

val pp : Format.formatter -> t -> unit
