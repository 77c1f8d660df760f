(** Bag (multiset) relations.

    Base tables are sets (key uniqueness is enforced by {!Database}), but
    projections and view results have bag semantics, so the common carrier is
    a multiset of tuples with positive multiplicities. *)

type t

val create : ?size_hint:int -> unit -> t
val copy : t -> t

(** [insert r tup ~count] adds [count] (default 1) occurrences.
    @raise Invalid_argument if [count <= 0]. *)
val insert : ?count:int -> t -> Tuple.t -> unit

(** [delete r tup ~count] removes [count] (default 1) occurrences. Returns
    [false] (and removes nothing) if fewer than [count] occurrences exist. *)
val delete : ?count:int -> t -> Tuple.t -> bool

val multiplicity : t -> Tuple.t -> int
val mem : t -> Tuple.t -> bool

(** Total number of tuples, counting duplicates. *)
val cardinality : t -> int

(** Number of distinct tuples. *)
val distinct_cardinality : t -> int

(** [fold f r acc] folds over distinct tuples with their multiplicities. *)
val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (Tuple.t -> int -> unit) -> t -> unit

(** Distinct tuples with multiplicities, sorted by {!Tuple.compare} for
    deterministic output. *)
val to_sorted_list : t -> (Tuple.t * int) list

(** {!to_sorted_list} as a fresh array. *)
val to_sorted_array : t -> (Tuple.t * int) array

val of_list : (Tuple.t * int) list -> t

(** Bag equality. *)
val equal : t -> t -> bool

(** Bag difference [a - b] as a new relation (for diagnostics). *)
val diff : t -> t -> t

val pp : Format.formatter -> t -> unit
