(** Tuples are immutable-by-convention arrays of values. *)

type t = Value.t array

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** [project tup idxs] extracts the listed positions, in order. *)
val project : t -> int array -> t

(** [init_with n f a b] is [Array.init n (f a b)]: [f a b i] is called
    for [i = 0] to [n - 1], in that order, so [f] may read its cells off a
    stream. Tuples of up to six cells are built without a call into the
    runtime; [f] and its context [a], [b] are passed as they are, so a
    closed [f] allocates no closure. *)
val init_with : int -> ('a -> 'b -> int -> Value.t) -> 'a -> 'b -> t

(** [concat a b] appends tuples (used when joining). *)
val concat : t -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
