(** An [int -> int] table for the repeated lookups of a build: a key
    that names a value (an integer cell, a dictionary code, a locator)
    mapped to what a lookup of it found. Flat arrays, so that a lookup
    calls no closure and boxes nothing. *)

type t

(** What {!find} returns for a key never added; not a storable value. *)
val absent : int

val create : unit -> t
val find : t -> int -> int

(** [add t k v] binds [k] to [v], replacing its binding.
    [v] must not be {!absent}. *)
val add : t -> int -> int -> unit
