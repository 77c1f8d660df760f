(** Comparison operators for selection conditions. *)

type t = Eq | Neq | Lt | Le | Gt | Ge

val eval : t -> Relational.Value.t -> Relational.Value.t -> bool

(** [holds op c]: the operator holds of two operands whose
    [Value.compare] is [c]. *)
val holds : t -> int -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val of_string : string -> t option
