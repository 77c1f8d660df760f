(** Atomic attribute values.

    The paper assumes base tables contain no null values (Section 2.1).
    [Null] is representable only so that the ingestion boundary can express —
    and reject — incoming source rows that carry one: [Datatype.check] fails
    on it, so {!Validator} refuses any delta containing a [Null] before it
    reaches a maintenance engine. No value at rest inside the warehouse is
    ever [Null]. *)

type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

(** [int x] is [Int x], one shared box for each [x] in [0, 4096): for
    code that builds many cells, such as a store's tuples. *)
val int : int -> t

val equal : t -> t -> bool

(** Total order. Values of distinct types are ordered by type tag; within a
    type the natural order is used. [Int] and [Float] do not compare
    numerically equal: schemas are typed, so cross-type comparison only occurs
    between values of different columns, where any consistent order works. *)
val compare : t -> t -> int

(** [Hashtbl.hash (tag, x)] for a value of tag [tag] (0 for [Int], 1 for
    [Float], 2 for [String], 3 for [Bool]) carrying [x], and
    [Hashtbl.hash (-1)] for [Null] — computed without allocating. The
    dictionaries' stored hashes depend on these exact values. *)
val hash : t -> int

(** [hash_int x] is [hash (Int x)], without the box. *)
val hash_int : int -> int

(** [hash_string x] is [hash (String x)] and [hash_bool x] is
    [hash (Bool x)], without the box. *)
val hash_string : string -> int

val hash_bool : bool -> int

(** [hash_float_words ~hi ~lo] is [hash (Float x)] for the float [x] whose
    IEEE bits are [hi] (upper 32) and [lo] (lower 32): a caller holding an
    unboxed float hashes it without boxing it for the call. *)
val hash_float_words : hi:int -> lo:int -> int

val pp : Format.formatter -> t -> unit

(** [to_string v] is the text of [v] as served and printed: [NULL], an
    int's decimal digits, a string verbatim, [true]/[false], and a float
    as the shortest of [%.15g], [%.16g] and [%.17g] that reads back
    ([float_of_string]) to the same bits — [1234567.5], not [1.23457e+06].
    nan, [inf], [-inf], [0] and [-0] print as [%g] prints them. *)
val to_string : t -> string

(** [add_to_buffer b v] appends exactly the bytes of [to_string v]. Ints,
    strings, bools and [Null] are written without an intermediate string,
    ints digit by digit. *)
val add_to_buffer : Buffer.t -> t -> unit

(** [add_int_to_buffer b x] is [add_to_buffer b (Int x)], without boxing
    [x]. *)
val add_int_to_buffer : Buffer.t -> int -> unit

(** {2 Arithmetic}

    Used by aggregate evaluation. [Int] and [Float] operands may be mixed; the
    result is [Float] as soon as either operand is. Raises
    [Invalid_argument] on non-numeric operands. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [zero_like v] is the additive identity of [v]'s numeric type. *)
val zero_like : t -> t

val is_numeric : t -> bool
val is_null : t -> bool

(** [scale v n] is [v] added to itself [n] times ([mul v (Int n)], but total
    on numeric values and kept separate for readability at call sites that
    weight a value by a duplicate count). *)
val scale : t -> int -> t

(** [div_as_float a b] is the float quotient, used for AVG. *)
val div_as_float : t -> t -> t

(** Name of the value's type ("null", "int", "float", "string", "bool"), for
    diagnostics. *)
val type_name : t -> string
