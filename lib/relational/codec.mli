(** A typed binary encoding of cells, rows and deltas: the body of every
    snapshot section.

    A cell is written by its column's declared {!Datatype.t}, with no tag:
    INT as a zigzag varint, FLOAT as its 8 IEEE-754 bytes (little-endian,
    so [-0.0] and every NaN payload survive), TEXT as a varint length and
    the bytes, BOOL as one byte. Base rows hold no [NULL]
    ({!Schema.conforms}), so a row is its cells in column order. A value
    whose type is not declared — a cell of a delta, which may be [NULL] or
    mistyped before validation — is a tag byte followed by the same cell
    encoding. The encoding depends on no build: only on this file. *)

(** {2 Writing} *)

(** A byte buffer: a growable one, or a chunk of fixed size that hands
    its bytes on each time it fills. *)
type writer

(** [writer n] is an empty, growable writer with room for [n] bytes. *)
val writer : int -> writer

(** Empties the writer, keeping its capacity. *)
val clear : writer -> unit

val length : writer -> int

(** The writer's storage: its first [length w] bytes are what was written.
    Valid until the next write. *)
val bytes : writer -> bytes

val add_byte : writer -> int -> unit

(** An unsigned LEB128 varint of the 63 bits of an [int]. *)
val add_varint : writer -> int -> unit

(** A zigzag varint: an INT cell. *)
val add_int : writer -> int -> unit

val add_string : writer -> string -> unit

(** A FLOAT cell: its 8 bytes, little-endian. *)
val add_float : writer -> float -> unit

(** A BOOL cell: one byte, 0 or 1. *)
val add_bool : writer -> bool -> unit

val add_datatype : writer -> Datatype.t -> unit

(** [add_cell w ty v] writes [v] without a tag.
    @raise Invalid_argument if [v] does not inhabit [ty]. *)
val add_cell : writer -> Datatype.t -> Value.t -> unit

(** [add_row w types tup] writes the cells of [tup], which conforms to
    [types]. *)
val add_row : writer -> Datatype.t array -> Tuple.t -> unit

(** A delta: its table, its kind and its tuples, each led by its arity,
    of tagged values ([NULL] included). *)
val add_delta : writer -> Delta.t -> unit
val add_rejection : writer -> Delta.rejection -> unit

(** {2 Reading} *)

(** The bytes do not decode: a cell overruns its range, a tag or a varint
    is out of range. The message says which. *)
exception Malformed of string

(** [malformed fmt ...] raises {!Malformed} with the formatted message. *)
val malformed : ('a, unit, string, 'b) format4 -> 'a

(** A cursor over a range of bytes. *)
type reader

(** [reader b off len] reads bytes [off .. off + len - 1] of [b].
    @raise Invalid_argument if the range is outside [b]. *)
val reader : bytes -> int -> int -> reader

(** Bytes left in the range. *)
val remaining : reader -> int

val byte : reader -> int
val varint : reader -> int
val int : reader -> int
val string : reader -> string

(** [float_to r b off] copies a FLOAT cell, as {!add_float} wrote it, into
    the native-endian 8 bytes of [b] at [off]: its IEEE bits, and no boxed
    float on the way. *)
val float_to : reader -> bytes -> int -> unit

val bool : reader -> bool
val datatype : reader -> Datatype.t

(** [count r] is a varint that must be at most {!remaining}: the number
    of items that follow, each at least one byte long. *)
val count : reader -> int

val cell : reader -> Datatype.t -> Value.t
val row : reader -> Datatype.t array -> Tuple.t
val delta : reader -> Delta.t
val rejection : reader -> Delta.rejection

(** {2 Streaming}

    A snapshot section streams through one chunk writer: its bytes are
    handed on, a chunk at a time, as they are written. *)

(** [chunks n spill] is an empty writer of [n] bytes that does not grow:
    whenever a write finds it full, and at {!flush}, [spill b len] is
    handed its bytes, the first [len] of [b], and it is emptied. What
    [spill] receives, chunk after chunk, is what a growable writer would
    hold; a string longer than the chunk crosses chunks. *)
val chunks : int -> (bytes -> int -> unit) -> writer

(** Hands a chunk writer's bytes to its [spill], if it holds any, and
    empties it; does nothing to a growable writer. *)
val flush : writer -> unit

(** {3 Unchecked writes}

    A caller that knows a bound on what it writes checks room once and
    then writes without checks: a stored row, from its words. *)

(** [room w n] makes room for [n] more bytes — a full chunk writer spills
    first — and is [true]; it is [false], and [w] unchanged, when [n] is
    more than a chunk writer holds. *)
val room : writer -> int -> bool

(** [put_words w ty b off n] writes, as {!add_cell} does, [n] cells of
    type [ty] held in the native-endian 8-byte words at [off], [off + 8],
    ... of [b]: an INT or BOOL word holds the value (BOOL as 0 or 1), a
    FLOAT word its IEEE bits, which are never boxed. At most 9 bytes a
    cell, and no room check.
    @raise Invalid_argument if [ty] is TEXT, whose cells are strings. *)
val put_words : writer -> Datatype.t -> bytes -> int -> int -> unit

(** A string as {!add_string} writes it, at most 9 bytes and its length,
    with no room check. *)
val put_string : writer -> string -> unit
