(** The operational store: a catalog of base tables with enforced key
    uniqueness and referential integrity.

    This plays the role of the paper's (inaccessible) data sources: the
    warehouse never reads it after initial load; it only receives the
    {!Delta.t} stream that {!admit} validates. Each table stores every row
    once, as unboxed fixed-width cells found through a key index
    ({!Rowmap}); the tuples it returns are built on each call. *)

type t

exception Violation of string

val create : unit -> t

(** [add_table db schema ~updatable] registers a base table. [updatable]
    lists the columns that sources may change in place via updates; it drives
    the {e exposed updates} analysis of Section 2.1 (an update is exposed if
    an updatable column occurs in a selection or join condition).
    @raise Violation if the name is taken. *)
val add_table : t -> Schema.t -> updatable:string list -> unit

(** Declares a referential-integrity constraint. The destination column is
    implicitly the destination table's key; source column and key must have
    the same type.
    @raise Violation on dangling names or type mismatch. *)
val add_reference : t -> Integrity.reference -> unit

val schema_of : t -> string -> Schema.t
val references : t -> Integrity.reference list
val updatable_columns : t -> string -> string list
val table_names : t -> string list
val table_count : t -> int
val mem_table : t -> string -> bool

(** [admit db d] checks every constraint on [d] — the table exists, the
    images conform to its schema, a deleted row or update before-image is
    stored, an update changes only updatable columns, a deleted or re-keyed
    key is unreferenced, a new key is unique, every foreign key has a
    referent — in that order, and applies [d] only if all pass. On [Error]
    the store is unchanged; the rejection names the first check that
    failed. *)
val admit : t -> Delta.t -> (unit, Delta.rejection) result

(** [apply db d] is {!admit} for callers that treat a rejection as a bug
    (loaders, generators, recomputation replicas).
    @raise Violation with the printed rejection; the store is unchanged. *)
val apply : t -> Delta.t -> unit

(** {!apply} of an insert, a delete and an update.
    @raise Violation on any failure. *)
val insert : t -> string -> Tuple.t -> unit

val delete : t -> string -> Tuple.t -> unit
val update : t -> string -> before:Tuple.t -> after:Tuple.t -> unit
val apply_all : t -> Delta.t list -> unit

(** [find_by_key db table k] is the unique tuple with key value [k], if
    any, freshly built. *)
val find_by_key : t -> string -> Value.t -> Tuple.t option

(** [fold db table f acc] folds over the rows of [table], each a freshly
    built tuple, in an unspecified order. *)
val fold : t -> string -> (Tuple.t -> 'a -> 'a) -> 'a -> 'a

(** {2 Cursors}

    A cursor reads the rows of one table where they are stored: typed cell
    reads, and no tuple. A build scans a table as [for r = 0 to rows c - 1
    do seek c r; ... done]. A write to the table invalidates its cursors. *)

module Cursor : sig
  type db := t

  (** The row under the cursor, read in place: cell [j] is the
      native-endian 8-byte word at [base + 8 * j] of [block], typed
      [types.(j)] — an INT or BOOL word the value (BOOL as 0 or 1), a
      FLOAT word its IEEE bits — except a TEXT cell, which is
      [texts.(j).(row)]. A hot loop reads the fields with
      [Bytes.get_int64_ne] and [Int64.float_of_bits], which box nothing;
      the functions below read them for everyone else. *)
  type t = private {
    types : Datatype.t array;
    texts : string array array;
    blocks : Bytes.t array;
    width : int;  (** bytes per row *)
    rows : int;
    mutable row : int;
    mutable block : Bytes.t;
    mutable base : int;
  }

  (** [create db table] is a cursor over the rows [table] holds now, on
      no row yet.
      @raise Violation if the table is unknown. *)
  val create : db -> string -> t

  val rows : t -> int

  (** [seek c r] moves [c] to row [r], [0 <= r < rows c].
      @raise Invalid_argument otherwise. *)
  val seek : t -> int -> unit

  (** The cell as a value (boxed). *)
  val cell : t -> int -> Value.t

  (** An INT cell's value, unboxed (a BOOL cell's 0 or 1). *)
  val int : t -> int -> int

  (** [hash_key c positions] is [Tuple.hash] of the cells at [positions],
      in that order, without building them. *)
  val hash_key : t -> int array -> int

  (** [Value.hash] of the cell. *)
  val hash : t -> int -> int

  (** [compare c j v] is [Value.compare (cell c j) v]; [compare_cells c i
      j] compares two cells of the row so. *)
  val compare : t -> int -> Value.t -> int

  val compare_cells : t -> int -> int -> int
end

(** [rows_by_key db table] is every row of [table], ascending by key: an
    order that no change to the store's layout moves, for callers whose
    output must not depend on it (seeded generators, DML row order). *)
val rows_by_key : t -> string -> Tuple.t list

val row_count : t -> string -> int

(** Number of source rows currently referencing key value [k] of [table]
    through any declared constraint. *)
val reference_count : t -> string -> Value.t -> int

(** The key-index probe chains walked so far, over every table
    ({!Rowmap.probes}): a count that tests read to show a path is
    O(delta). *)
val probes : t -> int

(** Deep copy (used by the recomputation baseline, which is allowed to hold a
    full replica of the sources). *)
val copy : t -> t

(** {2 Snapshot sections}

    A snapshot stores a store as a catalog — every table's schema and
    updatable columns, and the references — plus, per table, its rows and
    its per-key reference counts, all through {!Codec}. Restoring declares
    the catalog's tables empty, then fills each from its sections. *)

val column_types : Schema.t -> Datatype.t array

(** The type of the schema's key column. *)
val key_type : Schema.t -> Datatype.t

val add_catalog : t -> Codec.writer -> unit

(** [restore_catalog r] is the store {!add_catalog} wrote, every table
    empty.
    @raise Codec.Malformed, Violation or Schema.Invalid on a catalog that
    does not decode or declare. *)
val restore_catalog : Codec.reader -> t

(** [add_rows db table w] writes every row of [table], {!row_count} of
    them, in its column types: a row at a time, each after one
    {!Codec.room} check, its cells straight from their stored words. Into
    a {!Codec.chunks} writer it streams in the chunk's memory, however
    large the table. *)
val add_rows : t -> string -> Codec.writer -> unit

(** [add_incoming db table w] writes each key of [table] that rows
    reference, with how many do: {!incoming_count} entries. *)
val add_incoming : t -> string -> Codec.writer -> unit

val incoming_count : t -> string -> int

(** [restore_rows db table ~rows r] fills [table] with the [rows] rows [r]
    decodes, into a key index sized for them. The reference counts are not
    recounted: {!restore_incoming} reads them.
    @raise Codec.Malformed if a key occurs twice or a cell overruns. *)
val restore_rows : t -> string -> rows:int -> Codec.reader -> unit

(** [restore_incoming db table ~keys r] sets [table]'s per-key reference
    counts to the [keys] entries [r] decodes.
    @raise Codec.Malformed if a key occurs twice, a count is not positive
    or a cell overruns. *)
val restore_incoming : t -> string -> keys:int -> Codec.reader -> unit

(** {2 Version-5 snapshots}

    A version-5 snapshot is one [Marshal] payload, whose shadow is the
    store as it was laid out then: per table, a hashtable from key to
    tuple and one from key to reference count. These are those types,
    frozen, for the loader to unmarshal and convert; nothing else uses
    them. *)

module V5 : sig
  module VH : Hashtbl.S with type key = Value.t

  type table = {
    schema : Schema.t;
    key : int;
    mutable by_key : Tuple.t VH.t;
    updatable : string list;
    mutable incoming : int VH.t;
    mutable outgoing : outgoing list;
  }

  and outgoing = { ref : Integrity.reference; col : int; dst : table }

  type t = {
    tables : (string, table) Hashtbl.t;
    mutable refs : Integrity.reference list;
  }
end

(** [of_v5 s] is the store that [s] holds.
    @raise Violation if a row does not conform to its schema or a
    reference count is not a stored key's. *)
val of_v5 : V5.t -> t
