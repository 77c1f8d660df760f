(** The snapshot format, which {!Warehouse.save} writes.

    Version 7 is a magic line and typed sections — a catalog, each base
    table's rows and reference counts, the dead letters — each with its
    own CRC-32, checked before any of its bytes is decoded. Cells are
    written by their column type ({!Relational.Codec}), a decimal FLOAT
    as a varint; only the view definitions inside the catalog are
    [Marshal]ed. Version-6 files (the same sections, with 8-byte FLOAT
    cells and a pool-size field) and version-5 files (one [Marshal]
    payload) still decode; older versions are refused. *)

(** How a view is maintained ({!Warehouse.strategy} documents each). *)
type strategy = Minimal | Psj | Replicate

type contents = {
  views : (Algebra.View.t * strategy) list;  (** newest first *)
  shadow : Relational.Database.t;  (** the believed source *)
  dead : Relational.Delta.rejection list;  (** the dead letters *)
  seq : int;  (** the last batch it holds *)
}

(** A damaged file, or not a snapshot; the message names the file and,
    from version 6 on, the section. *)
exception Corrupt of string

(** A format version this build refuses, and why. *)
exception Incompatible of string

(** [save c path] writes [c] atomically ({!Durable.replace_file}), each
    section streamed through one 64 KiB buffer.
    @raise Sys_error. *)
val save : contents -> string -> unit

(** @raise Corrupt, [Incompatible] or [Sys_error]. *)
val decode : string -> contents

(** The batch number of the snapshot at [path], or why it does not
    {!decode}. *)
val verify : string -> (int, string) result

(** The kind byte of every section kind, in the order of their first
    section in a file. *)
val kinds : int list
