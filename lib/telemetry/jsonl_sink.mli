(** Size-capped rotating JSONL file sink: {!Lineage}'s persistence
    file and the serve front-end's slow-query log.

    Lines are appended to [path]. When the active file grows past
    [max_bytes] it is rotated shift-style before the next write:
    [path.3] is dropped, [path.i] becomes [path.i+1], and the active
    file becomes [path.1] — so at most 4 files (the active one plus 3
    rotated generations) ever exist. *)

type t

val open_ : ?max_bytes:int -> string -> t
(** Open [path] for appending, creating it if needed. [max_bytes]
    defaults to 64 MiB. *)

val write_line : t -> string -> unit
(** Append one line (the terminating newline is added) and flush.
    Rotates first when the active file is already over the byte limit,
    so a single oversized line never splits across files. *)

val close : t -> unit
(** Close the active channel. Further {!write_line} calls are no-ops. *)
