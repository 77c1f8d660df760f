(** The durable file operations of a state directory, in one place.

    Every write of a log frame, fsync, rename, remove and mkdir that
    {!Wal} and {!Warehouse} make under a state directory goes through this
    module, and every one of them raises [Sys_error] when it fails. A
    failed fsync is never retried and never swallowed: after one, the
    kernel may already have dropped the dirty pages and marked them clean,
    so a second fsync can report success for data that never reached the
    disk (Rebello et al., "Can Applications Recover from fsync
    Failures?", USENIX ATC 2020). The caller must treat what it wrote as
    lost.

    One error is ignored: [EINVAL] from the fsync of a directory, which a
    filesystem returns when it cannot sync directories at all. *)

(** One durable operation, as the {!set_hook} hook sees it just before
    it runs. *)
type op =
  | Write of { path : string; bytes : string }  (** {!write} *)
  | Fsync of string  (** a {!replace_file}'s temporary file *)
  | Barrier of string  (** {!barrier} *)
  | Rename of { src : string; dst : string }  (** {!rename} *)
  | Fsync_dir of string  (** the directory itself *)
  | Remove of string  (** {!remove} *)
  | Mkdir of string  (** {!mkdir}, when it creates the directory *)

(** [set_hook (Some h)] makes every operation call [h] first, and [None]
    removes it: a test seam, to trace the operations or fail one. A
    [Unix.Unix_error] that [h] raises is reported as the operation's own
    error. Without a hook no [op] is built. *)
val set_hook : (op -> unit) option -> unit

(** [fail path op e] raises the error this module raises when [op] on
    [path] fails with [e]: [Sys_error "<path>: <op>: <message>"]. *)
val fail : string -> string -> Unix.error -> 'a

(** [write path fd buf off len] appends one log frame, [len] bytes of
    [buf] from [off], to [fd], the log [path], with one [Unix.write].
    @raise Sys_error naming [path] if the write fails. *)
val write : string -> Unix.file_descr -> bytes -> int -> int -> unit

(** [barrier path fd] fsyncs [fd], the write-ahead log [path]: its
    commit barrier. The [Maintenance.Faults.Wal_fsync] point fires
    inside it; in [Fail] mode it raises exactly what a failed fsync
    raises.
    @raise Sys_error naming [path] if the fsync fails. *)
val barrier : string -> Unix.file_descr -> unit

(** [fsync_dir path] fsyncs the directory containing [path], making a
    new, renamed or removed entry in it durable: without it, a power cut
    can bring the replaced file back or lose the new one.
    @raise Sys_error if the directory cannot be opened or synced (an
    [EINVAL] from its fsync excepted, see above). *)
val fsync_dir : string -> unit

(** [rename src dst] renames [src] over [dst], then fsyncs [dst]'s
    directory, and [src]'s too when it is another one.
    @raise Sys_error *)
val rename : string -> string -> unit

(** [replace_file path fill] publishes [path] atomically: [fill] writes
    [path ^ ".tmp"], which is fsynced and then {!rename}d over [path]. If
    writing or syncing the temporary file fails, it is removed and [path]
    is left as it was.
    @raise Sys_error *)
val replace_file : string -> (out_channel -> unit) -> unit

(** [remove path] removes a file. Its directory is not synced: the
    caller's next {!fsync_dir} of it makes the removal durable.
    @raise Sys_error *)
val remove : string -> unit

(** [mkdir path] creates a directory and fsyncs its parent, so the new
    entry survives a power cut; an existing directory is left as it is,
    and nothing is synced.
    @raise Sys_error if [path] exists and is not a directory, or cannot
    be created. *)
val mkdir : string -> unit

(** [quarantine ?contents path] sets evidence aside beside [path] and
    returns where: the first free name among [path ^ ".quarantine"],
    [path ^ ".quarantine.1"], [path ^ ".quarantine.2"], ... — earlier
    evidence is never clobbered. Without [contents], [path] itself is
    {!rename}d there; with [~contents], those bytes are published there
    as a new file ({!replace_file}) and [path] is left alone.
    @raise Sys_error *)
val quarantine : ?contents:string -> string -> string
