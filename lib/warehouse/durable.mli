(** The durable file operations of a state directory, in one place.

    Every fsync, rename, remove and mkdir that {!Wal} and {!Warehouse}
    make under a state directory goes through this module, and every one
    of them raises [Sys_error] when it fails. A failed fsync is never
    retried and never swallowed: after one, the kernel may already have
    dropped the dirty pages and marked them clean, so a second fsync can
    report success for data that never reached the disk (Rebello et al.,
    "Can Applications Recover from fsync Failures?", USENIX ATC 2020).
    The caller must treat what it wrote as lost.

    One error is ignored: [EINVAL] from the fsync of a directory, which a
    filesystem returns when it cannot sync directories at all. *)

(** [fail path op e] raises the error this module raises when [op] on
    [path] fails with [e]: [Sys_error "<path>: <op>: <message>"]. *)
val fail : string -> string -> Unix.error -> 'a

(** [barrier path fd] fsyncs [fd], the write-ahead log [path]: its
    commit barrier. The [Maintenance.Faults.Wal_fsync] crash point fires
    inside it; in [Fail] mode it raises exactly what a failed fsync
    raises.
    @raise Sys_error naming [path] if the fsync fails. *)
val barrier : string -> Unix.file_descr -> unit

(** [fsync_dir path] fsyncs the directory containing [path], making a
    rename into it durable: without it, a power cut can bring the
    replaced file back.
    @raise Sys_error if the directory cannot be opened or synced (an
    [EINVAL] from its fsync excepted, see above). *)
val fsync_dir : string -> unit

(** [rename ?window src dst] renames [src] over [dst], then fsyncs
    [dst]'s directory, and [src]'s too when it is another one. [window],
    when given, is the crash point hit between the rename and the
    directory fsync.
    @raise Sys_error *)
val rename : ?window:Maintenance.Faults.point -> string -> string -> unit

(** [replace_file ?window path fill] publishes [path] atomically: [fill]
    writes [path ^ ".tmp"], which is fsynced and then {!rename}d over
    [path] (with [window]). If writing or syncing the temporary file
    fails, it is removed and [path] is left as it was.
    @raise Sys_error *)
val replace_file :
  ?window:Maintenance.Faults.point -> string -> (out_channel -> unit) -> unit

(** [remove path] removes a file.
    @raise Sys_error *)
val remove : string -> unit

(** [mkdir path] creates a directory; an existing directory is left as it
    is.
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
