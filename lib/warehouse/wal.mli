(** The warehouse's write-ahead log.

    Accepted delta batches are appended here {e before} any maintenance
    engine applies them, each written and fsynced on its own; the append
    is the commit point. Every file operation goes through {!Durable}, so
    a failed write or fsync raises and is never retried. After a
    crash, {!Warehouse.recover} {!scan}s the segments its snapshot does not
    cover, replays the committed batches newer than the snapshot, and opens
    the live log's writer from its scan ({!open_scanned}).

    On-disk format: a ["minview-wal/1\n"] header followed by records, each
    framed as [u32-le payload length], [u32-le CRC-32 of payload], payload
    ([Marshal]ed {!record}). An undecodable tail is detected, classified
    ({!damage_kind}) and — on the repair paths — quarantined next to the log
    ({!salvage}); {!open_append} repairs the file by atomically rewriting the
    valid prefix. *)

type record =
  | Batch of { seq : int; deltas : Relational.Delta.t list }
      (** batch [seq] was validated and committed *)
  | Abort of { seq : int }
      (** batch [seq] failed mid-apply after commit and was rolled back;
          replay must skip its [Batch] record *)

val seq_of : record -> int

(** A structurally damaged log (bad header) — distinct from a damaged tail,
    which is tolerated and salvageable. *)
exception Corrupt of string

(** {2 Damage classification}

    Record frames carry no per-frame magic, so boundaries cannot be
    resynchronized past a bad frame: everything from the first undecodable
    byte is one quarantined tail. What distinguishes the two kinds is {e how}
    that tail fails to decode. *)

type damage_kind =
  | Torn_write
      (** the file simply ends mid-frame (incomplete header or truncated
          payload) — the artifact of a crash during an append; the expected
          state after a power cut, repaired automatically on reopen *)
  | Bit_flip
      (** a full-length frame whose checksum or payload is wrong — mid-stream
          bit rot, which can hide committed batches after it; surfaced to the
          operator ([minview fsck] / [minview repair]) rather than silently
          dropped on the recovery path *)

(** Stable kebab-case labels ("torn-write", "bit-flip"). *)
val damage_kind_label : damage_kind -> string

type damage = {
  d_offset : int;  (** where the undecodable tail starts *)
  d_bytes : int;  (** bytes from there to end of file *)
  d_kind : damage_kind;
  d_reason : string;  (** human-readable: what failed to decode *)
}

type scan = {
  s_records : record list;  (** the decodable prefix, in order *)
  s_valid_bytes : int;  (** header plus every decodable record *)
  s_damage : damage option;  (** [None] = the file ended cleanly *)
}

(** [scan path] reads the decodable prefix and classifies whatever follows
    it. A missing file scans as empty and clean.
    @raise Corrupt if the file exists but is not a WAL. *)
val scan : string -> scan

(** [salvage path] repairs a damaged log: the undecodable tail is
    quarantined beside it ({!Durable.quarantine}, made durable before the
    log is touched, so the evidence survives; an earlier salvage's tail is
    never overwritten), then the valid prefix is atomically rewritten in
    place. Returns the quarantine file ([None] if the log was already
    clean and nothing was written). The callers report each
    salvage: [minview repair]'s report and recovery's warning log line.
    @raise Corrupt as {!scan}.
    @raise Sys_error if a file operation fails. *)
val salvage : string -> string option

(** [archive_failed path ~dst ~seq] archives the log [path], which failed
    while writing batch [seq], as [dst]: a new file ({!Durable.replace_file})
    holding [path]'s decodable prefix followed by [Abort {seq}], so a
    replay of the archive never resurrects the failed batch. An
    undecodable tail is quarantined beside [dst] first
    ({!Durable.quarantine}). Then [path] is removed; nothing is written to
    it.
    @raise Corrupt as {!scan}.
    @raise Sys_error if a file operation fails. *)
val archive_failed : string -> dst:string -> seq:int -> unit

type writer

(** Open for appending, creating the file (or salvaging a damaged tail, with
    quarantine) as needed. @raise Corrupt as {!scan}.
    @raise Sys_error as {!salvage}. *)
val open_append : string -> writer

(** [open_scanned path s] opens for appending a log whose scan [s] the
    caller has just taken — and, if [s] found damage, {!salvage}d since —
    without reading it again; a missing file is created. Recovery uses it
    so the live log is scanned once.
    @raise Corrupt if [path]'s length is not where [s]'s decodable prefix
    ends (appends would not start on a record boundary).
    @raise Sys_error if a file operation fails. *)
val open_scanned : string -> scan -> writer

(** [create path] atomically replaces [path] with an empty log and opens
    it for appending: after a checkpoint, whose snapshot holds every
    record of the log it replaces. The new file is fsynced before its
    rename and the directory after it (crash point between the two:
    [Maintenance.Faults.After_truncate_rename]).
    @raise Sys_error if a file operation fails. *)
val create : string -> writer

(** [append w r] writes one record and fsyncs the log: once [append]
    returns, the record survives a power cut. Crash points:
    [Maintenance.Faults.Mid_group_commit] between the two halves of the
    frame's write (a power cut there leaves a torn tail that recovery
    salvages) and [Maintenance.Faults.Wal_fsync] at the barrier
    ({!Durable.barrier}).
    @raise Sys_error if the write or the fsync fails. The log has then
    failed: what reached its disk is unknown, so nothing more may be
    written to it. *)
val append : writer -> record -> unit

(** Closes the file. Every record was synced by its own {!append}, so
    nothing is lost. *)
val close : writer -> unit
