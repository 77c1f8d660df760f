(** The warehouse's write-ahead log.

    Accepted delta batches are appended (and flushed) here {e before} any
    maintenance engine applies them; the append is the commit point. After a
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

(** [quarantine_path path] is where {!salvage} puts the bad tail
    ([path ^ ".quarantine"]). *)
val quarantine_path : string -> string

(** [salvage path] repairs a damaged log: the undecodable tail is copied to
    {!quarantine_path} (fsynced before the log is touched, so the evidence
    survives), the valid prefix is atomically rewritten in place, and both
    renames are made durable with directory fsyncs. Returns the scan and the
    quarantine path ([None] if the log was already clean and nothing was
    written). The callers report each salvage: [minview repair]'s report
    and recovery's warning log line.
    @raise Corrupt as {!scan}. *)
val salvage : string -> scan * string option

type writer

(** Open for appending, creating the file (or salvaging a damaged tail, with
    quarantine) as needed. @raise Corrupt as {!scan}. *)
val open_append : string -> writer

(** [open_scanned path s] opens for appending a log whose scan [s] the
    caller has just taken — and, if [s] found damage, {!salvage}d since —
    without reading it again; a missing file is created. Recovery uses it
    so the live log is scanned once.
    @raise Corrupt if [path]'s length is not where [s]'s decodable prefix
    ends (appends would not start on a record boundary). *)
val open_scanned : string -> scan -> writer

(** [append ?sync w r] stages one record. With [~sync:true] (the default)
    the record — and anything staged before it — is immediately written and
    fsynced: once [append] returns, the record survives a power cut. With
    [~sync:false] the record only joins the writer's in-memory buffer;
    nothing is durable (or even visible to {!scan}) until the next
    {!sync}. Group commit: stage every batch of an ingest burst with
    [~sync:false], then pay one write and one fsync in a single {!sync}. *)
val append : ?sync:bool -> writer -> record -> unit

(** Write all buffered records to the OS in one write and fsync the log.
    The durability barrier of a group commit (crash points:
    [Maintenance.Faults.Mid_group_commit] — a power cut mid-write leaves a
    torn tail that recovery salvages — and [Maintenance.Faults.Wal_fsync] —
    in [Fail] mode, a transient fsync failure the ingest retry policy
    absorbs by calling [sync] again). A no-op buffer still fsyncs, so [sync]
    is also a plain durability barrier. *)
val sync : writer -> unit

(** Atomically reset the log to empty (after a checkpoint made its records
    redundant). Buffered-but-unsynced records are dropped — they describe
    batches the checkpoint already contains. The replacement file is fsynced
    before the rename and the containing directory after it, so the reset
    cannot be undone by a crash (crash point:
    [Maintenance.Faults.After_truncate_rename]). *)
val truncate : writer -> unit

(** [rotate w ~to_path] archives the live log: the current file is renamed
    to [to_path] (directory-fsynced), a fresh empty log is atomically
    created in its place, and the writer continues on it. The checkpoint
    generation chain uses this instead of {!truncate} so the replaced log's
    records stay replayable from the archive. Buffered-but-unsynced records
    are dropped as in {!truncate}; the same
    [Maintenance.Faults.After_truncate_rename] crash point covers the fresh
    log's publication. *)
val rotate : writer -> to_path:string -> unit

(** Flushes buffered records (best-effort) and closes the file. *)
val close : writer -> unit

(** [replace_file path fill] publishes [path] atomically: [fill] writes
    [path ^ ".tmp"], which is fsynced and then renamed over [path].
    @raise Sys_error if the fsync fails; the temporary file is then
    removed and [path] is left as it was. *)
val replace_file : string -> (out_channel -> unit) -> unit

(** [fsync_dir path] fsyncs the directory containing [path], making a
    completed rename within it durable. Best-effort: errors from filesystems
    that refuse directory fsync are swallowed. *)
val fsync_dir : string -> unit
