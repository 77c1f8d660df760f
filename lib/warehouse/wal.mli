(** The warehouse's write-ahead log.

    Accepted delta batches are appended here {e before} any maintenance
    engine applies them, each written and fsynced on its own; the append
    is the commit point. Every file operation goes through {!Durable}, so
    a failed write or fsync raises and is never retried. After a
    crash, {!Warehouse.recover} {!scan}s the segments its snapshot does not
    cover, replays the committed batches newer than the snapshot, and opens
    the live log's writer from its scan ({!open_scanned}).

    On-disk format: a ["minview-wal/3\n"] header followed by records, each
    framed as [u32-le payload length], [u32-le CRC-32 of payload], payload.
    A payload is typed and depends on no build: a kind byte and the
    record's seq; a batch goes on with a dictionary of the tables it
    touches (name and column {!Relational.Datatype.t}s, so a log decodes
    without the catalog), its delta count, and per delta one varint (table
    index and change kind) and its rows as untagged cells
    ({!Relational.Codec.add_row}, a decimal FLOAT as a varint). Inserts
    and deletes write their row; an
    update writes its full before-image, then a mask of the columns whose
    cell changed and only those cells. An undecodable tail is detected,
    classified ({!damage_kind}) and — on the repair paths — quarantined
    next to the log ({!salvage}); {!open_append} repairs the file by
    atomically rewriting the valid prefix.

    Logs of the legacy ["minview-wal/2\n"] format (the same payloads with
    every FLOAT cell as its 8 IEEE bytes) and ["minview-wal/1\n"] format
    ([Marshal]ed {!record} payloads) still {!scan} and replay. Nothing is
    appended to one: opening
    it for appending first rewrites its decodable prefix in the current
    format, and {!salvage} and {!archive_failed} always write it. *)

type record =
  | Batch of { seq : int; deltas : Relational.Delta.t list }
      (** batch [seq] was validated and committed *)
  | Abort of { seq : int }
      (** batch [seq] failed mid-apply after commit and was rolled back;
          replay must skip its [Batch] record *)

val seq_of : record -> int

(** The format version this build writes, 3. *)
val version : int

(** {2 Payloads} *)

(** A batch the log cannot hold: a [NULL] cell, or a row whose arity or
    cell types differ from the first row of its table in the batch. Every
    logged batch was admitted, so its rows conform to their schemas and
    this never happens on the commit path. *)
exception Unencodable of string

(** [encode r] is [r]'s current-format payload.
    @raise Unencodable *)
val encode : record -> string

(** [decode ~version payload] reads one payload of format [version] (1,
    the legacy [Marshal] records, 2, with 8-byte FLOAT cells, or 3):
    {!encode}'s inverse for version 3, with the cells of an update's
    after-image that did not change sharing the before-image's values.
    @raise Relational.Codec.Malformed if a typed payload does not decode
    (a version-1 one raises what [Marshal] raises).
    @raise Invalid_argument on another version. *)
val decode : version:int -> string -> record

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
  s_version : int;
      (** the header's format: 1 or 2 (legacy) or 3; 3 for a missing
          file *)
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
    without reading it again; a missing file is created, and a legacy
    (version-1 or -2) log is first rewritten from [s]'s records in the current
    format. Recovery uses it so the live log is scanned once.
    @raise Corrupt if [path]'s length is not where [s]'s decodable prefix
    ends (appends would not start on a record boundary).
    @raise Sys_error if a file operation fails. *)
val open_scanned : string -> scan -> writer

(** [create path] atomically replaces [path] with an empty log and opens
    it for appending: after a checkpoint, whose snapshot holds every
    record of the log it replaces ({!Durable.replace_file}).
    @raise Sys_error if a file operation fails. *)
val create : string -> writer

(** [append w r] writes one record and fsyncs the log: once [append]
    returns, the record survives a power cut. The frame is encoded whole
    before anything is written, then handed to the file in one
    {!Durable.write} and made durable by {!Durable.barrier}.
    @raise Unencodable before writing anything: the log is intact.
    @raise Sys_error if the write or the fsync fails. The log has then
    failed: what reached its disk is unknown, so nothing more may be
    written to it. *)
val append : writer -> record -> unit

(** Closes the file. Every record was synced by its own {!append}, so
    nothing is lost. *)
val close : writer -> unit
