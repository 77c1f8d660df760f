(** The data warehouse of Figure 1 — see the facade functions below — and
    the storage accounting model. *)

(** The paper's storage accounting (Section 1.1): size = rows x fields x
    bytes-per-field, reported in binary units. *)
module Storage : sig
  (** The paper's storage accounting (Section 1.1): size = rows × fields ×
      bytes-per-field, reported in binary units (the paper's "245 GBytes" is
      13.14e9 tuples × 5 fields × 4 bytes ≈ 244.7 GiB). *)

  (** [rows] x [fields] x 4 bytes per field, as in the paper's case
      study. *)
  val bytes : rows:int -> fields:int -> int

  (** Human-readable binary-unit rendering ("244.7 GB", "167.1 MB" — the paper
      writes GBytes/MBytes for GiB/MiB). *)
  val show_bytes : int -> string

  (** Total bytes of a (name, rows, fields) profile. *)
  val profile_bytes : (string * int * int) list -> int

  (** Render a profile as an ASCII table with per-object and total sizes. *)
  val render_profile : (string * int * int) list -> string
end

(** CRC-32 of the WAL records and snapshot payloads. *)
module Checksum = Checksum

(** The snapshot format, which {!save} writes and {!load} reads. *)
module Snapshot = Snapshot

(** The write-ahead log: its typed payloads and {!Wal.scan}, which decodes
    and classifies a log without the catalog. *)
module Wal = Wal

(** The durable file operations of a state directory, and their hook. *)
module Durable = Durable

(** {2 Errors} *)

type error_kind =
  | Duplicate_view  (** a view with that name is already registered *)
  | Unknown_view  (** no view with that name is registered *)
  | Corrupt_state  (** a state/WAL file failed integrity checks *)
  | Incompatible_state  (** a state file from an unsupported format version *)
  | Not_durable  (** a durability operation on an unattached warehouse *)
  | Io_error  (** the underlying filesystem operation failed *)
  | Invalid_request  (** a malformed request (bad SQL, double attach, ...) *)

(** Every failure of the warehouse API. [detail] is a human-readable
    message; [kind] is the machine-readable class (see {!kind_label}). *)
exception Error of { kind : error_kind; detail : string }

(** Stable kebab-case label of an {!error_kind} ("corrupt-state", ...). *)
val kind_label : error_kind -> string

(** {2 The warehouse}

    The data warehouse of Figure 1: summarized data (materialized GPSJ views)
    over current detail data (the minimal auxiliary views), fed by the source
    delta stream.

    The warehouse reads the operational store exactly once per registered
    view — at registration, mirroring the initial extract — and afterwards
    maintains everything from {!ingest}ed deltas alone. Ingestion is
    {e validated} (deltas are checked against the believed source state
    before any engine sees them; rejects land in a dead-letter queue) and
    {e transactional} (a batch is applied to every registered view or to
    none). Attach a state directory ({!attach}) to make it durable:
    accepted batches are written ahead to a log and {!recover} replays the
    tail after a crash. *)

type strategy = Snapshot.strategy =
  | Minimal  (** Algorithm 3.2 auxiliary views (the paper) *)
  | Psj  (** Quass et al. tuple-level auxiliary views *)
  | Replicate  (** full base replica + recomputation *)

type t

(** [create source] prepares a warehouse attached to an operational store.
    The store is copied into the validator's shadow, the warehouse's only
    copy of the believed source; [source] itself is not retained, so later
    changes to it are invisible to the warehouse. *)
val create : Relational.Database.t -> t

(** Register a summary table. Performs the initial load from the believed
    source ({!believed_source}: the initial extract plus every committed
    delta), so a view registered after ingestion starts from the current
    state, exactly as {!load} and {!recover} would rebuild it.
    @raise Algebra.View.Invalid on malformed views, {!Error}
    ([Duplicate_view]) on duplicate names. *)
val add_view : ?strategy:strategy -> t -> Algebra.View.t -> unit

(** Register a view given as SQL text ([CREATE VIEW ... AS SELECT ...;]).
    @raise Error ([Invalid_request]) if the statement is not CREATE VIEW. *)
val add_view_sql : ?strategy:strategy -> t -> string -> unit

(** {2 Ingestion}

    Deltas are validated against the warehouse's {e believed} source state —
    the initial extract advanced by every previously accepted delta — before
    any maintenance engine sees them: schema conformance, key constraints,
    and referential integrity. Rejected deltas are quarantined in the
    dead-letter queue with machine-readable reasons; valid deltas of the
    same batch still apply (graceful degradation).

    Accepted deltas apply {e atomically} across every registered view:
    engines absorb the batch in place under undo journals, committed only
    once all of them succeeded, so a mid-batch engine failure leaves every
    view at its pre-batch state (and quarantines the batch). *)

(** Outcome of one {!ingest_report} call: [batch] is the WAL sequence number
    (unchanged if nothing was accepted), [applied] the number of deltas
    applied to the views, [rejected] the quarantined deltas. *)
type report = {
  batch : int;
  applied : int;
  rejected : Relational.Delta.rejection list;
}

(** Feed source changes to every registered view (see above for the
    validation and atomicity contract). On an attached warehouse each
    batch is written and fsynced to the log on its own before any engine
    applies it.
    @raise Error ([Io_error]) if the log fails, or has failed and was not
    replaced (see Fault tolerance below). *)
val ingest : t -> Relational.Delta.t list -> unit

(** As {!ingest}, returning what happened. *)
val ingest_report : t -> Relational.Delta.t list -> report

(** {2 Fault tolerance}

    {e A failed write-ahead log} — a write or fsync of a batch's record
    that fails, a real [EIO] or [ENOSPC] as much as
    [Maintenance.Faults.Wal_fsync] in [Fail] mode — is never retried:
    after a failed fsync the kernel may have dropped the pages, and a
    second fsync can report success for data that never reached the disk.
    The batch is aborted before any engine sees it: the validator
    transaction rolls back, the batch's sequence number is consumed and
    its deltas are quarantined as [Engine_failure], with a detail naming
    the barrier. Nothing more is written to that log. The warehouse
    replaces it as {!checkpoint} does — a snapshot of the committed state,
    whose sequence number covers the failed batch, then a fresh, empty
    log, the failed one archived with an [Abort] marker for the batch
    ({!Wal.archive_failed}) — and {!ingest} raises {!Error}
    ([Io_error]). If that checkpoint
    fails too, the warehouse keeps no log: {!wal_attached} is [false], the
    {!health} check fails, and every {!ingest} raises [Io_error] before it
    admits anything, until a {!checkpoint} succeeds and opens a fresh log.
    The [Abort] marker written after an engine failure follows the same
    rule. *)

(** {2 Health and runtime profiling}

    Hooks for the performance observatory: the HTTP exporter's [/healthz]
    checks and the [minview_runtime_offheap_bytes] gauge. *)

(** Whether a durability directory is attached (see {!attach}). *)
val wal_attached : t -> bool

(** Off-heap (Bigarray) bytes across every registered view's columnar
    storage — see {!Maintenance.Engines.offheap_bytes}. Walks live engine
    state: call it from the ingesting domain (or while no ingest runs). *)
val offheap_bytes : t -> int

(** Register this warehouse as the {!Telemetry.Runtime} off-heap source:
    its {!offheap_bytes} are published now and at every commit. Call it
    from the ingesting domain. Process-global, last registration wins. *)
val publish_offheap : t -> unit

(** The health check for {!Telemetry.Http_exporter}: one check, [wal],
    which fails exactly when the warehouse is attached to a state
    directory whose log failed and was not replaced — the one state in
    which {!ingest} refuses every batch (see Fault tolerance). An
    unattached warehouse passes. Safe to call from another domain: every
    read is one word, at worst one batch stale. *)
val health : t -> Telemetry.Http_exporter.check list

(** A no-op. Every batch, ingested or replayed, is netted once through a
    key table the warehouse keeps ({!Maintenance.Engine.net}), and every
    incremental view takes its tables from that one result; no pool
    selects it. Kept, with {!Maintenance.Shard.serial}, for callers that
    still pass a pool; it goes when they stop. *)
val set_parallel : t -> Maintenance.Shard.pool option -> unit

(** The dead-letter queue, oldest first. *)
val dead_letters : t -> Relational.Delta.rejection list

(** The source state the warehouse believes in: the initial extract advanced
    by every accepted delta. Audits compare view contents against views
    evaluated over this. *)
val believed_source : t -> Relational.Database.t

(** Number of batches recorded so far (committed or aborted); after a
    {!recover}, tells the ingestion driver where to resume. *)
val ingested_batches : t -> int

(** {2 Queries: the epoch read path}

    Reads are served from immutable {e read epochs}, never from the live
    maintenance engines. Every commit — and every registration, load and
    recovery — freezes each view's rows, in canonical order, into a
    snapshot and publishes it with a single atomic pointer swap; {!query},
    {!read_sorted} and {!with_snapshot} then work entirely on
    frozen data. A commit re-renders only the groups its batch touched and
    merges them into the previous epoch's rows ({!Maintenance.Engines.publish});
    the first epoch after registration, {!load} or {!recover} renders in
    full. Once a reader has asked for a view's lines
    ({!read_lines}), every epoch also carries the view's rows rendered as a
    QUERY body: a commit renders the lines of the rows it re-rendered and
    copies the rest from the previous epoch, so a read copies bytes and
    renders nothing. The contract this buys:

    {ul
    {- {e No torn reads.} A reader racing {!ingest} sees the state before
       the batch or after it, never between: the publication swap at the
       commit point is the only transition. Rollback, quarantine and crash
       recovery publish nothing partial — an aborted batch is invisible to readers.}
    {- {e Readers never block the writer} (and vice versa). A read is one
       [Atomic.get] plus traversal of immutable data; readers may run on
       any number of concurrent domains while ingestion commits continue.
       The row arrays handed out by {!read_sorted} are shared frozen
       state: never mutate them.}
    {- {e Bounded staleness, measured.} A snapshot pinned with
       {!current_snapshot} serves the same bytes forever; the gap between
       the WAL head and the epoch a read was served from is published as
       the [minview_warehouse_epoch_lag_batches] gauge (0 on the default
       path, since every commit publishes). Reads are counted as
       [minview_warehouse_reads_total] and timed as
       [minview_warehouse_read_seconds]; publications as
       [minview_warehouse_epoch_publications_total].}}

    {e Row order.} An epoch holds each view's rows in the canonical order
    ([Tuple.compare] ascending, as [Relational.Relation.to_sorted_list]
    gives it), so {!read_sorted}, {!query_sorted} and the [minview serve]
    protocol walk them without sorting, and their output does not depend
    on how the deltas were cut into batches. The relation {!query} builds iterates in
    hashtable order instead. *)

val view_names : t -> string list

(** Registered view definitions, in registration order. *)
val views : t -> Algebra.View.t list

(** An immutable read epoch: the per-view output state captured at one
    commit point. Snapshots are plain frozen values — hold one as long as
    you like (a pinned snapshot is immune to later commits), share it
    across domains, read it repeatedly for identical results. *)
type snapshot

(** Contents of a view as of the latest published epoch, or of a pinned
    one with [?snapshot]: output column names and a relation built from
    the epoch's rows ({!read_sorted}'s, O(rows)).
    @raise Error ([Unknown_view]) if the view is not in the epoch. *)
val query :
  ?snapshot:snapshot -> t -> string -> string list * Relational.Relation.t

(** As {!query}, with the rows in canonical order ((tuple, multiplicity),
    [Tuple.compare] ascending) — a list walked off the epoch, no sort. *)
val query_sorted :
  t -> string -> string list * (Relational.Tuple.t * int) list

(** The latest published epoch (one atomic load; never blocks). *)
val current_snapshot : t -> snapshot

(** [with_snapshot t f] runs [f] against the latest published epoch — all
    reads inside [f] see one consistent commit point even while ingestion
    continues concurrently. *)
val with_snapshot : t -> (snapshot -> 'a) -> 'a

(** [read_sorted t name] serves a view's rows from the latest published
    epoch, [read_sorted ~snapshot t name] from a pinned one: the epoch's own
    array in canonical order, returned in O(1). Never mutate it. Counted
    and timed as described above.
    @raise Error ([Unknown_view]) if the view is not in the epoch. *)
val read_sorted :
  ?snapshot:snapshot ->
  t ->
  string ->
  string list * (Relational.Tuple.t * int) array

(** [read_lines ?snapshot t name] is [name]'s rows in the epoch as the body
    of a QUERY response: the output column names, the row count, and one
    line per row in canonical order, [mult<TAB>cell...<LF>] with each cell
    the bytes of [Relational.Value.to_string] — the same rows
    {!read_sorted} returns. The first call for a view marks it as read, and
    from the next publication on every epoch carries the view's lines,
    rendered at publication for the rows that publication changed and
    copied from the previous epoch for the rest: the call then returns the
    epoch's own string in O(1), never mutated. On an epoch published before
    the view was first read it renders the lines on the fly, in
    O(rows). Counted and timed as {!read_sorted}.
    @raise Error ([Unknown_view]) if the view is not in the epoch. *)
val read_lines :
  ?snapshot:snapshot -> t -> string -> string list * int * string

(** [epoch_lines s name] is the lines [s] carries for [name], [None] when
    [s] was published before a reader first asked {!read_lines} of the
    view. For tests: it does not mark the view as read.
    @raise Error ([Unknown_view]) if the view is not in the epoch. *)
val epoch_lines : snapshot -> string -> string option

(** Monotonic publication counter of an epoch (0 = nothing published). *)
val snapshot_epoch : snapshot -> int

(** The WAL sequence number ({!ingested_batches}) the epoch reflects. *)
val snapshot_seq : snapshot -> int

(** The view definitions frozen in an epoch, in registration order. *)
val snapshot_views : snapshot -> Algebra.View.t list

(** The derivation behind a view (None for [Replicate]). *)
val derivation_of : t -> string -> Mindetail.Derive.t option

(** Detail-data storage profile across all views: (object, rows, fields). *)
val detail_profile : t -> (string * int * int) list

(** Measured resident bytes per view: [(view, (object, bytes) list)] with
    the view state first and its auxiliary views after, from the columnar
    segments' per-column byte accounting (see {!Maintenance.Engine
    .measured_bytes}). Views without measured state (the [Replicate]
    baseline stores a boxed replica) are omitted. *)
val measured_bytes : t -> (string * (string * int) list) list

(** [audit t ~reference] recomputes every registered view from scratch over
    [reference] (typically {!believed_source} or the true operational store)
    and reports, per view, whether the maintained contents match.

    With [?sample:k] the audit runs in {e continuous drift} mode instead:
    each incremental engine recomputes [k] evenly sampled group keys from
    its own retained detail (the auxiliary views) and cross-checks the
    maintained groups — [reference] is only consulted for engines without
    retained detail (full replicas). Divergences also
    surface as [minview_lineage_audit_divergences_total] counters and
    [lineage.audit] trace events (see {!Telemetry.Lineage.audit}). *)
val audit :
  ?sample:int -> t -> reference:Relational.Database.t -> (string * bool) list

(** [self_audit t ~sample] is the reference-free drift check alone:
    for every view whose engine retains detail data, recompute [sample]
    sampled groups from it and return [(view, checked, divergences)].
    Views without retained detail are skipped. *)
val self_audit : t -> sample:int -> (string * int * int) list

(** {2 Savings attribution}

    The paper's byte accounting, measured live: how much of the raw
    detail each minimization technique (local selection, local
    projection, join reduction, duplicate compression, auxview
    elimination) is currently saving, per auxiliary view. *)

(** [attribution t] measures every derivation-backed view against the
    believed source ({!Mindetail.Attribution.measure}), read in place,
    not copied; it writes nothing
    to the metric registry ([minview attribute] renders the result).
    Views without a derivation ([Replicate]) are skipped. *)
val attribution : t -> (string * Mindetail.Attribution.t list) list

(** One reconciliation check: the attribution waterfall's survivor counts
    for a retained auxview versus the live [minview_aux_resident_rows] /
    [minview_aux_detail_rows] gauges maintained incrementally by the
    engine. [consistent] tolerates a difference of at most one row. *)
type reconciliation = {
  rec_view : string;
  rec_aux : string;
  rec_base : string;
  measured_resident : int;
  gauge_resident : int;
  measured_detail : int;
  gauge_detail : int;
  consistent : bool;  (** both deltas within the +-1 row tolerance *)
}

(** Cross-check {!attribution} against the engines' live gauges, one
    record per retained auxview. Empty while telemetry is disabled (the
    gauges are never set then, so there is nothing to reconcile). *)
val reconcile_attribution : t -> reconciliation list

(** Full textual report: per-view derivation and storage. *)
val report : t -> string

(** {2 Persistence}

    A warehouse survives restarts: [save] writes the view definitions,
    the validator's believed source, the dead-letter queue and the batch
    sequence number, and [load] restores the warehouse without touching
    any source, rebuilding every view's groups and auxiliary views (and
    the replicas of [Replicate] views) from the believed source.

    The format is {!Snapshot}'s: a truncated or bit-rotted file is
    reported as {!Error} ([Corrupt_state]) naming the damaged section, and
    a refused older version as [Incompatible_state]. *)

(** [save t path] snapshots the warehouse atomically (temp file + rename).
    @raise Error ([Io_error]). *)
val save : t -> string -> unit

(** [load path] restores a saved warehouse (not attached to a state
    directory — see {!attach} / {!recover}). The views' engines are built
    concurrently on the one restored shadow, which they only read: one
    domain per core, never more than there are views, the calling domain
    among them (inline on a one-core host). Every domain is joined before
    [load] returns or raises; if builds fail, the exception of the
    earliest-registered failing view is re-raised, as a serial build would.
    @raise Error ([Io_error] on unreadable files, [Corrupt_state] on
    truncated/garbage/checksum-mismatched ones, [Incompatible_state] on old
    format versions). *)
val load : string -> t

(** {2 Durability}

    An {e attached} warehouse writes every accepted batch to a write-ahead
    log under its state directory before any engine applies it; the fsynced
    append is the commit point. {!checkpoint} snapshots the full state and
    {e rotates} the log into a checkpoint generation chain: the outgoing
    snapshot and its WAL segment are archived under [dir/generations/]
    (as [snapshot-<n>.bin] / [wal-<n>.bin], the last two retained) instead
    of being destroyed. After a crash, {!recover} loads
    the newest snapshot that passes its CRC check — falling back along the
    chain past unverifiable ones — and replays the committed WAL records
    newer than it (the archived segments from its generation on, in chain
    order, then the live log, skipping aborted batches and tolerating a
    torn tail on the live log), so the warehouse comes back at the last
    committed batch even when the latest snapshot is damaged. Archived
    segments older than the restored snapshot hold only batches it
    contains; recovery does not read them ({!fsck} still checks them). *)

(** [attach t ~dir] makes [t] durable: creates [dir] if needed, opens (or
    repairs) its WAL, and takes an initial checkpoint. Also opens the
    warehouse's own lineage sink, [dir/lineage.jsonl], so every committed
    batch leaves a lineage record next to its WAL commit marker (see
    {!Telemetry.Lineage}); another warehouse in the process writes its
    own directory's.
    @raise Error ([Invalid_request] if already attached; [Io_error],
    [Corrupt_state]). *)
val attach : t -> dir:string -> unit

(** Snapshot the state directory, archive the previous generation and
    rotate the WAL (see the chain contract above). The only way to
    checkpoint: {!ingest} never does; a caller that wants a checkpoint
    every n batches calls it after them. Also writes the current
    workload profile beside the WAL (best-effort — a failed profile write
    never fails the checkpoint). A failure before the new snapshot is in
    place leaves the log as it was; one while the log is being replaced
    leaves the warehouse without a log, as a failed log does (see Fault
    tolerance), until a checkpoint succeeds.
    @raise Error ([Not_durable] if not attached, [Io_error] if a file
    operation fails). *)
val checkpoint : t -> unit

(** Where {!checkpoint} persists the workload profile
    ([dir/workload_profile.json]). *)
val workload_profile_path : string -> string

(** Write the current workload profile to the attached state directory on
    demand and return its path.
    @raise Error ([Not_durable] if not attached). *)
val write_workload_profile : t -> string

(** [recover ~dir] rebuilds the warehouse from [dir] (see the chain
    contract above) and attaches the result to it. An unverifiable
    snapshot is quarantined (renamed aside with a [.quarantine] suffix,
    counted as [minview_warehouse_snapshot_fallbacks_total]) once an older
    generation has verified. An existing-but-empty state directory is a
    valid cold start: it is initialized in place instead of reported as
    corruption. A replayed batch commits exactly as an ingested one,
    netted once through the same path; one the validator now refuses, or
    an engine fails on, is aborted and quarantined whole as
    [Engine_failure] and keeps its sequence number, never failing the
    recovery. Engines are built as by {!load}, concurrently; only a snapshot
    that fails verification falls back down the chain, never one whose
    views fail to build. Inside its [warehouse.recover] trace span,
    recovery records the flat spans [warehouse.recover.decode] (once per
    snapshot tried), [warehouse.recover.build] (attributes [views] and
    [domains]), [warehouse.recover.replay] (attribute [batches]) and
    [warehouse.recover.publish]. The lineage sink opens before replay,
    so replayed batches leave their records in [dir/lineage.jsonl] too.
    @raise Error as {!load}; also [Corrupt_state] when WAL damage (a
    mid-stream bit flip, or any damage on an archived segment the restored
    snapshot does not cover) may hide committed batches — {!repair}
    quarantines the damage explicitly, accepting the loss. *)
val recover : dir:string -> t

(** Detach from the state directory, closing the WAL and the lineage sink
    (no checkpoint). *)
val close : t -> unit

(** {2 Integrity: fsck and repair}

    Offline integrity checking of a state directory, exposed as
    [minview fsck] / [minview repair]. {!fsck} only reads; {!repair}
    quarantines whatever does not verify (WAL tails via {!Wal.salvage},
    snapshots by renaming them aside) so that a subsequent {!recover}
    succeeds from what remains. Neither ever deletes data: every damaged
    byte ends up in a [.quarantine] file beside its source. *)

type fsck_entry = {
  f_file : string;  (** relative to the state directory *)
  f_ok : bool;
  f_detail : string;  (** verification result, human-readable *)
}

type fsck_report = {
  fsck_entries : fsck_entry list;
  fsck_recoverable : bool;
      (** at least one snapshot verifies (or the directory is empty) *)
  fsck_clean : bool;  (** every file verifies; nothing to repair *)
}

(** Read-only integrity check of every snapshot (live and archived, full
    CRC + decode) and WAL segment (frame scan with damage classification).
    @raise Error ([Io_error] if [dir] is not a directory). *)
val fsck : dir:string -> fsck_report

type repair_report = {
  repair_actions : (string * string) list;
      (** (file relative to the state dir, what was done) *)
  repair_recoverable : bool;
      (** a verifiable snapshot survived (or the directory is now empty) *)
}

(** Quarantine everything {!fsck} would flag: damaged WAL tails are
    salvaged ({!Wal.salvage}), unreadable WAL files and unverifiable
    snapshots renamed to [.quarantine]. Returns what was done;
    [repair_recoverable = false] means no snapshot survived and the
    directory cannot be recovered (beyond re-initializing).
    @raise Error ([Io_error] if [dir] is not a directory). *)
val repair : dir:string -> repair_report
