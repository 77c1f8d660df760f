(** The data warehouse of Figure 1 — see the facade functions below — and
    the storage accounting model. *)

(** The paper's storage accounting (Section 1.1): size = rows x fields x
    bytes-per-field, reported in binary units. *)
module Storage : sig
  (** The paper's storage accounting (Section 1.1): size = rows × fields ×
      bytes-per-field, reported in binary units (the paper's "245 GBytes" is
      13.14e9 tuples × 5 fields × 4 bytes ≈ 244.7 GiB). *)

  type model = { bytes_per_field : int }

  (** 4 bytes per field, as in the paper's case study. *)
  val paper_model : model

  val bytes : model -> rows:int -> fields:int -> int

  (** Human-readable binary-unit rendering ("244.7 GB", "167.1 MB" — the paper
      writes GBytes/MBytes for GiB/MiB). *)
  val show_bytes : int -> string

  (** Total bytes of a (name, rows, fields) profile. *)
  val profile_bytes : model -> (string * int * int) list -> int

  (** Render a profile as an ASCII table with per-object and total sizes. *)
  val render_profile : model -> (string * int * int) list -> string
end

(** CRC-32 of the WAL records and snapshot payloads. *)
module Checksum = Checksum

(** {2 Errors} *)

type error_kind =
  | Duplicate_view  (** a view with that name is already registered *)
  | Unknown_view  (** no view with that name is registered *)
  | Not_aged  (** age-out requested on a non-[Aged] view *)
  | Not_persistable  (** an [Aged] view (closure predicate) blocks [save] *)
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

type strategy =
  | Minimal  (** Algorithm 3.2 auxiliary views (the paper) *)
  | Psj  (** Quass et al. tuple-level auxiliary views *)
  | Replicate  (** full base replica + recomputation *)
  | Aged of (Relational.Tuple.t -> bool)
      (** current/old split of the fact table: the predicate selects the
          append-only old partition (Figure 1 + Section 4); the view must be
          distributively mergeable (no AVG/DISTINCT) *)

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
    engines absorb the batch on private copies that are swapped in only once
    all of them succeeded, so a mid-batch engine failure leaves every view
    at its pre-batch state (and quarantines the batch). *)

(** Outcome of one {!ingest_report} call: [batch] is the WAL sequence number
    (unchanged if nothing was accepted), [applied] the number of deltas
    applied to the views, [rejected] the quarantined deltas. *)
type report = {
  batch : int;
  applied : int;
  rejected : Relational.Delta.rejection list;
}

(** Feed source changes to every registered view (see above for the
    validation and atomicity contract). *)
val ingest : t -> Relational.Delta.t list -> unit

(** As {!ingest}, returning what happened. *)
val ingest_report : t -> Relational.Delta.t list -> report

(** [ingest_all t batches] ingests a burst of batches under {e group
    commit}: each batch stages its WAL record in the writer's buffer and a
    single {!Wal.sync} — one write, one fsync — makes the whole burst
    durable before the reports are returned. Durability acknowledgement is
    deferred to that final sync: a crash inside the burst can lose staged
    batches, but recovery still comes back at a batch boundary of the
    durable prefix and {!ingested_batches} remains a valid resume cursor.
    [?in_flight] (default 64) bounds the exposure: an intermediate
    durability barrier is issued before more than that many batches ride on
    un-fsynced WAL frames. Validation, atomicity and quarantine behave
    exactly as [List.map (ingest_report t) batches]. On an unattached
    warehouse the two are indistinguishable.
    @raise Error ([Invalid_request] if [in_flight < 1]). *)
val ingest_all : ?in_flight:int -> t -> Relational.Delta.t list list -> report list

(** {2 Fault tolerance}

    Two layers keep ingestion going through recoverable trouble:

    {e Transient faults} — a failed WAL durability barrier
    ([Maintenance.Faults.Wal_fsync] in [Fail] mode models a transient fsync
    failure) — are retried with jittered exponential backoff under the
    warehouse's {!retry} policy. Only the barrier is retried, never the
    append (the frames are already staged, so a re-append would duplicate
    records); retries are counted as
    [minview_warehouse_ingest_retries_total]. Exhaustion surfaces as
    {!Error} ([Io_error]) after rolling the validator transaction back
    (no engine has seen the batch at that point) and consuming the batch's
    sequence number under a best-effort WAL abort marker, so a replay
    cannot resurrect a batch the caller was told failed and the next
    ingest starts clean.

    {e Parallel-apply failures} — a shard worker that {e raises}
    ([Maintenance.Faults.In_shard_worker] in [Fail] mode) leaves a
    quiescent pool (every worker is awaited first), so the transaction is
    rolled back and the batch re-applied serially. A worker that {e
    wedges} past a supervised pool's deadline ({!Maintenance.Shard.Wedged})
    may still be executing against the engines — the abandoned domain
    cannot be cancelled — so the batch is aborted and quarantined instead
    (reported as [Engine_failure] rejections, never re-applied in place)
    and every registered engine is rebuilt from the validator's committed
    shadow. Either way ingestion then stays serial until a backoff period
    of clean batches has passed, after which parallel apply is retried
    (exponential period growth on repeated failures, reset after a long
    clean streak). Counted as
    [minview_warehouse_parallel_degradations_total] /
    [..._promotions_total], with the [minview_warehouse_parallel_degraded]
    gauge up while degraded. *)

(** Retry policy for transient ingest faults: up to [attempts] retries, the
    [k]-th delayed by [base_delay * 2^k] seconds (capped at [max_delay],
    jittered). *)
type retry = { attempts : int; base_delay : float; max_delay : float }

val default_retry : retry

(** @raise Error ([Invalid_request] on negative fields). *)
val set_retry : t -> retry -> unit

(** How the next batch will be applied (see the supervision contract
    above). *)
type apply_mode =
  | Serial  (** no parallel pool configured *)
  | Parallel
  | Degraded of { remaining : int; next_backoff : int }
      (** serial fallback: [remaining] clean batches until re-promotion *)

val apply_mode : t -> apply_mode

(** {2 Health and runtime profiling}

    Hooks for the performance observatory: the HTTP exporter's [/healthz]
    checks and the [minview_runtime_offheap_bytes] gauge. *)

(** Whether a durability directory is attached (see {!attach}). *)
val wal_attached : t -> bool

(** Seconds since the last committed batch; [None] before the first
    commit in this process (loads and recoveries start fresh). *)
val last_commit_age_s : t -> float option

(** Off-heap (Bigarray) bytes across every registered view's columnar
    storage — see {!Maintenance.Engines.offheap_bytes}. Walks live engine
    state: call it from the ingesting domain (or while no ingest runs). *)
val offheap_bytes : t -> int

(** Register this warehouse as the {!Telemetry.Runtime} off-heap source,
    so runtime samples publish its {!offheap_bytes}. Process-global, last
    registration wins. *)
val publish_offheap : t -> unit

(** Health checks for {!Telemetry.Http_exporter}. Always four checks:
    [wal] (fails only with [~require_wal:true] and no directory attached),
    [apply] (fails while ingestion is degraded to serial), [last_commit]
    (fails when [?max_commit_age_s] is given and exceeded; "no commits
    yet" passes) and [epoch_lag] (fails when [?max_epoch_lag] batches is
    given and exceeded). Safe to call from another domain: every read is
    one word, at worst one batch stale. *)
val health :
  ?require_wal:bool ->
  ?max_commit_age_s:float ->
  ?max_epoch_lag:int ->
  t ->
  Telemetry.Http_exporter.check list

(** [set_dead_letter_cap t (Some n)] bounds the dead-letter queue to the [n]
    newest rejections: quarantining past the cap drops the oldest letters
    (counted as [minview_warehouse_dead_letters_dropped_total] and warned
    about) instead of growing without bound. [None] (the default) removes
    the cap. @raise Error ([Invalid_request] if [n < 1]). *)
val set_dead_letter_cap : t -> int option -> unit

(** [set_parallel t (Some pool)] makes every subsequent batch apply through
    the compacted shard-parallel fast path ({!Maintenance.Engine.apply_batch}
    with [?parallel]) on engines that support it; [None] (the initial state)
    restores plain serial application. With a pool, each batch is netted
    once ({!Maintenance.Engine.net}) and every incremental view takes its
    tables from that one result. Runtime configuration, not state: the
    pool is never persisted, and {!load}/{!recover} reset it to [None] — a
    recovered warehouse runs serially until [set_parallel] is called again.
    Snapshots record the pool {e size}, so a load that drops a pool emits a
    [minview.warehouse] warning, a [warehouse.parallel-reset] trace event and
    bumps the [minview_warehouse_parallel_resets_total] counter instead of
    resetting silently. *)
val set_parallel : t -> Maintenance.Shard.pool option -> unit

(** The dead-letter queue, oldest first. *)
val dead_letters : t -> Relational.Delta.rejection list

val clear_dead_letters : t -> unit

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
    {!read_view}, {!read_sorted} and {!with_snapshot} then work entirely on
    frozen data. A commit re-renders only the groups its batch touched and
    merges them into the previous epoch's rows ({!Maintenance.Engines.publish});
    the first epoch after registration, {!load}, {!recover} or an engine
    rebuild renders in full. The contract this buys:

    {ul
    {- {e No torn reads.} A reader racing {!ingest} sees the state before
       the batch or after it, never between: the publication swap at the
       commit point is the only transition. Rollback, quarantine, engine
       rebuild after a wedged shard worker, and crash recovery publish
       nothing partial — an aborted batch is invisible to readers.}
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
    protocol walk them without sorting, and their output is stable across
    serial and shard-parallel apply. The relations {!query} and
    {!read_view} build iterate in hashtable order instead.

    {e Aged views.} {!query} on a view registered with the {!Aged}
    strategy returns the {e merged} contents: old-partition rows are
    included, aggregated distributively with the current partition
    (Section 4's reader sees one seamless summary). {!age_out} only moves
    detail between partitions and is invisible to readers — the merged
    contents, and therefore the published epoch, are unchanged. *)

val view_names : t -> string list

(** Registered view definitions, in registration order. *)
val views : t -> Algebra.View.t list

(** Contents of a view as of the latest published epoch: output column
    names and a relation built from the epoch's rows (O(rows)).
    @raise Error ([Unknown_view]) for unknown names. *)
val query : t -> string -> string list * Relational.Relation.t

(** As {!query}, with the rows in canonical order ((tuple, multiplicity),
    [Tuple.compare] ascending) — a list walked off the epoch, no sort. *)
val query_sorted :
  t -> string -> string list * (Relational.Tuple.t * int) list

(** An immutable read epoch: the per-view output state captured at one
    commit point. Snapshots are plain frozen values — hold one as long as
    you like (a pinned snapshot is immune to later commits), share it
    across domains, read it repeatedly for identical results. *)
type snapshot

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

(** {!read_sorted} as a relation built from the rows (O(rows)).
    @raise Error ([Unknown_view]) if the view is not in the epoch. *)
val read_view :
  ?snapshot:snapshot -> t -> string -> string list * Relational.Relation.t

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

(** [age_out t view facts] moves the given fact tuples of an [Aged] view's
    current partition into its append-only old partition (see
    {!Maintenance.Partitioned.age_out} for the boundary-consistency
    contract). Invisible to readers: {!query} merges both partitions, so
    the view's contents — and the published epoch — are unchanged.
    @raise Error ([Unknown_view] / [Not_aged]). *)
val age_out : t -> string -> Relational.Tuple.t list -> unit

(** [audit t ~reference] recomputes every registered view from scratch over
    [reference] (typically {!believed_source} or the true operational store)
    and reports, per view, whether the maintained contents match.

    With [?sample:k] the audit runs in {e continuous drift} mode instead:
    each incremental engine recomputes [k] evenly sampled group keys from
    its own retained detail (the auxiliary views) and cross-checks the
    maintained groups — [reference] is only consulted for engines without
    retained detail (full replicas, partitioned views). Divergences also
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
    believed source ({!Mindetail.Attribution.measure}); it writes nothing
    to the metric registry ([minview attribute] renders the result).
    Views without a derivation ([Replicate], [Aged]) are skipped. *)
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

    A warehouse survives restarts: [save] writes the complete maintained
    state — every view's groups and auxiliary views, the replicas of
    [Replicate] views, the validator's believed source, the dead-letter
    queue and the batch sequence number — and [load] restores it without
    touching any source.

    The format is OCaml's [Marshal] behind a versioned, CRC-32-checksummed
    header: portable across runs of the same binary, not across incompatible
    builds. Truncated or bit-rotted files are detected before unmarshalling
    and reported as {!Error} ([Corrupt_state]). [Aged] views carry a
    partition predicate (a closure) and cannot be persisted; [save] raises
    {!Error} ([Not_persistable]) if one is registered. *)

(** [save t path] snapshots the warehouse atomically (temp file + rename).
    @raise Error ([Not_persistable] / [Io_error]). *)
val save : t -> string -> unit

(** [load path] restores a saved warehouse (not attached to a state
    directory — see {!attach} / {!recover}).
    @raise Error ([Io_error] on unreadable files, [Corrupt_state] on
    truncated/garbage/checksum-mismatched ones, [Incompatible_state] on old
    format versions). *)
val load : string -> t

(** {2 Durability}

    An {e attached} warehouse writes every accepted batch to a write-ahead
    log under its state directory before any engine applies it; the flushed
    append is the commit point. {!checkpoint} snapshots the full state and
    {e rotates} the log into a checkpoint generation chain: the outgoing
    snapshot and its WAL segment are archived under [dir/generations/]
    (as [snapshot-<n>.bin] / [wal-<n>.bin], the last [keep_generations]
    retained) instead of being destroyed. After a crash, {!recover} loads
    the newest snapshot that passes its CRC check — falling back along the
    chain past unverifiable ones — and replays the committed WAL records
    newer than it (the archived segments from its generation on, in chain
    order, then the live log, skipping aborted batches and tolerating a
    torn tail on the live log), so the warehouse comes back at the last
    committed batch even when the latest snapshot is damaged. Archived
    segments older than the restored snapshot hold only batches it
    contains; recovery does not read them ({!fsck} still checks them). *)

(** [attach t ~dir] makes [t] durable: creates [dir] if needed, opens (or
    repairs) its WAL, and takes an initial checkpoint. With
    [?checkpoint_every:n], every [n]-th batch checkpoints automatically.
    [?keep_generations] (default 2) sets how many archived checkpoint
    generations survive pruning; [0] disables the chain (truncate on
    checkpoint, the pre-chain behaviour). Also points the lineage sink at
    [dir/lineage.jsonl], so every committed batch leaves a lineage record
    next to its WAL commit marker (see {!Telemetry.Lineage}).
    @raise Error ([Invalid_request] if already attached or
    [keep_generations < 0], [Io_error], [Corrupt_state],
    [Not_persistable]). *)
val attach : ?checkpoint_every:int -> ?keep_generations:int -> t -> dir:string -> unit

(** Snapshot the state directory, archive the previous generation and
    rotate the WAL (see the chain contract above). Also writes the current
    workload profile beside the WAL (best-effort — a failed profile write
    never fails the checkpoint).
    @raise Error ([Not_durable] if not attached). *)
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
    corruption. A parallel pool active when the snapshot was taken is
    {e not} restored (see {!set_parallel}); the reset is reported through
    the warning event and counter described there.
    @raise Error as {!load}; also [Corrupt_state] when WAL damage (a
    mid-stream bit flip, or any damage on an archived segment the restored
    snapshot does not cover) may hide committed batches — {!repair}
    quarantines the damage explicitly, accepting the loss. *)
val recover : dir:string -> t

(** Detach from the state directory, closing the WAL (no checkpoint). *)
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
