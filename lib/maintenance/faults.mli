(** Fault injection: named crash points in the ingestion pipeline.

    A crash point marks a place where a real deployment could lose the
    process — power cut, OOM kill, operator error — or hit a recoverable
    failure (a failed fsync, a worker domain dying). Tests (and the CLI, via
    the [MINVIEW_FAULT] environment variable) {!arm} a point; when the
    pipeline reaches it, {!hit} raises.

    Three failure modes:
    - [Kill] (the default) raises {!Crash}, which the warehouse deliberately
      never catches: the exception unwinds like a [kill -9], leaving the
      on-disk state exactly as a real crash would. Recovery code then has to
      cope with whatever was left behind.
    - [Fail] raises {!Injected}, a {e recoverable} fault: the supervised
      paths catch it instead of dying. A shard worker's is rolled back and
      degrades ingestion to serial; at the WAL barrier it is raised as the
      fsync error it models, which fails the log.
    - [Stall seconds] sleeps at the point instead of raising, and only on a
      spawned (non-main) domain: it wedges a shard worker past a supervised
      pool's deadline while the worker eventually resumes — the
      slow-but-alive domain the wedge remedy must survive.

    The crash-point matrix (what is on disk when each point fires) is
    documented in DESIGN.md. *)

type point =
  | After_wal_append
      (** the batch is durable in the WAL; no engine has applied it *)
  | Mid_engine_apply
      (** the batch is durable; some engines applied it, the warehouse state
          was not yet swapped in *)
  | Mid_checkpoint
      (** a snapshot temp file is partially written; the previous snapshot
          and the full WAL are intact *)
  | Before_wal_truncate
      (** the new snapshot is in place; the WAL still holds the batches the
          snapshot already contains *)
  | After_truncate_rename
      (** the truncated WAL was renamed into place but the directory entry
          was not yet fsynced: after a power cut the old (stale) WAL may
          reappear, and replay must still converge *)
  | After_checkpoint_rename
      (** the new snapshot was renamed into place but the directory entry
          was not yet fsynced: a power cut may resurrect the previous
          snapshot, and the generation chain must still recover *)
  | Mid_group_commit
      (** a WAL append wrote only the first half of its batch's frame to
          the OS before the power cut: the WAL ends in a torn record and
          replay must recover the durable prefix. (The name is older than
          one fsync per batch.) *)
  | In_shard_worker
      (** inside a shard worker's job, mid-parallel-apply: with [Fail] the
          supervisor must roll the transaction back and degrade to serial *)
  | Wal_fsync
      (** at the WAL durability barrier, before its fsync: with [Fail]
          models a failed fsync ([EIO]), which is never retried — the batch
          is aborted and the log replaced *)

(** How an armed point fires: [Kill] simulates process death ({!Crash},
    never caught by the pipeline); [Fail] simulates a recoverable fault
    ({!Injected}, caught by the supervised paths); [Stall seconds]
    sleeps at the point instead of raising — it models a wedged worker, so
    it only fires on a spawned (non-main) domain, and hits on the main
    domain neither fire nor consume the trigger. *)
type mode = Kill | Fail | Stall of float

(** The simulated process death. Deliberately not an [Error]-style
    exception: only test harnesses and the CLI top level may catch it. *)
exception Crash of point

(** The simulated recoverable fault; supervised paths catch it. *)
exception Injected of point

val all : point list

(** Stable kebab-case names ("after-wal-append", ...). *)
val to_string : point -> string

val of_string : string -> point option

(** [arm ?skip ?mode p] makes the [(skip+1)]-th {!hit} of [p] fire with
    [mode] (default [Kill]). Arming replaces any previously armed point; the
    trigger disarms itself before raising, so post-fault code in the same
    process runs clean. *)
val arm : ?skip:int -> ?mode:mode -> point -> unit

val disarm : unit -> unit
val armed : unit -> point option

(** Called by the pipeline at each crash point; no-op unless armed. *)
val hit : point -> unit
