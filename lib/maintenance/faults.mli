(** Fault injection: named points in the ingestion pipeline.

    A point marks a place where an in-process fault can strike: the
    process dies between two steps of a batch, a worker domain fails or
    wedges, the WAL barrier fails. Tests (and the CLI, via the
    [MINVIEW_FAULT] environment variable) {!arm} a point; when the
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

    Crashes between two durable file operations are not placed here:
    tests take them from a trace of those operations (DESIGN.md, "Crash
    states"). *)

type point =
  | After_wal_append
      (** the batch is durable in the WAL; no engine has applied it *)
  | Mid_engine_apply
      (** the batch is durable; some engines applied it, the warehouse state
          was not yet swapped in *)
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

(** Called by the pipeline at each crash point; no-op unless armed. *)
val hit : point -> unit
