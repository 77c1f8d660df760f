(** Fault injection: named points in the ingestion pipeline.

    A point marks a place where an in-process fault can strike: the
    process dies between two steps of a batch, an engine fails mid-batch,
    the WAL barrier fails. Tests (and the CLI, via the
    [MINVIEW_FAULT] environment variable) {!arm} a point; when the
    pipeline reaches it, {!hit} raises.

    Two failure modes:
    - [Kill] (the default) raises {!Crash}, which the warehouse deliberately
      never catches: the exception unwinds like a [kill -9], leaving the
      on-disk state exactly as a real crash would. Recovery code then has to
      cope with whatever was left behind.
    - [Fail] raises {!Injected}, a {e recoverable} fault: the warehouse
      catches it instead of dying. Mid-apply, the batch is rolled back and
      quarantined; at the WAL barrier it is raised as the fsync error it
      models, which fails the log.

    Crashes between two durable file operations are not placed here:
    tests take them from a trace of those operations (DESIGN.md, "Crash
    states"). *)

type point =
  | After_wal_append
      (** the batch is durable in the WAL; no engine has applied it *)
  | Mid_engine_apply
      (** the batch is durable; some engines applied it, the warehouse state
          was not yet swapped in *)
  | Wal_fsync
      (** at the WAL durability barrier, before its fsync: with [Fail]
          models a failed fsync ([EIO]), which is never retried — the batch
          is aborted and the log replaced *)

(** How an armed point fires: [Kill] simulates process death ({!Crash},
    never caught by the pipeline); [Fail] simulates a recoverable fault
    ({!Injected}, caught by the warehouse). *)
type mode = Kill | Fail

(** The simulated process death. Deliberately not an [Error]-style
    exception: only test harnesses and the CLI top level may catch it. *)
exception Crash of point

(** The simulated recoverable fault; the warehouse catches it. *)
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
