(** Domain pool for shard-parallel maintenance.

    Worker domains are spawned lazily on the first multi-worker {!run} and
    kept parked on a condition variable between jobs, so the (substantial)
    domain-spawn cost is paid once per pool rather than once per phase.
    Parked workers sit in a blocking section: they burn no CPU and do not
    delay other domains' collections, and the process exits normally while
    they are parked — pools need no explicit shutdown.

    Supervision: a pool created with [?deadline] bounds how long the caller
    waits for each spawned worker per {!run}. A worker that exceeds it is
    {e wedged}: {!Wedged} is raised on the caller and the pool is poisoned —
    the wedged domain cannot be cancelled, so it is abandoned (it leaks, by
    design) and a fresh worker set is spawned on the next multi-worker run.
    Every worker slot is drained (each within the deadline) before {!Wedged}
    is raised, so all non-wedged workers are quiescent when the caller sees
    the failure; the wedged domain itself, however, may still be executing
    its job and can resume mutating whatever state the job closes over at
    any later time — after {!Wedged}, callers must abandon that state
    (replace it wholesale), never roll it back or re-apply over it in
    place. The supervising warehouse counts failures of either kind in
    [minview_warehouse_parallel_degradations_total].

    A pool must be driven from one domain at a time.  Pools are runtime-only
    objects (they hold mutexes) and must not be marshalled. *)

type pool

(** A spawned worker did not finish its job within the pool's deadline.
    The pool is poisoned when this is raised; the next {!run} respawns its
    workers. *)
exception Wedged of { worker : int; waited : float }

(** @raise Invalid_argument if [domains < 1]. *)
val create : domains:int -> pool

(** As {!create}, with a per-worker-per-run [deadline] in seconds.
    @raise Invalid_argument if [domains < 1] or [deadline <= 0]. *)
val supervised : domains:int -> deadline:float -> pool

(** As {!create}, but the engine fans every batch out over all [domains],
    however small — for tests only, so random streams reach worker code. *)
val eager : domains:int -> pool

val domains : pool -> int
val deadline : pool -> float option
val is_eager : pool -> bool

(** One-domain pool: {!run} executes inline on the calling domain. *)
val serial : pool

(** [run pool ~workers f] runs [f w] for [w = 0 .. min pool.domains workers - 1],
    worker 0 on the calling domain, the rest on the pool's resident worker
    domains.  Returns once every worker has finished; if any worker raised,
    the exception of the lowest-indexed failing worker is re-raised (after
    all workers finished, so the pool is quiescent). With a pool deadline, a
    worker that overruns it raises {!Wedged} instead.

    Multi-worker runs pass the [Maintenance.Faults.In_shard_worker] fault
    point inside every worker's job — arming it in [Fail] mode injects a
    recoverable worker failure mid-parallel-apply. *)
val run : pool -> workers:int -> (int -> unit) -> unit

(** Static shard ownership: shard [s] belongs to worker [s mod workers]. *)
val owns : worker:int -> workers:int -> int -> bool
