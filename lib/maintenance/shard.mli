(** A pool marker, and a one-shot fan-out ({!fan_out}) for the engine
    builds of load and recovery.

    A pool carries no domains and selects nothing: every batch is netted
    ({!Engine.apply_batch}). {!serial}, the only pool, is kept for callers
    that still pass one to {!Engines.apply_batch} or
    [Warehouse.set_parallel], both of which ignore it. *)

type pool

(** The one pool, ignored wherever it is passed. *)
val serial : pool

(** {2 One-shot fan-out}

    For a few coarse, independent tasks that run once — building every
    view's engine at load or recovery. It leaves no domain behind. *)

(** [fan_out_domains tasks] is [min tasks (Domain.recommended_domain_count ())],
    at least 1: one domain per core, never more than there are tasks. *)
val fan_out_domains : int -> int

(** [fan_out ~domains n f] is [Array.init n f], computed on
    [min domains n] domains: the calling domain is worker 0, and the
    others are spawned for this call and joined before it returns (a spawn
    the runtime refuses leaves its share to the rest). Workers claim the
    next index from a shared atomic counter, in ascending order, so with
    [domains <= 1] it is the serial loop, run inline. [f] must be safe to
    run on several domains at once.

    If any [f i] raised, no further index is claimed; once every worker is
    joined, the exception of the lowest failing [i] is re-raised with its
    backtrace — the one the serial loop would have raised first. *)
val fan_out : domains:int -> int -> (int -> 'a) -> 'a array
