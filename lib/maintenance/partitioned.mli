(** Current vs. old detail data (Figure 1, Section 4).

    The paper's warehouse keeps {e current} detail data (mutable, mirroring
    the sources) over {e older} detail data, which is append-only — and
    Section 4 observes that old detail can therefore be reduced further,
    since only insertions have to be survived (MIN/MAX become completely
    self-maintainable and are pre-aggregated).

    This engine realizes that split for one GPSJ view: the root (fact) table
    is logically partitioned by a predicate into an old part, maintained by
    an append-only engine with the Section 4 relaxation, and a current part,
    maintained by the standard engine. Facts can be {e aged out} of the
    current partition into the old one — a warehouse-internal move that never
    touches the sources. The view is the distributive merge of the two
    partial views.

    Restrictions: merging partial aggregates distributively requires
    COUNT/SUM/MIN/MAX; views with AVG or DISTINCT aggregates are rejected at
    [init] (rewrite AVG as separate SUM and COUNT columns). Source deletions
    and updates of root tuples must stay within the current partition. *)

type t

exception Unsupported of string

(** [init db view ~is_old] partitions the root table by [is_old] (applied to
    full base tuples) and loads both engines.
    @raise Unsupported if the view has AVG or DISTINCT aggregates, or
    [Algebra.View.Invalid] if the view is malformed. *)
val init :
  Relational.Database.t ->
  Algebra.View.t ->
  is_old:(Relational.Tuple.t -> bool) ->
  t

(** {!Engine.announce} both partition engines, old first. *)
val announce : t -> unit

(** Process a batch. Every change is routed before either engine runs: a
    root-table change goes to the partition [is_old] picks for it (an
    update by its before-image), a dimension change to both engines. Each
    engine then applies its share as one batch through
    {!Engine.apply_batch}, which nets it.
    @raise Maintenance.Engine.Invariant if an update would move a tuple
    across partitions (raised while routing, before anything is applied),
    or if a deletion/update targets the append-only old partition. *)
val apply_batch : t -> Relational.Delta.t list -> unit

(** The rest of the engine interface ({!Engines}) over both partition
    engines: structural equality, and undo journals opened and closed in
    both. *)
val equal_state : t -> t -> bool
val in_txn : t -> bool
val begin_txn : t -> unit
val commit : t -> unit
val rollback : t -> unit

(** [age_out t facts] moves the given current-partition fact tuples into the
    old partition: the old engine gets their insertions and the current
    engine their deletions, each as one batch. A warehouse-internal
    operation: the sources are not involved and the merged view is unchanged.

    [is_old] decides routing for {e future} deltas, so it must stay
    consistent with the actual partition contents: age out exactly the facts
    a new boundary selects and let the predicate read that boundary through
    mutable state (see [examples/old_detail_aging.ml], which advances a
    boundary ref right after aging). *)
val age_out : t -> Relational.Tuple.t list -> unit

(** The merged view contents. *)
val view_contents : t -> Relational.Relation.t

(** Storage across both partitions, object names prefixed "old/" and
    "current/": (name, rows, fields) of the detail data, measured resident
    bytes of every stored object ({!Engine.measured_bytes}), and off-heap
    bytes. *)
val detail_profile : t -> (string * int * int) list
val measured_bytes : t -> (string * int) list
val offheap_bytes : t -> int
