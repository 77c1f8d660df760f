(** Materialized state of the GPSJ view itself.

    Following the paper's convention that view aggregates are replaced by
    their Table 2 distributive components before maintenance (Section 3.1),
    each group stores internal components — a base-row count [cnt0], running
    SUM/COUNT pairs, current extrema, and per DISTINCT aggregate the
    multiset of its argument values (value -> number of base rows carrying
    it) with the result finalized from it — from which the visible
    select-list values are rendered on demand.

    CSMAS components are maintained exactly under both feeds and unfeeds.
    A MIN/MAX whose current extremum is deleted marks its group {e dirty}
    so the engine can recompute it from the auxiliary views, as Section 3.2
    prescribes. DISTINCT aggregates never need the auxiliary views: feeds
    and unfeeds keep the multiset exact in O(log values) each, so the
    multiset holds at most one entry per distinct (group, value) pair —
    never more than the detail the auxiliary views already keep. COUNT and
    integer SUM DISTINCT results move with each value entering or leaving
    the multiset; the others (MIN/MAX, AVG, float SUM) are re-folded from
    it by {!take_dirty}. In {e determined} mode (used when the root
    auxiliary view has been eliminated, where every non-CSMAS argument is
    functionally determined by the group key) extrema are never dirtied
    and each DISTINCT multiset holds a single value. *)

type t

(** [create view ~determined] prepares empty state for a validated view.

    Groups are stored in a {!Groups} store, as {!Aux_state}'s are: typed
    key and component columns ({!Column}) with row ids as group identity,
    materialized back to boxed tuples only at the interface. [dict_pool]
    shares string dictionaries per (table, column) with the auxiliary-view
    states built from the same pool. *)
val create : ?dict_pool:Dict.pool -> Algebra.View.t -> determined:bool -> t

(** Structural equality of the resident state: groups (base count, every
    aggregate component and DISTINCT multiset) and the dirty table. Open
    transactions are ignored. *)
val equal : t -> t -> bool

(** {2 Batch transactions}

    First-touch undo journal over groups plus a saved dirty table; rollback
    restores exactly the groups a batch touched — O(delta), never O(state).
    A group's DISTINCT multisets are persistent maps, so their before-image
    is the old map itself, not a copy. *)

(** Whether an undo journal is currently open. *)
val in_txn : t -> bool

(** Opens an undo journal; subsequent {!feed}/{!unfeed}/{!adjust}/
    {!set_value}/{!adjust_group} calls are journaled.
    @raise Invalid_argument if a transaction is already open. *)
val begin_txn : t -> unit

(** Closes the journal, keeping all mutations. The journal's group keys
    are kept until the next {!publish} (or forgotten, once they outnumber
    the view's groups).
    @raise Invalid_argument if no transaction is open. *)
val commit : t -> unit

(** Restores every touched group to its before-image, restores the dirty
    table, and closes the journal. Its keys are dropped: those groups are
    back to their state at {!begin_txn}.
    @raise Invalid_argument if no transaction is open. *)
val rollback : t -> unit

val view : t -> Algebra.View.t
val group_count : t -> int

(** [feed t f ~cnt] adds the joined row of [f], weighted [cnt], to the
    group of its key: [f]'s plan has one argument per select item (see
    {!Feed}). Creates the group when new. The key is hashed once, for the
    probe and the journal; COUNT and SUM/AVG components move in
    their unboxed cells.
    @raise Invalid_argument, before any mutation, if a summed argument is
    non-numeric or an argument does not match its item. *)
val feed : t -> Feed.t -> cnt:int -> unit

(** [seed t f ~joined ~counts] is {!feed} of each joined row [l] in
    [0 .. Icol.length counts - 1], weighted [Icol.get counts l], in that
    order, on an empty state outside a transaction: [joined l] binds [f]'s
    slots to groups (every slot an argument is read from) and says
    whether the row joins. The rows are joined and their view groups found
    in one pass; then the counts and each aggregate are folded in their
    own typed pass, in row order and with the feed's arithmetic, and each
    DISTINCT multiset gets each of its values once. The state ends as the
    feeds would leave it once their DISTINCT results are finalized.
    @raise Invalid_argument if [t] holds a group or is in a transaction,
    or as {!feed} does. *)
val seed : t -> Feed.t -> joined:(int -> bool) -> counts:Column.Icol.t -> unit

(** Reverse of {!feed}; removes the group when its base-row count reaches
    zero.
    @raise Invalid_argument on underflow or missing group. *)
val unfeed : t -> Feed.t -> cnt:int -> unit

(** [adjust t f ~sums ~before ~after] applies an update of one base row
    that stays in the group of [f]'s key: for each [(item, pos)] of [sums], the
    running sum of SUM or AVG item [item] loses [before.(pos)] and then
    gains [after.(pos)] — the arithmetic of {!unfeed} then {!feed}. One
    probe; the base-row count, every other component and the group's row
    stay as they are. Journaled like {!feed}.
    @raise Invalid_argument, before any mutation, if the group is absent,
    an [item] is not a non-DISTINCT SUM or AVG, or a value it would fold is
    non-numeric. *)
val adjust :
  t ->
  Feed.t ->
  sums:(int * int) array ->
  before:Relational.Tuple.t ->
  after:Relational.Tuple.t ->
  unit

(** Settles the batch: re-folds, from its multiset, every MIN/MAX, AVG and
    float SUM DISTINCT result whose value set changed since the last call
    (in [Value.compare] order, so the result equals recomputation from base
    tables bit for bit), then returns the groups whose MIN or MAX lost its
    extremum — the only groups the engine must recompute from the auxiliary
    views — and clears the dirty table. Costs O(groups touched), never
    O(state). *)
val take_dirty : t -> Relational.Tuple.t list

(** Whether {!take_dirty} has anything to do. *)
val is_dirty_pending : t -> bool

(** [set_value t ~key ~item v] overwrites the current extremum of a
    recomputed MIN/MAX item. No-op if the group has disappeared.
    @raise Invalid_argument if [item] is not a (non-DISTINCT) MIN/MAX. *)
val set_value : t -> key:Relational.Tuple.t -> item:int -> Relational.Value.t -> unit

(** [adjust_group t ~key ~new_key updates] rewrites a group's key and applies
    per-item component updates (used for dimension updates when the root
    auxiliary view is eliminated): [updates] maps item index to the update.
    @raise Invalid_argument if the group is missing or [new_key] collides. *)
type component_update =
  | Shift_sum of Relational.Value.t  (** sum += delta * n *)
  | Set_current of Relational.Value.t
      (** extremum := v; a DISTINCT multiset becomes [v] for every base row *)

val adjust_group :
  t ->
  key:Relational.Tuple.t ->
  new_key:Relational.Tuple.t ->
  (int * component_update) list ->
  unit

(** [multiset t ~key ~item] is the value multiset of DISTINCT item [item] in
    group [key]: (value, base-row count) pairs in [Value.compare] order.
    [[]] when the group is absent or the item is not DISTINCT. *)
val multiset :
  t -> key:Relational.Tuple.t -> item:int -> (Relational.Value.t * int) list

(** Fold over groups as (key, base-row count). *)
val fold_groups : t -> (Relational.Tuple.t -> int -> 'a -> 'a) -> 'a -> 'a

(** Render the view contents in select-list order: a fresh relation of
    every group that passes HAVING. *)
val render : t -> Relational.Relation.t

(** [publish t] is the view's rows in canonical order ([Tuple.compare]
    ascending, with multiplicities): equal to
    [Relation.to_sorted_array (render t)], but advanced from the previous
    [publish]'s rows by the groups changed since. A changed group's fresh
    row replaces its old one where it still sorts there; new groups and
    rows that moved are merged in by binary search; the rows of unchanged
    groups are passed by their key hashes, never read — O(k log n) compares
    at most for k changed groups, usually O(k), plus one pass over the row
    pointers, no full sort. The first publication, and one after a change
    outside a transaction or forgotten keys, renders in full. The
    returned array is never mutated, by this or any later call, and the row
    of an untouched group is the previous publication's pair itself, never
    a copy: a consumer holding that array tells kept rows from re-rendered
    ones by physical equality ([==]), as the warehouse's rendered lines do.
    A touched group's row, and every row of a full render, is a fresh pair.
    @raise Invalid_argument if a transaction is open. *)
val publish : t -> (Relational.Tuple.t * int) array

(** Resident bytes of this state: key and component columns (including
    off-heap Bigarray payloads), count columns, key maps, DISTINCT
    multisets (map nodes and boxed values), string dictionaries (each
    counted once per state) and the journal's row marks. The undo log is
    working memory of the transactions, not counted: emptied by
    {!publish}, it keeps its capacity only while that is within four
    times what it held. *)
val byte_size : t -> int

(** Off-heap (Bigarray payload) bytes only — the part of {!byte_size} that
    [Obj.reachable_words] cannot see. *)
val offheap_bytes : t -> int
