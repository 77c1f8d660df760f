module View = Algebra.View
module Attr = Algebra.Attr
module Aggregate = Algebra.Aggregate
module Select_item = Algebra.Select_item
module Predicate = Algebra.Predicate
module Cmp = Algebra.Cmp
module Derive = Mindetail.Derive
module Auxview = Mindetail.Auxview
module Join_graph = Mindetail.Join_graph
module Database = Relational.Database
module Schema = Relational.Schema
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value
module Delta = Relational.Delta
module Delta_batch = Relational.Delta_batch

module TH = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

module VSet = Set.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

(* A column of a view table, resolved once at [init]: [base] is its index in
   the base schema (read off a delta's tuple), [plain] its position among
   the plain columns of the table's auxiliary view (-1 when not kept).
   Slots index [tables]; the root is slot 0. A joined row is a [Feed.t]:
   each slot bound to a base tuple or to a group of its auxiliary view
   (slots the join has not reached yet hold stale bindings). *)
type cref = Feed.cell = { slot : int; base : int; plain : int }

(* One outgoing key join: the parent's foreign-key column, the child's slot. *)
type cjoin = { fk : cref; child : int }

(* A local condition, resolved once at [init]: the position of its left
   column, the comparison, and a constant or the position of a second
   column of the same row. Positions index a base tuple, or — for the
   residual conditions checked on stored rows — the plain cells of an
   auxiliary row. *)
type operand = K of Value.t | At of int

type cond = { pos : int; op : Cmp.t; rhs : operand }

(* A semijoin reduction, resolved once at [init]: the base position of the
   foreign key and the slot whose auxiliary view must hold its value. *)
type semi = { sj_fk : int; sj_slot : int }

(* A select item and how its argument is read off a joined row (see
   [Feed.arg]). *)
type item_plan = P_group of cref | P_agg of { agg : Aggregate.t; arg : Feed.arg }

(* The column an aggregate reads, if any. *)
let arg_cell : Feed.arg -> cref option = function
  | Feed.Sum { c; _ } | Feed.Value { c; _ } -> Some c
  | Feed.Key | Feed.Weight -> None

(* A MIN/MAX item recomputed from the auxiliary rows of its dirty groups;
   [ext] >= 0 reads the append-only extremum column at that position instead
   of the plain column [rc]. *)
type rtarget = { item : int; agg : Aggregate.t; rc : cref; ext : int }

(* The driving join of group-row walks (see [walk_groups]): a first hop from
   the root whose foreign key is indexed in the root auxiliary view and
   whose subtree determines [covered] — every non-root group column, plus
   the foreign key itself when it is grouped on. *)
type driving = {
  dj : cjoin;
  fk_column : string;  (** the root column of [dj.fk] *)
  child_key : int;  (** plain position of the child's key in its view *)
  covered : (int * cref) array;
      (** group-key position and where to read it once the child's subtree
          is joined *)
}

type t = {
  d : Derive.t;
  view : View.t;
  root : string;
  tables : string array;  (** view tables by slot; the root is slot 0 *)
  slots : (string, int) Hashtbl.t;
  schemas : (string, Schema.t) Hashtbl.t;
  aux : Aux_state.t option array;  (** auxiliary view per slot *)
  joins : cjoin list array;  (** outgoing joins per slot *)
  vstate : View_state.t;
  plans : item_plan array;
  group_plan : cref array;  (** one per group attr *)
  rtargets : rtarget array;  (** MIN/MAX items recomputed for dirty groups *)
  root_groups : (string * int) list;
      (** root columns in the group key, with their key positions *)
  driving : driving option;
  group_index : string option;
      (** the first root group column indexed in the root auxiliary view:
          without a live driving join, the walk reads its buckets *)
  determined : bool;  (** the root auxiliary view was eliminated *)
  locals : cond array array;
      (** per slot: the view's local conditions, on base positions *)
  aux_conds : cond array array;
      (** per slot: the pushed-down conditions of its auxiliary view, on
          base positions (empty without an auxiliary view) *)
  semis : semi array array;
      (** per slot: the semijoin reductions of its auxiliary view *)
  residuals : cond array array;
      (** per slot: view local conditions not enforced by its auxiliary
          view, on plain positions (non-empty only in the no-pushdown
          ablation) *)
  append_only : bool;
  root_reads : int array;
      (** root-schema positions the engine ever reads off a root base tuple
          (group/aggregate/local/join-fk/aux columns): two root tuples equal
          on this projection are interchangeable, so the fast path merges
          them into one weighted operation *)
  exposing : int array array;
      (** per slot, the base positions whose change an update must carry
          into the stored state. The root's are its [root_reads] but the
          arguments of non-DISTINCT SUM/AVG items and the root auxiliary
          view's summed columns: an update equal on them keeps every group
          and is applied in place. A dimension's are the columns its
          auxiliary view keeps plainly or the view's local conditions read:
          an update equal on them is ignored. *)
  root_sums : (int * int) array;
      (** per non-DISTINCT SUM/AVG item over a root column: the item and
          the column's base position (the shifts of an in-place update) *)
  feed : Feed.t;
      (** the view's typed feed plan, and the joined row of the
          coordinator's feeds (serial route, direct path, dimension
          updates, init); a worker binds a [Feed.rebind] of its own *)
  obs_groups : Telemetry.Gauge.t;  (** resident view groups *)
  mutable obs_aux :
    (Aux_state.t * Telemetry.Gauge.t * Telemetry.Gauge.t * Telemetry.Gauge.t)
    list;
      (** per auxiliary view: resident rows, detail rows represented,
          compression ratio *)
  mutable last_flow : Telemetry.Lineage.view_flow option;
      (** lineage flow of the most recent [apply_batch]; [None] before the
          first batch and while telemetry is disabled *)
  wk : Telemetry.Workload.view_stats;
      (** process-global workload accumulator for this view (hot group
          keys, netting skew, batch counts) *)
  mutable wk_live : bool;
      (** false while [init] seeds the view from base rows — seeding is
          not workload *)
  mutable wk_writes : int;
      (** netted write weight accumulated since the last batch flush;
          plain fields — one domain drives an engine's apply path — so
          the per-tuple accounting touches nothing shared *)
  mutable wk_events : int;
      (** group-key touches since the last batch flush; also the sketch
          sampling phase (feed when [wk_events land sample_mask = 0]) *)
  mutable walk_rows : int;
      (** root auxiliary rows examined by the latest dirty-group
          recomputation *)
}

exception Invariant of string

let invariant fmt = Format.kasprintf (fun s -> raise (Invariant s)) fmt

let log_src = Logs.Src.create "mindetail.engine" ~doc:"self-maintenance engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Telemetry handles, registered once at module load; counters and phase
   histograms are process-global across engine instances (per-view storage
   gauges live on [t] instead, keyed by view/aux labels). *)
module Obs = struct
  let phase p =
    Telemetry.Histogram.make
      ~labels:[ ("phase", p) ]
      ~help:"Latency of one maintenance pipeline phase"
      "minview_engine_phase_seconds"

  let compact = phase "compact"
  let weighted_merge = phase "weighted-merge"
  let dim_apply = phase "dim-apply"
  let prepare = phase "prepare"
  let shard_apply = phase "shard-apply"
  let view_update = phase "view-update"

  (* Allocation profile next to the latency profile: the coordinating
     domain's [Gc.allocated_bytes] delta over each phase (worker-domain
     allocations in sharded phases are not attributed). Log-scale from
     4 KiB: phase footprints span batch sizes, not microseconds. *)
  let phase_alloc p =
    Telemetry.Histogram.make
      ~labels:[ ("phase", p) ]
      ~help:"Bytes allocated during one maintenance pipeline phase"
      ~lo:4096. ~factor:4. ~buckets:24 "minview_engine_phase_alloc_bytes"

  let compact_alloc = phase_alloc "compact"
  let weighted_merge_alloc = phase_alloc "weighted-merge"
  let dim_apply_alloc = phase_alloc "dim-apply"
  let prepare_alloc = phase_alloc "prepare"
  let shard_apply_alloc = phase_alloc "shard-apply"
  let view_update_alloc = phase_alloc "view-update"

  let apply_mode m =
    Telemetry.Histogram.make
      ~labels:[ ("mode", m) ]
      ~help:"End-to-end latency of Engine.apply_batch"
      "minview_engine_apply_seconds"

  let apply_serial = apply_mode "serial"
  let apply_parallel = apply_mode "parallel"

  let batches m =
    Telemetry.Counter.make
      ~labels:[ ("mode", m) ]
      ~help:"Batches applied" "minview_engine_batches_total"

  let batches_serial = batches "serial"
  let batches_parallel = batches "parallel"

  let deltas_total =
    Telemetry.Counter.make
      ~help:"Deltas received that touch a view table (both apply modes)"
      "minview_engine_deltas_total"

  let deltas_netted =
    Telemetry.Counter.make
      ~help:"Deltas surviving net-effect compaction (parallel path)"
      "minview_engine_deltas_netted_total"

  let ops_applied =
    Telemetry.Counter.make
      ~help:"Compacted operations actually applied (parallel path)"
      "minview_engine_ops_applied_total"

  let merge_folds =
    Telemetry.Counter.make
      ~help:
        "Root changes folded away by the weighted duplicate merge (the \
         paper's smart duplicate compression on the delta stream)"
      "minview_engine_merge_folds_total"
end

let derivation t = t.d

(* Structural equality of all mutable state: every auxiliary view (matched
   by slot — both engines come from one derivation) and the materialized
   view state. *)
let equal_state a b =
  Array.length a.aux = Array.length b.aux
  && Array.for_all2
       (fun x y ->
         match x, y with
         | Some st, Some st' -> Aux_state.equal st st'
         | None, None -> true
         | Some _, None | None, Some _ -> false)
       a.aux b.aux
  && View_state.equal a.vstate b.vstate

(* --- transactions ------------------------------------------------------- *)

(* Aux journals open and close in lockstep with the view state's, so the
   view state alone answers for the whole engine. *)
let in_txn t = View_state.in_txn t.vstate

let begin_txn t =
  Array.iter (Option.iter Aux_state.begin_txn) t.aux;
  View_state.begin_txn t.vstate

let commit t =
  Array.iter (Option.iter Aux_state.commit) t.aux;
  View_state.commit t.vstate

let rollback t =
  Array.iter (Option.iter Aux_state.rollback) t.aux;
  View_state.rollback t.vstate

let schema t name = Hashtbl.find t.schemas name

let aux_of t name =
  match Hashtbl.find_opt t.slots name with
  | Some s -> t.aux.(s)
  | None -> None

let dim_aux t name =
  match aux_of t name with
  | Some st -> st
  | None -> invariant "auxiliary view for %s is missing" name

let slot_aux t s =
  match t.aux.(s) with
  | Some st -> st
  | None -> invariant "auxiliary view for %s is missing" t.tables.(s)

(* --- resolved local conditions and semijoin membership ------------------ *)

(* Every check below is a loop over what [init] resolved for a slot: no
   name lookup, no closure. *)
let rec tup_holds conds (tup : Tuple.t) i =
  i >= Array.length conds
  ||
  let c = conds.(i) in
  Cmp.eval c.op tup.(c.pos) (match c.rhs with K v -> v | At p -> tup.(p))
  && tup_holds conds tup (i + 1)

let plain_value st l pos =
  Column.get (Aux_state.plain_column st l pos) (Aux_state.loc_row st l)

let rec row_holds conds st l i =
  i >= Array.length conds
  ||
  let c = conds.(i) in
  Cmp.eval c.op (plain_value st l c.pos)
    (match c.rhs with K v -> v | At p -> plain_value st l p)
  && row_holds conds st l (i + 1)

(* Whether two images of a row differ at one of the positions [pos]. *)
let rec differs pos (before : Tuple.t) (after : Tuple.t) i =
  i < Array.length pos
  && ((not (Value.equal before.(pos.(i)) after.(pos.(i))))
     || differs pos before after (i + 1))

let rec semis_hold t semis (tup : Tuple.t) i =
  i >= Array.length semis
  ||
  let sj = semis.(i) in
  Aux_state.mem_key (slot_aux t sj.sj_slot) tup.(sj.sj_fk)
  && semis_hold t semis tup (i + 1)

(* The view's local conditions on a base tuple of slot [s]. *)
let passes_locals t s tup = tup_holds t.locals.(s) tup 0

(* Membership in slot [s]'s auxiliary view is governed by the spec's own
   pushed-down conditions and semijoins; the view's full conditions only
   gate the view feed (they coincide except in the no-pushdown ablation). *)
let in_aux t s tup =
  match t.aux.(s) with
  | None -> false
  | Some _ -> tup_holds t.aux_conds.(s) tup 0 && semis_hold t t.semis.(s) tup 0

(* View local conditions on slot [s] not already enforced by its auxiliary
   view, evaluated against its group [l]. *)
let residual_ok t s st l =
  Array.length t.residuals.(s) = 0 || row_holds t.residuals.(s) st l 0

(* --- joins ------------------------------------------------------------- *)

(* Extend the joined row [f] along the join tree below slot [s]; key joins
   find at most one partner per table, all of them in dimension auxiliary
   views, probed with the foreign key's cell where it is stored. The join
   list is walked directly, so no step allocates. *)
let rec extend t f s = join_all t f ~skip:(-1) t.joins.(s)

(* Joins every [j] of [js] but the one into slot [skip]. *)
and join_all t f ~skip = function
  | [] -> true
  | j :: js -> (j.child = skip || join_one t f j) && join_all t f ~skip js

and join_one t f j =
  let st = slot_aux t j.child in
  let l = Feed.locate f j.fk st in
  l >= 0
  && residual_ok t j.child st l
  && begin
       Feed.bind_loc f j.child l;
       extend t f j.child
     end

(* Root auxiliary rows participate in the view only when they pass the view
   conditions not already enforced by the root spec (no-pushdown ablation).
   Joins the root group [l] into [f]; the subtree of slot [skip], if given,
   is left as the caller already joined it. *)
let extend_root ?(skip = -1) t f l =
  Feed.bind_loc f 0 l;
  residual_ok t 0 (slot_aux t 0) l && join_all t f ~skip t.joins.(0)

let is_csmas_sum (agg : Aggregate.t) =
  (not agg.Aggregate.distinct)
  && (agg.Aggregate.func = Aggregate.Sum || agg.Aggregate.func = Aggregate.Avg)

(* --- root-table changes ----------------------------------------------- *)

(* A workload write of weight [w] to the group of the joined row [f]. The
   label thunk is forced synchronously (only on a top-k miss); hashing and
   the closure are only paid on sampled events, and the exact counts go
   through plain fields flushed once per batch. *)
let note_write t f w =
  if t.wk_events land Telemetry.Workload.sample_mask = 0 then
    Telemetry.Workload.note_hot_key ~weight:w t.wk ~hash:(Feed.hash_key f)
      ~label:(fun () -> Tuple.to_string (Feed.key f));
  t.wk_writes <- t.wk_writes + w;
  t.wk_events <- t.wk_events + 1

(* Coordinator only: joins root tuple [tup] through the engine's feed,
   counted as one workload write; false when [tup] lacks a join
   partner. *)
let root_group t tup =
  let f = t.feed in
  Feed.bind_base f 0 tup;
  extend t f 0
  && begin
       if t.wk_live && Telemetry.enabled () then note_write t f 1;
       true
     end

let root_view_feed t tup ~sign =
  if root_group t tup then
    if sign > 0 then View_state.feed t.vstate t.feed ~cnt:1
    else View_state.unfeed t.vstate t.feed ~cnt:1

let root_insert t tup =
  if in_aux t 0 tup then Aux_state.insert_base (slot_aux t 0) tup;
  if passes_locals t 0 tup then root_view_feed t tup ~sign:1

let root_delete t tup =
  if passes_locals t 0 tup then root_view_feed t tup ~sign:(-1);
  if in_aux t 0 tup then Aux_state.delete_base (slot_aux t 0) tup

(* An update equal on the exposing positions keeps its row in the same
   auxiliary group and view group (Section 2.2's non-exposed update): only
   the SUM/AVG arguments and summed columns can move. *)
let updates_in_place t ~before ~after =
  not (differs t.exposing.(0) before after 0)

(* One probe per store instead of a deletion and an insertion: membership,
   local conditions and join partners are those of [before], as the images
   agree on every column they read. *)
let root_adjust t ~before ~after =
  if in_aux t 0 before then Aux_state.adjust (slot_aux t 0) ~before ~after;
  if passes_locals t 0 before && root_group t before then
    View_state.adjust t.vstate t.feed ~sums:t.root_sums ~before ~after

let root_update t ~before ~after =
  if updates_in_place t ~before ~after then root_adjust t ~before ~after
  else begin
    root_delete t before;
    root_insert t after
  end

(* --- dimension-table changes ------------------------------------------ *)

(* Dimension changes name their table by slot [s] (never 0, the root). *)
let dim_insert t s tup =
  if in_aux t s tup then Aux_state.insert_base (slot_aux t s) tup

let dim_delete t s tup =
  if in_aux t s tup then Aux_state.delete_base (slot_aux t s) tup

(* The unique join path root -> ... -> target, as a list of joins. *)
let path_to t target =
  let rec go from =
    if String.equal from target then Some []
    else
      List.find_map
        (fun (j : View.join) ->
          Option.map (fun p -> j :: p) (go j.View.dst.Attr.table))
        (View.joins_from t.view from)
  in
  match go t.root with
  | Some p -> p
  | None -> invariant "no join path from %s to %s" t.root target

(* Keys of [j.src.table]'s auxiliary rows whose foreign key (j.src.column)
   lies in [targets] — one upward step of reverse chain resolution. *)
let reach_step t (j : View.join) targets =
  let table = j.View.src.Attr.table in
  let st = dim_aux t table in
  let key_col = (schema t table).Schema.key in
  VSet.fold
    (fun v acc ->
      List.fold_left
        (fun acc r -> VSet.add (Aux_state.plain_of st r key_col) acc)
        acc
        (Aux_state.rows_with st ~column:j.View.src.Attr.column v))
    targets VSet.empty

(* Keys of the table at the top of [path] whose fk chain reaches [key_val]
   at the bottom. [path] must be non-empty; its first join starts at the
   table whose keys are returned. *)
let keys_reaching t path key_val =
  List.fold_left
    (fun targets j -> reach_step t j targets)
    (VSet.singleton key_val)
    (List.rev path)

(* Dimension update with unchanged key, root auxiliary view retained:
   contribution diffing through the root auxiliary view. *)
let dim_update_diff t s ~before ~after =
  let table = t.tables.(s) in
  let key_val = before.(Schema.key_index (schema t table)) in
  Log.debug (fun m ->
      m "dim update on %s key %a: contribution diffing through X_%s" table
        Value.pp key_val t.root);
  let root_st =
    match aux_of t t.root with
    | Some st -> st
    | None -> invariant "dim_update_diff without a root auxiliary view"
  in
  let affected =
    match path_to t table with
    | [] -> invariant "dim_update_diff: empty join path"
    | j1 :: rest ->
      let fk_targets =
        match rest with
        | [] -> VSet.singleton key_val
        | _ -> keys_reaching t rest key_val
      in
      VSet.fold
        (fun v acc ->
          Aux_state.rows_with root_st ~column:j1.View.src.Attr.column v @ acc)
        fk_targets []
  in
  (* the root auxiliary view is not written here, so its locators hold
     across the update of X_table: the old contributions are withdrawn
     before it, the new ones fed after *)
  let affected = List.map (Aux_state.loc_of_row root_st) affected in
  let f = t.feed in
  let each g =
    List.iter
      (fun l ->
        if extend_root t f l then g (Aux_state.loc_cnt root_st l))
      affected
  in
  each (fun cnt -> View_state.unfeed t.vstate f ~cnt);
  let st = slot_aux t s in
  if in_aux t s before then Aux_state.delete_base st before;
  if in_aux t s after then Aux_state.insert_base st after;
  each (fun cnt -> View_state.feed t.vstate f ~cnt)

(* Nearest key-annotated ancestor of [table] (possibly itself), strictly
   below the root. Elimination of the root auxiliary view guarantees its
   existence for every table with preserved attributes (Section 3.3). *)
let keyed_ancestor t table =
  let g = t.d.Derive.graph in
  let rec up tbl =
    if String.equal tbl t.root then
      invariant
        "no key-annotated ancestor for %s below the root; the root auxiliary \
         view should not have been eliminated"
        table
    else if Join_graph.annotation g tbl = Join_graph.Keyed then tbl
    else
      match Join_graph.parent g tbl with
      | Some p -> up p
      | None -> invariant "table %s is outside the join tree" tbl
  in
  up table

(* Dimension update with unchanged key while the root auxiliary view is
   eliminated: rewrite the affected view groups through the nearest
   key-annotated ancestor. *)
let dim_update_rewrite t s ~before ~after =
  let table = t.tables.(s) in
  let sch = schema t table in
  let st = slot_aux t s in
  let kept = Auxview.group_columns (Aux_state.spec st) in
  let changed =
    List.filter
      (fun i -> List.mem sch.Schema.columns.(i).Schema.col_name kept)
      (Delta.changed_indices (Delta.Update { before; after }))
  in
  if changed = [] then ()
  else begin
    Log.debug (fun m ->
        m "dim update on %s with eliminated root: group rewrite through the \
           keyed ancestor"
          table);
    (* membership cannot change here: condition columns of a non-exposed
       table are not updatable *)
    if in_aux t s before then begin
      Aux_state.delete_base st before;
      Aux_state.insert_base st after
    end;
    let key_val = before.(Schema.key_index sch) in
    let anchor = keyed_ancestor t table in
    (* key values of the anchor whose chain reaches the updated tuple *)
    let anchor_keys =
      if String.equal anchor table then
        List.to_seq [ key_val ] |> VSet.of_seq
      else begin
        (* path from the anchor down to [table] *)
        let full_path = path_to t table in
        let rec drop_until = function
          | [] -> invariant "anchor %s not on the path to %s" anchor table
          | (j : View.join) :: rest ->
            if String.equal j.View.src.Attr.table anchor then j :: rest
            else drop_until rest
        in
        keys_reaching t (drop_until full_path) key_val
      end
    in
    (* positions in the view group key *)
    let anchor_key_attr =
      Attr.make anchor (schema t anchor).Schema.key
    in
    let gattrs = View.group_attrs t.view in
    let anchor_pos =
      match
        List.find_index (fun a -> Attr.equal a anchor_key_attr) gattrs
      with
      | Some i -> i
      | None -> invariant "anchor key %s not in group-by" anchor
    in
    let table_positions =
      List.filteri
        (fun _ (a : Attr.t) -> String.equal a.Attr.table table)
        gattrs
      |> List.map (fun (a : Attr.t) ->
             ( (match
                  List.find_index (fun x -> Attr.equal x a) gattrs
                with
               | Some i -> i
               | None -> assert false),
               Schema.index_of sch a.Attr.column ))
    in
    let item_updates =
      Array.to_list t.plans
      |> List.mapi (fun i plan -> (i, plan))
      |> List.filter_map (fun (i, plan) ->
             match plan with
             | P_agg { agg; arg = Feed.Sum { c; _ } | Feed.Value { c; _ } }
               when String.equal t.tables.(c.slot) table
                    && List.mem c.base changed ->
               let ci = c.base in
               if is_csmas_sum agg then
                 Some
                   ( i,
                     View_state.Shift_sum
                       (Value.sub after.(ci) before.(ci)) )
               else Some (i, View_state.Set_current after.(ci))
             | P_agg _ | P_group _ -> None)
    in
    (* collect affected groups first, then rewrite *)
    let affected_groups =
      View_state.fold_groups t.vstate
        (fun key _cnt acc ->
          if VSet.mem key.(anchor_pos) anchor_keys then key :: acc else acc)
        []
    in
    List.iter
      (fun key ->
        let new_key = Array.copy key in
        List.iter
          (fun (pos, src) ->
            if not (Value.equal key.(pos) before.(src)) then
              invariant "group key component does not match before-image";
            new_key.(pos) <- after.(src))
          table_positions;
        View_state.adjust_group t.vstate ~key ~new_key item_updates)
      affected_groups
  end

let dim_update t s ~before ~after =
  let table = t.tables.(s) in
  let ki = Schema.key_index (schema t table) in
  if not (Value.equal before.(ki) after.(ki)) then begin
    (* key changed: only legal while unreferenced, so no view effect *)
    dim_delete t s before;
    dim_insert t s after
  end
  else if not (differs t.exposing.(s) before after 0) then ()
  else if t.determined then dim_update_rewrite t s ~before ~after
  else dim_update_diff t s ~before ~after

(* --- recomputation of dirty MIN/MAX components ------------------------- *)

(* The driving join, when its child auxiliary view is currently smaller than
   the root's — the one condition of the path rule that depends on state. *)
let live_driving t root_st =
  match t.driving with
  | Some d
    when Aux_state.row_count (slot_aux t d.dj.child)
         < Aux_state.row_count root_st ->
    Some d
  | Some _ | None -> None

(* [walk_groups t root_st groups f] calls [f v key feed row] for every root
   auxiliary row [row] whose joined group key [key] is bound to [v] in
   [groups] — "the root rows of these groups", for recomputation and the
   audit alike. [key] and the joined row [feed] are scratch buffers, valid
   during the call.
   Returns the number of root auxiliary rows examined.

   Three paths, chosen per walk:
   - driving-join walk, when the engine has a [driving] join whose child
     auxiliary view is smaller than the root's: iterate the child's rows, join each
     one's subtree once, and skip it unless its part of the group key can
     match one of [groups]; for the rest, walk the root rows of its foreign
     key bucket (indexed), joining only the other subtrees per root row.
     O(|child| + rows of the matching children);
   - group-index walk, otherwise, when a root group column is indexed
     ([group_index]): walk that column's buckets for the values [groups]
     take there, comparing the other root group columns' cells before
     joining. O(rows of the groups' values in that column);
   - filtered scan, otherwise: one pass over the root auxiliary view that
     compares each root group column's stored cell against the values the
     groups take there before joining anything. O(|root|) cell compares
     plus O(matching rows) joins.
   The last two are one [Aux_state.iter_where] call, which walks the
   buckets of the first indexed condition column. *)
let walk_groups t root_st groups f =
  let feed = Feed.rebind t.feed in
  let key = Array.make (Array.length t.group_plan) Value.Null in
  let visit ?skip row =
    if extend_root ?skip t feed (Aux_state.loc_of_row root_st row) then begin
      Feed.key_into feed key;
      match TH.find_opt groups key with
      | Some v -> f v key feed row
      | None -> ()
    end
  in
  let root_conds () =
    List.map
      (fun (column, i) ->
        (column, TH.fold (fun k _ acc -> k.(i) :: acc) groups []))
      t.root_groups
  in
  match live_driving t root_st with
  | _ when TH.length groups = 0 -> 0
  | Some d ->
    let child = d.dj.child in
    let wanted = TH.create (TH.length groups) in
    TH.iter
      (fun k _ -> TH.replace wanted (Array.map (fun (i, _) -> k.(i)) d.covered) ())
      groups;
    let part = Array.make (Array.length d.covered) Value.Null in
    let conds = root_conds () in
    let examined = ref 0 in
    let child_st = slot_aux t child in
    Aux_state.iter child_st (fun crow ->
        let l = Aux_state.loc_of_row child_st crow in
        Feed.bind_loc feed child l;
        if residual_ok t child child_st l && extend t feed child then begin
          Array.iteri (fun j (_, c) -> part.(j) <- Feed.read feed c ~ext:(-1)) d.covered;
          if TH.mem wanted part then
            (* the child's key is the foreign key of its root rows *)
            let fk = Aux_state.plain_at crow d.child_key in
            examined :=
              !examined
              + Aux_state.iter_where root_st
                  ((d.fk_column, [ fk ]) :: conds)
                  (visit ~skip:child)
        end);
    !examined
  | None -> Aux_state.iter_where root_st (root_conds ()) visit

let group_walk t =
  Option.map
    (fun root_st ->
      match live_driving t root_st, t.group_index with
      | Some d, _ -> `Driving_join t.tables.(d.dj.child)
      | None, Some column -> `Group_index column
      | None, None -> `Filtered_scan)
    t.aux.(0)

let walk_rows t = t.walk_rows

(* Settles the batch's view state: [View_state.take_dirty] re-folds the
   DISTINCT results whose value set changed from their multisets and hands
   back the groups whose MIN/MAX lost its extremum — the only groups
   recomputed from the auxiliary views. *)
let flush_dirty t =
  match View_state.take_dirty t.vstate with
  | [] -> t.walk_rows <- 0
  | dirty_keys ->
    Log.debug (fun m ->
        m "recomputing %d dirty group(s) of %s from the auxiliary views"
          (List.length dirty_keys) t.view.View.name);
    if t.determined then
      invariant "dirty groups cannot arise when the root view is eliminated";
    let root_st = slot_aux t 0 in
    (* the items to recompute are the MIN/MAX aggregates ([rtargets]). Their
       value is re-derived from the auxiliary rows — from the plain column,
       or (append-only mode, where dimension updates can still regroup rows)
       from the pre-aggregated MIN/MAX column of the root view. *)
    let dirty : Value.t option array TH.t = TH.create 16 in
    List.iter
      (fun key ->
        if not (TH.mem dirty key) then
          TH.add dirty key (Array.make (Array.length t.rtargets) None))
      dirty_keys;
    t.walk_rows <-
      walk_groups t root_st dirty (fun accs _key feed _row ->
          Array.iteri
            (fun j r ->
              let a = Feed.read feed r.rc ~ext:r.ext in
              accs.(j) <-
                Some
                  (match accs.(j) with
                  | None -> a
                  | Some m ->
                    let c = Value.compare a m in
                    if (r.agg.Aggregate.func = Aggregate.Min && c < 0)
                       || (r.agg.Aggregate.func = Aggregate.Max && c > 0)
                    then a
                    else m))
            t.rtargets);
    TH.iter
      (fun key accs ->
        (* groups removed since being dirtied have no view entry and stay
           silent in set_value *)
        Array.iteri
          (fun j r ->
            Option.iter (View_state.set_value t.vstate ~key ~item:r.item) accs.(j))
          t.rtargets)
      dirty

(* The paper-facing dashboard: per auxiliary view, resident rows vs. the
   detail rows they stand for (the sum of the stored count weights) — the
   live analogue of the 245 GB → 167 MB table. [row_count]/[base_count] are
   O(shards), so refreshing after every batch is cheap. *)
let update_storage_gauges t =
  if Telemetry.enabled () then begin
    Telemetry.Gauge.set t.obs_groups
      (float_of_int (View_state.group_count t.vstate));
    List.iter
      (fun (st, resident, detail, ratio) ->
        let rows = Aux_state.row_count st in
        let base = Aux_state.base_count st in
        Telemetry.Gauge.set resident (float_of_int rows);
        Telemetry.Gauge.set detail (float_of_int base);
        Telemetry.Gauge.set ratio
          (if rows = 0 then 0. else float_of_int base /. float_of_int rows))
      t.obs_aux
  end

let flush t =
  flush_dirty t;
  update_storage_gauges t

(* --- initialization ---------------------------------------------------- *)

let post_order g =
  let rec walk tbl =
    List.concat_map walk (Join_graph.children g tbl) @ [ tbl ]
  in
  walk (Join_graph.root g)

(* Shard count for the root auxiliary view and the view state. A power of
   two; dimension auxiliary views stay single-shard — they are join
   destinations, and their by-key probe must remain a single lookup. *)
let nshards = 16

(* The driving join of [walk_groups], if the view has one: a first hop from
   the root whose foreign key is indexed in the root auxiliary view, whose
   subtree holds every non-root group column, and which determines at least
   one group-key position (otherwise it could not skip a single child row).
   The size condition (child smaller than root) is checked per walk. *)
let find_driving ~joins ~group_plan ~root_indexed ~key_ref =
  let rec subtree s = s :: List.concat_map (fun j -> subtree j.child) joins.(s) in
  let candidate j fk_column =
    let sub = subtree j.child in
    let in_sub c = List.mem c.slot sub in
    if Array.for_all (fun c -> c.slot = 0 || in_sub c) group_plan then
      let covered =
        Array.to_list group_plan
        |> List.mapi (fun i c -> (i, c))
        |> List.filter_map (fun (i, c) ->
               if in_sub c then Some (i, c)
               else if c = j.fk then
                 (* grouped on the foreign key itself: the child's key *)
                 Some (i, key_ref j.child)
               else None)
        |> Array.of_list
      in
      if Array.length covered = 0 then None
      else
        Some { dj = j; fk_column; child_key = (key_ref j.child).plain; covered }
    else None
  in
  List.find_map
    (fun j ->
      Option.bind (List.assoc_opt j.fk.base root_indexed) (candidate j))
    joins.(0)

let init ?(fk_index = true) db (d : Derive.t) =
  let view = d.Derive.view in
  let root = Derive.root d in
  let schemas = Hashtbl.create 8 in
  List.iter
    (fun tbl -> Hashtbl.add schemas tbl (Database.schema_of db tbl))
    view.View.tables;
  let determined = Option.is_none (Derive.spec_for d root) in
  let tables =
    Array.of_list
      (root :: List.filter (fun tbl -> not (String.equal tbl root)) view.View.tables)
  in
  let slots = Hashtbl.create 8 in
  Array.iteri (fun i tbl -> Hashtbl.add slots tbl i) tables;
  let cref table column =
    {
      slot = Hashtbl.find slots table;
      base = Schema.index_of (Hashtbl.find schemas table) column;
      plain =
        (match Derive.spec_for d table with
        | Some spec -> Option.value (Auxview.plain_position spec column) ~default:(-1)
        | None -> -1);
    }
  in
  let aref (a : Attr.t) = cref a.Attr.table a.Attr.column in
  let joins =
    Array.map
      (fun tbl ->
        List.map
          (fun (j : View.join) ->
            { fk = aref j.View.src; child = Hashtbl.find slots j.View.dst.Attr.table })
          (View.joins_from view tbl))
      tables
  in
  let plans =
    Array.of_list
      (List.map
         (fun item ->
           match item with
           | Select_item.Group { attr; _ } -> P_group (aref attr)
           | Select_item.Agg agg ->
             (* an argument is read off an auxiliary row from the running
                SUM or the append-only MIN/MAX column its view keeps for
                it, else from its plain column *)
             let arg =
               match agg.Aggregate.func, agg.Aggregate.distinct, Aggregate.attr agg with
               | Aggregate.Count_star, _, _ | Aggregate.Count, false, _ -> Feed.Weight
               | _, _, Some (a : Attr.t) -> (
                 let pos f =
                   match Derive.spec_for d a.Attr.table with
                   | Some spec -> Option.value (f spec a.Attr.column) ~default:(-1)
                   | None -> -1
                 in
                 let c = aref a in
                 match agg.Aggregate.func with
                 | _ when is_csmas_sum agg -> Feed.Sum { c; sum = pos Auxview.sum_position }
                 | Aggregate.Min when not agg.Aggregate.distinct ->
                   Feed.Value { c; ext = pos Auxview.min_position }
                 | Aggregate.Max when not agg.Aggregate.distinct ->
                   Feed.Value { c; ext = pos Auxview.max_position }
                 | _ -> Feed.Value { c; ext = -1 })
               | _, _, None -> assert false
             in
             P_agg { agg; arg })
         view.View.select)
  in
  let group_plan = Array.of_list (List.map aref (View.group_attrs view)) in
  let rtargets =
    Array.to_list plans
    |> List.mapi (fun item plan -> (item, plan))
    |> List.filter_map (fun (item, plan) ->
           match plan with
           | P_agg
               {
                 agg =
                   { Aggregate.func = Aggregate.Min | Aggregate.Max;
                     distinct = false; _ } as agg;
                 _;
               } -> (
             let ext ~is_min table column =
               match Derive.spec_for d table with
               | Some spec -> (
                 match
                   (if is_min then Auxview.min_position else Auxview.max_position)
                     spec column
                 with
                 | Some i -> { item; agg; rc = cref table column; ext = i }
                 | None -> invariant "no extremum column for %s.%s" table column)
               | None -> invariant "no auxiliary view for %s" table
             in
             match Derive.agg_source d agg with
             | Some (Derive.From_plain { table; column }) ->
               Some { item; agg; rc = cref table column; ext = -1 }
             | Some (Derive.From_min { table; column }) ->
               Some (ext ~is_min:true table column)
             | Some (Derive.From_max { table; column }) ->
               Some (ext ~is_min:false table column)
             | Some (Derive.From_sum _ | Derive.From_count) | None -> None)
           | P_agg _ | P_group _ -> None)
    |> Array.of_list
  in
  (* index every auxiliary view on its outgoing foreign keys so
     dimension-update propagation touches only the affected rows; only fk
     columns the spec keeps plainly can be indexed — the rest are
     unreachable through this auxiliary view anyway *)
  let fk_indexed tbl =
    match Derive.spec_for d tbl with
    | Some spec when fk_index ->
      List.filter
        (fun col -> Auxview.plain_position spec col <> None)
        (List.map
           (fun (j : View.join) -> j.View.src.Attr.column)
           (View.joins_from view tbl))
    | Some _ | None -> []
  in
  let root_groups =
    Array.to_list group_plan
    |> List.mapi (fun i c -> (i, c))
    |> List.filter_map (fun (i, c) ->
           if c.slot = 0 then
             Some ((Hashtbl.find schemas root).Schema.columns.(c.base).Schema.col_name, i)
           else None)
  in
  let driving =
    if determined then None
    else
      let root_sch = Hashtbl.find schemas root in
      find_driving ~joins ~group_plan
        ~root_indexed:
          (List.map
             (fun col -> (Schema.index_of root_sch col, col))
             (fk_indexed root))
        ~key_ref:(fun s ->
          let tbl = tables.(s) in
          cref tbl (Hashtbl.find schemas tbl).Schema.key)
  in
  (* MIN/MAX recomputation with no driving join walks the root auxiliary
     rows of its dirty groups: index the root group columns the spec keeps
     plainly, so that walk reads their buckets instead of scanning *)
  let root_indexed =
    match Derive.spec_for d root with
    | Some spec when Array.length rtargets > 0 && driving = None ->
      fk_indexed root
      @ List.filter
          (fun col -> Auxview.plain_position spec col <> None)
          (List.map fst root_groups)
    | Some _ | None -> fk_indexed root
  in
  let indexed_columns tbl =
    if String.equal tbl root then root_indexed else fk_indexed tbl
  in
  let group_index =
    List.find_map
      (fun (col, _) -> if List.mem col root_indexed then Some col else None)
      root_groups
  in
  (* the per-slot checks of the feed path, resolved to positions *)
  let resolve pos_of (p : Predicate.t) =
    {
      pos = pos_of p.Predicate.left.Attr.column;
      op = p.Predicate.op;
      rhs =
        (match p.Predicate.right with
        | Predicate.Const v -> K v
        | Predicate.Col a -> At (pos_of a.Attr.column));
    }
  in
  let on_base tbl ps =
    let sch = Hashtbl.find schemas tbl in
    Array.of_list (List.map (resolve (Schema.index_of sch)) ps)
  in
  let locals =
    Array.map (fun tbl -> on_base tbl (View.locals_of view ~table:tbl)) tables
  in
  let aux_conds =
    Array.map
      (fun tbl ->
        match Derive.spec_for d tbl with
        | Some spec -> on_base tbl spec.Auxview.locals
        | None -> [||])
      tables
  in
  let semis =
    Array.map
      (fun tbl ->
        match Derive.spec_for d tbl with
        | Some spec ->
          let sch = Hashtbl.find schemas tbl in
          Array.of_list
            (List.map
               (fun (sj : Auxview.semijoin) ->
                 {
                   sj_fk = Schema.index_of sch sj.Auxview.fk;
                   sj_slot = Hashtbl.find slots sj.Auxview.target;
                 })
               spec.Auxview.semijoins)
        | None -> [||])
      tables
  in
  (* residual conditions are checked on stored rows, whose condition
     columns the spec keeps plainly (Compression keeps them so) *)
  let residuals =
    Array.map
      (fun tbl ->
        match Derive.spec_for d tbl with
        | None -> [||]
        | Some spec ->
          let plain col =
            match Auxview.plain_position spec col with
            | Some i -> i
            | None ->
              invariant "residual condition column %s.%s is not kept" tbl col
          in
          Array.of_list
            (List.map (resolve plain) (Derive.residual_locals d tbl)))
      tables
  in
  let positions ps = Array.of_list (List.sort_uniq compare ps) in
  let columns tbl cols =
    List.map (Schema.index_of (Hashtbl.find schemas tbl)) cols
  in
  (* Everything the engine can ever read off a root base tuple: group-by and
     aggregate sources, view local-condition columns, outgoing join foreign
     keys, and — when the root auxiliary view is retained — its kept,
     summed, extremum, semijoin-fk and pushed-condition columns. Two root
     tuples equal on this projection are indistinguishable to maintenance.
     The same walk marks which of them expose an update: all but the
     arguments of non-DISTINCT SUM/AVG items and the summed columns. *)
  let root_reads, root_exposing =
    let reads = ref [] and exposing = ref [] in
    let add ?(exposes = true) ps =
      reads := ps @ !reads;
      if exposes then exposing := ps @ !exposing
    in
    let add_cols ?exposes cols = add ?exposes (columns root cols) in
    let add_ref ?exposes c = if c.slot = 0 then add ?exposes [ c.base ] in
    Array.iter add_ref group_plan;
    Array.iter
      (function
        | P_agg { agg; arg } ->
          Option.iter (add_ref ~exposes:(not (is_csmas_sum agg))) (arg_cell arg)
        | P_group _ -> ())
      plans;
    add_cols (View.local_columns view ~table:root);
    add_cols
      (List.map
         (fun (j : View.join) -> j.View.src.Attr.column)
         (View.joins_from view root));
    (match Derive.spec_for d root with
    | None -> ()
    | Some spec ->
      add_cols (Auxview.group_columns spec);
      add_cols ~exposes:false (Auxview.summed_columns spec);
      add_cols (List.map fst (Auxview.ext_columns spec));
      add_cols
        (List.map
           (fun (sj : Auxview.semijoin) -> sj.Auxview.fk)
           spec.Auxview.semijoins);
      add_cols
        (List.concat_map
           (fun p ->
             List.map (fun (a : Attr.t) -> a.Attr.column) (Predicate.attrs p))
           spec.Auxview.locals));
    (positions !reads, positions !exposing)
  in
  let exposing =
    Array.mapi
      (fun s tbl ->
        if s = 0 then root_exposing
        else
          let kept =
            match Derive.spec_for d tbl with
            | Some spec -> Auxview.group_columns spec
            | None -> []
          in
          positions (columns tbl (kept @ View.local_columns view ~table:tbl)))
      tables
  in
  let root_sums =
    Array.to_list plans
    |> List.mapi (fun item plan ->
           match plan with
           | P_agg { agg; arg = Feed.Sum { c; _ } }
             when c.slot = 0 && is_csmas_sum agg ->
             Some (item, c.base)
           | P_agg _ | P_group _ -> None)
    |> List.filter_map Fun.id
    |> Array.of_list
  in
  (* one dictionary pool per engine: a string attribute kept in several
     states (a dimension column in both its auxiliary view and the view
     state, say) interns each distinct string once *)
  let dict_pool = Dict.create_pool () in
  let aux = Array.make (Array.length tables) None in
  let t =
    {
      d;
      view;
      root;
      tables;
      slots;
      schemas;
      aux;
      joins;
      vstate = View_state.create ~shards:nshards ~dict_pool view ~determined;
      plans;
      group_plan;
      rtargets;
      root_groups;
      driving;
      group_index;
      determined;
      locals;
      aux_conds;
      semis;
      residuals;
      append_only = d.Derive.options.Derive.append_only;
      root_reads;
      exposing;
      root_sums;
      feed =
        Feed.create ~auxs:aux ~key:group_plan
          ~args:
            (Array.map
               (function P_group _ -> Feed.Key | P_agg { arg; _ } -> arg)
               plans);
      obs_groups =
        Telemetry.Gauge.make
          ~labels:[ ("view", view.View.name) ]
          ~help:"Resident groups of the materialized view"
          "minview_view_groups";
      obs_aux = [];
      last_flow = None;
      wk = Telemetry.Workload.view view.View.name;
      wk_live = false;
      wk_writes = 0;
      wk_events = 0;
      walk_rows = 0;
    }
  in
  (* build auxiliary states children-first so semijoin targets exist *)
  List.iter
    (fun tbl ->
      match Derive.spec_for d tbl with
      | None -> ()
      | Some spec ->
        let st =
          Aux_state.create ~indexed_columns:(indexed_columns tbl)
            ~shards:(if String.equal tbl root then nshards else 1)
            ~dict_pool spec (schema t tbl)
        in
        let s = Hashtbl.find slots tbl in
        t.aux.(s) <- Some st;
        Aux_state.load st (fun add ->
            Database.fold db tbl
              (fun tup () -> if in_aux t s tup then add tup)
              ()))
    (post_order d.Derive.graph);
  t.obs_aux <-
    Array.to_list tables
    |> List.filter_map (fun tbl ->
           Option.map
             (fun st ->
               let labels =
                 [
                   ("view", view.View.name);
                   ("aux", (Aux_state.spec st).Auxview.name);
                   ("base", tbl);
                 ]
               in
               ( st,
                 Telemetry.Gauge.make ~labels
                   ~help:"Resident rows of the auxiliary view"
                   "minview_aux_resident_rows",
                 Telemetry.Gauge.make ~labels
                   ~help:"Detail (base) rows the auxiliary view represents"
                   "minview_aux_detail_rows",
                 Telemetry.Gauge.make ~labels
                   ~help:"Detail rows per resident row (compression factor)"
                   "minview_aux_compression_ratio" ))
             (aux_of t tbl));
  (* Seed the view state. A retained root auxiliary view already holds
     every root row the view can see, compressed: each stored group is fed
     once, weighted by its count — Section 3.2's f(a ⊗ cnt0), read as
     [dim_update_diff] reads it. Only an eliminated root auxiliary view
     leaves the root base rows to fold one by one. *)
  (match t.aux.(0) with
  | Some root_st ->
    Aux_state.iter_locs root_st (fun l ->
        if extend_root t t.feed l then
          View_state.feed t.vstate t.feed ~cnt:(Aux_state.loc_cnt root_st l))
  | None ->
    Database.fold db root
      (fun tup () ->
        if passes_locals t 0 tup then root_view_feed t tup ~sign:1)
      ());
  flush t;
  t.wk_live <- true;
  t

(* Apart from [init], so that engines built on several domains at once
   ({!Shard.fan_out}) are announced from the calling domain, in view order:
   the Logs reporter is not domain-safe. *)
let announce t =
  Log.info (fun m ->
      m "initializing %s: %d auxiliary view(s), %s"
        t.view.View.name
        (Array.fold_left (fun n st -> if st = None then n else n + 1) 0 t.aux)
        (if t.determined then "root view eliminated" else "root view retained"))

(* --- delta routing ----------------------------------------------------- *)

(* append-only protects the detail (root) data: dimension tables stay
   mutable (Section 4 concerns old fact rows, not the dimensions) *)
let check_append_only t (d : Delta.t) =
  if t.append_only && String.equal d.Delta.table t.root then
    match d.Delta.change with
    | Delta.Insert _ -> ()
    | Delta.Delete _ | Delta.Update _ ->
      invariant
        "append-only warehouse: root table %s received a deletion or update"
        d.Delta.table

(* One lookup maps the delta's table to its slot; a table outside the view
   has none. *)
let route t (delta : Delta.t) =
  match Hashtbl.find t.slots delta.Delta.table with
  | exception Not_found -> ()
  | 0 -> (
    check_append_only t delta;
    match delta.Delta.change with
    | Delta.Insert tup -> root_insert t tup
    | Delta.Delete tup -> root_delete t tup
    | Delta.Update { before; after } -> root_update t ~before ~after)
  | s -> (
    match delta.Delta.change with
    | Delta.Insert tup -> dim_insert t s tup
    | Delta.Delete tup -> dim_delete t s tup
    | Delta.Update { before; after } -> dim_update t s ~before ~after)

(* --- netted + shard-parallel batch fast path ---------------------------- *)

(* One compacted root-table operation: [net] identical (on [root_reads])
   tuples inserted (net > 0) or deleted (net < 0). The prepare phase fills
   the placement fields; the apply phase consumes them. *)
type root_op = {
  rep : Tuple.t;  (** representative full root tuple of the duplicate class *)
  mutable net : int;
  mutable aux_shard : int;  (** owning shard of the root aux group, or -1 *)
  mutable joined : int array option;
      (** the join partners of [rep] that pass the view's conditions, as
          [Feed.locs] *)
  mutable view_shard : int;
}

let known t (d : Delta.t) = Hashtbl.mem t.slots d.Delta.table

(* The key positions of the view's own tables; the others are dropped. *)
let own_keys t tbl =
  if Hashtbl.mem t.slots tbl then Some (Schema.key_index (schema t tbl))
  else None

let net ~key_index deltas =
  Telemetry.with_phase Obs.compact ~alloc:Obs.compact_alloc "engine.compact"
    (fun () -> Delta_batch.net ~key_index deltas)

(* Merge net root changes into signed weighted operations keyed by the
   [root_reads] projection — the delta-stream counterpart of the paper's
   smart duplicate compression: tuples that agree on every column the
   engine reads collapse to one operation with a count. *)
let root_merge t root_deltas =
  (* sized for the worst case (no two deltas share a projection) so the
     table never rehashes mid-merge *)
  let merged : root_op TH.t = TH.create (max 1024 (List.length root_deltas)) in
  let order = ref [] in
  let add sign tup =
    let proj = Tuple.project tup t.root_reads in
    match TH.find_opt merged proj with
    | Some op -> op.net <- op.net + sign
    | None ->
      let op =
        { rep = tup; net = sign; aux_shard = -1; joined = None; view_shard = 0 }
      in
      TH.add merged proj op;
      order := op :: !order
  in
  List.iter
    (fun (d : Delta.t) ->
      match d.Delta.change with
      | Delta.Insert tup -> add 1 tup
      | Delta.Delete tup -> add (-1) tup
      | Delta.Update { before; after } ->
        add (-1) before;
        add 1 after)
    root_deltas;
  Array.of_list (List.rev !order)

(* Stored rows a batch's application can touch: view groups, the root
   auxiliary view it writes, and the dimension auxiliary views the prepare
   probes read — the cache footprint that sets the parallel break-even. *)
let resident_rows t =
  List.fold_left
    (fun acc tbl ->
      match aux_of t tbl with
      | Some st -> acc + Aux_state.row_count st
      | None -> acc)
    (View_state.group_count t.vstate)
    t.view.View.tables

(* Root changes of [ds] with each update split, as the merged path splits
   them: the measure of the dispatch rule. *)
let root_change_count ds =
  List.fold_left
    (fun acc (d : Delta.t) ->
      acc + match d.Delta.change with Delta.Update _ -> 2 | _ -> 1)
    0 ds

(* Operations the direct path issues for root changes [ds]: one per
   insertion, deletion and in-place update, two per other update. *)
let direct_op_count t ds =
  List.fold_left
    (fun acc (d : Delta.t) ->
      acc
      +
      match d.Delta.change with
      | Delta.Update { before; after }
        when not (updates_in_place t ~before ~after) ->
        2
      | Delta.Update _ | Delta.Insert _ | Delta.Delete _ -> 1)
    0 ds

let live_ops ops =
  Array.fold_left (fun acc op -> if op.net <> 0 then acc + 1 else acc) 0 ops

(* Below this many root operations, domain spawns cost more than they
   recover. *)
let min_serial_floor = 512

(* Target slice per domain once dispatch does go parallel: below ~2k ops a
   worker's share of the fixed costs (undo-journal bookkeeping, two shard
   barriers, cache refill on its shard partition) outweighs its slice. *)
let ops_per_domain = 2048

type dispatch = Direct | Merged of { ops : root_op array; workers : int }

(* The one dispatch rule, decided once per batch from its netted root
   changes. A one-domain pool applies them directly, whatever their number:
   with no second worker, the merge and the prepare/apply split only add
   an op record, a projection hash and a shard test per operation. On more
   domains, each worker re-touches its whole shard partition's cache
   footprint, so the parallel break-even grows with the resident state —
   10k-op batches over 500k resident rows ran ~3x slower parallel than
   serial (BENCH_parallel.json). Hence the serial floor
   [max 512 (resident / 32)]: root changes below it are applied directly;
   the rest are merged ([merge]) into [n] weighted operations run inline
   while [n] is below the floor, else over [max 2 (n / ops_per_domain)]
   workers (at most [cap]). An eager pool always merges and uses [cap]. *)
let dispatch t pool ~root_changes ~merge =
  let cap = min (Shard.domains pool) nshards in
  if Shard.is_eager pool then Merged { ops = merge (); workers = cap }
  else if cap = 1 then Direct
  else
    let floor = max min_serial_floor (resident_rows t / 32) in
    if root_changes < floor then Direct
    else
      let ops = merge () in
      let n = Array.length ops in
      let workers =
        if n < floor then 1 else min cap (max 2 (n / ops_per_domain))
      in
      Merged { ops; workers }

let apply_root_ops t pool ~workers:nw ops =
  let n = Array.length ops in
  let root_st = t.aux.(0) in
  (* Phase A — preparation, read-only on all shared state: membership
     tests and join probes read dimension auxiliary views (concurrent pure
     reads of hash tables are safe; nothing mutates during this phase);
     each operation keeps its join partners and the shard of its group.
     Each worker joins through a feed of its own. *)
  Telemetry.with_phase Obs.prepare ~alloc:Obs.prepare_alloc "engine.prepare"
    (fun () ->
      Shard.run pool ~workers:nw (fun w ->
          let f = Feed.rebind t.feed in
          let lo = n * w / nw and hi = n * (w + 1) / nw in
          for i = lo to hi - 1 do
            let op = ops.(i) in
            if op.net <> 0 then begin
              (match root_st with
              | Some st when in_aux t 0 op.rep ->
                op.aux_shard <- Aux_state.shard_of_base st op.rep
              | Some _ | None -> ());
              if passes_locals t 0 op.rep then begin
                Feed.bind_base f 0 op.rep;
                if extend t f 0 then begin
                  op.joined <- Some (Feed.locs f);
                  op.view_shard <- View_state.shard_of_feed t.vstate f
                end
              end
            end
          done));
  (* Workload accounting between the phases, on the coordinator: netted
     weights per group key plus the per-shard op heat of this batch. *)
  if t.wk_live && Telemetry.enabled () then begin
    let per_shard = Array.make nshards 0 in
    Array.iter
      (fun op ->
        match op.joined with
        | Some locs when op.net <> 0 ->
          Feed.bind_base t.feed 0 op.rep;
          Feed.restore t.feed locs;
          note_write t t.feed (abs op.net);
          let sh = op.view_shard in
          if sh >= 0 && sh < nshards then
            per_shard.(sh) <- per_shard.(sh) + abs op.net
        | Some _ | None -> ())
      ops;
    Telemetry.Workload.note_shard_ops per_shard
  end;
  (* Phase B — application: every shard (root aux and view state) is owned
     by exactly one worker, so no hash table is ever shared. Each worker
     applies all positive operations before any negative one: counts then
     stay at or above their final value throughout, so a group whose net
     change is zero is never transiently destroyed (which would lose
     extremum/DISTINCT components and dirty marks). *)
  Telemetry.with_phase Obs.shard_apply ~alloc:Obs.shard_apply_alloc
    "engine.shard-apply" (fun () ->
      Shard.run pool ~workers:nw (fun w ->
          let f = Feed.rebind t.feed in
          let apply_op op =
            let cnt = abs op.net in
            (if
               op.aux_shard >= 0
               && Shard.owns ~worker:w ~workers:nw op.aux_shard
             then
               let st = Option.get root_st in
               if op.net > 0 then Aux_state.insert_base ~count:cnt st op.rep
               else Aux_state.delete_base ~count:cnt st op.rep);
            match op.joined with
            | Some locs when Shard.owns ~worker:w ~workers:nw op.view_shard ->
              Feed.bind_base f 0 op.rep;
              Feed.restore f locs;
              if op.net > 0 then View_state.feed t.vstate f ~cnt
              else View_state.unfeed t.vstate f ~cnt
            | Some _ | None -> ()
          in
          Array.iter (fun op -> if op.net > 0 then apply_op op) ops;
          Array.iter (fun op -> if op.net < 0 then apply_op op) ops))

(* Direct path: a batch on a one-domain pool, or one whose netted root
   changes are below the serial floor, skips the weighted merge and the
   prepare/apply split — per operation, the dimension probes feed the
   root-aux and view-state writes directly through the serial route's
   writers, with no op records, no projection hashing and no
   shard-ownership hashing. Exactly equivalent to
   [root_merge] + [apply_root_ops]: preparation reads only dimension
   auxiliary views while application writes only the root auxiliary view
   and the view state (so fusing them per operation changes nothing), and
   a weighted fold of [k] identical projections equals [k] unit
   operations. Positive changes still go before negative ones — the same
   transient-group discipline as phase B. An update that goes in place is
   applied in the positive pass, while its groups still hold their
   pre-batch rows; it changes no count, so the discipline holds.
   Returns the number of updates applied in place. *)
let apply_root_direct t root_deltas =
  let in_place = ref 0 in
  List.iter
    (fun (d : Delta.t) ->
      match d.Delta.change with
      | Delta.Insert tup -> root_insert t tup
      | Delta.Update { before; after } ->
        if updates_in_place t ~before ~after then begin
          root_adjust t ~before ~after;
          incr in_place
        end
        else root_insert t after
      | Delta.Delete _ -> ())
    root_deltas;
  List.iter
    (fun (d : Delta.t) ->
      match d.Delta.change with
      | Delta.Delete tup -> root_delete t tup
      | Delta.Update { before; after } ->
        if not (updates_in_place t ~before ~after) then root_delete t before
      | Delta.Insert _ -> ())
    root_deltas;
  !in_place

(* --- lineage flow capture ---------------------------------------------- *)

(* Cheap pre/post snapshots — O(auxviews x shards) per batch, nothing on
   the per-row hot path — turn a batch into per-auxview net flows for the
   lineage record the warehouse emits at commit. *)
let flow_pre t =
  if not (Telemetry.enabled ()) then None
  else
    Some
      ( List.filter_map
          (fun tbl ->
            Option.map
              (fun st ->
                (tbl, Aux_state.row_count st, Aux_state.base_count st))
              (aux_of t tbl))
          t.view.View.tables,
        View_state.group_count t.vstate )

let flow_finish t pre ~mode ~deltas_in ~netted ~applied =
  match pre with
  | None -> ()
  | Some (pre_aux, pre_groups) ->
    if t.wk_live then begin
      Telemetry.Workload.note_batch t.wk ~deltas_in ~netted ~applied
        ~writes:t.wk_writes ~events:t.wk_events;
      t.wk_writes <- 0;
      t.wk_events <- 0
    end;
    let aux_flows =
      List.filter_map
        (fun (tbl, rows0, detail0) ->
          Option.map
            (fun st ->
              let resident_delta = Aux_state.row_count st - rows0 in
              let detail_delta = Aux_state.base_count st - detail0 in
              {
                Telemetry.Lineage.aux = (Aux_state.spec st).Auxview.name;
                base = tbl;
                resident_delta;
                detail_delta;
                folded = max 0 (detail_delta - resident_delta);
              })
            (aux_of t tbl))
        pre_aux
    in
    t.last_flow <-
      Some
        {
          Telemetry.Lineage.view = t.view.View.name;
          mode;
          deltas_in;
          netted;
          applied;
          group_delta = View_state.group_count t.vstate - pre_groups;
          aux_flows;
        }

let last_flow t = t.last_flow

(* Netted batch application: dimension phases run serially in join-tree
   order (inserts leaves-first so join partners exist, deletes root-first so
   references are gone), root operations run compacted and shard-parallel.
   Equivalent to the serial replay for any batch that is legal against the
   pre-batch state — see DESIGN.md, "Concurrency model". *)
let apply_batch_parallel t pool ?netted deltas =
  (* append-only violations must reject the batch whether or not the
     offending change nets out — match the serial path's verdict *)
  if t.append_only then List.iter (check_append_only t) deltas;
  let pre_flow = flow_pre t in
  let net =
    match netted with
    | Some net -> net
    | None -> net ~key_index:(own_keys t) deltas
  in
  (* this view's tables of the batch: a shared netted batch may hold others *)
  let root_deltas = ref [] in
  let dims = ref [] in
  let deltas_in = ref 0 and net_count = ref 0 in
  List.iter
    (fun (tb : Delta_batch.table) ->
      match Hashtbl.find_opt t.slots tb.name with
      | None -> ()
      | Some s ->
        deltas_in := !deltas_in + tb.input;
        net_count := !net_count + List.length tb.deltas;
        if s = 0 then root_deltas := tb.deltas
        else dims := (List.length (path_to t tb.name), s, tb.deltas) :: !dims)
    net.Delta_batch.tables;
  if Telemetry.enabled () then begin
    Telemetry.Counter.inc Obs.deltas_total !deltas_in;
    Telemetry.Counter.inc Obs.deltas_netted !net_count
  end;
  let deep_first =
    List.sort (fun (a, _, _) (b, _, _) -> compare b a) (List.rev !dims)
  in
  let shallow_first = List.rev deep_first in
  let each_dim tables f =
    List.iter
      (fun (_, s, ds) ->
        List.iter (fun (d : Delta.t) -> f s d.Delta.change) ds)
      tables
  in
  Telemetry.with_phase Obs.dim_apply ~alloc:Obs.dim_apply_alloc
    "engine.dim-apply" (fun () ->
      each_dim deep_first (fun s -> function
        | Delta.Insert tup -> dim_insert t s tup
        | Delta.Delete _ | Delta.Update _ -> ());
      each_dim deep_first (fun s -> function
        | Delta.Update { before; after } -> dim_update t s ~before ~after
        | Delta.Insert _ | Delta.Delete _ -> ()));
  let root_changes = root_change_count !root_deltas in
  let dim_ops () =
    List.fold_left (fun acc (_, _, ds) -> acc + List.length ds) 0 deep_first
  in
  let merge () =
    Telemetry.with_phase Obs.weighted_merge ~alloc:Obs.weighted_merge_alloc
      "engine.weighted-merge" (fun () -> root_merge t !root_deltas)
  in
  let applied_ops = ref 0 in
  (match dispatch t pool ~root_changes ~merge with
  | Direct ->
    let in_place =
      Telemetry.with_phase Obs.shard_apply ~alloc:Obs.shard_apply_alloc
        "engine.shard-apply" (fun () -> apply_root_direct t !root_deltas)
    in
    if Telemetry.enabled () then begin
      applied_ops := dim_ops () + root_changes - in_place;
      Telemetry.Counter.inc Obs.ops_applied !applied_ops
    end
  | Merged { ops; workers } ->
    if Telemetry.enabled () then begin
      Telemetry.Counter.inc Obs.merge_folds (root_changes - Array.length ops);
      applied_ops := dim_ops () + live_ops ops;
      Telemetry.Counter.inc Obs.ops_applied !applied_ops
    end;
    apply_root_ops t pool ~workers ops);
  Telemetry.with_phase Obs.dim_apply ~alloc:Obs.dim_apply_alloc
    "engine.dim-apply" (fun () ->
      each_dim shallow_first (fun s -> function
        | Delta.Delete tup -> dim_delete t s tup
        | Delta.Insert _ | Delta.Update _ -> ()));
  Telemetry.with_phase Obs.view_update ~alloc:Obs.view_update_alloc
    "engine.view-update" (fun () -> flush t);
  flow_finish t pre_flow ~mode:"parallel" ~deltas_in:!deltas_in
    ~netted:!net_count ~applied:!applied_ops

let apply_batch ?parallel ?netted t deltas =
  match parallel with
  | None ->
    Telemetry.Counter.one Obs.batches_serial;
    let known =
      if Telemetry.enabled () then
        List.fold_left (fun n d -> if known t d then n + 1 else n) 0 deltas
      else 0
    in
    Telemetry.Counter.inc Obs.deltas_total known;
    let pre_flow = flow_pre t in
    Telemetry.with_phase Obs.apply_serial "engine.apply-batch"
      ~attrs:[ ("mode", "serial"); ("view", t.view.View.name) ]
      (fun () ->
        List.iter (route t) deltas;
        Telemetry.with_phase Obs.view_update ~alloc:Obs.view_update_alloc
          "engine.view-update" (fun () -> flush t));
    (* the serial path neither compacts nor merges: every known delta is
       applied as is *)
    flow_finish t pre_flow ~mode:"serial" ~deltas_in:known ~netted:known
      ~applied:known
  | Some pool ->
    Telemetry.Counter.one Obs.batches_parallel;
    Telemetry.with_phase Obs.apply_parallel "engine.apply-batch"
      ~attrs:[ ("mode", "parallel"); ("view", t.view.View.name) ]
      (fun () -> apply_batch_parallel t pool ?netted deltas)

type batch_profile = { input : int; netted : int; applied : int }

(* Measure what compaction would do to [deltas] without applying them;
   outside the compact phase, which times applied batches only. A one-domain
   pool applies the netted deltas as they are, a root update that does not
   go in place as a deletion and an insertion. *)
let net_profile t deltas =
  let net = Delta_batch.net ~key_index:(own_keys t) deltas in
  let applied =
    List.fold_left
      (fun acc (tb : Delta_batch.table) ->
        acc
        +
        if String.equal tb.name t.root then direct_op_count t tb.deltas
        else List.length tb.deltas)
      0 net.Delta_batch.tables
  in
  {
    input = net.Delta_batch.stats.input;
    netted = net.Delta_batch.stats.output;
    applied;
  }

(* --- inspection -------------------------------------------------------- *)

let view_contents t = View_state.render t.vstate
let publish t = View_state.publish t.vstate
let view_state t = t.vstate

let aux_contents t =
  List.filter_map
    (fun tbl ->
      Option.map
        (fun st -> (tbl, Aux_state.to_relation st))
        (aux_of t tbl))
    t.view.View.tables

let storage_profile t =
  (t.view.View.name, View_state.group_count t.vstate, Array.length t.plans)
  :: List.filter_map
       (fun tbl ->
         Option.map
           (fun st ->
             ( (Aux_state.spec st).Auxview.name,
               Aux_state.row_count st,
               List.length (Aux_state.spec st).Auxview.columns ))
           (aux_of t tbl))
       t.view.View.tables

(* Measured resident bytes per stored object, in [storage_profile] order:
   the columnar layout accounts allocated cell bytes per column (Bigarray
   payloads included), so this is a measurement, not the bytes-per-field
   estimate. *)
let measured_bytes t =
  (t.view.View.name, View_state.byte_size t.vstate)
  :: List.filter_map
       (fun tbl ->
         Option.map
           (fun st ->
             ((Aux_state.spec st).Auxview.name, Aux_state.byte_size st))
           (aux_of t tbl))
       t.view.View.tables

(* Off-heap (Bigarray) bytes across the view state and every auxiliary
   view — the columnar payloads the GC gauges cannot see. *)
let offheap_bytes t =
  List.fold_left
    (fun acc tbl ->
      match aux_of t tbl with
      | Some st -> acc + Aux_state.offheap_bytes st
      | None -> acc)
    (View_state.offheap_bytes t.vstate)
    t.view.View.tables

(* --- drift auditor ------------------------------------------------------ *)

(* Float aggregates are accumulated incrementally by maintenance but summed
   in storage order by the recompute, so allow for rounding drift. *)
let value_close a b =
  match a, b with
  | Value.Float x, Value.Float y ->
    x = y
    || Float.abs (x -. y)
       <= 1e-9 *. Float.max 1. (Float.max (Float.abs x) (Float.abs y))
  | _ -> Value.equal a b

let audit ~sample t =
  match aux_of t t.root with
  | None -> None (* root auxview eliminated: no retained detail to recompute *)
  | Some root_st ->
    let keys =
      Array.of_list
        (View_state.fold_groups t.vstate
           (fun key cnt acc -> (key, cnt) :: acc)
           [])
    in
    let total = Array.length keys in
    let idxs = Telemetry.Lineage.sample_indices ~sample ~total in
    let sampled = TH.create (2 * List.length idxs) in
    List.iter (fun i -> TH.replace sampled (fst keys.(i)) ()) idxs;
    (* recompute the sampled groups from the retained detail: feed every
       contributing root auxiliary row into a scratch view state, exactly
       as the initial load does — through the same group-row walk as
       dirty-group recomputation, so the audit costs O(sampled rows) *)
    let scratch = View_state.create t.view ~determined:false in
    let (_ : int) =
      walk_groups t root_st sampled (fun () _key feed row ->
          View_state.feed scratch feed ~cnt:(Aux_state.cnt row))
    in
    (* finalize DISTINCT results; feeds alone never lose an extremum, so
       nothing is left to recompute *)
    let (_ : Tuple.t list) = View_state.take_dirty scratch in
    let expected_cnt = TH.create 64 in
    View_state.fold_groups scratch
      (fun key cnt () -> TH.replace expected_cnt key cnt)
      ();
    (* group-key positions in the rendered select row, for indexing *)
    let key_positions =
      Array.map
        (fun gc ->
          let found = ref (-1) in
          Array.iteri
            (fun i plan ->
              match plan with
              | P_group c when !found < 0 && c = gc -> found := i
              | P_group _ | P_agg _ -> ())
            t.plans;
          assert (!found >= 0);
          !found)
        t.group_plan
    in
    let index_render rel =
      let h = TH.create 64 in
      Relation.iter
        (fun row _m ->
          TH.replace h (Array.map (fun i -> row.(i)) key_positions) row)
        rel;
      h
    in
    let expected = index_render (View_state.render scratch) in
    let actual = index_render (View_state.render t.vstate) in
    let rows_close a b =
      Array.length a = Array.length b
      && Array.for_all2 value_close a b
    in
    (* a DISTINCT result is only as sound as the multiset it is finalized
       from: compare the multisets too, so a drifted count that leaves the
       result unchanged is still caught *)
    let distinct_items =
      List.filter_map
        (fun i ->
          match t.plans.(i) with
          | P_agg { agg; _ } when agg.Aggregate.distinct -> Some i
          | P_agg _ | P_group _ -> None)
        (List.init (Array.length t.plans) Fun.id)
    in
    let check i =
      let key, cnt = keys.(i) in
      TH.find_opt expected_cnt key = Some cnt
      && List.for_all
           (fun item ->
             List.equal
               (fun (v, n) (w, m) -> Value.equal v w && n = m)
               (View_state.multiset scratch ~key ~item)
               (View_state.multiset t.vstate ~key ~item))
           distinct_items
      &&
      match TH.find_opt expected key, TH.find_opt actual key with
      | Some erow, Some arow -> rows_close erow arow
      | _, _ -> false
    in
    Some
      (Telemetry.Lineage.audit ~view:t.view.View.name ~sample ~total ~check)
