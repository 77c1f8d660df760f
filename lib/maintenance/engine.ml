module View = Algebra.View
module Attr = Algebra.Attr
module Aggregate = Algebra.Aggregate
module Select_item = Algebra.Select_item
module Predicate = Algebra.Predicate
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

(* A row participating in a join: either a base tuple carried by a delta, or
   a stored auxiliary row. *)
type rowval = Base of Tuple.t | Auxrow of Aux_state.row

(* One joined row: a [rowval] per view table, indexed by slot (the root is
   slot 0). Slots the join has not reached yet hold stale values. *)
type env = rowval array

(* A column of a view table, resolved once at [init]: [base] is its index in
   the base schema (read off a delta's tuple), [plain] its position among
   the plain columns of the table's auxiliary view (-1 when not kept). *)
type cref = { slot : int; base : int; plain : int }

(* One outgoing key join: the parent's foreign-key column, the child's slot. *)
type cjoin = { fk : cref; child : int }

(* How an aggregate argument is read off an auxiliary row: from the running
   SUM or the append-only MIN/MAX column the auxiliary view keeps for it,
   else from its plain column. *)
type aux_read = R_plain | R_sum of int | R_ext of int

type agg_src = A_count | A_attr of { c : cref; aux_read : aux_read }

type item_plan = P_group of cref | P_agg of { agg : Aggregate.t; src : agg_src }

(* A non-CSMAS item recomputed from the auxiliary rows of its dirty groups;
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
  rtargets : rtarget array;  (** items recomputed for dirty groups *)
  root_groups : (string * int) list;
      (** root columns in the group key, with their key positions *)
  driving : driving option;
  determined : bool;  (** the root auxiliary view was eliminated *)
  residuals : Predicate.t list array;
      (** per slot: view local conditions not enforced by its auxiliary
          view (non-empty only in the no-pushdown ablation) *)
  append_only : bool;
  root_reads : int array;
      (** root-schema positions the engine ever reads off a root base tuple
          (group/aggregate/local/join-fk/aux columns): two root tuples equal
          on this projection are interchangeable, so the fast path merges
          them into one weighted operation *)
  scratch_key : Tuple.t;  (** reusable group-key buffer, serial path only *)
  scratch_cs : View_state.contrib option array;
      (** reusable contribution buffer, serial path only *)
  obs_groups : Telemetry.Gauge.t;  (** resident view groups *)
  mutable obs_aux :
    (string * Telemetry.Gauge.t * Telemetry.Gauge.t * Telemetry.Gauge.t) list;
      (** per auxiliary view, keyed by base table: resident rows, detail
          rows represented, compression ratio (handles are process-global,
          so engine copies share them; the table key makes the copy read
          its own [aux] states) *)
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

(* Deep copy of all mutable state; the derivation, plans and schemas are
   immutable after [init] and stay shared. *)
let copy t =
  {
    t with
    aux = Array.map (Option.map Aux_state.copy) t.aux;
    vstate = View_state.copy t.vstate;
    (* scratch buffers must never be shared between engines *)
    scratch_key = Array.copy t.scratch_key;
    scratch_cs = Array.copy t.scratch_cs;
  }

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

(* --- reading attribute values out of a joined row -------------------- *)

let read (env : env) c =
  match env.(c.slot) with
  | Base tup -> tup.(c.base)
  | Auxrow row -> Aux_state.plain_at row c.plain

let group_key t env = Array.map (read env) t.group_plan

(* Allocation-free variant for the hot path; [dst] must not be retained by
   the callee (View_state copies keys on retention). *)
let group_key_into t env dst =
  Array.iteri (fun i c -> dst.(i) <- read env c) t.group_plan

(* View local conditions on slot [s] not already enforced by its auxiliary
   view, evaluated against an auxiliary row (the condition columns are kept
   plainly whenever the list is non-empty). *)
let residual_ok t s row =
  match t.residuals.(s) with
  | [] -> true
  | ps ->
    let st = slot_aux t s in
    let look (a : Attr.t) = Aux_state.plain_of st row a.Attr.column in
    List.for_all (fun p -> Predicate.holds p look) ps

let new_env t : env = Array.make (Array.length t.tables) (Base [||])

(* Extend [env] along the join tree below slot [s]; key joins find at most
   one partner per table, all of them in dimension auxiliary views. *)
let rec extend t env s = List.for_all (join_one t env) t.joins.(s)

and join_one t env j =
  match Aux_state.find_by_key (slot_aux t j.child) (read env j.fk) with
  | None -> false
  | Some row ->
    residual_ok t j.child row
    && begin
         env.(j.child) <- Auxrow row;
         extend t env j.child
       end

(* The joined row of a root base tuple, if it has every join partner. *)
let base_env t tup =
  let env = new_env t in
  env.(0) <- Base tup;
  if extend t env 0 then Some env else None

(* Root auxiliary rows participate in the view only when they pass the view
   conditions not already enforced by the root spec (no-pushdown ablation).
   Joins [row] into [env]; the subtree of slot [skip], if given, is left as
   the caller already joined it. *)
let extend_root ?(skip = -1) t env row =
  env.(0) <- Auxrow row;
  residual_ok t 0 row
  && List.for_all (fun j -> j.child = skip || join_one t env j) t.joins.(0)

(* --- contributions ---------------------------------------------------- *)

let is_csmas_sum (agg : Aggregate.t) =
  (not agg.Aggregate.distinct)
  && (agg.Aggregate.func = Aggregate.Sum || agg.Aggregate.func = Aggregate.Avg)

let value_contrib (agg : Aggregate.t) a ~cnt =
  if agg.Aggregate.distinct then View_state.C_value a
  else
    match agg.Aggregate.func with
    | Aggregate.Min | Aggregate.Max -> View_state.C_value a
    | Aggregate.Sum | Aggregate.Avg ->
      View_state.C_sum { amount = Value.scale a cnt; n = cnt }
    | Aggregate.Count | Aggregate.Count_star ->
      (* COUNTs are planned as A_count *)
      assert false

let contrib_of (env : env) ~cnt plan =
  match plan with
  | P_group _ -> None
  | P_agg { agg; src } ->
    Some
      (match src with
      | A_count -> View_state.C_count cnt
      | A_attr { c; aux_read } -> (
        match env.(c.slot) with
        | Base tup -> value_contrib agg tup.(c.base) ~cnt
        | Auxrow row -> (
          match aux_read with
          | R_sum i -> View_state.C_sum { amount = Aux_state.sum_at row i; n = cnt }
          | R_ext i -> View_state.C_value (Aux_state.ext_at row i)
          | R_plain -> value_contrib agg (Aux_state.plain_at row c.plain) ~cnt)))

let contribs t env ~cnt = Array.map (contrib_of env ~cnt) t.plans

(* Allocation-free variant; [dst] is not retained by View_state. *)
let contribs_into t env ~cnt dst =
  Array.iteri (fun i plan -> dst.(i) <- contrib_of env ~cnt plan) t.plans

(* --- local conditions and semijoin membership ------------------------- *)

let passes_locals t table tup =
  let sch = schema t table in
  let lookup (a : Attr.t) = tup.(Schema.index_of sch a.Attr.column) in
  List.for_all
    (fun p -> Predicate.holds p lookup)
    (View.locals_of t.view ~table)

let semijoin_ok t (spec : Auxview.t) tup =
  let sch = schema t spec.Auxview.base in
  List.for_all
    (fun (sj : Auxview.semijoin) ->
      let fk = tup.(Schema.index_of sch sj.Auxview.fk) in
      Aux_state.mem_key (dim_aux t sj.Auxview.target) fk)
    spec.Auxview.semijoins

(* Membership in the auxiliary view is governed by the spec's own pushed-down
   conditions and semijoins; the view's full conditions only gate the view
   feed (they coincide except in the no-pushdown ablation). *)
let passes_spec_locals t (spec : Auxview.t) tup =
  let sch = schema t spec.Auxview.base in
  let lookup (a : Attr.t) = tup.(Schema.index_of sch a.Attr.column) in
  List.for_all (fun p -> Predicate.holds p lookup) spec.Auxview.locals

let in_aux t table tup =
  match aux_of t table with
  | None -> false
  | Some st ->
    let spec = Aux_state.spec st in
    passes_spec_locals t spec tup && semijoin_ok t spec tup

(* --- root-table changes ----------------------------------------------- *)

let root_view_feed t tup ~sign =
  match base_env t tup with
  | None -> ()
  | Some env ->
    (* scratch buffers avoid a per-tuple key + contribution allocation;
       View_state copies what it retains *)
    let key = t.scratch_key in
    group_key_into t env key;
    (* the label thunk is forced synchronously (only on a top-k miss), so
       handing it the reused scratch buffer is safe; hashing and the
       closure are only paid on sampled events, and the exact counts go
       through plain fields flushed once per batch *)
    if t.wk_live && Telemetry.enabled () then begin
      if t.wk_events land Telemetry.Workload.sample_mask = 0 then
        Telemetry.Workload.note_hot_key t.wk ~hash:(Tuple.hash key)
          ~label:(fun () -> Tuple.to_string key);
      t.wk_writes <- t.wk_writes + 1;
      t.wk_events <- t.wk_events + 1
    end;
    contribs_into t env ~cnt:1 t.scratch_cs;
    if sign > 0 then View_state.feed t.vstate ~key ~cnt:1 t.scratch_cs
    else View_state.unfeed t.vstate ~key ~cnt:1 t.scratch_cs

let root_insert t tup =
  if in_aux t t.root tup then
    Aux_state.insert_base (Option.get (aux_of t t.root)) tup;
  if passes_locals t t.root tup then root_view_feed t tup ~sign:1

let root_delete t tup =
  if passes_locals t t.root tup then root_view_feed t tup ~sign:(-1);
  if in_aux t t.root tup then
    Aux_state.delete_base (Option.get (aux_of t t.root)) tup

(* --- dimension-table changes ------------------------------------------ *)

let dim_insert t table tup =
  if in_aux t table tup then Aux_state.insert_base (dim_aux t table) tup

let dim_delete t table tup =
  if in_aux t table tup then Aux_state.delete_base (dim_aux t table) tup

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
(* Columns of [table] whose value matters to the warehouse: anything kept in
   its auxiliary view or used in its local conditions. *)
let relevant_change t table ~before ~after =
  let sch = schema t table in
  let kept =
    match aux_of t table with
    | Some st -> Auxview.group_columns (Aux_state.spec st)
    | None -> []
  in
  let locals = View.local_columns t.view ~table in
  List.exists
    (fun i ->
      let col = sch.Schema.columns.(i).Schema.col_name in
      List.mem col kept || List.mem col locals)
    (Delta.changed_indices (Delta.Update { before; after }))

let dim_update_diff t table ~before ~after =
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
  let env = new_env t in
  let feeds () =
    List.filter_map
      (fun row ->
        if extend_root t env row then
          let cnt = Aux_state.cnt row in
          Some (group_key t env, cnt, contribs t env ~cnt)
        else None)
      affected
  in
  (* capture the old contributions before mutating X_table *)
  let old_feeds = feeds () in
  let was_in = in_aux t table before in
  let st = dim_aux t table in
  if was_in then Aux_state.delete_base st before;
  if in_aux t table after then Aux_state.insert_base st after;
  let new_feeds = feeds () in
  List.iter
    (fun (key, cnt, cs) -> View_state.unfeed t.vstate ~key ~cnt cs)
    old_feeds;
  List.iter
    (fun (key, cnt, cs) -> View_state.feed t.vstate ~key ~cnt cs)
    new_feeds

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
let dim_update_rewrite t table ~before ~after =
  let sch = schema t table in
  let st = dim_aux t table in
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
    if in_aux t table before then begin
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
             | P_agg { agg; src = A_attr { c; _ } }
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

let dim_update t table ~before ~after =
  let sch = schema t table in
  let ki = Schema.key_index sch in
  if not (Value.equal before.(ki) after.(ki)) then begin
    (* key changed: only legal while unreferenced, so no view effect *)
    dim_delete t table before;
    dim_insert t table after
  end
  else if not (relevant_change t table ~before ~after) then ()
  else if t.determined then dim_update_rewrite t table ~before ~after
  else dim_update_diff t table ~before ~after

(* --- recomputation of dirty non-CSMAS components ----------------------- *)

let finalize_distinct (agg : Aggregate.t) set =
  if VSet.is_empty set then invariant "empty DISTINCT set during recomputation";
  let sum () = VSet.fold Value.add set (Value.zero_like (VSet.min_elt set)) in
  match agg.Aggregate.func with
  | Aggregate.Count -> Value.Int (VSet.cardinal set)
  | Aggregate.Sum -> sum ()
  | Aggregate.Avg -> Value.div_as_float (sum ()) (Value.Int (VSet.cardinal set))
  | Aggregate.Min -> VSet.min_elt set
  | Aggregate.Max -> VSet.max_elt set
  | Aggregate.Count_star -> assert false

(* The driving join, when its child auxiliary view is currently smaller than
   the root's — the one condition of the path rule that depends on state. *)
let live_driving t root_st =
  match t.driving with
  | Some d
    when Aux_state.row_count (slot_aux t d.dj.child)
         < Aux_state.row_count root_st ->
    Some d
  | Some _ | None -> None

(* [walk_groups t root_st groups f] calls [f v key env row] for every root
   auxiliary row [row] whose joined group key [key] is bound to [v] in
   [groups] — "the root rows of these groups", for recomputation and the
   audit alike. [key] and [env] are scratch buffers, valid during the call.

   Two paths, chosen per walk:
   - driving-join walk, when the engine has a [driving] join whose child
     auxiliary view is smaller than the root's: iterate the child's rows, join each
     one's subtree once, and skip it unless its part of the group key can
     match one of [groups]; for the rest, walk the root rows of its foreign
     key bucket (indexed), joining only the other subtrees per root row.
     O(|child| + rows of the matching children);
   - filtered scan, otherwise: one pass over the root auxiliary view that
     compares each root group column's stored cell against the values the
     groups take there before joining anything — an indexed group column
     walks its value buckets instead. O(|root|) cell compares plus
     O(matching rows) joins. *)
let walk_groups t root_st groups f =
  let env = new_env t in
  let key = Array.make (Array.length t.group_plan) Value.Null in
  let visit ?skip row =
    if extend_root ?skip t env row then begin
      group_key_into t env key;
      match TH.find_opt groups key with
      | Some v -> f v key env row
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
  | _ when TH.length groups = 0 -> ()
  | Some d ->
    let child = d.dj.child in
    let wanted = TH.create (TH.length groups) in
    TH.iter
      (fun k _ -> TH.replace wanted (Array.map (fun (i, _) -> k.(i)) d.covered) ())
      groups;
    let part = Array.make (Array.length d.covered) Value.Null in
    let conds = root_conds () in
    Aux_state.iter (slot_aux t child) (fun crow ->
        env.(child) <- Auxrow crow;
        if residual_ok t child crow && extend t env child then begin
          Array.iteri (fun j (_, c) -> part.(j) <- read env c) d.covered;
          if TH.mem wanted part then
            (* the child's key is the foreign key of its root rows *)
            let fk = Aux_state.plain_at crow d.child_key in
            Aux_state.iter_where root_st
              ((d.fk_column, [ fk ]) :: conds)
              (visit ~skip:child)
        end)
  | None -> Aux_state.iter_where root_st (root_conds ()) visit

let group_walk t =
  Option.map
    (fun root_st ->
      match live_driving t root_st with
      | Some d -> `Driving_join t.tables.(d.dj.child)
      | None -> `Filtered_scan)
    t.aux.(0)

type recompute_acc = R_extremum of Value.t option ref | R_distinct of VSet.t ref

let flush_dirty t =
  match View_state.take_dirty t.vstate with
  | [] -> ()
  | dirty_keys ->
    Log.debug (fun m ->
        m "recomputing %d dirty group(s) of %s from the auxiliary views"
          (List.length dirty_keys) t.view.View.name);
    if t.determined then
      invariant "dirty groups cannot arise when the root view is eliminated";
    let root_st = slot_aux t 0 in
    (* the items to recompute are the aggregates that are not CSMAS under
       the paper's standard classification ([rtargets]). Their value is
       re-derived from the auxiliary rows — from the plain column, or
       (append-only mode, where dimension updates can still regroup rows)
       from the pre-aggregated MIN/MAX column of the root view. *)
    let dirty : recompute_acc array TH.t = TH.create 16 in
    List.iter
      (fun key ->
        if not (TH.mem dirty key) then
          TH.add dirty key
            (Array.map
               (fun r ->
                 if r.agg.Aggregate.distinct then R_distinct (ref VSet.empty)
                 else R_extremum (ref None))
               t.rtargets))
      dirty_keys;
    if Array.length t.rtargets > 0 then
      walk_groups t root_st dirty (fun accs _key env _row ->
          Array.iteri
            (fun j r ->
              let a =
                match env.(r.rc.slot) with
                | Base tup -> tup.(r.rc.base)
                | Auxrow row ->
                  if r.ext >= 0 then Aux_state.ext_at row r.ext
                  else Aux_state.plain_at row r.rc.plain
              in
              match accs.(j) with
              | R_distinct set -> set := VSet.add a !set
              | R_extremum cur ->
                cur :=
                  Some
                    (match !cur with
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
            match accs.(j) with
            | R_distinct set ->
              if not (VSet.is_empty !set) then
                View_state.set_value t.vstate ~key ~item:r.item
                  (finalize_distinct r.agg !set)
            | R_extremum cur -> (
              match !cur with
              | Some v -> View_state.set_value t.vstate ~key ~item:r.item v
              | None -> ()))
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
      (fun (tbl, resident, detail, ratio) ->
        match aux_of t tbl with
        | None -> ()
        | Some st ->
          let rows = Aux_state.row_count st in
          let base = Aux_state.base_count st in
          Telemetry.Gauge.set resident (float_of_int rows);
          Telemetry.Gauge.set detail (float_of_int base);
          Telemetry.Gauge.set ratio
            (if rows = 0 then 0.
             else float_of_int base /. float_of_int rows))
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
             let src =
               match agg.Aggregate.func, agg.Aggregate.distinct, Aggregate.attr agg with
               | Aggregate.Count_star, _, _ | Aggregate.Count, false, _ -> A_count
               | _, _, Some (a : Attr.t) ->
                 let pos f =
                   Option.bind (Derive.spec_for d a.Attr.table) (fun spec ->
                       f spec a.Attr.column)
                 in
                 let plain_only = agg.Aggregate.distinct in
                 let aux_read =
                   match agg.Aggregate.func with
                   | _ when is_csmas_sum agg -> (
                     match pos Auxview.sum_position with
                     | Some i -> R_sum i
                     | None -> R_plain)
                   | Aggregate.Min when not plain_only -> (
                     match pos Auxview.min_position with
                     | Some i -> R_ext i
                     | None -> R_plain)
                   | Aggregate.Max when not plain_only -> (
                     match pos Auxview.max_position with
                     | Some i -> R_ext i
                     | None -> R_plain)
                   | _ -> R_plain
                 in
                 A_attr { c = aref a; aux_read }
               | _, _, None -> assert false
             in
             P_agg { agg; src })
         view.View.select)
  in
  let group_plan = Array.of_list (List.map aref (View.group_attrs view)) in
  let rtargets =
    Array.to_list plans
    |> List.mapi (fun item plan -> (item, plan))
    |> List.filter_map (fun (item, plan) ->
           match plan with
           | P_agg { agg; _ } when not (Mindetail.Classify.is_csmas agg) -> (
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
  let indexed_columns tbl =
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
             (indexed_columns root))
        ~key_ref:(fun s ->
          let tbl = tables.(s) in
          cref tbl (Hashtbl.find schemas tbl).Schema.key)
  in
  let residuals = Array.map (Derive.residual_locals d) tables in
  (* Everything the engine can ever read off a root base tuple: group-by and
     aggregate sources, view local-condition columns, outgoing join foreign
     keys, and — when the root auxiliary view is retained — its kept,
     summed, extremum, semijoin-fk and pushed-condition columns. Two root
     tuples equal on this projection are indistinguishable to maintenance. *)
  let root_reads =
    let sch = Hashtbl.find schemas root in
    let cols = ref [] in
    let add_col c = cols := Schema.index_of sch c :: !cols in
    let add_ref c = if c.slot = 0 then cols := c.base :: !cols in
    Array.iter add_ref group_plan;
    Array.iter
      (function
        | P_agg { src = A_attr { c; _ }; _ } -> add_ref c
        | P_agg _ | P_group _ -> ())
      plans;
    List.iter add_col (View.local_columns view ~table:root);
    List.iter
      (fun (j : View.join) -> add_col j.View.src.Attr.column)
      (View.joins_from view root);
    (match Derive.spec_for d root with
    | None -> ()
    | Some spec ->
      List.iter add_col (Auxview.group_columns spec);
      List.iter add_col (Auxview.summed_columns spec);
      List.iter (fun (c, _) -> add_col c) (Auxview.ext_columns spec);
      List.iter
        (fun (sj : Auxview.semijoin) -> add_col sj.Auxview.fk)
        spec.Auxview.semijoins;
      List.iter
        (fun p ->
          List.iter
            (fun (a : Attr.t) -> add_col a.Attr.column)
            (Predicate.attrs p))
        spec.Auxview.locals);
    Array.of_list (List.sort_uniq compare !cols)
  in
  (* one dictionary pool per engine: a string attribute kept in several
     states (a dimension column in both its auxiliary view and the view
     state, say) interns each distinct string once *)
  let dict_pool = Dict.create_pool () in
  let t =
    {
      d;
      view;
      root;
      tables;
      slots;
      schemas;
      aux = Array.make (Array.length tables) None;
      joins;
      vstate = View_state.create ~shards:nshards ~dict_pool view ~determined;
      plans;
      group_plan;
      rtargets;
      root_groups;
      driving;
      determined;
      residuals;
      append_only = d.Derive.options.Derive.append_only;
      root_reads;
      scratch_key = Array.make (Array.length group_plan) Value.Null;
      scratch_cs = Array.make (Array.length plans) None;
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
        t.aux.(Hashtbl.find slots tbl) <- Some st;
        Database.fold db tbl
          (fun tup () ->
            if passes_spec_locals t spec tup && semijoin_ok t spec tup then
              Aux_state.insert_base st tup)
          ())
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
               ( tbl,
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
  Log.info (fun m ->
      m "initializing %s: %d auxiliary view(s), %s"
        view.View.name
        (Array.fold_left (fun n st -> if st = None then n else n + 1) 0 t.aux)
        (if determined then "root view eliminated" else "root view retained"));
  (* seed the view state from the root base rows *)
  Database.fold db root
    (fun tup () ->
      if passes_locals t root tup then root_view_feed t tup ~sign:1)
    ();
  flush t;
  t.wk_live <- true;
  t

(* --- delta routing ----------------------------------------------------- *)

let route t (delta : Delta.t) =
  if List.mem delta.Delta.table t.view.View.tables then begin
    (* append-only protects the detail (root) data: dimension tables stay
       mutable (Section 4 concerns old fact rows, not the dimensions) *)
    (if t.append_only && String.equal delta.Delta.table t.root then
       match delta.Delta.change with
       | Delta.Insert _ -> ()
       | Delta.Delete _ | Delta.Update _ ->
         invariant
           "append-only warehouse: root table %s received a deletion or \
            update"
           delta.Delta.table);
    if String.equal delta.Delta.table t.root then
      match delta.Delta.change with
      | Delta.Insert tup -> root_insert t tup
      | Delta.Delete tup -> root_delete t tup
      | Delta.Update { before; after } ->
        (* exposed or not, a root update is a deletion then an insertion *)
        root_delete t before;
        root_insert t after
    else
      match delta.Delta.change with
      | Delta.Insert tup -> dim_insert t delta.Delta.table tup
      | Delta.Delete tup -> dim_delete t delta.Delta.table tup
      | Delta.Update { before; after } ->
        dim_update t delta.Delta.table ~before ~after
  end

let apply t delta =
  route t delta;
  flush t

(* --- netted + shard-parallel batch fast path ---------------------------- *)

(* One compacted root-table operation: [net] identical (on [root_reads])
   tuples inserted (net > 0) or deleted (net < 0). The prepare phase fills
   the placement fields; the apply phase consumes them. *)
type root_op = {
  rep : Tuple.t;  (** representative full root tuple of the duplicate class *)
  mutable net : int;
  mutable aux_shard : int;  (** owning shard of the root aux group, or -1 *)
  mutable feed : (Tuple.t * View_state.contrib option array) option;
  mutable view_shard : int;
}

let known_deltas t deltas =
  List.filter
    (fun (d : Delta.t) -> List.mem d.Delta.table t.view.View.tables)
    deltas

let net_batch t deltas =
  Delta_batch.net
    ~key_index:(fun tbl -> Schema.key_index (schema t tbl))
    (known_deltas t deltas)

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
        { rep = tup; net = sign; aux_shard = -1; feed = None; view_shard = 0 }
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

(* Below this many compacted root operations, domain spawns cost more than
   they recover; the fast path then runs both phases inline. Overridable
   (MINVIEW_PAR_THRESHOLD) so fault-injection tests can reach the parallel
   path with small batches; read per batch, so tests may set it late. *)
let default_par_threshold = 512

let par_threshold () =
  match Sys.getenv_opt "MINVIEW_PAR_THRESHOLD" with
  | None -> default_par_threshold
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 0 -> n
    | Some _ | None -> default_par_threshold)

(* Target slice per domain once dispatch does go parallel: below ~2k ops a
   worker's share of the fixed costs (undo-journal bookkeeping, two shard
   barriers, cache refill on its shard partition) outweighs its slice. *)
let ops_per_domain = 2048

(* How many workers to give a batch of [n] compacted root operations
   against [resident] stored rows (root auxiliary groups + view groups).
   1 means inline.

   The old fixed [n < 512] cutoff mispredicts on large states: each
   worker re-touches its whole shard partition's cache footprint, so the
   break-even batch size grows with the resident state — measured on the
   uniform parallel-scaling grid, 10k-op batches over 500k resident rows
   run ~3x slower parallel than serial (BENCH_parallel.json). Hence the
   serial floor scales as resident/32, and beyond it the worker count is
   matched to the batch so each domain keeps >= [ops_per_domain] ops.

   An explicit MINVIEW_PAR_THRESHOLD keeps the fixed-threshold behavior
   exactly (tests rely on forcing the parallel path with tiny batches).
   An empty value counts as unset — callers cannot portably remove an
   environment variable from inside the process, so [putenv var ""] must
   mean "back to auto dispatch", not "legacy with the default cutoff". *)
let dispatch_workers ~pool ~resident n =
  let cap = min (Shard.domains pool) nshards in
  match Sys.getenv_opt "MINVIEW_PAR_THRESHOLD" with
  | Some s when String.trim s <> "" ->
    if n < par_threshold () then 1 else cap
  | Some _ | None ->
    let floor = max default_par_threshold (resident / 32) in
    if n < floor then 1 else min cap (max 2 (n / ops_per_domain))

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

let root_change_count ds =
  List.fold_left
    (fun acc (d : Delta.t) ->
      acc + match d.Delta.change with Delta.Update _ -> 2 | _ -> 1)
    0 ds

(* Whether a netted batch of [root_changes] raw root operations takes the
   serial-floor direct path (auto dispatch only — an explicit
   MINVIEW_PAR_THRESHOLD keeps the merged two-phase path reachable for any
   batch size, which tests rely on). *)
let direct_root_dispatch t ~root_changes =
  (match Sys.getenv_opt "MINVIEW_PAR_THRESHOLD" with
  | Some s when String.trim s <> "" -> false
  | Some _ | None -> true)
  && root_changes < max default_par_threshold (resident_rows t / 32)

let apply_root_ops t pool ops =
  let n = Array.length ops in
  let root_st = aux_of t t.root in
  let resident = resident_rows t in
  let nw = dispatch_workers ~pool ~resident n in
  (* Phase A — preparation, read-only on all shared state: membership
     tests and join probes read dimension auxiliary views (concurrent pure
     reads of hash tables are safe; nothing mutates during this phase),
     group keys and contributions are materialized per operation. *)
  Telemetry.with_phase Obs.prepare ~alloc:Obs.prepare_alloc "engine.prepare"
    (fun () ->
      Shard.run pool ~workers:nw (fun w ->
          let lo = n * w / nw and hi = n * (w + 1) / nw in
          for i = lo to hi - 1 do
            let op = ops.(i) in
            if op.net <> 0 then begin
              (match root_st with
              | Some st when in_aux t t.root op.rep ->
                op.aux_shard <- Aux_state.shard_of_base st op.rep
              | Some _ | None -> ());
              if passes_locals t t.root op.rep then
                match base_env t op.rep with
                | None -> ()
                | Some env ->
                  let key = group_key t env in
                  op.feed <- Some (key, contribs t env ~cnt:(abs op.net));
                  op.view_shard <- View_state.shard_of_key t.vstate key
            end
          done));
  (* Workload accounting between the phases, on the coordinator: netted
     weights per group key plus the per-shard op heat of this batch. *)
  if t.wk_live && Telemetry.enabled () then begin
    let per_shard = Array.make nshards 0 in
    Array.iter
      (fun op ->
        match op.feed with
        | Some (key, _) when op.net <> 0 ->
          if t.wk_events land Telemetry.Workload.sample_mask = 0 then
            Telemetry.Workload.note_hot_key ~weight:(abs op.net) t.wk
              ~hash:(Tuple.hash key)
              ~label:(fun () -> Tuple.to_string key);
          t.wk_writes <- t.wk_writes + abs op.net;
          t.wk_events <- t.wk_events + 1;
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
          let apply_op op =
            let cnt = abs op.net in
            (if
               op.aux_shard >= 0
               && Shard.owns ~worker:w ~workers:nw op.aux_shard
             then
               let st = Option.get root_st in
               if op.net > 0 then Aux_state.insert_base ~count:cnt st op.rep
               else Aux_state.delete_base ~count:cnt st op.rep);
            match op.feed with
            | Some (key, cs)
              when Shard.owns ~worker:w ~workers:nw op.view_shard ->
              if op.net > 0 then View_state.feed t.vstate ~key ~cnt cs
              else View_state.unfeed t.vstate ~key ~cnt cs
            | Some _ | None -> ()
          in
          Array.iter (fun op -> if op.net > 0 then apply_op op) ops;
          Array.iter (fun op -> if op.net < 0 then apply_op op) ops))

(* Serial-floor fast path: in auto-dispatch mode, a batch whose raw
   root-delta count is already below the serial floor skips the weighted
   merge and the prepare/apply split — per operation, the dimension probes
   feed the root-aux and view-state writes directly, with no op records,
   no projection hashing and no shard-ownership hashing. Exactly
   equivalent to [root_merge] + [apply_root_ops]: preparation reads only
   dimension auxiliary views while application writes only the root
   auxiliary view and the view state (so fusing them per operation changes
   nothing), and a weighted fold of [k] identical projections equals [k]
   unit operations. Positive changes still go before negative ones — the
   same transient-group discipline as phase B. *)
let apply_root_direct t root_deltas =
  let root_st = aux_of t t.root in
  let one sign tup =
    (match root_st with
    | Some st when in_aux t t.root tup ->
      if sign > 0 then Aux_state.insert_base st tup
      else Aux_state.delete_base st tup
    | Some _ | None -> ());
    if passes_locals t t.root tup then
      match base_env t tup with
      | None -> ()
      | Some env ->
        let key = group_key t env in
        if t.wk_live && Telemetry.enabled () then begin
          if t.wk_events land Telemetry.Workload.sample_mask = 0 then
            Telemetry.Workload.note_hot_key t.wk ~hash:(Tuple.hash key)
              ~label:(fun () -> Tuple.to_string key);
          t.wk_writes <- t.wk_writes + 1;
          t.wk_events <- t.wk_events + 1
        end;
        let cs = contribs t env ~cnt:1 in
        if sign > 0 then View_state.feed t.vstate ~key ~cnt:1 cs
        else View_state.unfeed t.vstate ~key ~cnt:1 cs
  in
  List.iter
    (fun (d : Delta.t) ->
      match d.Delta.change with
      | Delta.Insert tup -> one 1 tup
      | Delta.Update { after; _ } -> one 1 after
      | Delta.Delete _ -> ())
    root_deltas;
  List.iter
    (fun (d : Delta.t) ->
      match d.Delta.change with
      | Delta.Delete tup -> one (-1) tup
      | Delta.Update { before; _ } -> one (-1) before
      | Delta.Insert _ -> ())
    root_deltas

(* Netted batch application: dimension phases run serially in join-tree
   order (inserts leaves-first so join partners exist, deletes root-first so
   references are gone), root operations run compacted and shard-parallel.
   Equivalent to the serial replay for any batch that is legal against the
   pre-batch state — see DESIGN.md, "Concurrency model". *)
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
      Telemetry.Workload.note_batch t.wk ~deltas_in ~netted ~applied;
      Telemetry.Workload.flush_writes t.wk ~writes:t.wk_writes
        ~events:t.wk_events;
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

let apply_batch_parallel t pool deltas =
  (* append-only violations must reject the batch whether or not the
     offending change nets out — match the serial path's verdict *)
  if t.append_only then
    List.iter
      (fun (d : Delta.t) ->
        if String.equal d.Delta.table t.root then
          match d.Delta.change with
          | Delta.Insert _ -> ()
          | Delta.Delete _ | Delta.Update _ ->
            invariant
              "append-only warehouse: root table %s received a deletion or \
               update"
              d.Delta.table)
      deltas;
  let pre_flow = flow_pre t in
  let net =
    Telemetry.with_phase Obs.compact ~alloc:Obs.compact_alloc "engine.compact"
      (fun () -> net_batch t deltas)
  in
  if Telemetry.enabled () then begin
    Telemetry.Counter.inc Obs.deltas_total
      net.Delta_batch.stats.Delta_batch.input;
    Telemetry.Counter.inc Obs.deltas_netted
      net.Delta_batch.stats.Delta_batch.output
  end;
  let root_deltas = ref [] in
  let dims = ref [] in
  List.iter
    (fun (tbl, ds) ->
      if String.equal tbl t.root then root_deltas := ds
      else dims := (List.length (path_to t tbl), tbl, ds) :: !dims)
    net.Delta_batch.tables;
  let deep_first =
    List.sort (fun (a, _, _) (b, _, _) -> compare b a) (List.rev !dims)
  in
  let shallow_first = List.rev deep_first in
  Telemetry.with_phase Obs.dim_apply ~alloc:Obs.dim_apply_alloc
    "engine.dim-apply" (fun () ->
      List.iter
        (fun (_, tbl, ds) ->
          List.iter
            (fun (d : Delta.t) ->
              match d.Delta.change with
              | Delta.Insert tup -> dim_insert t tbl tup
              | Delta.Delete _ | Delta.Update _ -> ())
            ds)
        deep_first;
      List.iter
        (fun (_, tbl, ds) ->
          List.iter
            (fun (d : Delta.t) ->
              match d.Delta.change with
              | Delta.Update { before; after } ->
                dim_update t tbl ~before ~after
              | Delta.Insert _ | Delta.Delete _ -> ())
            ds)
        deep_first);
  let root_changes = root_change_count !root_deltas in
  let dim_ops () =
    List.fold_left (fun acc (_, _, ds) -> acc + List.length ds) 0 deep_first
  in
  let applied_ops = ref 0 in
  if direct_root_dispatch t ~root_changes then begin
    if Telemetry.enabled () then begin
      applied_ops := dim_ops () + root_changes;
      Telemetry.Counter.inc Obs.ops_applied !applied_ops
    end;
    Telemetry.with_phase Obs.shard_apply ~alloc:Obs.shard_apply_alloc
      "engine.shard-apply" (fun () -> apply_root_direct t !root_deltas)
  end
  else begin
    let ops =
      Telemetry.with_phase Obs.weighted_merge ~alloc:Obs.weighted_merge_alloc
        "engine.weighted-merge" (fun () -> root_merge t !root_deltas)
    in
    if Telemetry.enabled () then begin
      Telemetry.Counter.inc Obs.merge_folds
        (root_changes - Array.length ops);
      let root_ops =
        Array.fold_left
          (fun acc op -> if op.net <> 0 then acc + 1 else acc)
          0 ops
      in
      applied_ops := dim_ops () + root_ops;
      Telemetry.Counter.inc Obs.ops_applied !applied_ops
    end;
    apply_root_ops t pool ops
  end;
  Telemetry.with_phase Obs.dim_apply ~alloc:Obs.dim_apply_alloc
    "engine.dim-apply" (fun () ->
      List.iter
        (fun (_, tbl, ds) ->
          List.iter
            (fun (d : Delta.t) ->
              match d.Delta.change with
              | Delta.Delete tup -> dim_delete t tbl tup
              | Delta.Insert _ | Delta.Update _ -> ())
            ds)
        shallow_first);
  Telemetry.with_phase Obs.view_update ~alloc:Obs.view_update_alloc
    "engine.view-update" (fun () -> flush t);
  flow_finish t pre_flow ~mode:"parallel"
    ~deltas_in:net.Delta_batch.stats.Delta_batch.input
    ~netted:net.Delta_batch.stats.Delta_batch.output ~applied:!applied_ops

let apply_batch ?parallel t deltas =
  match parallel with
  | None ->
    Telemetry.Counter.one Obs.batches_serial;
    let known =
      if Telemetry.enabled () then List.length (known_deltas t deltas) else 0
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
      (fun () -> apply_batch_parallel t pool deltas)

type batch_profile = { input : int; netted : int; applied : int }

(* Measure what compaction would do to [deltas] without applying them. *)
let net_profile t deltas =
  let net = net_batch t deltas in
  let dim_ops, root_ds =
    List.fold_left
      (fun (dims, root) (tbl, ds) ->
        if String.equal tbl t.root then (dims, ds)
        else (dims + List.length ds, root))
      (0, []) net.Delta_batch.tables
  in
  let root_changes = root_change_count root_ds in
  let root_ops =
    (* mirror the dispatch: below the serial floor the fast path applies
       the netted root deltas directly, without the weighted merge *)
    if direct_root_dispatch t ~root_changes then root_changes
    else
      Array.fold_left
        (fun acc (op : root_op) -> if op.net <> 0 then acc + 1 else acc)
        0 (root_merge t root_ds)
  in
  {
    input = List.length deltas;
    netted = net.Delta_batch.stats.Delta_batch.output;
    applied = dim_ops + root_ops;
  }

(* --- inspection -------------------------------------------------------- *)

let view_contents t = View_state.render t.vstate

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
    walk_groups t root_st sampled (fun () key env row ->
        let cnt = Aux_state.cnt row in
        View_state.feed scratch ~key ~cnt (contribs t env ~cnt));
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
    let check i =
      let key, cnt = keys.(i) in
      TH.find_opt expected_cnt key = Some cnt
      &&
      match TH.find_opt expected key, TH.find_opt actual key with
      | Some erow, Some arow -> rows_close erow arow
      | _, _ -> false
    in
    Some
      (Telemetry.Lineage.audit ~view:t.view.View.name ~sample ~total ~check)
