(** Savings attribution: decompose each auxiliary view's footprint versus
    raw detail into the paper's four minimization techniques.

    {!measure} replays the derivation's decisions against an actual
    database and counts, per base table, how many rows survive each stage
    of the reduction waterfall:

    {v raw rows -> local selection -> join reduction -> duplicate
       compression (resident groups) v}

    and how many fields per row survive local projection. {!bytes} turns
    the counts into a per-technique byte decomposition with the exact
    telescoping invariant

    {v raw = local selection + local projection + join reduction
           + duplicate compression + elimination + stored v}

    (the projection term may be negative when compression adds more
    bookkeeping columns — [SUM]s, [COUNT( * )] — than projection drops).
    Omitted tables are measured against the spec they {e would} have had,
    and their entire would-be footprint is attributed to elimination.

    [minview attribute] renders this as the paper's Table-style
    breakdown; the warehouse reconciles the measured survivor counts
    against the live [minview_aux_resident_rows] /
    [minview_aux_detail_rows] gauges (±1 row). *)

type t = {
  table : string;
  aux : string;  (** auxview name (the would-be name when omitted) *)
  retained : bool;  (** [false] when eliminated (Section 3.3) *)
  compressed : bool;  (** duplicate compression applied (vs. tuple-level) *)
  raw_rows : int;
  raw_fields : int;  (** base-table arity *)
  kept_fields : int;  (** distinct base columns surviving local projection *)
  stored_fields : int;  (** aux output arity (incl. SUM/COUNT bookkeeping) *)
  rows_after_local : int;  (** rows passing the pushed-down conditions *)
  rows_after_join : int;  (** ... also passing the semijoin reductions *)
  resident_rows : int;  (** distinct groups after duplicate compression *)
}

val fold_factor : t -> float
(** Detail rows per resident row, [rows_after_join / resident_rows];
    [1.0] for empty tables. *)

type bytes_breakdown = {
  raw_bytes : int;
  local_selection : int;  (** saved by pushed-down local conditions *)
  local_projection : int;  (** saved by dropped columns (may be < 0) *)
  join_reduction : int;  (** saved by semijoin reductions *)
  compression : int;  (** saved by duplicate folding *)
  elimination : int;  (** saved by omitting the whole auxview *)
  stored_bytes : int;
}

val bytes : t -> bytes_breakdown
(** Byte decomposition at 8 bytes per stored field. Satisfies the
    telescoping invariant above exactly. *)

val measure : Relational.Database.t -> Derive.t -> t list
(** Measure every base table of the derivation against [db], in view
    table order. Survivor sets are computed bottom-up over the join tree
    so each semijoin tests against the target's {e reduced} auxview
    contents, exactly as the maintenance engine stores them. *)

val render :
  ?measured:(string -> int option) ->
  view:string ->
  t list ->
  string
(** The paper's Table-style breakdown: one row per auxview with
    per-technique byte savings as plain byte counts, a TOTAL row, and the
    row-flow waterfall.

    [measured] maps an auxview name to its measured resident bytes (the
    columnar segments' byte accounting, via
    [Warehouse.measured_bytes]); when given, a "measured" column is
    appended, falling back to the bytes-per-field estimate for auxviews
    the lookup does not know (omitted, or stored boxed). *)

val to_json : ?measured:(string -> int option) -> view:string -> t -> string
(** One JSON object (single line) for one table's attribution. [measured]
    as in {!render}: adds a ["measured_stored"] byte count. *)
