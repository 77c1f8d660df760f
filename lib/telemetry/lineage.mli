(** Per-transaction lineage records and the sampling drift auditor.

    Lineage answers "which base-table deltas produced this view change".
    Every committed warehouse transaction leaves one {!record} keyed by
    its WAL sequence number, describing the batch's flow through the
    pipeline: raw deltas per base table, then per view [deltas in ->
    netted -> operations applied], then per auxiliary view the net change
    in resident rows versus the detail rows they represent (the excess of
    detail over resident change is the duplicate-compression fold
    absorbed by the batch), and finally the net change in view groups.

    Records live in a bounded in-memory ring of {!ring_capacity} entries
    ({!Trace.Ring}, queryable with {!recent}); when a sink is set they are
    additionally persisted as one JSON object per line, size-capped and
    rotated by {!Jsonl_sink}.
    The warehouse points the sink at [lineage.jsonl] next to [wal.bin],
    so each line sits alongside the WAL [Batch] commit marker with the
    same sequence number. Rolled-back transactions never reach {!emit}.

    Collection obeys the [TELEMETRY=off] kill switch: {!emit} is a no-op
    while telemetry is disabled. *)

type aux_flow = {
  aux : string;  (** auxiliary view name *)
  base : string;  (** base table it minimizes *)
  resident_delta : int;  (** net change in stored (compressed) rows *)
  detail_delta : int;  (** net change in detail rows represented *)
  folded : int;
      (** detail rows absorbed without new resident rows:
          [max 0 (detail_delta - resident_delta)] *)
}

type view_flow = {
  view : string;
  mode : string;  (** ["netted"]: every batch is netted *)
  deltas_in : int;  (** deltas routed to this view's engine *)
  netted : int;  (** after net-effect compaction *)
  applied : int;  (** operations actually issued to aux/view state *)
  group_delta : int;  (** net change in view group count *)
  aux_flows : aux_flow list;  (** in view table order *)
}

type record = {
  txn : int;  (** WAL sequence number of the committing batch *)
  tables : (string * int) list;  (** base table -> raw deltas, sorted *)
  flows : view_flow list;  (** one per registered view *)
}

val ring_capacity : int
(** In-memory record ring size (256). *)

val emit : record -> unit
(** Record a committed transaction: bump
    [minview_lineage_records_total], push onto the ring, append to the
    sink if set, and emit a [lineage.record] trace event. No-op while
    telemetry is disabled. *)

val recent : ?txn:int -> ?table:string -> unit -> record list
(** Up to {!ring_capacity} most recent records, oldest first,
    optionally filtered by exact transaction sequence and/or by base
    table touched. *)

val clear : unit -> unit
(** Drop the in-memory ring (the sink file is left alone). *)

val set_sink : string option -> unit
(** [Some path] opens (append, size-capped rotation as in
    {!Jsonl_sink}) the JSONL persistence file; [None] closes it. *)

val sink_path : unit -> string option
val record_to_json : record -> string

(** {1 Drift auditor}

    A generic sampling cross-check harness. The caller owns the
    recompute logic; the harness owns deterministic sample selection and
    the divergence accounting ([minview_lineage_audit_checked_total] /
    [minview_lineage_audit_divergences_total] counters, both labelled by
    view and both registered by every audit, so a clean audit shows its
    divergence series at 0; plus a [lineage.audit] trace event). *)

val sample_indices : sample:int -> total:int -> int list
(** Up to [sample] evenly spaced indices in [\[0, total)], ascending;
    all of them when [sample >= total]. Deterministic. *)

val audit :
  view:string -> sample:int -> total:int -> check:(int -> bool) -> int * int
(** [audit ~view ~sample ~total ~check] runs [check] on each sampled
    index and returns [(checked, divergences)] where a divergence is a
    [check] returning [false]. The checks always run; only the counters
    and the trace event obey the telemetry switch. *)
