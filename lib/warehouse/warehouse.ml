module Storage = struct
  type model = { bytes_per_field : int }

  let paper_model = { bytes_per_field = 4 }

  let bytes m ~rows ~fields = rows * fields * m.bytes_per_field

  let show_bytes n =
    let f = float_of_int n in
    let kib = 1024. in
    if f >= kib ** 3. then Printf.sprintf "%.1f GB" (f /. (kib ** 3.))
    else if f >= kib ** 2. then Printf.sprintf "%.1f MB" (f /. (kib ** 2.))
    else if f >= kib then Printf.sprintf "%.1f KB" (f /. kib)
    else Printf.sprintf "%d B" n

  let profile_bytes m profile =
    List.fold_left
      (fun acc (_, rows, fields) -> acc + bytes m ~rows ~fields)
      0 profile

  let render_profile m profile =
    let rows =
      List.map
        (fun (name, rows, fields) ->
          [
            name; string_of_int rows; string_of_int fields;
            show_bytes (bytes m ~rows ~fields);
          ])
        profile
      @ [ [ "TOTAL"; ""; ""; show_bytes (profile_bytes m profile) ] ]
    in
    Relational.Table_printer.render
      ~header:[ "object"; "rows"; "fields"; "size" ]
      rows
end

module Checksum = Checksum
module Database = Relational.Database
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Delta = Relational.Delta
module Validator = Relational.Validator
module View = Algebra.View
module Engines = Maintenance.Engines
module Faults = Maintenance.Faults

let log_src =
  Logs.Src.create "minview.warehouse" ~doc:"warehouse durability & ingestion"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Obs = struct
  let commits =
    Telemetry.Counter.make ~help:"Batches committed across all engines"
      "minview_warehouse_txn_commits_total"

  let rollbacks =
    Telemetry.Counter.make
      ~help:"Batches rolled back after a mid-batch engine failure"
      "minview_warehouse_txn_rollbacks_total"

  let recoveries =
    Telemetry.Counter.make ~help:"Successful crash recoveries"
      "minview_warehouse_recoveries_total"

  let replayed =
    Telemetry.Counter.make ~help:"WAL batches replayed during recovery"
      "minview_warehouse_replayed_batches_total"

  let quarantined =
    Telemetry.Counter.make ~help:"Deltas quarantined to the dead-letter queue"
      "minview_warehouse_quarantined_deltas_total"

  let parallel_resets =
    Telemetry.Counter.make
      ~help:
        "Snapshot loads that dropped a saved parallel pool (pools are \
         runtime-only)"
      "minview_warehouse_parallel_resets_total"

  let snapshot_fallbacks =
    Telemetry.Counter.make
      ~help:
        "Recoveries that fell back past an unverifiable snapshot to an \
         older generation"
      "minview_warehouse_snapshot_fallbacks_total"

  let degradations =
    Telemetry.Counter.make
      ~help:
        "Parallel-apply failures that rolled back and degraded ingestion \
         to serial"
      "minview_warehouse_parallel_degradations_total"

  let promotions =
    Telemetry.Counter.make
      ~help:"Re-promotions from degraded serial apply back to parallel"
      "minview_warehouse_parallel_promotions_total"

  let degraded =
    Telemetry.Gauge.make
      ~help:"1 while ingestion is degraded to serial apply, else 0"
      "minview_warehouse_parallel_degraded"

  let ingest_retries =
    Telemetry.Counter.make
      ~help:"Transient ingest faults absorbed by the retry policy"
      "minview_warehouse_ingest_retries_total"

  let dead_letters_dropped =
    Telemetry.Counter.make
      ~help:"Oldest dead letters dropped past the dead-letter cap"
      "minview_warehouse_dead_letters_dropped_total"

  let checkpoint_seconds =
    Telemetry.Histogram.make ~help:"Snapshot checkpoint latency"
      "minview_warehouse_checkpoint_seconds"

  let ingest_seconds =
    Telemetry.Histogram.make ~help:"End-to-end latency of one ingested batch"
      "minview_warehouse_ingest_seconds"

  let ingest_alloc =
    Telemetry.Histogram.make
      ~help:"Bytes allocated on the ingesting domain during one batch"
      ~lo:4096. ~factor:4. ~buckets:24 "minview_warehouse_ingest_alloc_bytes"

  let reads =
    Telemetry.Counter.make ~help:"Epoch-served view reads"
      "minview_warehouse_reads_total"

  let read_seconds =
    Telemetry.Histogram.make ~help:"Latency of one epoch-served view read"
      "minview_warehouse_read_seconds"

  let epoch_publications =
    Telemetry.Counter.make
      ~help:
        "Read epochs published (one per committed batch, registration and \
         recovery)"
      "minview_warehouse_epoch_publications_total"

  let epoch_lag =
    Telemetry.Gauge.make
      ~help:
        "WAL-recorded batches (committed or aborted) ahead of the published \
         read epoch, as of the most recent read"
      "minview_warehouse_epoch_lag_batches"
end

(* --- errors ------------------------------------------------------------ *)

type error_kind =
  | Duplicate_view
  | Unknown_view
  | Not_aged
  | Not_persistable
  | Corrupt_state
  | Incompatible_state
  | Not_durable
  | Io_error
  | Invalid_request

exception Error of { kind : error_kind; detail : string }

let kind_label = function
  | Duplicate_view -> "duplicate-view"
  | Unknown_view -> "unknown-view"
  | Not_aged -> "not-aged"
  | Not_persistable -> "not-persistable"
  | Corrupt_state -> "corrupt-state"
  | Incompatible_state -> "incompatible-state"
  | Not_durable -> "not-durable"
  | Io_error -> "io-error"
  | Invalid_request -> "invalid-request"

let err kind fmt =
  Format.kasprintf (fun detail -> raise (Error { kind; detail })) fmt

(* --- state ------------------------------------------------------------- *)

type strategy =
  | Minimal
  | Psj
  | Replicate
  | Aged of (Relational.Tuple.t -> bool)

type registered = {
  view : View.t;
  strategy : strategy;
  engine : Engines.t;
}

(* --- read epochs -------------------------------------------------------- *)

(* One view's state frozen into an epoch: the output columns and its rows
   in canonical order, an array never mutated after publication
   ([Engines.publish] builds each one fresh and reuses it only as the basis
   of the next). *)
type view_snap = {
  snap_view : View.t;
  snap_columns : string list;
  snap_rows : (Tuple.t * int) array;
}

(* An immutable read epoch. Readers obtain the current one with a single
   [Atomic.get] and then work entirely on frozen data: the writer can
   commit, roll back, rebuild engines or crash without ever perturbing a
   snapshot a reader holds. *)
type snapshot = {
  epoch : int;  (** monotonic publication counter, 0 before any publish *)
  epoch_seq : int;  (** WAL sequence number the epoch reflects *)
  epoch_views : view_snap list;  (** registration order *)
}

(* Jittered exponential backoff for transient ingest faults (a failed WAL
   durability barrier). The jitter keeps concurrent recovering writers from
   hammering a struggling disk in lockstep. *)
type retry = { attempts : int; base_delay : float; max_delay : float }

let default_retry = { attempts = 4; base_delay = 0.002; max_delay = 0.25 }

(* Supervision policy for parallel apply: after a worker failure the
   warehouse runs serially for [backoff] clean batches (starting at
   [initial_backoff], doubling per repeated failure up to [max_backoff]);
   a failure arriving after [stable_parallel] clean parallel batches is
   treated as fresh bad luck and the backoff resets. *)
let initial_backoff = 4

let max_backoff = 256
let stable_parallel = 16

(* Archived checkpoint generations kept beside the live snapshot. *)
let default_keep_generations = 2

type t = {
  mutable views : registered list;  (** newest first *)
  validator : Validator.t;
  mutable dead : Delta.rejection list;  (** newest first *)
  mutable seq : int;  (** WAL-recorded batches (committed or aborted) *)
  mutable wal : Wal.writer option;
  mutable dir : string option;
  mutable checkpoint_every : int option;
  mutable keep_generations : int;
  (* runtime-only (like [wal]): never marshaled, so snapshots stay portable
     to hosts with different core counts; [load]/[recover] reset it *)
  mutable parallel : Maintenance.Shard.pool option;
  mutable retry : retry;
  mutable dead_cap : int option;
  (* supervision state: [degraded_until] counts the serial batches left
     before parallel apply is retried; [backoff] is the next degradation
     period; [clean_parallel] the parallel batches since the last failure *)
  mutable degraded_until : int;
  mutable backoff : int;
  mutable clean_parallel : int;
  (* wall-clock time of the last committed batch, 0. before the first:
     feeds the health endpoint's commit-age check; runtime-only *)
  mutable last_commit_s : float;
  (* the published read epoch: runtime-only (readers may be concurrent
     domains, so the cell must be an [Atomic.t]); never marshaled —
     [load]/[recover] republish from the restored engines *)
  published : snapshot Atomic.t;
}

let empty_snapshot = { epoch = 0; epoch_seq = 0; epoch_views = [] }

let create source =
  {
    views = [];
    validator = Validator.of_database source;
    dead = [];
    seq = 0;
    wal = None;
    dir = None;
    checkpoint_every = None;
    keep_generations = default_keep_generations;
    parallel = None;
    retry = default_retry;
    dead_cap = None;
    degraded_until = 0;
    backoff = initial_backoff;
    clean_parallel = 0;
    last_commit_s = 0.;
    published = Atomic.make empty_snapshot;
  }

(* Publish a fresh read epoch from the current committed engine state.
   Must only run with every engine transaction closed ([Engines.publish]
   enforces it): at the commit point of ingestion, at registration, and
   after load/recovery. The single [Atomic.set] is the publication point —
   a reader sees the previous epoch in full or the new one in full, never a
   mix.

   [?touched] is the set of base tables the triggering batch wrote; a view
   referencing none of them kept its contents, so its previous rows are
   re-used as they are (the common case for wide warehouses where a batch
   hits one fact table). Omitting [touched] re-publishes every view; an
   incremental engine still re-renders only the groups its batches
   touched. *)
let publish_epoch ?touched t =
  let prev = Atomic.get t.published in
  let reused r =
    match touched with
    | None -> None
    | Some tables ->
      if List.exists (fun tbl -> List.mem tbl r.view.View.tables) tables then
        None
      else
        List.find_opt
          (fun vs -> String.equal vs.snap_view.View.name r.view.View.name)
          prev.epoch_views
  in
  let epoch_views =
    (* [t.views] is newest-first; rev_map restores registration order *)
    List.rev_map
      (fun r ->
        match reused r with
        | Some vs -> vs
        | None ->
          {
            snap_view = r.view;
            snap_columns = Algebra.Eval.output_columns r.view;
            snap_rows = Engines.publish r.engine;
          })
      t.views
  in
  Atomic.set t.published
    { epoch = prev.epoch + 1; epoch_seq = t.seq; epoch_views };
  Telemetry.Counter.one Obs.epoch_publications;
  (* the per-commit runtime sample (heap + off-heap gauges): a no-op unless
     [Runtime.set_auto_sample true] armed it (serve --metrics-port) *)
  Telemetry.Runtime.tick ()

let set_parallel t pool =
  t.parallel <- pool;
  (* a fresh pool starts with a clean supervision slate *)
  t.degraded_until <- 0;
  t.backoff <- initial_backoff;
  t.clean_parallel <- 0;
  Telemetry.Gauge.set Obs.degraded 0.

type apply_mode =
  | Serial
  | Parallel
  | Degraded of { remaining : int; next_backoff : int }

let apply_mode t =
  match t.parallel with
  | None -> Serial
  | Some _ when t.degraded_until > 0 ->
    Degraded { remaining = t.degraded_until; next_backoff = t.backoff }
  | Some _ -> Parallel

(* --- health and runtime profiling hooks --------------------------------- *)

let wal_attached t = t.wal <> None

let last_commit_age_s t =
  if t.last_commit_s = 0. then None
  else Some (Unix.gettimeofday () -. t.last_commit_s)

let offheap_bytes t =
  List.fold_left (fun acc r -> acc + Engines.offheap_bytes r.engine) 0 t.views

let publish_offheap t =
  Telemetry.Runtime.set_offheap_source (Some (fun () -> offheap_bytes t))

(* Health checks for the /healthz endpoint. Exporter-domain reads of the
   writer's mutable fields are racy by design: a stale answer is at most
   one batch old, and every read is a single word (no torn state). *)
let health ?(require_wal = false) ?max_commit_age_s ?max_epoch_lag t =
  let open Telemetry.Http_exporter in
  let wal_check =
    let attached = wal_attached t in
    {
      check_name = "wal";
      check_ok = attached || not require_wal;
      check_detail = (if attached then "attached" else "not attached");
    }
  in
  let apply_check =
    match apply_mode t with
    | Serial ->
      { check_name = "apply"; check_ok = true; check_detail = "serial" }
    | Parallel ->
      { check_name = "apply"; check_ok = true; check_detail = "parallel" }
    | Degraded { remaining; next_backoff } ->
      {
        check_name = "apply";
        check_ok = false;
        check_detail =
          Printf.sprintf
            "degraded to serial (%d clean batches before retry, next backoff \
             %d)"
            remaining next_backoff;
      }
  in
  let age_check =
    match last_commit_age_s t with
    | None ->
      {
        check_name = "last_commit";
        check_ok = true;
        check_detail = "no commits yet";
      }
    | Some age ->
      {
        check_name = "last_commit";
        check_ok =
          (match max_commit_age_s with
          | Some limit -> age <= limit
          | None -> true);
        check_detail = Printf.sprintf "%.1fs ago" age;
      }
  in
  let lag_check =
    let lag = t.seq - (Atomic.get t.published).epoch_seq in
    {
      check_name = "epoch_lag";
      check_ok =
        (match max_epoch_lag with Some limit -> lag <= limit | None -> true);
      check_detail = Printf.sprintf "%d batch(es)" lag;
    }
  in
  [ wal_check; apply_check; age_check; lag_check ]

let set_retry t retry =
  if retry.attempts < 0 || retry.base_delay < 0. || retry.max_delay < 0. then
    err Invalid_request "set_retry: attempts and delays must be non-negative";
  t.retry <- retry

(* Registration-time initialization of a view's engine from the validator's
   committed shadow, the warehouse's belief of the current source. Engines
   only read it (a [Replicate] engine copies it), so it is read in place:
   an incremental engine loads its auxiliary views from it, then seeds the
   view from the root auxiliary view when that is retained, reading the
   root base rows again only when it is eliminated ([Engine.init]).
   Shared by registration, [load]/[recover] and the wedge rebuild. *)
let build_engine validator strategy view =
  let source = Validator.shadow validator in
  match strategy with
  | Minimal -> Engines.minimal source view
  | Psj -> Engines.psj source view
  | Replicate -> Engines.recompute source view
  | Aged is_old -> Engines.partitioned source view ~is_old

let add_view ?(strategy = Minimal) t view =
  if
    List.exists
      (fun r -> String.equal r.view.View.name view.View.name)
      t.views
  then err Duplicate_view "a view named %s is already registered" view.View.name;
  let engine = build_engine t.validator strategy view in
  t.views <- { view; strategy; engine } :: t.views;
  (* immediately visible to readers; previously registered views kept their
     contents, so their captures carry over ([touched = []]) *)
  publish_epoch ~touched:[] t

let add_view_sql ?strategy t sql =
  match Sqlfront.Parser.statement sql with
  | Sqlfront.Ast.Create_view { name; select } ->
    add_view ?strategy t
      (Sqlfront.Elaborate.view_of_select (Validator.shadow t.validator) ~name
         select)
  | _ -> err Invalid_request "add_view_sql: expected CREATE VIEW"

let view_names t = List.rev_map (fun r -> r.view.View.name) t.views
let views t = List.rev_map (fun r -> r.view) t.views

let find t name =
  match
    List.find_opt (fun r -> String.equal r.view.View.name name) t.views
  with
  | Some r -> r
  | None -> err Unknown_view "no view named %s is registered" name

(* --- epoch-served reads -------------------------------------------------- *)

let current_snapshot t = Atomic.get t.published
let with_snapshot t f = f (Atomic.get t.published)
let snapshot_epoch s = s.epoch
let snapshot_seq s = s.epoch_seq
let snapshot_views s = List.map (fun vs -> vs.snap_view) s.epoch_views

let find_snap s name =
  match
    List.find_opt
      (fun vs -> String.equal vs.snap_view.View.name name)
      s.epoch_views
  with
  | Some vs -> vs
  | None -> err Unknown_view "no view named %s is registered" name

(* [t.seq] is a plain mutable int written by the writer domain; the
   unsynchronized read here is a benign race (the lag gauge is advisory,
   and OCaml's memory model keeps single-word reads untorn). *)
let observe_read t s dt =
  Telemetry.Counter.one Obs.reads;
  Telemetry.Histogram.observe Obs.read_seconds dt;
  Telemetry.Gauge.set Obs.epoch_lag (float_of_int (t.seq - s.epoch_seq))

let read_sorted ?snapshot t name =
  let t0 = Unix.gettimeofday () in
  let s =
    match snapshot with Some s -> s | None -> Atomic.get t.published
  in
  let vs = find_snap s name in
  observe_read t s (Unix.gettimeofday () -. t0);
  (vs.snap_columns, vs.snap_rows)

let read_view ?snapshot t name =
  let columns, rows = read_sorted ?snapshot t name in
  (columns, Relation.of_list (Array.to_list rows))

let query t name = read_view t name

let query_sorted t name =
  let columns, rows = read_sorted t name in
  (columns, Array.to_list rows)

let derivation_of t name = Engines.derivation (find t name).engine

let age_out t name facts =
  let r = find t name in
  match Engines.as_partitioned r.engine with
  | Some p -> Maintenance.Partitioned.age_out p facts
  | None -> err Not_aged "view %s is not registered with the Aged strategy" name

let detail_profile t =
  let qualify view_name (name, rows, fields) =
    ((if List.length t.views > 1 then view_name ^ "/" ^ name else name),
      rows, fields)
  in
  List.concat_map
    (fun r ->
      List.map (qualify r.view.View.name) (Engines.detail_profile r.engine))
    (List.rev t.views)

(* Measured resident bytes per view: every stored object of the view's
   engine (the view state first, then its auxiliary views), from the
   columnar byte accounting. Views without measured state (the recompute
   baseline) are omitted — their footprint only exists as an estimate. *)
let measured_bytes t =
  List.filter_map
    (fun r ->
      Option.map
        (fun objs -> (r.view.View.name, objs))
        (Engines.measured_bytes r.engine))
    (List.rev t.views)

let strategy_name = function
  | Minimal -> "minimal (Algorithm 3.2)"
  | Psj -> "PSJ (Quass et al.)"
  | Replicate -> "full replication"
  | Aged _ -> "aged (current + append-only old partition)"

(* --- persistence ------------------------------------------------------- *)

let snapshot_magic = "minview-warehouse-state/5\n"
let v4_magic = "minview-warehouse-state/4\n"
let v3_magic = "minview-warehouse-state/3\n"
let v2_magic = "minview-warehouse-state/2\n"
let legacy_magic = "minview-warehouse-state/1\n"

let save t path =
  List.iter
    (fun r ->
      match r.strategy with
      | Aged _ ->
        err Not_persistable
          "view %s uses an Aged partition predicate and cannot be persisted"
          r.view.View.name
      | Minimal | Psj | Replicate -> ())
    t.views;
  (* the pool itself is runtime-only and never marshaled, but its size is
     recorded so a later load can warn that it was not restored *)
  let parallel_domains =
    match t.parallel with
    | Some pool -> Maintenance.Shard.domains pool
    | None -> 0
  in
  (* The payload (since version 4) never marshals engine state: the columnar
     storage layer holds closures and Bigarray segments that [Marshal]
     rejects, and snapshots are taken between batches, when every engine is
     a pure function of the validator's committed shadow (the audit verb
     checks exactly this). [load] rebuilds each engine from that shadow
     ([build_engine]), which also keeps snapshots portable across
     storage-layout changes. *)
  let payload =
    Marshal.to_string
      ( List.map (fun r -> (r.view, r.strategy)) t.views,
        t.validator,
        t.dead,
        t.seq,
        parallel_domains )
      []
  in
  let header = Buffer.create 8 in
  Buffer.add_int32_le header (Int32.of_int (String.length payload));
  Buffer.add_int32_le header (Int32.of_int (Checksum.string payload));
  let tmp = path ^ ".tmp" in
  let oc = try open_out_bin tmp with Sys_error m -> err Io_error "%s" m in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc snapshot_magic;
      Buffer.output_buffer oc header;
      (* crash point: half a payload behind a valid header — the torn temp
         file must stay invisible to recovery (the rename never happens) *)
      let half = String.length payload / 2 in
      output_substring oc payload 0 half;
      Faults.hit Faults.Mid_checkpoint;
      output_substring oc payload half (String.length payload - half);
      flush oc;
      (* the snapshot must be on disk before the rename publishes it *)
      (try Unix.fsync (Unix.descr_of_out_channel oc)
       with Unix.Unix_error _ -> ()));
  Sys.rename tmp path;
  Wal.fsync_dir path

(* Versions 3 and 4 marshal the validator with the store layout of their
   builds, whose tables kept every row twice: they decode through
   [Database.legacy], never through today's record, and convert on load.
   Both frames also carry a source slot (a shared reference to the shadow)
   that [load] ignores. *)
type legacy_validator = {
  legacy_shadow : Database.legacy;
  legacy_txn : Delta.t list option;
}
[@@warning "-69"]

let of_legacy v = Validator.of_database (Database.of_legacy v.legacy_shadow)

(* The version-3 payload stored the [registered] list with each engine's
   state marshaled inline. Its engine field is decoded as an opaque value
   that is never touched — engines are rebuilt from the validator either
   way — so pre-columnar snapshots stay loadable across the storage
   change. *)
type v3_registered = {
  v3_view : View.t;
  v3_strategy : strategy;
  v3_engine : Obj.t;
}
[@@warning "-69"]

(* Rebuild every engine from the validator's committed shadow, exactly like
   [rebuild_engines] (below): registration-time initialization from the
   believed source. Valid because [save] only runs between batches, when
   engine state is derivable from the committed source. *)
let engines_of_persisted validator persisted =
  List.map
    (fun (view, strategy) ->
      (match strategy with
      | Minimal | Psj | Replicate -> ()
      | Aged _ ->
        (* [save] refuses aged views; only a crafted file gets here *)
        err Corrupt_state "view %s: aged views cannot appear in a snapshot"
          view.View.name);
      { view; strategy; engine = build_engine validator strategy view })
    persisted

(* Load a snapshot; also returns the saved pool size so callers can warn
   about the reset (the pool is never restored — see [warn_parallel_reset]). *)
let rec load_with path =
  let ic = try open_in_bin path with Sys_error m -> err Io_error "%s" m in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (* an OS-level read failure (EISDIR, EIO, ...) is operational, not
         verification: it must surface as Io_error, never Corrupt_state *)
      try load_channel path ic with Sys_error m -> err Io_error "%s" m)

and load_channel path ic =
      let total = in_channel_length ic in
      let magic_len = String.length snapshot_magic in
      if total < magic_len then
        err Corrupt_state "%s: truncated header (%d bytes)" path total;
      let header = really_input_string ic magic_len in
      if String.equal header legacy_magic then
        err Incompatible_state
          "%s uses the unchecksummed version-1 format; re-save it with this \
           build"
          path;
      if String.equal header v2_magic then
        err Incompatible_state
          "%s uses the version-2 format without the parallel-pool record; \
           re-save it with this build"
          path;
      let version =
        if String.equal header snapshot_magic then `V5
        else if String.equal header v4_magic then `V4
        else if String.equal header v3_magic then `V3
        else err Corrupt_state "%s is not a warehouse state file" path
      in
      if total - magic_len < 8 then
        err Corrupt_state "%s: truncated frame header" path;
      let frame = really_input_string ic 8 in
      let u32 off =
        Int32.to_int (String.get_int32_le frame off) land 0xffffffff
      in
      let len = u32 0 and crc = u32 4 in
      if len > total - magic_len - 8 then
        err Corrupt_state "%s: truncated payload (%d of %d bytes)" path
          (total - magic_len - 8) len;
      let payload = really_input_string ic len in
      if Checksum.string payload <> crc then
        err Corrupt_state "%s: checksum mismatch" path;
      let decoded =
        match version with
        | `V5 -> (
          match
            (Marshal.from_string payload 0
              : (View.t * strategy) list * Validator.t * Delta.rejection list
                * int * int)
          with
          | decoded -> Some decoded
          | exception _ -> None)
        | `V4 -> (
          match
            (Marshal.from_string payload 0
              : (View.t * strategy) list * Obj.t * legacy_validator
                * Delta.rejection list * int * int)
          with
          | persisted, _source, validator, dead, seq, domains ->
            Some (persisted, of_legacy validator, dead, seq, domains)
          | exception _ -> None)
        | `V3 -> (
          match
            (Marshal.from_string payload 0
              : v3_registered list * Obj.t * legacy_validator
                * Delta.rejection list * int * int)
          with
          | olds, _source, validator, dead, seq, domains ->
            Some
              ( List.map (fun o -> (o.v3_view, o.v3_strategy)) olds,
                of_legacy validator,
                dead,
                seq,
                domains )
          | exception _ -> None)
      in
      match decoded with
      | None ->
        err Corrupt_state "%s: undecodable payload (incompatible build?)" path
      | Some (persisted, validator, dead, seq, parallel_domains) ->
        let views = engines_of_persisted validator persisted in
        ( {
            views;
            validator;
            dead;
            seq;
            wal = None;
            dir = None;
            checkpoint_every = None;
            keep_generations = default_keep_generations;
            parallel = None;
            retry = default_retry;
            dead_cap = None;
            degraded_until = 0;
            backoff = initial_backoff;
            clean_parallel = 0;
            last_commit_s = 0.;
            published = Atomic.make empty_snapshot;
          },
          parallel_domains )

(* The structured warning for the set_parallel/recover interaction: the
   snapshot was taken by a warehouse with a domain pool, but pools are
   runtime-only, so the loaded warehouse is serial until [set_parallel] is
   called again. *)
let warn_parallel_reset path domains =
  if domains > 0 then begin
    Log.warn (fun m ->
        m
          "%s was saved with a %d-domain parallel pool; pools are \
           runtime-only and are not restored — call set_parallel again"
          path domains);
    Telemetry.Counter.one Obs.parallel_resets;
    Telemetry.Trace.event "warehouse.parallel-reset"
      ~attrs:[ ("path", path); ("domains", string_of_int domains) ]
  end

let load path =
  let t, parallel_domains = load_with path in
  warn_parallel_reset path parallel_domains;
  publish_epoch t;
  t

(* --- durability: attach / checkpoint ----------------------------------- *)

let wal_path dir = Filename.concat dir "wal.bin"
let snapshot_path dir = Filename.concat dir "snapshot.bin"
let lineage_path dir = Filename.concat dir "lineage.jsonl"
let workload_profile_path dir = Filename.concat dir "workload_profile.json"

(* --- checkpoint generation chain ---------------------------------------- *)

(* Instead of truncate-on-checkpoint, the warehouse archives the outgoing
   snapshot and its WAL segment under [dir/generations/] with a monotonic
   chain index: [snapshot-<n>.bin] is the state before the checkpoint and
   [wal-<n>.bin] the batches between it and the next snapshot in the chain.
   Recovery can then fall back past an unverifiable snapshot to the newest
   generation that still verifies and replay a longer WAL tail. The index
   is allocated by scanning (max existing + 1), never reused, so a fallback
   recovery can keep checkpointing without clobbering the chain. *)

let generations_dir dir = Filename.concat dir "generations"

let gen_snapshot_path dir n =
  Filename.concat (generations_dir dir) (Printf.sprintf "snapshot-%08d.bin" n)

let gen_wal_path dir n =
  Filename.concat (generations_dir dir) (Printf.sprintf "wal-%08d.bin" n)

(* "snapshot-<n>.bin" / "wal-<n>.bin", nothing else — quarantined copies and
   temp files never parse as chain members. *)
let parse_generation name =
  let indexed prefix =
    let plen = String.length prefix in
    if String.length name > plen && String.equal (String.sub name 0 plen) prefix
    then
      Scanf.sscanf_opt
        (String.sub name plen (String.length name - plen))
        "%d.bin%!" Fun.id
    else None
  in
  match indexed "snapshot-" with
  | Some n -> Some (`Snapshot, n)
  | None -> (
    match indexed "wal-" with Some n -> Some (`Wal, n) | None -> None)

let list_generations dir =
  match Sys.readdir (generations_dir dir) with
  | exception Sys_error _ -> []
  | names -> List.filter_map parse_generation (Array.to_list names)

(* (index, path), ascending chain order *)
let generation_snapshots dir =
  List.filter_map
    (function `Snapshot, n -> Some (n, gen_snapshot_path dir n) | _ -> None)
    (list_generations dir)
  |> List.sort compare

let generation_wals dir =
  List.filter_map
    (function `Wal, n -> Some (n, gen_wal_path dir n) | _ -> None)
    (list_generations dir)
  |> List.sort compare

(* The next chain index: one past the highest index embedded in {e any}
   file of the generations directory — including quarantined copies
   ("snapshot-<n>.bin.quarantine"), which [parse_generation] rejects as
   chain members. A quarantined index must never be reallocated: the
   re-used generation would pair a fresh snapshot with the old index's
   archived [wal-<n>] segment, and the next WAL rotation would clobber
   that segment's committed records. *)
let generation_file_index name =
  let num prefix =
    let plen = String.length prefix in
    if String.length name > plen && String.equal (String.sub name 0 plen) prefix
    then
      Scanf.sscanf_opt
        (String.sub name plen (String.length name - plen))
        "%d" Fun.id
    else None
  in
  match num "snapshot-" with Some n -> Some n | None -> num "wal-"

let next_generation_index dir =
  match Sys.readdir (generations_dir dir) with
  | exception Sys_error _ -> 1
  | names ->
    1
    + Array.fold_left
        (fun acc name ->
          match generation_file_index name with
          | Some n -> max acc n
          | None -> acc)
        0 names

(* Retire everything older than the [keep]-th newest archived snapshot.
   Safe by the chain invariant: sequence numbers grow along the chain, so a
   WAL segment older than the oldest kept snapshot only holds batches that
   snapshot already contains. *)
let prune_generations dir ~keep =
  if keep >= 1 then
    match List.nth_opt (List.rev (generation_snapshots dir)) (keep - 1) with
    | None -> ()
    | Some (cutoff, _) ->
      let stale =
        List.filter (fun (n, _) -> n < cutoff)
          (generation_snapshots dir @ generation_wals dir)
      in
      if stale <> [] then begin
        List.iter
          (fun (_, p) -> try Sys.remove p with Sys_error _ -> ())
          stale;
        Wal.fsync_dir (gen_snapshot_path dir 0)
      end

(* --- lineage ----------------------------------------------------------- *)

let delta_table_counts deltas =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (d : Delta.t) ->
      let n =
        Option.value (Hashtbl.find_opt counts d.Delta.table) ~default:0
      in
      Hashtbl.replace counts d.Delta.table (n + 1))
    deltas;
  Hashtbl.fold (fun tbl n acc -> (tbl, n) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* One lineage record per committed batch, keyed by its WAL sequence
   number. Called only after [commit_engines] (never on the rollback or
   quarantine paths), so every emitted record describes durable state.
   [tables] is the batch's [delta_table_counts]. *)
let emit_lineage t ~seq ~tables =
  if Telemetry.enabled () then
    Telemetry.Lineage.emit
      {
        Telemetry.Lineage.txn = seq;
        tables;
        flows =
          List.filter_map
            (fun r -> Engines.last_flow r.engine)
            (List.rev t.views);
      }

let checkpoint t =
  match (t.dir, t.wal) with
  | Some dir, Some wal ->
    Telemetry.with_phase Obs.checkpoint_seconds "warehouse.checkpoint"
      ~attrs:[ ("dir", dir) ]
      (fun () ->
        let snap = snapshot_path dir in
        let fresh = snap ^ ".new" in
        (* build the new snapshot off to the side: a crash while it is
           written leaves the previous generation fully intact *)
        save t fresh;
        let n =
          if not (t.keep_generations > 0 && Sys.file_exists snap) then None
          else begin
            (try Sys.mkdir (generations_dir dir) 0o755
             with Sys_error _ -> ());
            let n = next_generation_index dir in
            (* the outgoing snapshot becomes generation [n]; its WAL segment
               — the batches between it and the new snapshot — is archived
               under the same index below *)
            Sys.rename snap (gen_snapshot_path dir n);
            Wal.fsync_dir (gen_snapshot_path dir n);
            Wal.fsync_dir snap;
            Some n
          end
        in
        Sys.rename fresh snap;
        (* crash point: the new snapshot is renamed into place but the
           directory entry is not yet durable — a power cut can leave the
           directory without snapshot.bin, which recovery must serve from
           the generation chain plus the still-unrotated WAL *)
        Faults.hit Faults.After_checkpoint_rename;
        Wal.fsync_dir snap;
        (* crash point: new snapshot in place, WAL not yet rotated — replay
           must recognize the WAL's batches as already checkpointed *)
        Faults.hit Faults.Before_wal_truncate;
        (match n with
        | Some n -> Wal.rotate wal ~to_path:(gen_wal_path dir n)
        | None ->
          (* nothing was archived (first checkpoint, or the chain is
             disabled): no older generation needs the replaced records *)
          Wal.truncate wal);
        prune_generations dir ~keep:t.keep_generations;
        (* the workload profile is advisory state: write it beside the WAL
           at every checkpoint, but never fail the checkpoint over it *)
        (try
           Telemetry.Workload.write_profile
             ~path:(workload_profile_path dir)
         with Sys_error _ | Unix.Unix_error _ -> ()))
  | _ ->
    err Not_durable "checkpoint: attach the warehouse to a state directory first"

(* On-demand profile write (the CLI's [minview profile --state] and the
   serve PROFILE verb persist through this). *)
let write_workload_profile t =
  match t.dir with
  | Some dir ->
    let path = workload_profile_path dir in
    Telemetry.Workload.write_profile ~path;
    path
  | None ->
    err Not_durable
      "workload profile: attach the warehouse to a state directory first"

let attach ?checkpoint_every ?keep_generations t ~dir =
  if t.wal <> None then
    err Invalid_request "warehouse is already attached to %s"
      (Option.value t.dir ~default:"a state directory");
  (match Sys.is_directory dir with
  | true -> ()
  | false -> err Io_error "%s exists and is not a directory" dir
  | exception Sys_error _ -> (
    try Sys.mkdir dir 0o755 with Sys_error m -> err Io_error "%s" m));
  t.dir <- Some dir;
  t.checkpoint_every <- checkpoint_every;
  (match keep_generations with
  | Some k when k < 0 ->
    err Invalid_request "attach: keep_generations must be >= 0"
  | Some k -> t.keep_generations <- k
  | None -> ());
  (match Wal.open_append (wal_path dir) with
  | w -> t.wal <- Some w
  | exception Wal.Corrupt m -> err Corrupt_state "%s" m);
  (* lineage records persist next to the WAL commit markers they mirror *)
  Telemetry.Lineage.set_sink (Some (lineage_path dir));
  (* durable from the start: a crash right after attach recovers to here *)
  checkpoint t

let close t =
  Option.iter Wal.close t.wal;
  if t.dir <> None then Telemetry.Lineage.set_sink None;
  t.wal <- None;
  t.dir <- None

(* --- ingestion --------------------------------------------------------- *)

type report = { batch : int; applied : int; rejected : Delta.rejection list }

let dead_letters t = List.rev t.dead
let clear_dead_letters t = t.dead <- []

let set_dead_letter_cap t cap =
  (match cap with
  | Some n when n < 1 ->
    err Invalid_request "set_dead_letter_cap: cap must be >= 1"
  | Some _ | None -> ());
  t.dead_cap <- cap

let quarantine t rejections =
  Telemetry.Counter.inc Obs.quarantined (List.length rejections);
  t.dead <- List.rev_append rejections t.dead;
  match t.dead_cap with
  | Some cap when List.length t.dead > cap ->
    (* graceful overflow: drop the oldest letters (the tail of the
       newest-first list) rather than failing ingestion *)
    let dropped = List.length t.dead - cap in
    t.dead <- List.filteri (fun i _ -> i < cap) t.dead;
    Telemetry.Counter.inc Obs.dead_letters_dropped dropped;
    Log.warn (fun m ->
        m "dead-letter queue over its cap (%d): dropped the %d oldest \
           rejection(s)"
          cap dropped)
  | Some _ | None -> ()

let believed_source t = Validator.believed_source t.validator
let ingested_batches t = t.seq

(* --- transient-fault retry ----------------------------------------------- *)

let jitter_state = lazy (Random.State.make [| 0x6d76; 0x7265 |])

(* Retry a transient durability barrier with jittered exponential backoff.
   Only the barrier itself is ever retried — the WAL frames are already
   staged (or written to the OS), so re-appending would duplicate records.
   Transient faults surface as [Faults.Injected]; anything else, including
   a simulated [Faults.Crash], propagates untouched. *)
let with_retry t ~what f =
  let rec go attempt =
    match f () with
    | () -> ()
    | exception Faults.Injected point ->
      if attempt >= t.retry.attempts then
        err Io_error "%s: transient fault (%s) persisted after %d attempt(s)"
          what (Faults.to_string point) t.retry.attempts;
      Telemetry.Counter.one Obs.ingest_retries;
      let cap =
        Float.min t.retry.max_delay
          (t.retry.base_delay *. (2. ** float_of_int attempt))
      in
      let delay =
        cap *. (0.5 +. Random.State.float (Lazy.force jitter_state) 0.5)
      in
      Log.warn (fun m ->
          m "%s: transient fault (%s); retry %d/%d in %.1f ms" what
            (Faults.to_string point) (attempt + 1) t.retry.attempts
            (delay *. 1000.));
      if delay > 0. then (try Unix.sleepf delay with Unix.Unix_error _ -> ());
      go (attempt + 1)
  in
  go 0

let sync_wal t ~what =
  Option.iter (fun w -> with_retry t ~what (fun () -> Wal.sync w)) t.wal

(* The batch netted once for every incremental view on the compacted path:
   only the tables some of them read, keyed as the shadow keys them. [None]
   when no view takes a netted batch. *)
let net_batch t deltas =
  let takers = List.filter (fun r -> Engines.takes_netted r.engine) t.views in
  if takers = [] then None
  else
    let shadow = Validator.shadow t.validator in
    let key_index tbl =
      if List.exists (fun r -> List.mem tbl r.view.View.tables) takers then
        Some (Relational.Schema.key_index (Database.schema_of shadow tbl))
      else None
    in
    Some (Maintenance.Engine.net ~key_index deltas)

(* Transactional apply, in place: every engine opens an undo journal and
   absorbs the batch directly; a mid-batch failure rolls back only the
   touched groups, so the registered views can never disagree about which
   deltas they have seen — at O(delta) cost. The hot path never deep-copies
   engine state ([Engines.copy] is reserved for snapshot checkpoints). With
   a pool the batch is netted once, inside the transaction (an illegal
   batch fails like an engine would), and dropped with this frame once the
   last engine has used it. *)
let apply_in_place t ~pool deltas =
  List.iter (fun r -> Engines.begin_txn r.engine) t.views;
  let netted = Option.bind pool (fun _ -> net_batch t deltas) in
  List.iteri
    (fun i r ->
      Engines.apply_batch ?parallel:pool ?netted r.engine deltas;
      if i = 0 then Faults.hit Faults.Mid_engine_apply)
    t.views

let commit_engines t = List.iter (fun r -> Engines.commit r.engine) t.views

let rollback_engines t = List.iter (fun r -> Engines.rollback r.engine) t.views

let engine_error_detail = function
  | Maintenance.Engine.Invariant m -> m
  | Maintenance.Shard.Wedged { worker; waited } ->
    Printf.sprintf "shard worker %d wedged after %.3f s" worker waited
  | Faults.Injected p -> "injected fault at " ^ Faults.to_string p
  | Failure m | Invalid_argument m -> m
  | e -> Printexc.to_string e

(* The wedge remedy. After [Shard.Wedged] the abandoned worker domain may
   still be executing the batch against the engines its job closes over —
   OCaml domains cannot be cancelled — so nothing that touches the current
   engine state (rollback, serial re-apply) can run without racing it.
   Instead the old engines are abandoned to the stray domain and every
   registered view gets a fresh engine initialized from the validator's
   committed shadow, exactly like registration: O(state), but paid only on
   a wedge. Call with no validator transaction open (the shadow must be the
   committed source). [Aged] views revert their current/old split to the
   registration predicate — [age_out] placement is not derivable from
   contents alone. *)
let rebuild_engines t =
  t.views <-
    List.map
      (fun r -> { r with engine = build_engine t.validator r.strategy r.view })
      t.views

(* --- supervised apply ---------------------------------------------------- *)

let note_parallel_failure t detail =
  Telemetry.Counter.one Obs.degradations;
  Telemetry.Gauge.set Obs.degraded 1.;
  (* a failure after a long clean parallel streak is fresh bad luck, not a
     recurring problem: forgive the accumulated backoff *)
  if t.clean_parallel >= stable_parallel then t.backoff <- initial_backoff;
  t.degraded_until <- t.backoff;
  t.backoff <- min (t.backoff * 2) max_backoff;
  t.clean_parallel <- 0;
  Log.warn (fun m ->
      m "parallel apply failed (%s): rolled back, degrading to serial for %d \
         batch(es)"
        detail t.degraded_until)

(* Apply one accepted batch under supervision. A parallel attempt whose
   worker raised is rolled back and the batch is re-applied serially; a
   *wedged* worker (deadline blown) re-raises instead — the batch is
   aborted and quarantined by the ingest path and the engines are rebuilt,
   because the stray domain forbids touching them in place. Either way
   ingestion then stays serial until [t.degraded_until] clean batches have
   passed ([note_apply_outcome]). Returns how the batch was finally
   applied. *)
let apply_supervised t deltas =
  match t.parallel with
  | Some pool when t.degraded_until = 0 -> (
    match apply_in_place t ~pool:(Some pool) deltas with
    | () -> `Parallel
    | exception (Faults.Crash _ as crash) -> raise crash
    | exception (Maintenance.Shard.Wedged _ as wedge) ->
      (* the wedged domain may still be executing the batch against the
         engines, so neither an in-place rollback nor a serial re-apply is
         safe here — degrade, and re-raise so ingest routes the batch to
         the quarantine path, which rebuilds the engines instead of
         touching them *)
      note_parallel_failure t (engine_error_detail wedge);
      raise wedge
    | exception e ->
      (* a worker *raised*: the pool drained every worker before
         re-raising, so the engines are quiescent. The failed attempt left
         undo journals open on every engine; close them before the serial
         retry opens fresh ones *)
      rollback_engines t;
      note_parallel_failure t (engine_error_detail e);
      apply_in_place t ~pool:None deltas;
      `Degraded)
  | Some _ ->
    apply_in_place t ~pool:None deltas;
    `Degraded
  | None ->
    apply_in_place t ~pool:None deltas;
    `Serial

(* Post-commit bookkeeping for the degradation clock: every committed
   serial-degraded batch brings re-promotion one step closer. *)
let note_apply_outcome t = function
  | `Serial -> ()
  | `Parallel -> t.clean_parallel <- t.clean_parallel + 1
  | `Degraded ->
    if t.degraded_until > 0 then begin
      t.degraded_until <- t.degraded_until - 1;
      if t.degraded_until = 0 then begin
        Telemetry.Counter.one Obs.promotions;
        Telemetry.Gauge.set Obs.degraded 0.;
        Log.info (fun m ->
            m "degradation period over: re-promoting to parallel apply (next \
               backoff %d batches)"
              t.backoff)
      end
    end

(* [~sync:false] stages the WAL records in the writer's buffer instead of
   fsyncing per batch — the group-commit path of {!ingest_all}, which pays
   one durability barrier for the whole burst. *)
let ingest_report_inner ~sync t deltas =
  Validator.begin_txn t.validator;
  let accepted, rejected =
    List.fold_left
      (fun (acc, rej) d ->
        match Validator.admit t.validator d with
        | Ok d -> (d :: acc, rej)
        | Error r -> (acc, r :: rej))
      ([], []) deltas
  in
  let accepted = List.rev accepted and rejected = List.rev rejected in
  quarantine t rejected;
  if accepted = [] then begin
    Validator.commit t.validator;
    { batch = t.seq; applied = 0; rejected }
  end
  else begin
    let seq = t.seq + 1 in
    (try
       Option.iter
         (fun w ->
           Wal.append ~sync:false w (Wal.Batch { seq; deltas = accepted });
           (* synced: the record is durable and this is the commit point
              (transient fsync faults are absorbed by the retry policy);
              unsynced: the group's final {!Wal.sync} is *)
           if sync then with_retry t ~what:"wal-commit" (fun () -> Wal.sync w);
           Faults.hit Faults.After_wal_append)
         t.wal
     with
    | Faults.Crash _ as crash ->
      (* simulated process death: no cleanup, recovery reloads from disk *)
      raise crash
    | e ->
      (* retry exhaustion (or a Fail-mode injected fault): no engine has
         seen the batch, only the validator transaction is open — close it
         so the next ingest starts clean. The batch frame may already have
         reached the OS even though the barrier failed, so consume the
         sequence number under a best-effort abort marker rather than
         letting replay resurrect a batch the caller was told failed. *)
      Validator.rollback t.validator;
      Option.iter
        (fun w ->
          try
            Wal.append ~sync:false w (Wal.Abort { seq });
            Wal.sync w
          with _ -> ())
        t.wal;
      t.seq <- seq;
      raise e);
    match apply_supervised t accepted with
    | mode ->
      commit_engines t;
      Validator.commit t.validator;
      Telemetry.Counter.one Obs.commits;
      t.seq <- seq;
      t.last_commit_s <- Unix.gettimeofday ();
      note_apply_outcome t mode;
      (* the read-side commit point: concurrent readers switch to the new
         epoch here, atomically; until this set they keep serving the
         previous committed state. Views whose tables the batch did not
         touch carry their captures over. *)
      let tables = delta_table_counts accepted in
      publish_epoch ~touched:(List.map fst tables) t;
      emit_lineage t ~seq ~tables;
      (match t.checkpoint_every with
      | Some n when n > 0 && t.seq mod n = 0 && t.wal <> None -> checkpoint t
      | Some _ | None -> ());
      { batch = seq; applied = List.length accepted; rejected }
    | exception (Faults.Crash _ as crash) ->
      (* a simulated process death: unwind without any cleanup (the open
         journals die with the process; recovery reloads from disk) *)
      raise crash
    | exception e ->
      (* an engine failed mid-batch even after supervision's serial retry:
         roll every engine back to its before-image (engines past the
         failure have empty journals), roll the shadow back, mark the WAL
         record aborted and quarantine the whole batch. A wedged pool is
         the exception: the stray domain may still be mutating the engines,
         so they cannot even be rolled back — abandon them and rebuild
         from the committed shadow instead. *)
      (match e with
      | Maintenance.Shard.Wedged _ ->
        Validator.rollback t.validator;
        Log.warn (fun m ->
            m
              "wedged shard worker: abandoning the live engines to the \
               stray domain and rebuilding them from the believed source");
        rebuild_engines t
      | _ ->
        rollback_engines t;
        Validator.rollback t.validator);
      Telemetry.Counter.one Obs.rollbacks;
      Option.iter
        (fun w ->
          Wal.append ~sync:false w (Wal.Abort { seq });
          if sync then with_retry t ~what:"wal-abort" (fun () -> Wal.sync w))
        t.wal;
      t.seq <- seq;
      let detail = engine_error_detail e in
      let aborted =
        List.map
          (fun d -> { Delta.delta = d; reason = Delta.Engine_failure; detail })
          accepted
      in
      quarantine t aborted;
      { batch = seq; applied = 0; rejected = rejected @ aborted }
  end

let ingest_report_with ~sync t deltas =
  Telemetry.with_phase Obs.ingest_seconds ~alloc:Obs.ingest_alloc
    "warehouse.ingest" (fun () -> ingest_report_inner ~sync t deltas)

let ingest_report t deltas = ingest_report_with ~sync:true t deltas
let ingest t deltas = ignore (ingest_report t deltas)

(* Group commit: every batch of the burst stages its WAL record in the
   writer's buffer; one [Wal.sync] then makes the whole burst durable with a
   single write and fsync. Deferred acknowledgement — a crash inside the
   burst can lose a suffix of the staged batches, but recovery always comes
   back at a batch boundary of the durable prefix, so the resume cursor
   ({!ingested_batches}) stays valid. [in_flight] bounds the exposure: an
   intermediate durability barrier is issued before more than that many
   batches ride on un-fsynced WAL frames. *)
let ingest_all ?(in_flight = 64) t batches =
  if in_flight < 1 then
    err Invalid_request "ingest_all: in_flight must be >= 1";
  let pending = ref 0 in
  let reports =
    List.map
      (fun batch ->
        let r = ingest_report_with ~sync:false t batch in
        incr pending;
        if !pending >= in_flight then begin
          sync_wal t ~what:"wal-group-commit";
          pending := 0
        end;
        r)
      batches
  in
  if !pending > 0 || batches = [] then sync_wal t ~what:"wal-group-commit";
  reports

(* --- recovery ----------------------------------------------------------- *)

(* Replay one committed batch during recovery. The batch was validated when
   first ingested; a failure here (diverged shadow, deterministic engine
   bug) quarantines it instead of making recovery itself fail. *)
let replay_batch t ~seq deltas =
  Telemetry.Counter.one Obs.replayed;
  Validator.begin_txn t.validator;
  let abandon detail =
    (* undoes the admitted prefix of a batch whose validation failed midway *)
    Validator.rollback t.validator;
    quarantine t
      (List.map
         (fun d -> { Delta.delta = d; reason = Delta.Engine_failure; detail })
         deltas)
  in
  (match
     List.find_map
       (fun d ->
         match Validator.admit t.validator d with
         | Ok _ -> None
         | Error r -> Some r)
       deltas
   with
  | Some r -> abandon ("replay validation failed: " ^ r.Delta.detail)
  | None -> (
    match apply_in_place t ~pool:None deltas with
    | () ->
      commit_engines t;
      Validator.commit t.validator;
      emit_lineage t ~seq ~tables:(delta_table_counts deltas)
    | exception (Faults.Crash _ as crash) -> raise crash
    | exception e ->
      rollback_engines t;
      abandon (engine_error_detail e)));
  t.seq <- seq

(* Candidate snapshots, newest first: the live snapshot (if present), then
   the archived generations in descending chain order. The paired index
   decides which WAL segments the snapshot covers ([max_int]: the live
   snapshot is newer than every archived segment). *)
let snapshot_candidates dir =
  let live = snapshot_path dir in
  (if Sys.file_exists live then [ (max_int, live) ] else [])
  @ List.rev (generation_snapshots dir)

(* Quarantine names are never reused: if [path ^ ".quarantine"] already
   holds earlier evidence (a previous fallback of the same path, or of a
   reallocated generation index), a numbered suffix is chosen instead of
   clobbering it — quarantining must never destroy bytes, including bytes
   a previous quarantine preserved. *)
let quarantine_snapshot path =
  let rec fresh n =
    let q =
      if n = 0 then path ^ ".quarantine"
      else Printf.sprintf "%s.quarantine.%d" path n
    in
    if Sys.file_exists q then fresh (n + 1) else q
  in
  let q = fresh 0 in
  (try Sys.rename path q with Sys_error _ -> ());
  Wal.fsync_dir path;
  q

(* Scan one WAL segment recovery replays — the live log, or an archived
   segment the restored snapshot does not cover — under the damage policy:
   - a torn tail on the live log is the expected artifact of a crash during
     an append — salvage it (quarantining the tail) and keep the prefix;
   - any other damage may hide committed batches — refuse, directing the
     operator to [minview repair].
   Segments the snapshot covers are never opened: every record they hold is
   at or below its sequence number. [fsck] still checks them. *)
let read_segment ~live path =
  match Wal.scan path with
  | { Wal.s_damage = None; _ } as s -> s
  | { Wal.s_damage = Some d; _ } as s -> (
    match d.Wal.d_kind with
    | Wal.Torn_write when live ->
      Log.warn (fun m ->
          m "%s: torn tail (%s): salvaging, %d byte(s) quarantined to %s" path
            d.Wal.d_reason d.Wal.d_bytes
            (Wal.quarantine_path path));
      ignore (Wal.salvage path);
      s
    | kind ->
      err Corrupt_state
        "%s: %s at offset %d (%s) may hide committed batches — run `minview \
         repair` to quarantine the damage, accepting the loss"
        path (Wal.damage_kind_label kind) d.Wal.d_offset d.Wal.d_reason)
  | exception Wal.Corrupt m ->
    err Corrupt_state "%s — run `minview repair` to quarantine the file" m

(* Forward declaration break: [recover] needs [attach] (empty-directory
   initialization), which is defined above; nothing else is cyclic. *)

let recover ~dir =
  Telemetry.Trace.with_span "warehouse.recover"
    ~attrs:[ ("dir", dir) ]
    (fun () ->
      let dir_exists =
        try Sys.is_directory dir with Sys_error _ -> false
      in
      (* a missing (or non-directory) state dir keeps the original error
         shape: attempting the load surfaces the OS-level Io_error *)
      if not dir_exists then ignore (load_with (snapshot_path dir));
      let candidates = snapshot_candidates dir in
      if
        candidates = []
        && (not (Sys.file_exists (wal_path dir)))
        && generation_wals dir = []
      then begin
        (* an existing-but-empty state directory is a valid cold start, not
           corruption: initialize it in place *)
        Log.info (fun m ->
            m "%s: empty state directory — initializing a fresh warehouse"
              dir);
        let t = create (Database.create ()) in
        attach t ~dir;
        Telemetry.Counter.one Obs.recoveries;
        t
      end
      else begin
        (* walk the chain newest-first to the first snapshot that verifies;
           remember the first failure so a chain with no survivors reports
           the newest (most relevant) error *)
        let first_failure = ref None in
        let failed = ref [] in
        let rec choose = function
          | [] -> (
            match !first_failure with
            | Some exn -> raise exn
            | None ->
              err Corrupt_state
                "%s holds WAL records but no snapshot to replay them onto"
                dir)
          | (gen, path) :: rest -> (
            match load_with path with
            | t, parallel_domains ->
              warn_parallel_reset path parallel_domains;
              (t, gen, path)
            (* only failed *verification* falls back down the chain: an
               operational failure (EACCES, EMFILE, ...) says nothing about
               the snapshot's integrity, so quarantining it and demoting to
               an older generation would discard good live state — re-raise
               and let the operator retry *)
            | exception
                (Error { kind = Corrupt_state | Incompatible_state; _ } as exn)
              ->
              if Option.is_none !first_failure then first_failure := Some exn;
              failed := path :: !failed;
              choose rest)
        in
        let t, chosen_gen, chosen_path = choose candidates in
        (* only once a fallback has succeeded: move the unverifiable newer
           snapshots aside, so the next checkpoint cannot archive them and
           the next recovery skips them *)
        List.iter
          (fun path ->
            Telemetry.Counter.one Obs.snapshot_fallbacks;
            let q = quarantine_snapshot path in
            Log.warn (fun m ->
                m
                  "%s failed verification: quarantined to %s; falling back \
                   to %s"
                  path q chosen_path))
          !failed;
        (* replay the archived segments from the chosen generation on, in
           chain order, then the live log. An older segment holds only
           batches the snapshot contains (the chain invariant), so it is
           not read; replay stays sequence-guarded all the same *)
        let archived =
          List.filter_map
            (fun (n, p) ->
              if n >= chosen_gen then Some (read_segment ~live:false p)
              else None)
            (generation_wals dir)
        in
        let live = read_segment ~live:true (wal_path dir) in
        let records =
          List.concat_map (fun s -> s.Wal.s_records) (archived @ [ live ])
        in
        let aborted =
          List.filter_map
            (function Wal.Abort { seq } -> Some seq | Wal.Batch _ -> None)
            records
        in
        (* restore the persisted workload profile before replay — the same
           snapshot + WAL discipline as the data: replay re-feeds the
           sketches with post-checkpoint batches on top of the restored
           counts. (After a generation fallback the profile may predate the
           chosen snapshot and over-count the replayed span; the sketches'
           estimates remain upper bounds, so that is acceptable drift.) *)
        (try
           ignore
             (Telemetry.Workload.load_profile
                ~path:(workload_profile_path dir))
         with Sys_error _ -> ());
        (* open the sink before replay so replayed batches leave their
           lineage records in the same file as live ingestion *)
        Telemetry.Lineage.set_sink (Some (lineage_path dir));
        List.iter
          (function
            | Wal.Abort { seq } -> t.seq <- max t.seq seq
            | Wal.Batch { seq; deltas } ->
              if seq > t.seq && not (List.mem seq aborted) then
                replay_batch t ~seq deltas
              else t.seq <- max t.seq seq)
          records;
        t.dir <- Some dir;
        (* the live log was scanned, and a torn tail salvaged, above: its
           writer opens from that scan *)
        (match Wal.open_scanned (wal_path dir) live with
        | w -> t.wal <- Some w
        | exception Wal.Corrupt m -> err Corrupt_state "%s" m);
        (* one publication for the whole recovery, not one per replayed
           batch: readers only ever see the fully recovered state *)
        publish_epoch t;
        Telemetry.Counter.one Obs.recoveries;
        t
      end)

(* --- fsck / repair ------------------------------------------------------- *)

type fsck_entry = {
  f_file : string;  (** relative to the state directory *)
  f_ok : bool;
  f_detail : string;
}

type fsck_report = {
  fsck_entries : fsck_entry list;
  fsck_recoverable : bool;
  fsck_clean : bool;
}

let rel dir path =
  let prefix = dir ^ Filename.dir_sep in
  if String.starts_with ~prefix path then
    String.sub path (String.length prefix)
      (String.length path - String.length prefix)
  else path

let verify_snapshot path =
  match load_with path with
  | t, _ -> Ok t.seq
  | exception Error { detail; _ } -> Error detail

let describe_wal path =
  match Wal.scan path with
  | { Wal.s_records; s_damage = None; _ } ->
    Ok
      (Printf.sprintf "%d record(s)%s" (List.length s_records)
         (match List.rev s_records with
         | last :: _ -> Printf.sprintf ", through batch %d" (Wal.seq_of last)
         | [] -> ""))
  | { Wal.s_records; s_damage = Some d; _ } ->
    Error
      (Printf.sprintf "%s at offset %d: %s (%d intact record(s) before it)"
         (Wal.damage_kind_label d.Wal.d_kind)
         d.Wal.d_offset d.Wal.d_reason (List.length s_records))
  | exception Wal.Corrupt m -> Error m

let require_state_dir dir =
  if not (try Sys.is_directory dir with Sys_error _ -> false) then
    err Io_error "%s: not a state directory" dir

let fsck ~dir =
  require_state_dir dir;
  let entry file = function
    | Ok detail -> { f_file = file; f_ok = true; f_detail = detail }
    | Error detail -> { f_file = file; f_ok = false; f_detail = detail }
  in
  let snap = snapshot_path dir in
  let verified path =
    entry (rel dir path)
      (Result.map (Printf.sprintf "verified, batch %d") (verify_snapshot path))
  in
  let snap_entries =
    if Sys.file_exists snap then
      verified snap :: List.rev_map (fun (_, p) -> verified p)
                         (generation_snapshots dir)
    else if
      Sys.file_exists (wal_path dir)
      || generation_snapshots dir <> []
      || generation_wals dir <> []
    then
      {
        f_file = rel dir snap;
        f_ok = false;
        f_detail = "missing (recovery falls back to the generation chain)";
      }
      :: List.rev_map (fun (_, p) -> verified p) (generation_snapshots dir)
    else []
  in
  let wal_entries =
    List.map
      (fun (_, p) -> entry (rel dir p) (describe_wal p))
      (generation_wals dir)
    @
    if Sys.file_exists (wal_path dir) then
      [ entry (rel dir (wal_path dir)) (describe_wal (wal_path dir)) ]
    else []
  in
  let entries = snap_entries @ wal_entries in
  let have_snapshot = List.exists (fun e -> e.f_ok) snap_entries in
  {
    fsck_entries = entries;
    fsck_recoverable = have_snapshot || entries = [];
    fsck_clean =
      List.for_all (fun e -> e.f_ok) entries
      && (have_snapshot || entries = []);
  }

type repair_report = {
  repair_actions : (string * string) list;
      (** (file relative to the state dir, what was done) *)
  repair_recoverable : bool;
}

let repair ~dir =
  require_state_dir dir;
  let actions = ref [] in
  let act file what = actions := (rel dir file, what) :: !actions in
  (* WAL segments first: salvage damaged tails (quarantining the bad bytes),
     quarantine wholly unreadable files *)
  let heal_wal path =
    if Sys.file_exists path then
      match Wal.scan path with
      | { Wal.s_damage = None; _ } -> ()
      | { Wal.s_damage = Some d; _ } ->
        ignore (Wal.salvage path);
        act path
          (Printf.sprintf "salvaged: %d byte(s) of %s tail quarantined to %s"
             d.Wal.d_bytes
             (Wal.damage_kind_label d.Wal.d_kind)
             (rel dir (Wal.quarantine_path path)))
      | exception Wal.Corrupt _ ->
        let q = path ^ ".quarantine" in
        (try Sys.rename path q with Sys_error _ -> ());
        Wal.fsync_dir path;
        act path ("unreadable: quarantined to " ^ rel dir q)
  in
  List.iter (fun (_, p) -> heal_wal p) (generation_wals dir);
  heal_wal (wal_path dir);
  (* snapshots: quarantine the unverifiable ones; at least one must survive
     (or the directory must end up empty) for the store to be recoverable *)
  let heal_snapshot path =
    match verify_snapshot path with
    | Ok _ -> true
    | Error detail ->
      let q = quarantine_snapshot path in
      act path
        (Printf.sprintf "unverifiable (%s): quarantined to %s" detail
           (rel dir q));
      false
  in
  let survivors =
    List.filter heal_snapshot
      ((if Sys.file_exists (snapshot_path dir) then [ snapshot_path dir ]
        else [])
      @ List.map snd (generation_snapshots dir))
  in
  let empty =
    survivors = []
    && (not (Sys.file_exists (wal_path dir)))
    && generation_wals dir = []
  in
  {
    repair_actions = List.rev !actions;
    repair_recoverable = survivors <> [] || empty;
  }

(* --- audit ------------------------------------------------------------- *)

let full_audit reference r =
  let got = Engines.view_contents r.engine in
  let expected = Algebra.Eval.eval reference r.view in
  Relation.equal got expected

let audit ?sample t ~reference =
  List.rev_map
    (fun r ->
      let ok =
        match sample with
        | Some k -> (
          (* the continuous drift auditor: recompute [k] sampled group
             keys from the retained detail and cross-check the maintained
             view; engines without retained detail (full replicas,
             partitioned views) fall back to the full comparison *)
          match Engines.self_audit ~sample:k r.engine with
          | Some (_checked, divergences) -> divergences = 0
          | None -> full_audit reference r)
        | None -> full_audit reference r
      in
      (r.view.View.name, ok))
    t.views

let self_audit t ~sample =
  List.rev
    (List.filter_map
       (fun r ->
         Option.map
           (fun (checked, divergences) ->
             (r.view.View.name, checked, divergences))
           (Engines.self_audit ~sample r.engine))
       t.views)

(* --- attribution ------------------------------------------------------- *)

type reconciliation = {
  rec_view : string;
  rec_aux : string;
  rec_base : string;
  measured_resident : int;
  gauge_resident : int;
  measured_detail : int;
  gauge_detail : int;
  consistent : bool;  (** both deltas within the +-1 row tolerance *)
}

let attribution t =
  let source = believed_source t in
  List.filter_map
    (fun r ->
      Option.map
        (fun d ->
          (r.view.View.name, Mindetail.Attribution.measure source d))
        (Engines.derivation r.engine))
    (List.rev t.views)

(* Reconcile the recomputed attribution against the live aux gauges the
   maintenance engines publish: the waterfall's survivor counts must land
   within one row of what incremental maintenance actually stores.
   Meaningful only while telemetry is enabled (the gauges self-gate). *)
let reconcile_attribution t =
  if not (Telemetry.enabled ()) then []
  else
    List.concat_map
      (fun (view_name, attrs) ->
        List.filter_map
          (fun (a : Mindetail.Attribution.t) ->
            if not a.Mindetail.Attribution.retained then None
            else begin
              let labels =
                [
                  ("view", view_name);
                  ("aux", a.Mindetail.Attribution.aux);
                  ("base", a.Mindetail.Attribution.table);
                ]
              in
              let gauge name =
                int_of_float
                  (Float.round
                     (Telemetry.Gauge.value (Telemetry.Gauge.make ~labels name)))
              in
              let gauge_resident = gauge "minview_aux_resident_rows" in
              let gauge_detail = gauge "minview_aux_detail_rows" in
              let measured_resident = a.Mindetail.Attribution.resident_rows in
              let measured_detail = a.Mindetail.Attribution.rows_after_join in
              Some
                {
                  rec_view = view_name;
                  rec_aux = a.Mindetail.Attribution.aux;
                  rec_base = a.Mindetail.Attribution.table;
                  measured_resident;
                  gauge_resident;
                  measured_detail;
                  gauge_detail;
                  consistent =
                    abs (measured_resident - gauge_resident) <= 1
                    && abs (measured_detail - gauge_detail) <= 1;
                }
            end)
          attrs)
      (attribution t)

(* --- report ------------------------------------------------------------ *)

let report t =
  let buf = Buffer.create 1024 in
  let named =
    List.filter_map
      (fun r ->
        Option.map
          (fun d -> (r.view.View.name, d))
          (Engines.derivation r.engine))
      (List.rev t.views)
  in
  if List.length named > 1 then begin
    Buffer.add_string buf "#### sharing across summary tables\n";
    Buffer.add_string buf (Mindetail.Sharing.report named);
    Buffer.add_char buf '\n'
  end;
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "#### view %s [%s]\n" r.view.View.name
           (strategy_name r.strategy));
      (match Engines.derivation r.engine with
      | Some d -> Buffer.add_string buf (Mindetail.Explain.report d)
      | None -> Buffer.add_string buf "(full replica of referenced tables)\n");
      Buffer.add_string buf "detail storage:\n";
      Buffer.add_string buf
        (Storage.render_profile Storage.paper_model
           (Engines.detail_profile r.engine));
      Buffer.add_char buf '\n')
    (List.rev t.views);
  Buffer.contents buf
