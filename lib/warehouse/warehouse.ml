module Storage = struct
  let bytes ~rows ~fields = rows * fields * 4

  (* layout ballast, never called (EXPERIMENTS.md E42, ROADMAP item 22) *)
  let _ballast x y =
    (x * 3) + (y lsr 2) + (x lxor y) + (y * 5) + (x * 7) + (y lsr 3) + (x * 11)
    + (y * 13) + 1

  let show_bytes n =
    let f = float_of_int n in
    let kib = 1024. in
    if f >= kib ** 3. then Printf.sprintf "%.1f GB" (f /. (kib ** 3.))
    else if f >= kib ** 2. then Printf.sprintf "%.1f MB" (f /. (kib ** 2.))
    else if f >= kib then Printf.sprintf "%.1f KB" (f /. kib)
    else Printf.sprintf "%d B" n

  let profile_bytes profile =
    List.fold_left
      (fun acc (_, rows, fields) -> acc + bytes ~rows ~fields)
      0 profile

  let render_profile profile =
    let rows =
      List.map
        (fun (name, rows, fields) ->
          [
            name; string_of_int rows; string_of_int fields;
            show_bytes (bytes ~rows ~fields);
          ])
        profile
      @ [ [ "TOTAL"; ""; ""; show_bytes (profile_bytes profile) ] ]
    in
    Relational.Table_printer.render
      ~header:[ "object"; "rows"; "fields"; "size" ]
      rows
end

module Checksum = Checksum
module Snapshot = Snapshot
module Wal = Wal
module Durable = Durable
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
      ~help:
        "Batches aborted: a failed WAL barrier, an engine failure or a \
         rejected replay"
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

  let snapshot_fallbacks =
    Telemetry.Counter.make
      ~help:
        "Recoveries that fell back past an unverifiable snapshot to an \
         older generation"
      "minview_warehouse_snapshot_fallbacks_total"

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
  | Corrupt_state
  | Incompatible_state
  | Not_durable
  | Io_error
  | Invalid_request

exception Error of { kind : error_kind; detail : string }

let kind_label = function
  | Duplicate_view -> "duplicate-view"
  | Unknown_view -> "unknown-view"
  | Corrupt_state -> "corrupt-state"
  | Incompatible_state -> "incompatible-state"
  | Not_durable -> "not-durable"
  | Io_error -> "io-error"
  | Invalid_request -> "invalid-request"

let err kind fmt =
  Format.kasprintf (fun detail -> raise (Error { kind; detail })) fmt

(* The boundary where a failed file operation ([Durable] raises
   [Sys_error]) becomes [Error Io_error], and a [Snapshot] failure the
   warehouse's. *)
let io f =
  try f () with
  | Sys_error m -> err Io_error "%s" m
  | Snapshot.Corrupt m -> err Corrupt_state "%s" m
  | Snapshot.Incompatible m -> err Incompatible_state "%s" m

(* --- state ------------------------------------------------------------- *)

type strategy = Snapshot.strategy = Minimal | Psj | Replicate

type registered = {
  view : View.t;
  strategy : strategy;
  engine : Engines.t;
}

(* --- read epochs -------------------------------------------------------- *)

(* One view's state frozen into an epoch: the output columns and its rows
   in canonical order, an array never mutated after publication
   ([Engines.publish] builds each one fresh and reuses it only as the basis
   of the next), and — once a reader has asked for the view's lines — the
   rows rendered as a QUERY body. [snap_read] is one cell shared by every
   epoch of the view: the first line read sets it, and from the next
   publication on every epoch carries its lines, rendered only for the rows
   that publication changed ([Lines.render]). *)
type view_snap = {
  snap_view : View.t;
  snap_columns : string list;
  snap_rows : (Tuple.t * int) array;
  snap_lines : Lines.t option;  (** [None]: rendered per read, on the fly *)
  snap_read : bool Atomic.t;
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

(* Archived checkpoint generations kept beside the live snapshot. *)
let archived_generations = 2

type t = {
  mutable views : registered list;  (** newest first *)
  validator : Validator.t;
  mutable dead : Delta.rejection list;  (** newest first *)
  mutable seq : int;  (** WAL-recorded batches (committed or aborted) *)
  mutable wal : Wal.writer option;
  mutable dir : string option;
  (* [dir/lineage.jsonl] while attached; runtime-only *)
  mutable lineage : Telemetry.Jsonl_sink.t option;
  (* the key table every batch is netted through; runtime-only *)
  net_keys : Relational.Delta_batch.keys;
  (* the published read epoch: runtime-only (readers may be concurrent
     domains, so the cell must be an [Atomic.t]); never marshaled —
     [load]/[recover] republish from the restored engines *)
  published : snapshot Atomic.t;
  (* the writer's staging for the lines a publication renders: it keeps
     the capacity of the largest body yet, no more than one epoch's lines
     of one view; runtime-only *)
  line_scratch : Buffer.t;
}

let empty_snapshot = { epoch = 0; epoch_seq = 0; epoch_views = [] }

(* The one constructor: [create] and [load] supply the persisted fields,
   every runtime-only one starts here. *)
let make ~views ~validator ~dead ~seq =
  {
    views;
    validator;
    dead;
    seq;
    wal = None;
    dir = None;
    lineage = None;
    net_keys = Relational.Delta_batch.keys ();
    published = Atomic.make empty_snapshot;
    line_scratch = Buffer.create 4096;
  }

let create source =
  make ~views:[] ~validator:(Validator.of_database source) ~dead:[] ~seq:0

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
   touched.

   A view a reader has asked lines of gets them here: the rows the engine
   kept from the previous publication ([==] the previous epoch's) take
   their lines from it, and only the others are rendered. *)
let publish_epoch ?touched t =
  let prev = Atomic.get t.published in
  let snap r =
    let old =
      List.find_opt
        (fun vs -> String.equal vs.snap_view.View.name r.view.View.name)
        prev.epoch_views
    in
    let untouched =
      match touched with
      | Some tables ->
        not (List.exists (fun tbl -> List.mem tbl r.view.View.tables) tables)
      | None -> false
    in
    match old with
    | Some vs
      when untouched
           && (Option.is_some vs.snap_lines || not (Atomic.get vs.snap_read))
      ->
      vs
    | Some _ | None ->
      let read =
        match old with Some vs -> vs.snap_read | None -> Atomic.make false
      in
      let rows =
        match old with
        | Some vs when untouched -> vs.snap_rows
        | Some _ | None -> Engines.publish r.engine
      in
      let lines =
        if not (Atomic.get read) then None
        else
          let prev =
            Option.bind old (fun vs ->
                Option.map (fun l -> (vs.snap_rows, l)) vs.snap_lines)
          in
          Some (Lines.render ~scratch:t.line_scratch ?prev rows)
      in
      {
        snap_view = r.view;
        snap_columns = Algebra.Eval.output_columns r.view;
        snap_rows = rows;
        snap_lines = lines;
        snap_read = read;
      }
  in
  (* [t.views] is newest-first; rev_map restores registration order *)
  let epoch_views = List.rev_map snap t.views in
  Atomic.set t.published
    { epoch = prev.epoch + 1; epoch_seq = t.seq; epoch_views };
  Telemetry.Counter.one Obs.epoch_publications;
  (* the off-heap gauge, on the writer domain: a no-op unless an exporter
     registered a source ([publish_offheap]) *)
  Telemetry.Runtime.sample_offheap ()

let set_parallel _ _ = ()

(* --- health and runtime profiling hooks --------------------------------- *)

let wal_attached t = t.wal <> None

let offheap_bytes t =
  List.fold_left (fun acc r -> acc + Engines.offheap_bytes r.engine) 0 t.views

let publish_offheap t =
  Telemetry.Runtime.set_offheap_source (Some (fun () -> offheap_bytes t))

(* The /healthz check: it fails in the one state in which [ingest]
   refuses every batch, a state directory whose log failed and was not
   replaced. Exporter-domain reads of the writer's mutable fields are racy
   by design: a stale answer is at most one batch old, and every read is a
   single word (no torn state). *)
let health t =
  let ok, detail =
    match (t.dir, t.wal) with
    | _, Some _ -> (true, "attached")
    | None, None -> (true, "not attached")
    | Some _, None -> (false, "the log failed and was not replaced")
  in
  [
    {
      Telemetry.Http_exporter.check_name = "wal";
      check_ok = ok;
      check_detail = detail;
    };
  ]

(* Registration-time initialization of a view's engine from the validator's
   committed shadow, the warehouse's belief of the current source. Engines
   only read it (a [Replicate] engine copies it), so it is read in place:
   an incremental engine loads its auxiliary views from it, then seeds the
   view from the root auxiliary view when that is retained, or from the
   root base rows compressed the same way when it is eliminated
   ([Engine.init]).
   Registration builds its one engine inline; [load]/[recover] build them
   all through [build_engines]. *)
let build_engine validator strategy view =
  let source = Validator.shadow validator in
  match strategy with
  | Minimal -> Engines.minimal source view
  | Psj -> Engines.psj source view
  | Replicate -> Engines.recompute source view

(* The registrations of [specs] (view and strategy, newest first, as
   [t.views] keeps them), their engines built at once on one domain per
   core ([Shard.fan_out]), in registration order: Algorithm 3.2 derives
   each view's auxiliary views from that view alone, and every build only
   reads the shared shadow. A failed build re-raises what the serial loop
   would have raised first. The engines are announced afterwards, from
   this domain, in registration order. *)
let build_engines validator specs =
  let specs = Array.of_list (List.rev specs) in
  let n = Array.length specs in
  let engines =
    Maintenance.Shard.fan_out
      ~domains:(Maintenance.Shard.fan_out_domains n)
      n
      (fun i ->
        let view, strategy = specs.(i) in
        build_engine validator strategy view)
  in
  Array.iter Engines.announce engines;
  List.rev
    (Array.to_list
       (Array.mapi
          (fun i (view, strategy) -> { view; strategy; engine = engines.(i) })
          specs))

let add_view ?(strategy = Minimal) t view =
  if
    List.exists
      (fun r -> String.equal r.view.View.name view.View.name)
      t.views
  then err Duplicate_view "a view named %s is already registered" view.View.name;
  let engine = build_engine t.validator strategy view in
  Engines.announce engine;
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

let read_lines ?snapshot t name =
  let t0 = Unix.gettimeofday () in
  let s =
    match snapshot with Some s -> s | None -> Atomic.get t.published
  in
  let vs = find_snap s name in
  if not (Atomic.get vs.snap_read) then Atomic.set vs.snap_read true;
  let lines =
    match vs.snap_lines with
    | Some l -> l
    | None -> Lines.render ~scratch:(Buffer.create 4096) vs.snap_rows
  in
  observe_read t s (Unix.gettimeofday () -. t0);
  (vs.snap_columns, Lines.count lines, Lines.body lines)

let epoch_lines s name = Option.map Lines.body (find_snap s name).snap_lines

let query ?snapshot t name =
  let columns, rows = read_sorted ?snapshot t name in
  (columns, Relation.of_list (Array.to_list rows))

let query_sorted t name =
  let columns, rows = read_sorted t name in
  (columns, Array.to_list rows)

let derivation_of t name = Engines.derivation (find t name).engine

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

(* --- persistence ------------------------------------------------------- *)

let save t path =
  io @@ fun () ->
  Snapshot.save
    {
      Snapshot.views = List.map (fun r -> (r.view, r.strategy)) t.views;
      shadow = Validator.shadow t.validator;
      dead = t.dead;
      seq = t.seq;
    }
    path

let decode path = io @@ fun () -> Snapshot.decode path

(* Restore the snapshot decoded from [path]: rebuild every engine from the
   restored shadow — registration-time initialization from the believed
   source, every view at once ([build_engines]). Engines are never saved:
   snapshots are taken between batches, when every engine is a pure
   function of the validator's committed shadow (the audit verb checks
   exactly this). *)
let restore (d : Snapshot.contents) =
  let validator = Validator.of_shadow d.shadow in
  let views = build_engines validator d.views in
  make ~views ~validator ~dead:d.dead ~seq:d.seq

let load path =
  let t = restore (decode path) in
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

(* A file of the generations directory named "snapshot-<n>..." or
   "wal-<n>...": its kind, its index, and whether it is a chain member —
   named exactly "snapshot-<n>.bin" or "wal-<n>.bin"; quarantined copies
   and temp files are not. *)
let parse_generation name =
  let indexed fmt =
    Scanf.sscanf_opt name fmt (fun n at ->
        (n, String.equal (String.sub name at (String.length name - at)) ".bin"))
  in
  match indexed "snapshot-%d%n" with
  | Some (n, member) -> Some (`Snapshot, n, member)
  | None -> Option.map (fun (n, member) -> (`Wal, n, member)) (indexed "wal-%d%n")

let generation_files dir =
  match Sys.readdir (generations_dir dir) with
  | exception Sys_error _ -> []
  | names -> List.filter_map parse_generation (Array.to_list names)

(* (index, path) of the chain members of [kind], ascending chain order *)
let chain dir kind path =
  List.filter_map
    (function k, n, true when k = kind -> Some (n, path dir n) | _ -> None)
    (generation_files dir)
  |> List.sort compare

let generation_snapshots dir = chain dir `Snapshot gen_snapshot_path
let generation_wals dir = chain dir `Wal gen_wal_path

(* The next chain index: one past the highest index embedded in {e any}
   file of the generations directory — including quarantined copies
   ("snapshot-<n>.bin.quarantine"), which are not chain members. A
   quarantined index must never be reallocated: the re-used generation
   would pair a fresh snapshot with the old index's archived [wal-<n>]
   segment, and the next WAL rotation would clobber that segment's
   committed records. *)
let next_generation_index dir =
  List.fold_left (fun acc (_, n, _) -> max acc (n + 1)) 1 (generation_files dir)

(* Retire everything older than the [archived_generations]-th newest
   archived snapshot. Safe by the chain invariant: sequence numbers grow
   along the chain, so a WAL segment older than the oldest kept snapshot
   only holds batches that snapshot already contains. *)
let prune_generations dir =
  match
    List.nth_opt
      (List.rev (generation_snapshots dir))
      (archived_generations - 1)
  with
  | None -> ()
  | Some (cutoff, _) ->
    let stale =
      List.filter (fun (n, _) -> n < cutoff)
        (generation_snapshots dir @ generation_wals dir)
    in
    if stale <> [] then
      try
        List.iter (fun (_, p) -> Durable.remove p) stale;
        Durable.fsync_dir (gen_snapshot_path dir 0)
      with Sys_error m ->
        (* a stale generation left behind only costs disk space, and the
           next checkpoint prunes it again: warn, and let the checkpoint
           that made it stale stand *)
        Log.warn (fun f -> f "%s: pruning stale generations: %s" dir m)

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
    Telemetry.Lineage.emit ~sink:t.lineage
      {
        Telemetry.Lineage.txn = seq;
        tables;
        flows =
          List.filter_map
            (fun r -> Engines.last_flow r.engine)
            (List.rev t.views);
      }

(* Stop writing to the log: after [checkpoint] has replaced it, or when a
   write or barrier of it failed, so that what reached its disk is
   unknown. *)
let drop_log t =
  Option.iter Wal.close t.wal;
  t.wal <- None

(* [failed], when given, is the batch that failed the log this checkpoint
   replaces: the log is archived with an abort marker for it. *)
let rotate ?failed t =
  match t.dir with
  | Some dir ->
    Telemetry.with_phase Obs.checkpoint_seconds "warehouse.checkpoint"
      ~attrs:[ ("dir", dir) ]
      (fun () ->
        io @@ fun () ->
        let snap = snapshot_path dir in
        let fresh = snap ^ ".new" in
        (* build the new snapshot off to the side: a crash while it is
           written leaves the previous generation fully intact *)
        save t fresh;
        let n =
          if not (Sys.file_exists snap) then None
          else begin
            Durable.mkdir (generations_dir dir);
            let n = next_generation_index dir in
            (* the outgoing snapshot becomes generation [n]; its WAL segment
               — the batches between it and the new snapshot — is archived
               under the same index below *)
            Durable.rename snap (gen_snapshot_path dir n);
            Some n
          end
        in
        (* a crash from here on leaves the new snapshot, or (before the
           directory fsync) the generation chain, plus the unrotated WAL *)
        Durable.rename fresh snap;
        (* the snapshot holds every record of the log, which restarts
           empty. The old log is archived beside the outgoing snapshot;
           without one (the first checkpoint) no older snapshot needs its
           records. Until [Wal.create] returns the warehouse has no log,
           and a failure leaves it without one until a checkpoint
           succeeds; [wal] is missing only when such a failure had already
           archived it. A failed log is archived with an abort marker for
           its failed batch, so a recovery that falls back to generation
           [n] does not replay that batch. *)
        drop_log t;
        let wal = wal_path dir in
        (match n with
        | Some n when Sys.file_exists wal -> (
          match failed with
          | None -> Durable.rename wal (gen_wal_path dir n)
          | Some seq -> Wal.archive_failed wal ~dst:(gen_wal_path dir n) ~seq)
        | Some _ | None -> ());
        t.wal <- Some (Wal.create wal);
        prune_generations dir;
        (* the workload profile is advisory state: write it beside the WAL
           at every checkpoint, but never fail the checkpoint over it *)
        try
          Telemetry.Workload.write_profile ~path:(workload_profile_path dir)
        with Sys_error _ | Unix.Unix_error _ -> ())
  | None ->
    err Not_durable "checkpoint: attach the warehouse to a state directory first"

let checkpoint t = rotate t

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

(* The warehouse's lineage records persist next to the WAL commit markers
   they mirror, in its own state directory. *)
let open_lineage t dir =
  Option.iter Telemetry.Jsonl_sink.close t.lineage;
  t.lineage <- Some (Telemetry.Jsonl_sink.open_ (lineage_path dir))

let attach t ~dir =
  if t.wal <> None then
    err Invalid_request "warehouse is already attached to %s"
      (Option.value t.dir ~default:"a state directory");
  (match Sys.is_directory dir with
  | true -> ()
  | false -> err Io_error "%s exists and is not a directory" dir
  | exception Sys_error _ -> io (fun () -> Durable.mkdir dir));
  t.dir <- Some dir;
  (match io (fun () -> Wal.open_append (wal_path dir)) with
  | w -> t.wal <- Some w
  | exception Wal.Corrupt m -> err Corrupt_state "%s" m);
  open_lineage t dir;
  (* durable from the start: a crash right after attach recovers to here *)
  checkpoint t

let close t =
  drop_log t;
  Option.iter Telemetry.Jsonl_sink.close t.lineage;
  t.lineage <- None;
  t.dir <- None

(* --- ingestion --------------------------------------------------------- *)

type report = { batch : int; applied : int; rejected : Delta.rejection list }

let dead_letters t = List.rev t.dead

let quarantine t rejections =
  Telemetry.Counter.inc Obs.quarantined (List.length rejections);
  t.dead <- List.rev_append rejections t.dead

let believed_source t = Validator.believed_source t.validator
let ingested_batches t = t.seq

(* The batch netted once for every view: only the tables some view reads,
   keyed as the shadow keys them. An incremental view takes its tables
   from it; the others apply the raw batch. *)
let net_batch t deltas =
  let shadow = Validator.shadow t.validator in
  let key_index tbl =
    if List.exists (fun r -> List.mem tbl r.view.View.tables) t.views then
      Some (Relational.Schema.key_index (Database.schema_of shadow tbl))
    else None
  in
  Maintenance.Engine.net t.net_keys ~key_index deltas

(* Transactional apply, in place: every engine opens an undo journal and
   absorbs the batch directly; a mid-batch failure rolls back only the
   touched groups, so the registered views can never disagree about which
   deltas they have seen — at O(delta) cost. No engine state is ever
   copied: the engines have no copy operation. The batch is netted once,
   inside the transaction (an illegal batch fails like an engine would),
   through the warehouse's key table, and every incremental view reads
   that netting. *)
let apply_in_place t deltas =
  List.iter (fun r -> Engines.begin_txn r.engine) t.views;
  let netted = net_batch t deltas in
  List.iteri
    (fun i r ->
      Engines.apply_batch ~netted r.engine deltas;
      if i = 0 then Faults.hit Faults.Mid_engine_apply)
    t.views;
  Relational.Delta_batch.release netted

let commit_engines t = List.iter (fun r -> Engines.commit r.engine) t.views

(* Engines the batch never reached (a failed WAL barrier, a replayed batch
   the validator refused) have no transaction open, and nothing to undo. *)
let rollback_engines t =
  List.iter
    (fun r -> if Engines.in_txn r.engine then Engines.rollback r.engine)
    t.views

let failure_detail = function
  | Error { detail; _ } -> detail
  | Maintenance.Engine.Invariant m -> m
  | Faults.Injected p -> "injected fault at " ^ Faults.to_string p
  | Failure m | Invalid_argument m | Sys_error m -> m
  | Wal.Unencodable m -> "the batch cannot be logged: " ^ m
  | e -> Printexc.to_string e

(* The log failed (see [drop_log], which the caller has called): replace
   it the way [checkpoint] does — a snapshot of the committed state, whose
   sequence number covers the failed batch, then a fresh, empty log — and
   raise [Io_error]. Were the failed frame to reach the disk after all,
   [recover] would not replay it past that snapshot, nor from the archived
   log, which ends in an abort marker for it. If the checkpoint fails too,
   the warehouse keeps no log and refuses to ingest until a checkpoint
   succeeds. *)
let replace_failed_log t ~seq detail =
  Log.warn (fun m -> m "batch %d: %s; replacing the log" seq detail);
  (match rotate ~failed:seq t with
  | () -> ()
  | exception Error { detail = why; _ } ->
    err Io_error
      "batch %d: %s; replacing the log failed too (%s): no batch is \
       ingested until a checkpoint succeeds"
      seq detail why);
  err Io_error "batch %d: %s" seq detail

(* The one exit of a batch that does not commit: a failed WAL write or
   barrier, an engine failure or a replayed batch the validator refuses.
   Engines with an open transaction roll back to their before-image (those
   past the failure have empty journals). The validator rolls back, batch [seq]'s number is consumed and the whole batch is
   quarantined as [Engine_failure]; then, when a log is attached, an
   [Abort] marker keeps replay from resurrecting a batch whose frame is
   already in the log. A failed marker write fails the log like a failed
   batch record. Returns the quarantined rejections. *)
let abort t ~seq deltas cause =
  rollback_engines t;
  Validator.rollback t.validator;
  Telemetry.Counter.one Obs.rollbacks;
  t.seq <- seq;
  let detail = failure_detail cause in
  let aborted =
    List.map
      (fun d -> { Delta.delta = d; reason = Delta.Engine_failure; detail })
      deltas
  in
  quarantine t aborted;
  Option.iter
    (fun w ->
      match Wal.append w (Wal.Abort { seq }) with
      | () -> ()
      | exception (Faults.Crash _ as crash) -> raise crash
      | exception e ->
        drop_log t;
        replace_failed_log t ~seq
          ("the WAL abort marker failed: " ^ failure_detail e))
    t.wal;
  aborted

(* The one commit path, shared by ingestion and WAL replay: batch [seq],
   whose [deltas] the caller admitted under an open validator transaction,
   is written and fsynced to the WAL when a log is attached, applied in
   place, and committed in every engine and the validator; then
   [t.seq] advances and the batch's lineage record is emitted. Replay
   writes nothing: the writer opens only after it. Both net the batch
   once ([apply_in_place]), so a replayed batch is applied exactly as its
   ingest was. A failed WAL
   write or barrier fails the log: the batch is aborted before any engine
   sees it, and [Io_error] is raised ([replace_failed_log]). A batch the
   log cannot encode was not written, so the log stays attached. That and
   any other failure leave through {!abort}. *)
let commit_batch t ~seq deltas =
  let logged =
    match t.wal with
    | None -> Ok ()
    | Some w -> (
      match Wal.append w (Wal.Batch { seq; deltas }) with
      | () -> Ok ()
      | exception (Faults.Crash _ as crash) ->
        (* simulated process death: no cleanup, recovery reloads from disk *)
        raise crash
      (* nothing was written: the log stays attached *)
      | exception (Wal.Unencodable _ as e) -> Error e
      | exception e ->
        let detail = "the WAL commit barrier failed: " ^ failure_detail e in
        drop_log t;
        ignore (abort t ~seq deltas (Error { kind = Io_error; detail }));
        replace_failed_log t ~seq detail)
  in
  match
    Result.iter_error raise logged;
    if t.wal <> None then Faults.hit Faults.After_wal_append;
    apply_in_place t deltas
  with
  | () ->
    commit_engines t;
    Validator.commit t.validator;
    t.seq <- seq;
    let tables = delta_table_counts deltas in
    emit_lineage t ~seq ~tables;
    `Committed tables
  | exception (Faults.Crash _ as crash) -> raise crash
  | exception e -> `Aborted (abort t ~seq deltas e)

(* Ingestion admits delta by delta: a rejected delta is quarantined on its
   own and the rest of the batch still commits. A warehouse whose log
   failed admits nothing until a checkpoint has opened a fresh one. *)
let ingest_report_inner t deltas =
  (match t.dir with
  | Some dir when t.wal = None ->
    err Io_error
      "%s: the write-ahead log failed and was not replaced; checkpoint to \
       open a fresh one"
      dir
  | Some _ | None -> ());
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
  else
    let seq = t.seq + 1 in
    match commit_batch t ~seq accepted with
    | `Committed tables ->
      Telemetry.Counter.one Obs.commits;
      (* the read-side commit point: concurrent readers switch to the new
         epoch here, atomically; until this set they keep serving the
         previous committed state. Views whose tables the batch did not
         touch carry their captures over. *)
      publish_epoch ~touched:(List.map fst tables) t;
      { batch = seq; applied = List.length accepted; rejected }
    | `Aborted aborted ->
      { batch = seq; applied = 0; rejected = rejected @ aborted }

let ingest_report t deltas =
  Telemetry.with_phase Obs.ingest_seconds ~alloc:Obs.ingest_alloc
    "warehouse.ingest" (fun () -> ingest_report_inner t deltas)

let ingest t deltas = ignore (ingest_report t deltas)

(* --- recovery ----------------------------------------------------------- *)

(* Replay one logged batch during recovery. It was validated when first
   ingested, so admission is all or nothing: a delta the validator now
   refuses (a diverged shadow) aborts the whole batch, as an engine failure
   does. Either way the batch is quarantined instead of making recovery
   itself fail. *)
let replay_batch t ~seq deltas =
  Telemetry.Counter.one Obs.replayed;
  Validator.begin_txn t.validator;
  match
    List.find_map
      (fun d ->
        match Validator.admit t.validator d with
        | Ok _ -> None
        | Error r -> Some r)
      deltas
  with
  | Some r ->
    let detail = "replay validation failed: " ^ r.Delta.detail in
    ignore (abort t ~seq deltas (Error { kind = Corrupt_state; detail }))
  | None -> ignore (commit_batch t ~seq deltas)

(* Whether [dir] holds WAL records, live or archived. *)
let holds_log dir = Sys.file_exists (wal_path dir) || generation_wals dir <> []

(* Candidate snapshots, newest first: the live snapshot (if present), then
   the archived generations in descending chain order. The paired index
   decides which WAL segments the snapshot covers ([max_int]: the live
   snapshot is newer than every archived segment). *)
let snapshot_candidates dir =
  let live = snapshot_path dir in
  (if Sys.file_exists live then [ (max_int, live) ] else [])
  @ List.rev (generation_snapshots dir)

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
      let q = Option.get (Wal.salvage path) in
      Log.warn (fun m ->
          m "%s: torn tail (%s): salvaged, %d byte(s) quarantined to %s" path
            d.Wal.d_reason d.Wal.d_bytes q);
      s
    | kind ->
      err Corrupt_state
        "%s: %s at offset %d (%s) may hide committed batches — run `minview \
         repair` to quarantine the damage, accepting the loss"
        path (Wal.damage_kind_label kind) d.Wal.d_offset d.Wal.d_reason)
  | exception Wal.Corrupt m ->
    err Corrupt_state "%s — run `minview repair` to quarantine the file" m

let recover ~dir =
  Telemetry.Trace.with_span "warehouse.recover"
    ~attrs:[ ("dir", dir) ]
    (fun () ->
      io @@ fun () ->
      let dir_exists =
        try Sys.is_directory dir with Sys_error _ -> false
      in
      (* a missing (or non-directory) state dir keeps the original error
         shape: attempting the load surfaces the OS-level Io_error *)
      if not dir_exists then ignore (decode (snapshot_path dir));
      let candidates = snapshot_candidates dir in
      if candidates = [] && not (holds_log dir) then begin
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
            match
              let d =
                Telemetry.Trace.with_span "warehouse.recover.decode" (fun () ->
                    decode path)
              in
              let views = List.length d.Snapshot.views in
              Telemetry.Trace.with_span "warehouse.recover.build"
                ~attrs:
                  [
                    ("views", string_of_int views);
                    ( "domains",
                      string_of_int (Maintenance.Shard.fan_out_domains views) );
                  ]
                (fun () -> restore d)
            with
            | t -> (t, gen, path)
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
            let q = Durable.quarantine path in
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
        let aborted = Hashtbl.create 8 in
        List.iter
          (function
            | Wal.Abort { seq } -> Hashtbl.replace aborted seq ()
            | Wal.Batch _ -> ())
          records;
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
        open_lineage t dir;
        (* a batch is replayed when it is newer than every record before
           it and no abort marker names it; the others only advance the
           sequence number *)
        let pending, last_seq =
          List.fold_left
            (fun (pending, hi) -> function
              | Wal.Abort { seq } -> (pending, max hi seq)
              | Wal.Batch { seq; deltas } ->
                ( (if seq > hi && not (Hashtbl.mem aborted seq) then
                     (seq, deltas) :: pending
                   else pending),
                  max hi seq ))
            ([], t.seq) records
        in
        Telemetry.Trace.with_span "warehouse.recover.replay"
          ~attrs:[ ("batches", string_of_int (List.length pending)) ]
          (fun () ->
            List.iter
              (fun (seq, deltas) -> replay_batch t ~seq deltas)
              (List.rev pending));
        t.seq <- last_seq;
        t.dir <- Some dir;
        (* the live log was scanned, and a torn tail salvaged, above: its
           writer opens from that scan *)
        (match Wal.open_scanned (wal_path dir) live with
        | w -> t.wal <- Some w
        | exception Wal.Corrupt m -> err Corrupt_state "%s" m);
        (* one publication for the whole recovery, not one per replayed
           batch: readers only ever see the fully recovered state *)
        Telemetry.Trace.with_span "warehouse.recover.publish" (fun () ->
            publish_epoch t);
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

let describe_wal path =
  match Wal.scan path with
  | { Wal.s_records; s_damage = None; s_version; _ } ->
    Ok
      (Printf.sprintf "%d record(s)%s%s" (List.length s_records)
         (match List.rev s_records with
         | last :: _ -> Printf.sprintf ", through batch %d" (Wal.seq_of last)
         | [] -> "")
         (if s_version < Wal.version then
            Printf.sprintf ", legacy version-%d format" s_version
          else ""))
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
      (Result.map (Printf.sprintf "verified, batch %d") (Snapshot.verify path))
  in
  let snap_entries =
    let archived =
      List.rev_map (fun (_, p) -> verified p) (generation_snapshots dir)
    in
    if Sys.file_exists snap then verified snap :: archived
    else if archived <> [] || holds_log dir then
      {
        f_file = rel dir snap;
        f_ok = false;
        f_detail = "missing (recovery falls back to the generation chain)";
      }
      :: archived
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
  io @@ fun () ->
  let actions = ref [] in
  let act file what = actions := (rel dir file, what) :: !actions in
  (* WAL segments first: salvage damaged tails (quarantining the bad bytes),
     quarantine wholly unreadable files *)
  let heal_wal path =
    if Sys.file_exists path then
      match Wal.scan path with
      | { Wal.s_damage = None; _ } -> ()
      | { Wal.s_damage = Some d; _ } ->
        let q = Option.get (Wal.salvage path) in
        act path
          (Printf.sprintf "salvaged: %d byte(s) of %s tail quarantined to %s"
             d.Wal.d_bytes
             (Wal.damage_kind_label d.Wal.d_kind)
             (rel dir q))
      | exception Wal.Corrupt _ ->
        let q = Durable.quarantine path in
        act path ("unreadable: quarantined to " ^ rel dir q)
  in
  List.iter (fun (_, p) -> heal_wal p) (generation_wals dir);
  heal_wal (wal_path dir);
  (* snapshots: quarantine the unverifiable ones; at least one must survive
     (or the directory must end up empty) for the store to be recoverable *)
  let heal_snapshot path =
    match Snapshot.verify path with
    | Ok _ -> true
    | Error detail ->
      let q = Durable.quarantine path in
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
  {
    repair_actions = List.rev !actions;
    repair_recoverable = survivors <> [] || not (holds_log dir);
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
             view; engines without retained detail (full replicas) fall
             back to the full comparison *)
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

(* [measure] only reads, so it reads the shadow in place, as
   [build_engine] does. *)
let attribution t =
  let source = Validator.shadow t.validator in
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
        (Storage.render_profile (Engines.detail_profile r.engine));
      Buffer.add_char buf '\n')
    (List.rev t.views);
  Buffer.contents buf
