(* minview: derive and exercise minimal auxiliary views for GPSJ views.

   `minview derive schema.sql`   — print derivations for every CREATE VIEW
   `minview dot schema.sql`      — print the extended join graphs in DOT
   `minview simulate schema.sql changes.sql`
                                 — load, register, ingest, print views
   `minview recover state-dir`   — rebuild a durable warehouse after a crash
   `minview audit state-dir`     — check maintained views against recomputation
   `minview fsck state-dir`      — read-only integrity check (exit 0/4/5)
   `minview repair state-dir`    — quarantine whatever does not verify
   `minview serve schema.sql`    — line-protocol query server over read epochs
   `minview demo`                — the paper's running example end to end *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_script path =
  let db = Relational.Database.create () in
  let outcomes = Sqlfront.Elaborate.run_script db (read_file path) in
  (db, Sqlfront.Elaborate.views outcomes)

let with_errors f =
  try
    f ();
    0
  with
  | Sqlfront.Parser.Error m | Sqlfront.Elaborate.Error m ->
    Printf.eprintf "SQL error: %s\n" m;
    1
  | Sqlfront.Lexer.Error { pos; message } ->
    Printf.eprintf "lex error at offset %d: %s\n" pos message;
    1
  | Algebra.View.Invalid m ->
    Printf.eprintf "invalid view: %s\n" m;
    1
  | Relational.Database.Violation m ->
    Printf.eprintf "constraint violation: %s\n" m;
    1
  | Warehouse.Error { kind; detail } ->
    Printf.eprintf "warehouse error [%s]: %s\n" (Warehouse.kind_label kind)
      detail;
    1
  | Sys_error m ->
    Printf.eprintf "i/o error: %s\n" m;
    1
  | Maintenance.Faults.Crash p ->
    (* fault-injection harness: report the simulated crash distinctly so
       scripts can tell it from a real failure *)
    Printf.eprintf "fault injected: simulated crash at %s\n"
      (Maintenance.Faults.to_string p);
    3

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ]
        ~doc:"Enable debug logging (the mindetail.* log sources).")

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let setup_term = Term.(const setup_logs $ verbose_arg)

let script_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SCHEMA.SQL"
        ~doc:"SQL script with CREATE TABLE / INSERT / CREATE VIEW statements.")

let derive_cmd =
  let run script =
    with_errors (fun () ->
        let db, views = load_script script in
        if views = [] then prerr_endline "warning: script defines no views";
        List.iter
          (fun v ->
            print_string (Mindetail.Explain.report (Mindetail.Derive.derive db v));
            print_newline ())
          views)
  in
  Cmd.v
    (Cmd.info "derive"
       ~doc:
         "Run Algorithm 3.2 on every view in the script and print the \
          extended join graph, Need sets and minimal auxiliary views.")
    Term.(const run $ script_arg)

let dot_cmd =
  let run script =
    with_errors (fun () ->
        let db, views = load_script script in
        List.iter
          (fun v ->
            print_string
              (Mindetail.Explain.join_graph_dot
                 (Mindetail.Derive.derive db v).Mindetail.Derive.graph))
          views)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Print the extended join graphs in Graphviz DOT form.")
    Term.(const run $ script_arg)

let changes_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"CHANGES.SQL"
        ~doc:"SQL script of INSERT/DELETE/UPDATE statements to ingest.")

let strategy_arg =
  Arg.(
    value
    & opt (enum [ ("minimal", Warehouse.Minimal);
                  ("psj", Warehouse.Psj);
                  ("replicate", Warehouse.Replicate) ])
        Warehouse.Minimal
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:"Detail-data strategy: $(b,minimal), $(b,psj) or $(b,replicate).")

let print_view wh name =
  let cols, rel = Warehouse.query wh name in
  Printf.printf "-- %s --\n%s" name
    (Relational.Table_printer.render_relation ~columns:cols rel)

let print_dead_letters wh =
  match Warehouse.dead_letters wh with
  | [] -> ()
  | dead ->
    Printf.printf "%d change(s) in the dead-letter queue:\n" (List.length dead);
    List.iter
      (fun r -> Format.printf "  %a@." Relational.Delta.pp_rejection r)
      dead

let state_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state" ] ~docv:"DIR"
        ~doc:
          "Attach the warehouse to a durable state directory: accepted \
           batches are write-ahead logged there and $(b,minview recover) \
           rebuilds the warehouse after a crash.")

let simulate_cmd =
  let run () script changes strategy state =
    with_errors (fun () ->
        let db, views = load_script script in
        let wh = Warehouse.create db in
        List.iter (Warehouse.add_view ~strategy wh) views;
        Option.iter (fun dir -> Warehouse.attach wh ~dir) state;
        let outcomes = Sqlfront.Elaborate.run_script db (read_file changes) in
        let r = Warehouse.ingest_report wh (Sqlfront.Elaborate.changes outcomes) in
        if r.Warehouse.rejected <> [] then print_dead_letters wh;
        List.iter (print_view wh) (Warehouse.view_names wh);
        print_newline ();
        print_string (Warehouse.report wh);
        Warehouse.close wh)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Load the schema script, register its views, ingest the change \
          script without re-reading base tables, and print the maintained \
          views plus the detail-data report.")
    Term.(const run $ setup_term $ script_arg $ changes_arg $ strategy_arg
          $ state_arg)

let reconstruct_cmd =
  let run script =
    with_errors (fun () ->
        let db, views = load_script script in
        List.iter
          (fun v ->
            let d = Mindetail.Derive.derive db v in
            match Mindetail.Reconstruct.to_sql d with
            | sql -> print_endline (sql ^ "\n")
            | exception Mindetail.Reconstruct.Not_reconstructible why ->
              Printf.printf "-- %s: %s\n\n" v.Algebra.View.name why)
          views)
  in
  Cmd.v
    (Cmd.info "reconstruct"
       ~doc:
         "Print, for every view in the script, the SQL query that rebuilds \
          it from its minimal auxiliary views (Section 3.2's rewriting).")
    Term.(const run $ script_arg)

let sharing_cmd =
  let run script =
    with_errors (fun () ->
        let db, views = load_script script in
        let named =
          List.map (fun v -> (v.Algebra.View.name, Mindetail.Derive.derive db v)) views
        in
        print_string (Mindetail.Sharing.report named))
  in
  Cmd.v
    (Cmd.info "sharing"
       ~doc:
         "Analyze which auxiliary views can be shared across the script's \
          summary tables.")
    Term.(const run $ script_arg)

let verify_cmd =
  let changes_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "changes" ] ~docv:"CHANGES.SQL"
          ~doc:
            "SQL change script to ingest; without it a random legal stream \
             of $(b,--n) changes is generated.")
  in
  let n_arg =
    Arg.(
      value & opt int 500
      & info [ "n" ] ~docv:"N" ~doc:"Size of the generated change stream.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"Seed of the generated stream.")
  in
  let run script changes n seed =
    with_errors (fun () ->
        let db, views = load_script script in
        let wh = Warehouse.create db in
        List.iter (Warehouse.add_view wh) views;
        let deltas =
          match changes with
          | Some file ->
            Sqlfront.Elaborate.changes
              (Sqlfront.Elaborate.run_script db (read_file file))
          | None ->
            Workload.Delta_gen.stream (Workload.Prng.create seed) db ~n
        in
        Warehouse.ingest wh deltas;
        let failures = ref 0 in
        List.iter
          (fun v ->
            let name = v.Algebra.View.name in
            let _, got = Warehouse.query wh name in
            let expected = Algebra.Eval.eval db v in
            let ok = Relational.Relation.equal got expected in
            if not ok then incr failures;
            Printf.printf "%-24s %s\n" name (if ok then "OK" else "MISMATCH"))
          views;
        Printf.printf "%d change(s) ingested, %d view(s), %d failure(s)\n"
          (List.length deltas) (List.length views) !failures;
        if !failures > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Self-maintenance check: load the schema, register its views, \
          ingest a change stream, and compare every maintained view against \
          recomputation from the (evolved) base tables.")
    Term.(const run $ script_arg $ changes_opt $ n_arg $ seed_arg)

let dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"STATE_DIR"
        ~doc:
          "Warehouse state directory (snapshot.bin + wal.bin), as written by \
           $(b,--state).")

let recover_cmd =
  let checkpoint_flag =
    Arg.(
      value & flag
      & info [ "checkpoint" ]
          ~doc:
            "Checkpoint the recovered state before exiting: the replayed WAL \
             is archived into the generation chain and the next recovery \
             starts from the fresh snapshot.")
  in
  let run () dir checkpoint =
    with_errors (fun () ->
        let wh = Warehouse.recover ~dir in
        Printf.printf "recovered %d view(s) at batch %d from %s\n"
          (List.length (Warehouse.view_names wh))
          (Warehouse.ingested_batches wh)
          dir;
        print_dead_letters wh;
        List.iter (print_view wh) (Warehouse.view_names wh);
        if checkpoint then Warehouse.checkpoint wh;
        Warehouse.close wh)
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Rebuild a durable warehouse from its state directory — latest \
          snapshot plus write-ahead-log replay — and print the recovered \
          views. With $(b,--checkpoint), snapshot the recovered state so \
          the replayed log is archived into the generation chain.")
    Term.(const run $ setup_term $ dir_arg $ checkpoint_flag)

(* fsck/repair exit codes: 0 clean (or nothing to do), 4 damage found
   (fsck) / damage repaired (repair), 5 unrecoverable — no snapshot
   verifies, 1 operational error. Distinct from the generic codes so
   operator scripts can branch on the outcome. *)
let with_state_errors f =
  try f () with
  | Warehouse.Error { kind; detail } ->
    Printf.eprintf "warehouse error [%s]: %s\n" (Warehouse.kind_label kind)
      detail;
    1
  | Sys_error m ->
    Printf.eprintf "i/o error: %s\n" m;
    1

let fsck_cmd =
  let run () dir =
    with_state_errors (fun () ->
        let report = Warehouse.fsck ~dir in
        List.iter
          (fun (e : Warehouse.fsck_entry) ->
            Printf.printf "%-36s %s  %s\n" e.Warehouse.f_file
              (if e.Warehouse.f_ok then "ok     " else "DAMAGED")
              e.Warehouse.f_detail)
          report.Warehouse.fsck_entries;
        if report.Warehouse.fsck_clean then begin
          print_endline "state: clean";
          0
        end
        else if report.Warehouse.fsck_recoverable then begin
          print_endline
            "state: damaged but recoverable (run `minview repair` to \
             quarantine the damage)";
          4
        end
        else begin
          print_endline "state: unrecoverable (no snapshot verifies)";
          5
        end)
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Read-only integrity check of a warehouse state directory: verify \
          every snapshot (live and archived generations, CRC + decode) and \
          scan every WAL segment for torn writes and bit flips. Exit 0 if \
          clean, 4 if damaged but recoverable, 5 if no snapshot verifies, 1 \
          on operational errors.")
    Term.(const run $ setup_term $ dir_arg)

let repair_cmd =
  let run () dir =
    with_state_errors (fun () ->
        let r = Warehouse.repair ~dir in
        List.iter
          (fun (file, what) -> Printf.printf "%s: %s\n" file what)
          r.Warehouse.repair_actions;
        match (r.Warehouse.repair_actions, r.Warehouse.repair_recoverable) with
        | [], true ->
          print_endline "nothing to repair";
          0
        | actions, true ->
          Printf.printf "repaired: %d file(s) quarantined; `minview recover` \
                         will proceed\n"
            (List.length actions);
          4
        | _, false ->
          print_endline "unrepairable: no verifiable snapshot remains";
          5)
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Quarantine everything $(b,minview fsck) would flag: damaged WAL \
          tails are salvaged (bad bytes preserved in .quarantine files), \
          unverifiable snapshots and unreadable WAL files renamed aside, so \
          a subsequent $(b,minview recover) succeeds from what remains. \
          Never deletes data. Exit 0 if nothing to do, 4 if repairs were \
          made, 5 if no verifiable snapshot remains, 1 on operational \
          errors.")
    Term.(const run $ setup_term $ dir_arg)

let audit_cmd =
  let sample_opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample" ] ~docv:"K"
          ~doc:
            "Drift-audit mode: instead of full recomputation, recompute \
             $(docv) evenly sampled groups per view from the retained \
             detail data and cross-check the maintained view.")
  in
  let run () dir sample =
    with_errors (fun () ->
        let wh = Warehouse.recover ~dir in
        let results =
          Warehouse.audit ?sample wh ~reference:(Warehouse.believed_source wh)
        in
        List.iter
          (fun (name, ok) ->
            Printf.printf "%-24s %s\n" name (if ok then "OK" else "MISMATCH"))
          results;
        (match sample with
        | Some k ->
          List.iter
            (fun (name, checked, divergences) ->
              Printf.printf
                "%-24s checked %d sampled group(s), %d divergence(s)\n" name
                checked divergences)
            (Warehouse.self_audit wh ~sample:k)
        | None -> ());
        let failures = List.filter (fun (_, ok) -> not ok) results in
        Printf.printf "%d batch(es) ingested, %d dead-letter(s), %d failure(s)\n"
          (Warehouse.ingested_batches wh)
          (List.length (Warehouse.dead_letters wh))
          (List.length failures);
        Warehouse.close wh;
        if failures <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Recover a durable warehouse and compare every maintained view \
          against from-scratch recomputation over the believed source state \
          (or, with --sample, against sampled recomputation from its own \
          retained detail); exit non-zero on any mismatch.")
    Term.(const run $ setup_term $ dir_arg $ sample_opt)

(* --- telemetry: metrics / trace ----------------------------------------- *)

let changes_opt =
  Arg.(
    value
    & opt (some file) None
    & info [ "changes" ] ~docv:"CHANGES.SQL"
        ~doc:"SQL change script to ingest before reading the telemetry.")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Machine-readable output (one JSON object per line).")

(* Load, register, optionally ingest — the shared pipeline behind the
   telemetry verbs. *)
let run_pipeline script changes strategy =
  let db, views = load_script script in
  let wh = Warehouse.create db in
  List.iter (Warehouse.add_view ~strategy wh) views;
  (match changes with
  | Some file ->
    let outcomes = Sqlfront.Elaborate.run_script db (read_file file) in
    ignore (Warehouse.ingest_report wh (Sqlfront.Elaborate.changes outcomes))
  | None -> ());
  wh

let gauge_fmt v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let labels_fmt = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
    ^ "}"

(* Deterministic dashboard: the compression table from the per-auxview
   gauges, then counters, gauges and histogram observation counts. Timing
   values (sums, minima, bucket spreads) are deliberately omitted — they
   vary run to run; use --json for the full dump. *)
let print_metrics_human () =
  let snaps = Telemetry.snapshot () in
  let dashboard_names =
    [
      "minview_aux_resident_rows"; "minview_aux_detail_rows";
      "minview_aux_compression_ratio";
    ]
  in
  let gauge_of name labels =
    List.find_map
      (fun (s : Telemetry.Metrics.snap) ->
        match s.Telemetry.Metrics.s_value with
        | Telemetry.Metrics.Gauge_v v
          when String.equal s.Telemetry.Metrics.s_name name
               && s.Telemetry.Metrics.s_labels = labels ->
          Some v
        | _ -> None)
      snaps
  in
  let aux_rows =
    List.filter_map
      (fun (s : Telemetry.Metrics.snap) ->
        if String.equal s.Telemetry.Metrics.s_name "minview_aux_resident_rows"
        then
          let labels = s.Telemetry.Metrics.s_labels in
          let get k = Option.value ~default:"?" (List.assoc_opt k labels) in
          let resident =
            match s.Telemetry.Metrics.s_value with
            | Telemetry.Metrics.Gauge_v v -> v
            | _ -> 0.
          in
          let detail =
            Option.value ~default:0.
              (gauge_of "minview_aux_detail_rows" labels)
          in
          let ratio =
            Option.value ~default:0.
              (gauge_of "minview_aux_compression_ratio" labels)
          in
          Some
            [
              get "view"; get "aux"; get "base"; gauge_fmt resident;
              gauge_fmt detail; gauge_fmt ratio;
            ]
        else None)
      snaps
  in
  if aux_rows <> [] then begin
    print_endline "== detail compression (live) ==";
    print_string
      (Relational.Table_printer.render
         ~header:
           [ "view"; "aux view"; "base"; "resident rows"; "detail rows";
             "ratio" ]
         aux_rows)
  end;
  print_endline "== counters ==";
  List.iter
    (fun (s : Telemetry.Metrics.snap) ->
      match s.Telemetry.Metrics.s_value with
      | Telemetry.Metrics.Counter_v v ->
        Printf.printf "%s%s %d\n" s.Telemetry.Metrics.s_name
          (labels_fmt s.Telemetry.Metrics.s_labels)
          v
      | _ -> ())
    snaps;
  print_endline "== gauges ==";
  List.iter
    (fun (s : Telemetry.Metrics.snap) ->
      match s.Telemetry.Metrics.s_value with
      | Telemetry.Metrics.Gauge_v v
        when not (List.mem s.Telemetry.Metrics.s_name dashboard_names) ->
        Printf.printf "%s%s %s\n" s.Telemetry.Metrics.s_name
          (labels_fmt s.Telemetry.Metrics.s_labels)
          (gauge_fmt v)
      | _ -> ())
    snaps;
  print_endline "== histograms (observation counts) ==";
  List.iter
    (fun (s : Telemetry.Metrics.snap) ->
      match s.Telemetry.Metrics.s_value with
      | Telemetry.Metrics.Histogram_v h ->
        let pct q =
          let v = Telemetry.Metrics.percentile h q in
          if Float.is_nan v then "-" else Printf.sprintf "%.3g" v
        in
        Printf.printf "%s%s %d p50=%s p95=%s p99=%s\n"
          s.Telemetry.Metrics.s_name
          (labels_fmt s.Telemetry.Metrics.s_labels)
          h.Telemetry.Metrics.h_count (pct 0.50) (pct 0.95) (pct 0.99)
      | _ -> ())
    snaps

let metrics_cmd =
  let prometheus_flag =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:"Prometheus text exposition instead of the dashboard.")
  in
  let run () script changes strategy json prometheus =
    with_errors (fun () ->
        let wh = run_pipeline script changes strategy in
        if json then print_endline (Telemetry.dump_json ())
        else if prometheus then print_string (Telemetry.to_prometheus ())
        else print_metrics_human ();
        Warehouse.close wh)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Load the schema, register its views, optionally ingest a change \
          script, then print the runtime telemetry: the live \
          detail-compression dashboard (resident vs. represented rows per \
          auxiliary view — the paper's 245 GB vs. 167 MB table, measured), \
          maintenance counters, and phase latency histograms.")
    Term.(
      const run $ setup_term $ script_arg $ changes_opt $ strategy_arg
      $ json_flag $ prometheus_flag)

let trace_cmd =
  let run () script changes strategy json =
    with_errors (fun () ->
        let wh = run_pipeline script changes strategy in
        let spans = Telemetry.Trace.recent () in
        if json then
          List.iter
            (fun s -> print_endline (Telemetry.Trace.span_to_json s))
            spans
        else
          List.iter
            (fun (s : Telemetry.Trace.span) ->
              Printf.printf "%s%s\n" s.Telemetry.Trace.name
                (match s.Telemetry.Trace.attrs with
                | [] -> ""
                | attrs ->
                  " "
                  ^ labels_fmt
                      (List.map (fun (k, v) -> (k, v)) attrs)))
            spans;
        Warehouse.close wh)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Load the schema, register its views, optionally ingest a change \
          script, then print the recorded pipeline spans (phase sequence; \
          --json adds timings as JSONL).")
    Term.(
      const run $ setup_term $ script_arg $ changes_opt $ strategy_arg
      $ json_flag)

(* --- workload profile ---------------------------------------------------- *)

(* Human rendering parses the same profile JSON the machine path emits, so
   the live-pipeline and --dir (persisted file) modes share one renderer. *)
let print_profile_human ~top raw =
  let module J = Telemetry.Json in
  let j =
    match J.parse raw with
    | Ok j -> j
    | Error m -> raise (Sys_error ("workload profile: " ^ m))
  in
  let fnum ?(default = 0.) node path =
    Option.value ~default (Option.bind (J.path path node) J.to_float)
  in
  let fstr ?(default = "?") node path =
    Option.value ~default (Option.bind (J.path path node) J.to_string)
  in
  let jlist node path =
    Option.value ~default:[] (Option.map J.to_list (J.path path node))
  in
  let count v = Printf.sprintf "%.0f" v in
  Printf.printf "== workload profile (schema %.0f, %.1fs observed) ==\n"
    (fnum j [ "schema" ])
    (fnum j [ "elapsed_s" ]);
  let views = jlist j [ "views" ] in
  if views = [] then print_endline "(no recorded workload)"
  else begin
    print_string
      (Relational.Table_printer.render
         ~header:
           [ "view"; "writes"; "reads"; "upd/read"; "hot-key share";
             "compaction" ]
         (List.map
            (fun vj ->
              [
                fstr vj [ "view" ];
                count (fnum vj [ "writes" ]);
                count
                  (fnum vj [ "reads"; "query" ]
                  +. fnum vj [ "reads"; "reconstruct" ]);
                Printf.sprintf "%.2f" (fnum vj [ "update_read_ratio" ]);
                Printf.sprintf "%.2f" (fnum vj [ "skew"; "hot_key_share" ]);
                Printf.sprintf "%.2f" (fnum vj [ "skew"; "compaction_ratio" ]);
              ])
            views));
    List.iter
      (fun vj ->
        let keys = jlist vj [ "hot_keys" ] in
        if keys <> [] then begin
          Printf.printf "== top keys: %s ==\n" (fstr vj [ "view" ]);
          print_string
            (Relational.Table_printer.render ~header:[ "key"; "est"; "err" ]
               (List.filteri
                  (fun i _ -> i < top)
                  (List.map
                     (fun kj ->
                       [
                         fstr kj [ "key" ]; count (fnum kj [ "est" ]);
                         count (fnum kj [ "err" ]);
                       ])
                     keys)))
        end)
      views
  end;
  let lag_count = fnum j [ "epoch_lag"; "count" ] in
  if lag_count > 0. then
    Printf.printf
      "== epoch lag (batches behind head) ==\n\
       reads %.0f p50=%.3g p95=%.3g p99=%.3g max=%.3g\n"
      lag_count
      (fnum j [ "epoch_lag"; "p50" ])
      (fnum j [ "epoch_lag"; "p95" ])
      (fnum j [ "epoch_lag"; "p99" ])
      (fnum j [ "epoch_lag"; "max" ])

let profile_cmd =
  let script_opt =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"SCHEMA.SQL"
          ~doc:
            "SQL script to load and profile; omit it and pass $(b,--dir) to \
             read a persisted profile instead.")
  in
  let dir_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"STATE_DIR"
          ~doc:
            "Read $(b,workload_profile.json) from this state directory (as \
             written by checkpoints and $(b,--state)) instead of running a \
             pipeline.")
  in
  let n_arg =
    Arg.(
      value & opt int 500
      & info [ "n" ] ~docv:"N"
          ~doc:
            "Size of the generated change stream when no $(b,--changes) \
             script is given.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"Seed of the generated stream.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Hot keys to print per view (human output).")
  in
  let run () script dir changes n seed strategy state as_json top =
    with_errors (fun () ->
        let raw =
          match (dir, script) with
          | Some d, _ ->
            let path = Warehouse.workload_profile_path d in
            if not (Sys.file_exists path) then
              raise
                (Sys_error
                   (path
                  ^ ": no workload profile (checkpoint the warehouse, or run \
                     minview profile --state, first)"));
            read_file path
          | None, Some script ->
            let db, views = load_script script in
            let wh = Warehouse.create db in
            List.iter (Warehouse.add_view ~strategy wh) views;
            Option.iter (fun dir -> Warehouse.attach wh ~dir) state;
            let deltas =
              match changes with
              | Some file ->
                Sqlfront.Elaborate.changes
                  (Sqlfront.Elaborate.run_script db (read_file file))
              | None ->
                Workload.Delta_gen.stream (Workload.Prng.create seed) db ~n
            in
            ignore (Warehouse.ingest_report wh deltas);
            let raw = Telemetry.Workload.profile_json () in
            if state <> None then ignore (Warehouse.write_workload_profile wh);
            Warehouse.close wh;
            raw
          | None, None ->
            raise
              (Sys_error
                 "profile: pass SCHEMA.SQL to run a pipeline, or --dir to \
                  read a persisted profile")
        in
        if as_json then print_endline (String.trim raw)
        else print_profile_human ~top raw)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "The workload profile: per-view read/write rates, top-k hot group \
          keys with sketch error bounds, update/read ratio, skew \
          coefficient and the epoch-lag distribution. Runs a pipeline \
          (generated or scripted changes) or, with $(b,--dir), prints the \
          profile a checkpoint persisted.")
    Term.(
      const run $ setup_term $ script_opt $ dir_opt $ changes_opt $ n_arg
      $ seed_arg $ strategy_arg $ state_arg $ json_flag $ top_arg)

(* --- lineage / attribution / explain ------------------------------------ *)

let lineage_cmd =
  let txn_opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "txn" ] ~docv:"SEQ"
          ~doc:"Only the record of WAL sequence number $(docv).")
  in
  let table_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "table" ] ~docv:"TABLE"
          ~doc:"Only records whose batch touched base table $(docv).")
  in
  let run () script changes strategy txn table json =
    with_errors (fun () ->
        let wh = run_pipeline script changes strategy in
        let records = Telemetry.Lineage.recent ?txn ?table () in
        if records = [] then
          print_endline
            "no lineage records (nothing ingested, filtered out, or \
             TELEMETRY=off)"
        else
          List.iter
            (fun r ->
              if json then print_endline (Telemetry.Lineage.record_to_json r)
              else print_string (Mindetail.Explain.lineage_record r))
            records;
        Warehouse.close wh)
  in
  Cmd.v
    (Cmd.info "lineage"
       ~doc:
         "Load the schema, register its views, optionally ingest a change \
          script, then print the per-transaction lineage records: which \
          base-table deltas each committed batch carried and how they \
          flowed through netting, the auxiliary views (resident vs. detail \
          vs. folded rows) and the view groups.")
    Term.(
      const run $ setup_term $ script_arg $ changes_opt $ strategy_arg
      $ txn_opt $ table_opt $ json_flag)

let attribute_cmd =
  let run () script changes strategy json =
    with_errors (fun () ->
        let wh = run_pipeline script changes strategy in
        let attrs = Warehouse.attribution wh in
        (* exact resident bytes per auxview from the columnar byte
           accounting; auxviews absent from the lookup render the
           bytes-per-field estimate instead *)
        let all_measured = Warehouse.measured_bytes wh in
        let measured_for view name =
          Option.bind (List.assoc_opt view all_measured) (List.assoc_opt name)
        in
        if attrs = [] then
          print_endline "no derivation-backed views to attribute";
        if json then
          List.iter
            (fun (view, l) ->
              List.iter
                (fun a ->
                  print_endline
                    (Mindetail.Attribution.to_json
                       ~measured:(measured_for view) ~view a))
                l)
            attrs
        else begin
          List.iter
            (fun (view, l) ->
              print_string
                (Mindetail.Attribution.render ~measured:(measured_for view)
                   ~view l);
              print_newline ())
            attrs;
          let recs = Warehouse.reconcile_attribution wh in
          if recs <> [] then begin
            print_endline
              "reconciliation against live maintenance gauges (+-1 row):";
            List.iter
              (fun (r : Warehouse.reconciliation) ->
                Printf.printf
                  "  %s/%s: resident %d vs %d, detail %d vs %d  %s\n"
                  r.Warehouse.rec_view r.Warehouse.rec_aux
                  r.Warehouse.measured_resident r.Warehouse.gauge_resident
                  r.Warehouse.measured_detail r.Warehouse.gauge_detail
                  (if r.Warehouse.consistent then "OK" else "MISMATCH"))
              recs;
            if List.exists (fun r -> not r.Warehouse.consistent) recs then begin
              Warehouse.close wh;
              exit 1
            end
          end
        end;
        Warehouse.close wh)
  in
  Cmd.v
    (Cmd.info "attribute"
       ~doc:
         "Load the schema, register its views, optionally ingest a change \
          script, then print the paper's savings-attribution table: for \
          every auxiliary view, the bytes removed by local selection, local \
          projection, join reduction, duplicate compression and whole-view \
          elimination, reconciled (+-1 row) against the live maintenance \
          gauges; exit non-zero on a reconciliation mismatch.")
    Term.(
      const run $ setup_term $ script_arg $ changes_opt $ strategy_arg
      $ json_flag)

let explain_cmd =
  let dot_flag =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:
            "Graphviz DOT of the extended join graphs instead of the \
             textual report.")
  in
  let run script dot =
    with_errors (fun () ->
        let db, views = load_script script in
        if views = [] then prerr_endline "warning: script defines no views";
        List.iter
          (fun v ->
            let d = Mindetail.Derive.derive db v in
            if dot then
              print_string
                (Mindetail.Explain.join_graph_dot d.Mindetail.Derive.graph)
            else begin
              print_string (Mindetail.Explain.report d);
              print_newline ()
            end)
          views)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain every view in the script: the full derivation report, or \
          with $(b,--dot) the extended join graphs in Graphviz DOT form.")
    Term.(const run $ script_arg $ dot_flag)

let serve_cmd =
  let port_arg =
    Arg.(
      value & opt int 7171
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "TCP port to listen on (loopback only); $(b,0) picks an \
             ephemeral port, printed on startup.")
  in
  let simulate_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "simulate" ] ~docv:"N"
          ~doc:
            "Live-ingest demo: between polls, generate and ingest a batch \
             of $(docv) random valid source changes, so clients can watch \
             epochs advance ($(b,PIN)/$(b,EPOCH)).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for $(b,--simulate).")
  in
  let metrics_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Also export observability over HTTP on 127.0.0.1:$(docv) \
             ($(b,0) picks an ephemeral port, printed on startup): \
             $(b,GET /metrics) (Prometheus text, runtime GC and off-heap \
             gauges included), $(b,GET /healthz) (200/503 with JSON \
             checks) and $(b,GET /profile). The exporter runs on its own \
             domain; runtime gauges are sampled on every committed batch.")
  in
  let slowlog_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "slowlog" ] ~docv:"PATH"
          ~doc:
            "Append a JSON line per slow QUERY/RECONSTRUCT to $(docv) \
             (size-capped, rotated shift-style). Inspect with $(b,minview \
             slowlog).")
  in
  let slow_ms_arg =
    Arg.(
      value & opt float 100.
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"Slow-query threshold in milliseconds (default 100).")
  in
  let run () script port strategy simulate seed metrics_port slowlog slow_ms =
    with_errors (fun () ->
        let db, views = load_script script in
        if views = [] then prerr_endline "warning: script defines no views";
        let wh = Warehouse.create db in
        List.iter (Warehouse.add_view ~strategy wh) views;
        let sink =
          Option.map
            (fun path ->
              Telemetry.Jsonl_sink.open_ ~max_bytes:(4 * 1024 * 1024) path)
            slowlog
        in
        let srv =
          Serve.create ?slowlog:sink ~slow_threshold_s:(slow_ms /. 1000.)
            ~port wh
        in
        (* graceful shutdown: SIGINT/SIGTERM ask the loop to stop after the
           current poll (one atomic store, async-signal-safe) *)
        let stop _ = Serve.request_stop srv in
        ignore (Sys.signal Sys.sigint (Sys.Signal_handle stop));
        ignore (Sys.signal Sys.sigterm (Sys.Signal_handle stop));
        Printf.printf "minview serve: listening on 127.0.0.1:%d (views: %s)\n%!"
          (Serve.port srv)
          (match Warehouse.view_names wh with
          | [] -> "none"
          | names -> String.concat ", " names);
        (* the performance observatory: off-heap bytes sourced from this
           warehouse (sampled now and at every commit), the exporter on its
           own domain so scrapes never block the serving loop *)
        let exporter =
          Option.map
            (fun mport ->
              let exp =
                Telemetry.Http_exporter.create ~port:mport
                  ~health:(fun () -> Warehouse.health wh)
                  ()
              in
              Warehouse.publish_offheap wh;
              Printf.printf
                "minview serve: exporting metrics on 127.0.0.1:%d\n%!"
                (Telemetry.Http_exporter.port exp);
              (exp, Domain.spawn (fun () -> Telemetry.Http_exporter.run exp)))
            metrics_port
        in
        let tick =
          Option.map
            (fun n ->
              let rng = Workload.Prng.create seed in
              fun () -> Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n))
            simulate
        in
        Serve.run ?tick srv;
        Option.iter
          (fun (exp, dom) ->
            Telemetry.Http_exporter.request_stop exp;
            Domain.join dom)
          exporter;
        Option.iter Telemetry.Jsonl_sink.close sink;
        Printf.printf "minview serve: shut down after %d request(s)\n%!"
          (Serve.requests srv))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the warehouse over a TCP line protocol: $(b,QUERY) / \
          $(b,RECONSTRUCT) / $(b,METRICS) / $(b,PING), with per-connection \
          read epochs ($(b,PIN)/$(b,EPOCH)) and graceful shutdown \
          ($(b,SHUTDOWN), SIGINT or SIGTERM). Reads are served from \
          published read epochs, so they never block ingestion. With \
          $(b,--metrics-port) the performance observatory is exported over \
          HTTP next to the serving loop; with $(b,--slowlog) slow queries \
          are journaled for $(b,minview slowlog).")
    Term.(
      const run $ setup_term $ script_arg $ port_arg $ strategy_arg
      $ simulate_arg $ seed_arg $ metrics_port_arg $ slowlog_arg $ slow_ms_arg)

let export_cmd =
  let port_arg =
    Arg.(
      value & opt int 9171
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "HTTP port to export on (loopback only); $(b,0) picks an \
             ephemeral port, printed on startup.")
  in
  let run () script changes strategy port =
    with_errors (fun () ->
        let wh = run_pipeline script changes strategy in
        let exp =
          Telemetry.Http_exporter.create ~port
            ~health:(fun () -> Warehouse.health wh)
            ()
        in
        Warehouse.publish_offheap wh;
        let stop _ = Telemetry.Http_exporter.request_stop exp in
        ignore (Sys.signal Sys.sigint (Sys.Signal_handle stop));
        ignore (Sys.signal Sys.sigterm (Sys.Signal_handle stop));
        Printf.printf "minview export: serving metrics on 127.0.0.1:%d\n%!"
          (Telemetry.Http_exporter.port exp);
        Telemetry.Http_exporter.run exp;
        Printf.printf "minview export: shut down after %d request(s)\n%!"
          (Telemetry.Http_exporter.requests exp);
        Warehouse.close wh)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Load the schema, register its views, optionally ingest a change \
          script, then export the telemetry over HTTP until interrupted: \
          $(b,GET /metrics) (Prometheus text exposition), $(b,GET /healthz) \
          and $(b,GET /profile) on 127.0.0.1.")
    Term.(
      const run $ setup_term $ script_arg $ changes_opt $ strategy_arg
      $ port_arg)

let slowlog_cmd =
  let path_arg =
    Arg.(
      value
      & pos 0 string "slowlog.jsonl"
      & info [] ~docv:"PATH"
          ~doc:"Slowlog file written by $(b,minview serve --slowlog).")
  in
  let run () path json =
    with_errors (fun () ->
        let lines =
          if not (Sys.file_exists path) then
            raise
              (Sys_error (Printf.sprintf "%s: no such slowlog (nothing slow \
                                          yet, or wrong path?)" path))
          else begin
            let ic = open_in path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                let rec go acc =
                  match input_line ic with
                  | l -> go (if String.trim l = "" then acc else l :: acc)
                  | exception End_of_file -> List.rev acc
                in
                go [])
          end
        in
        if json then List.iter print_endline lines
        else begin
          let module J = Telemetry.Json in
          let field j k = Option.bind (J.member k j) J.to_float in
          let str j k = Option.bind (J.member k j) J.to_string in
          let rows =
            List.filter_map
              (fun l ->
                match J.parse l with
                | Error _ -> None
                | Ok j ->
                  let num k =
                    match field j k with
                    | Some f when Float.is_integer f ->
                      Printf.sprintf "%.0f" f
                    | Some f -> Printf.sprintf "%g" f
                    | None -> "?"
                  in
                  Some
                    [
                      (match field j "ts" with
                      | Some ts -> Printf.sprintf "%.3f" ts
                      | None -> "?");
                      Option.value ~default:"?" (str j "verb");
                      Option.value ~default:"?" (str j "view");
                      num "epoch"; num "rows";
                      (match field j "dur_s" with
                      | Some d -> Printf.sprintf "%.1f" (d *. 1000.)
                      | None -> "?");
                    ])
              lines
          in
          Printf.printf "%d slow quer%s in %s\n" (List.length rows)
            (if List.length rows = 1 then "y" else "ies")
            path;
          if rows <> [] then
            print_string
              (Relational.Table_printer.render
                 ~header:[ "ts"; "verb"; "view"; "epoch"; "rows"; "ms" ]
                 rows)
        end)
  in
  Cmd.v
    (Cmd.info "slowlog"
       ~doc:
         "Inspect a slow-query log written by $(b,minview serve --slowlog): \
          a human table by default, the raw JSON lines with $(b,--json). \
          Rotated generations (PATH.1, PATH.2, ...) hold older entries.")
    Term.(const run $ setup_term $ path_arg $ json_flag)

let demo_cmd =
  let run () =
    with_errors (fun () ->
        let db = Relational.Database.create () in
        let schema = {|
          CREATE TABLE time (id INT PRIMARY KEY, day INT, month INT, year INT);
          CREATE TABLE product (id INT PRIMARY KEY, brand TEXT UPDATABLE,
                                category TEXT);
          CREATE TABLE store (id INT PRIMARY KEY, street_address TEXT,
                              city TEXT, country TEXT, manager TEXT);
          CREATE TABLE sale (id INT PRIMARY KEY, timeid INT REFERENCES time,
                             productid INT REFERENCES product,
                             storeid INT REFERENCES store,
                             price INT UPDATABLE);
        |} in
        ignore (Sqlfront.Elaborate.run_script db schema);
        let seed = {|
          INSERT INTO time VALUES (1, 1, 1, 1997);
          INSERT INTO time VALUES (2, 15, 1, 1997);
          INSERT INTO time VALUES (3, 40, 2, 1997);
          INSERT INTO time VALUES (4, 1, 1, 1996);
          INSERT INTO product VALUES (1, 'acme', 'food');
          INSERT INTO product VALUES (2, 'apex', 'food');
          INSERT INTO store VALUES (1, '1 Main St', 'Aalborg', 'DK', 'm1');
          INSERT INTO sale VALUES (1, 1, 1, 1, 10);
          INSERT INTO sale VALUES (2, 1, 1, 1, 10);
          INSERT INTO sale VALUES (3, 2, 2, 1, 25);
          INSERT INTO sale VALUES (4, 3, 2, 1, 30);
          INSERT INTO sale VALUES (5, 4, 1, 1, 99);
        |} in
        ignore (Sqlfront.Elaborate.run_script db seed);
        let wh = Warehouse.create db in
        Warehouse.add_view_sql wh
          {|CREATE VIEW product_sales AS
            SELECT time.month, SUM(price) AS TotalPrice, COUNT(*) AS TotalCount,
                   COUNT(DISTINCT brand) AS DifferentBrands
            FROM sale, time, product
            WHERE time.year = 1997 AND sale.timeid = time.id
              AND sale.productid = product.id
            GROUP BY time.month;|};
        print_string (Warehouse.report wh);
        print_view wh "product_sales";
        print_endline "\ningesting: two sales inserted, one deleted, one price update";
        let changes =
          Sqlfront.Elaborate.run_script db
            {|INSERT INTO sale VALUES (6, 3, 1, 1, 50);
              INSERT INTO sale VALUES (7, 2, 2, 1, 5);
              DELETE FROM sale WHERE id = 2;
              UPDATE sale SET price = 12 WHERE id = 1;|}
          |> Sqlfront.Elaborate.changes
        in
        Warehouse.ingest wh changes;
        print_view wh "product_sales")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the paper's running example end to end.")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "minview" ~version:"1.0.0"
       ~doc:
         "Minimizing detail data in data warehouses: derive minimal \
          self-maintaining auxiliary views for GPSJ summary tables (Akinde, \
          Jensen & Böhlen, EDBT 1998).")
    [ derive_cmd; dot_cmd; explain_cmd; simulate_cmd; reconstruct_cmd;
      sharing_cmd; verify_cmd; recover_cmd; audit_cmd; fsck_cmd; repair_cmd;
      metrics_cmd; trace_cmd; profile_cmd; lineage_cmd; attribute_cmd;
      serve_cmd;
      export_cmd; slowlog_cmd; demo_cmd ]

(* The fault-injection harness: MINVIEW_FAULT=<point>[:skip] kills the
   process at the named crash point, fail:<point>[:skip] raises the
   recoverable injected fault instead.
   @raise Invalid_argument on an unknown point name or a bad skip count. *)
let arm_fault spec =
  let module Faults = Maintenance.Faults in
  let env_var = "MINVIEW_FAULT" in
  let mode, spec =
    let prefix = "fail:" in
    let n = String.length prefix in
    if String.length spec > n && String.starts_with ~prefix spec then
      (Faults.Fail, String.sub spec n (String.length spec - n))
    else (Faults.Kill, spec)
  in
  let name, skip =
    match String.index_opt spec ':' with
    | None -> (spec, 0)
    | Some i -> (
      ( String.sub spec 0 i,
        match
          int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
        with
        | Some n when n >= 0 -> n
        | Some _ | None ->
          invalid_arg (Printf.sprintf "%s: bad skip count in %S" env_var spec) ))
  in
  match Faults.of_string name with
  | Some p -> Faults.arm ~skip ~mode p
  | None ->
    invalid_arg
      (Printf.sprintf "%s: unknown crash point %S (known: %s)" env_var name
         (String.concat ", " (List.map Faults.to_string Faults.all)))

let () =
  (* the only environment the program reads; the library is handed typed
     values *)
  (match Sys.getenv_opt "MINVIEW_FAULT" with
  | None | Some "" -> ()
  | Some spec -> (
    match arm_fault spec with
    | () -> ()
    | exception Invalid_argument m ->
      prerr_endline m;
      exit 2));
  (* TELEMETRY=off disables all metric collection and span recording *)
  Telemetry.set_enabled
    (match Sys.getenv_opt "TELEMETRY" with
    | Some ("off" | "0" | "false" | "no") -> false
    | Some _ | None -> true);
  (* CI exports MINVIEW_BUILD_SHA=$GITHUB_SHA *)
  (match Sys.getenv_opt "MINVIEW_BUILD_SHA" with
  | Some sha when sha <> "" -> Telemetry.Render.set_build_sha sha
  | Some _ | None -> ());
  exit (Cmd.eval' main)
