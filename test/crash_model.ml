(* A crash model of a state directory, after ALICE (Pillai et al., "All
   File Systems Are Not Created Equal", OSDI 2014).

   [record] installs [Warehouse.Durable]'s hook and keeps the trace of
   every durable operation under a root directory. [state] replays a
   prefix of that trace on a model filesystem and returns what a crash
   just before the next operation can leave on disk:

   - process death: everything written so far;
   - power cut: a file holds only what an fsync (or the log's barrier)
     made durable, with its unsynced tail torn in half, and a directory
     holds only the entries — new, renamed or removed — that an fsync of
     that directory made durable.

   A file a [Durable.replace_file] writes through a channel enters the
   model at its fsync, or at its rename if it was never synced, with the
   contents the recorder reads from disk then. The model ignores the
   files no traced operation names (the lineage sink and the workload
   profile: advisory state written outside [Durable]). *)

module Durable = Warehouse.Durable

type event = { op : Durable.op; contents : string option }

type recording = {
  root : string;
  mutable events : event list;  (** newest first *)
  mutable length : int;
  mutable fail : (Durable.op -> bool) option;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let eio () = raise (Unix.Unix_error (Unix.EIO, "injected", ""))

let with_hook h f =
  Durable.set_hook (Some h);
  Fun.protect ~finally:(fun () -> Durable.set_hook None) f

(* [record ~root] starts tracing; [root] must be an empty directory, and
   every traced path must lie under it. *)
let record ~root =
  if Sys.readdir root <> [||] then
    invalid_arg "Crash_model.record: the root is not empty";
  let r = { root; events = []; length = 0; fail = None } in
  Durable.set_hook
    (Some
       (fun op ->
         match r.fail with
         | Some p when p op ->
           (* the failed operation did not happen: it is not traced *)
           r.fail <- None;
           eio ()
         | _ ->
           let contents =
             match op with
             | Durable.Fsync path | Durable.Rename { src = path; _ } ->
               Some (read_file path)
             | _ -> None
           in
           r.events <- { op; contents } :: r.events;
           r.length <- r.length + 1));
  r

let length r = r.length

(* [fail_next r p]: the next operation [p] accepts fails with [EIO]. *)
let fail_next r p = r.fail <- Some p

type trace = { t_root : string; t_events : event array }

let stop r =
  Durable.set_hook None;
  { t_root = r.root; t_events = Array.of_list (List.rev r.events) }

let ops t = Array.map (fun e -> e.op) t.t_events

let describe = function
  | Durable.Write { path; bytes } ->
    Printf.sprintf "write %d bytes to %s" (String.length bytes)
      (Filename.basename path)
  | Durable.Fsync p -> "fsync " ^ Filename.basename p
  | Durable.Barrier p -> "barrier " ^ Filename.basename p
  | Durable.Rename { src; dst } ->
    Printf.sprintf "rename %s to %s" (Filename.basename src)
      (Filename.basename dst)
  | Durable.Fsync_dir p -> "fsync directory " ^ Filename.basename p
  | Durable.Remove p -> "remove " ^ Filename.basename p
  | Durable.Mkdir p -> "mkdir " ^ Filename.basename p

(* --- the model filesystem ------------------------------------------------ *)

type file = { mutable volatile : string; mutable durable : string }
type node = File of file | Dir of string

(* a directory's entries as the process sees them, and as its last fsync
   made them durable *)
type dir = {
  mutable entries : (string * node) list;
  mutable synced : (string * node) list;
}

type fs = { dirs : (string, dir) Hashtbl.t; root_of : string }

(* paths relative to the root; the root itself is "." *)
let rel fs path =
  let root = fs.root_of in
  let n = String.length root in
  if path = root then "."
  else if String.length path > n && String.sub path 0 (n + 1) = root ^ "/" then
    String.sub path (n + 1) (String.length path - n - 1)
  else failwith (Printf.sprintf "Crash_model: %s is outside %s" path root)

let dir_of fs rel_dir =
  match Hashtbl.find_opt fs.dirs rel_dir with
  | Some d -> d
  | None -> failwith ("Crash_model: no directory " ^ rel_dir)

let split fs path =
  let r = rel fs path in
  (dir_of fs (Filename.dirname r), Filename.basename r)

let lookup fs path =
  let d, name = split fs path in
  List.assoc_opt name d.entries

let link fs path node =
  let d, name = split fs path in
  d.entries <- (name, node) :: List.remove_assoc name d.entries

let unlink fs path =
  let d, name = split fs path in
  d.entries <- List.remove_assoc name d.entries

(* the file [path] names, entering the model with [contents] if new *)
let file fs path contents =
  match lookup fs path with
  | Some (File f) ->
    f.volatile <- contents;
    f
  | Some (Dir _) -> failwith ("Crash_model: a directory at " ^ path)
  | None ->
    let f = { volatile = contents; durable = "" } in
    link fs path (File f);
    f

let apply fs { op; contents } =
  match op with
  | Durable.Write { path; bytes } -> (
    match lookup fs path with
    | Some (File f) -> f.volatile <- f.volatile ^ bytes
    | _ -> failwith ("Crash_model: a write to an unknown file " ^ path))
  | Durable.Fsync path ->
    let f = file fs path (Option.get contents) in
    f.durable <- f.volatile
  | Durable.Barrier path -> (
    match lookup fs path with
    | Some (File f) -> f.durable <- f.volatile
    | _ -> failwith ("Crash_model: a barrier of an unknown file " ^ path))
  | Durable.Rename { src; dst } ->
    let f = file fs src (Option.get contents) in
    unlink fs src;
    link fs dst (File f)
  | Durable.Fsync_dir path ->
    let d = dir_of fs (rel fs path) in
    d.synced <- d.entries
  | Durable.Remove path -> unlink fs path
  | Durable.Mkdir path ->
    let r = rel fs path in
    Hashtbl.replace fs.dirs r { entries = []; synced = [] };
    link fs path (Dir r)

(* The unsynced tail of an appended file is torn in half; a file rewritten
   since its last fsync keeps its synced contents. *)
let after_power_cut f =
  let d = String.length f.durable and v = String.length f.volatile in
  if v > d && String.sub f.volatile 0 d = f.durable then
    f.durable ^ String.sub f.volatile d ((v - d) / 2)
  else f.durable

type mode = Process_death | Power_cut

let mode_label = function
  | Process_death -> "process death"
  | Power_cut -> "power cut"

(* [state t ~prefix mode]: the disk a crash before operation [prefix] of
   [t] leaves, as (path relative to the root, [Some contents] for a file
   or [None] for a directory), parents before children. *)
let state t ~prefix mode =
  let fs = { dirs = Hashtbl.create 8; root_of = t.t_root } in
  Hashtbl.replace fs.dirs "." { entries = []; synced = [] };
  for k = 0 to prefix - 1 do
    apply fs t.t_events.(k)
  done;
  let rec walk path r =
    let d = dir_of fs r in
    let entries =
      match mode with Process_death -> d.entries | Power_cut -> d.synced
    in
    List.concat_map
      (fun (name, node) ->
        let p = if path = "" then name else Filename.concat path name in
        match node with
        | File f ->
          [ ( p,
              Some
                (match mode with
                | Process_death -> f.volatile
                | Power_cut -> after_power_cut f) ) ]
        | Dir r' -> (p, None) :: walk p r')
      (List.sort (fun (a, _) (b, _) -> String.compare a b) entries)
  in
  walk "" "."

(* [materialize st ~root] writes state [st] under the empty directory
   [root]. *)
let materialize st ~root =
  List.iter
    (fun (p, contents) ->
      let path = Filename.concat root p in
      match contents with
      | None -> Sys.mkdir path 0o755
      | Some c -> Out_channel.with_open_bin path (fun oc -> output_string oc c))
    st

(* --- crash sites for seeded sweeps --------------------------------------- *)

module Faults = Maintenance.Faults

(* Where a crash strikes in one ingest of a run: at an armed fault point,
   or at a state taken from the run's trace. The traced sites stand for
   the hand-placed points the trace replaced (DESIGN.md, "Crash states"),
   in the checkpoint an [ingest] callback ran after its batch's barrier
   (as [Helpers.ingest_checkpointing] does) or in its own append:
   - [In_checkpoint] dies before one of the checkpoint's operations, a
     seed picks which;
   - [Before_wal_truncate] dies after the new snapshot's rename into place
     and its directory fsync, before the log is archived or replaced;
   - [After_checkpoint_rename] loses power between that rename and its
     directory fsync: the directory reverts to the generation chain;
   - [After_truncate_rename] loses power between the fresh log's rename
     into place and its directory fsync;
   - [In_wal_append] dies before the frame's write or before its barrier,
     or loses power before its barrier (a torn frame); a seed picks
     which. *)
type site =
  | Point of Faults.point
  | In_checkpoint
  | Before_wal_truncate
  | After_checkpoint_rename
  | After_truncate_rename
  | In_wal_append

let site_label = function
  | Point p -> Faults.to_string p
  | In_checkpoint -> "in-checkpoint"
  | Before_wal_truncate -> "before-wal-truncate"
  | After_checkpoint_rename -> "after-checkpoint-rename"
  | After_truncate_rename -> "after-truncate-rename"
  | In_wal_append -> "in-wal-append"

(* every site of a serial run *)
let serial_sites =
  List.map (fun p -> Point p) Faults.all
  @ [
      In_checkpoint;
      Before_wal_truncate;
      After_checkpoint_rename;
      After_truncate_rename;
      In_wal_append;
    ]

(* [crash_point t ~acks ~batch site ~seed]: the prefix of [t] and the
   crash mode of [site] in the [batch]-th ingest (from 1), given the trace
   lengths at which each ingest returned ([acks]). *)
let crash_point t ~acks ~batch site ~seed =
  let ops = ops t in
  let stop = List.nth acks (batch - 1) in
  let rec barrier k =
    match ops.(k) with Durable.Barrier _ -> k | _ -> barrier (k - 1)
  in
  let barrier = barrier (stop - 1) in
  (* the checkpoint's rename of [src] into [dst] *)
  let rename_into ~src ~dst =
    let rec find k =
      if k >= stop then
        invalid_arg
          (Printf.sprintf "Crash_model.crash_point: no rename of %s to %s" src
             dst)
      else
        match ops.(k) with
        | Durable.Rename r
          when Filename.basename r.src = src && Filename.basename r.dst = dst ->
          k
        | _ -> find (k + 1)
    in
    find (barrier + 1)
  in
  match site with
  | Point _ -> invalid_arg "Crash_model.crash_point: a fault point"
  | In_checkpoint ->
    let n = stop - barrier - 1 in
    if n = 0 then invalid_arg "Crash_model.crash_point: no checkpoint";
    (barrier + 1 + (seed mod n), Process_death)
  | Before_wal_truncate ->
    (* the rename's directory fsync is the next operation *)
    (rename_into ~src:"snapshot.bin.new" ~dst:"snapshot.bin" + 2, Process_death)
  | After_checkpoint_rename ->
    (rename_into ~src:"snapshot.bin.new" ~dst:"snapshot.bin" + 1, Power_cut)
  | After_truncate_rename ->
    (rename_into ~src:"wal.bin.tmp" ~dst:"wal.bin" + 1, Power_cut)
  | In_wal_append -> (
    match seed mod 3 with
    | 0 -> (barrier - 1, Process_death)
    | 1 -> (barrier, Process_death)
    | _ -> (barrier, Power_cut))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* [crash ~root ~attach ~ingest batches ~batch site ~seed] leaves in the
   state directory "state" under [root] (an empty directory) the disk of a
   run that [attach]es there and [ingest]s [batches] until it crashes at
   [site] in the [batch]-th ingest. A traced site runs the whole stream
   under a scratch root, then materializes its crash state. Returns how
   many ingests returned before the crash. *)
let crash ~root ~attach ~ingest batches ~batch site ~seed =
  match site with
  | Point point ->
    attach (Filename.concat root "state");
    Faults.arm ~skip:(batch - 1) point;
    Fun.protect ~finally:Faults.disarm (fun () ->
        let acked = ref 0 in
        match
          List.iter
            (fun b ->
              ingest b;
              incr acked)
            batches
        with
        | () -> failwith ("Crash_model.crash: no crash at " ^ site_label site)
        | exception Faults.Crash p when p = point -> !acked)
  | In_checkpoint | Before_wal_truncate | After_checkpoint_rename
  | After_truncate_rename | In_wal_append ->
    let run = root ^ "_run" in
    rm_rf run;
    Sys.mkdir run 0o755;
    let r = record ~root:run in
    let acks =
      Fun.protect
        ~finally:(fun () -> Durable.set_hook None)
        (fun () ->
          attach (Filename.concat run "state");
          List.map
            (fun b ->
              ingest b;
              length r)
            batches)
    in
    let t = stop r in
    let prefix, mode = crash_point t ~acks ~batch site ~seed in
    materialize (state t ~prefix mode) ~root;
    rm_rf run;
    List.length (List.filter (fun a -> a <= prefix) acks)
