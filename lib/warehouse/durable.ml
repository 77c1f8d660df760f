(* The durable file operations of a state directory; every failure raises
   (see durable.mli). *)

module Faults = Maintenance.Faults

type op =
  | Write of { path : string; bytes : string }
  | Fsync of string
  | Barrier of string
  | Rename of { src : string; dst : string }
  | Fsync_dir of string
  | Remove of string
  | Mkdir of string

(* Each operation calls the hook inside the [try] that maps its own
   [Unix_error], and builds its [op] only when a hook is set. *)
let hook : (op -> unit) option ref = ref None
let set_hook h = hook := h

let fail path op e =
  raise (Sys_error (Printf.sprintf "%s: %s: %s" path op (Unix.error_message e)))

let write path fd buf off len =
  try
    (match !hook with
    | None -> ()
    | Some h -> h (Write { path; bytes = Bytes.sub_string buf off len }));
    ignore (Unix.write fd buf off len)
  with Unix.Unix_error (e, _, _) -> fail path "write" e

let fsync_as op path fd =
  try
    (match !hook with None -> () | Some h -> h (op path));
    Unix.fsync fd
  with Unix.Unix_error (e, _, _) -> fail path "fsync" e

let fsync = fsync_as (fun p -> Fsync p)

let barrier path fd =
  (* an injected failure takes the path of a real one *)
  (try Faults.hit Faults.Wal_fsync
   with Faults.Injected _ -> fail path "fsync" Unix.EIO);
  fsync_as (fun p -> Barrier p) path fd

let close path fd =
  try Unix.close fd with Unix.Unix_error (e, _, _) -> fail path "close" e

let fsync_dir path =
  let dir = Filename.dirname path in
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (e, _, _) -> fail dir "open" e
  | fd -> (
    match
      (match !hook with None -> () | Some h -> h (Fsync_dir dir));
      Unix.fsync fd
    with
    | () -> close dir fd
    (* EINVAL: this filesystem cannot sync a directory *)
    | exception Unix.Unix_error (Unix.EINVAL, _, _) -> close dir fd
    | exception Unix.Unix_error (e, _, _) ->
      close dir fd;
      fail dir "fsync" e)

let rename src dst =
  (try
     (match !hook with None -> () | Some h -> h (Rename { src; dst }));
     Unix.rename src dst
   with Unix.Unix_error (e, _, _) -> fail src ("rename to " ^ dst) e);
  fsync_dir dst;
  if Filename.dirname src <> Filename.dirname dst then fsync_dir src

let remove path =
  try
    (match !hook with None -> () | Some h -> h (Remove path));
    Unix.unlink path
  with Unix.Unix_error (e, _, _) -> fail path "unlink" e

let replace_file path fill =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    fill oc;
    flush oc;
    fsync tmp (Unix.descr_of_out_channel oc)
  with
  | () ->
    close_out oc;
    rename tmp path
  | exception e ->
    close_out_noerr oc;
    (match e with
    | Sys_error _ -> (
      (* removing the .tmp file while its write error is being raised: a
         failure here adds nothing to that error *)
      try remove tmp with Sys_error _ -> ())
    | _ -> ());
    raise e

let mkdir path =
  if not (Sys.file_exists path && Sys.is_directory path) then begin
    (try
       (match !hook with None -> () | Some h -> h (Mkdir path));
       Unix.mkdir path 0o755
     with Unix.Unix_error (e, _, _) -> fail path "mkdir" e);
    fsync_dir path
  end

let quarantine ?contents path =
  let rec free n =
    let q =
      if n = 0 then path ^ ".quarantine"
      else Printf.sprintf "%s.quarantine.%d" path n
    in
    if Sys.file_exists q then free (n + 1) else q
  in
  let q = free 0 in
  (match contents with
  | None -> rename path q
  | Some bytes -> replace_file q (fun oc -> output_string oc bytes));
  q
