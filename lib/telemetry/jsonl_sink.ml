(* Rotating JSONL appender. Rotation is shift-style (logrotate's default
   scheme): the active file moves to [path.1], [path.i] to [path.i+1], and
   the oldest generation falls off the end. All IO errors are swallowed —
   a telemetry sink must never take the pipeline down with it. *)

type t = { path : string; max_bytes : int; mutable oc : out_channel option }

(* the active file plus three rotated generations *)
let files = 4

let open_channel path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  (* Open_append writes at EOF regardless, but [pos_out] only reflects the
     real offset once we seek there explicitly. *)
  (try seek_out oc (out_channel_length oc) with Sys_error _ -> ());
  oc

let open_ ?(max_bytes = 64 * 1024 * 1024) path =
  { path; max_bytes; oc = Some (open_channel path) }

let generation t i = Printf.sprintf "%s.%d" t.path i

let close t =
  match t.oc with
  | Some oc ->
    (try close_out oc with Sys_error _ -> ());
    t.oc <- None
  | None -> ()

let rotate t =
  close t;
  (try Sys.remove (generation t (files - 1)) with Sys_error _ -> ());
  for i = files - 2 downto 1 do
    if Sys.file_exists (generation t i) then (
      try Sys.rename (generation t i) (generation t (i + 1))
      with Sys_error _ -> ())
  done;
  (try Sys.rename t.path (generation t 1) with Sys_error _ -> ());
  t.oc <- Some (open_channel t.path)

let write_line t line =
  (match t.oc with
  | Some oc when pos_out oc > t.max_bytes -> rotate t
  | _ -> ());
  match t.oc with
  | Some oc -> (
    try
      output_string oc line;
      output_char oc '\n';
      flush oc
    with Sys_error _ -> ())
  | None -> ()
