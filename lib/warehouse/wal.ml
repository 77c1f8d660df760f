(* Write-ahead log: length-prefixed, CRC-checksummed records (see wal.mli). *)

type record =
  | Batch of { seq : int; deltas : Relational.Delta.t list }
  | Abort of { seq : int }

let seq_of = function Batch { seq; _ } -> seq | Abort { seq } -> seq

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let magic = "minview-wal/1\n"

(* --- framing ----------------------------------------------------------- *)

let frame record =
  let payload = Marshal.to_string record [] in
  let buf = Buffer.create (String.length payload + 8) in
  Buffer.add_int32_le buf (Int32.of_int (String.length payload));
  Buffer.add_int32_le buf (Int32.of_int (Checksum.string payload));
  Buffer.add_string buf payload;
  Buffer.contents buf

let u32 s off = Int32.to_int (String.get_int32_le s off) land 0xffffffff

(* --- damage classification --------------------------------------------- *)

type damage_kind = Torn_write | Bit_flip

let damage_kind_label = function
  | Torn_write -> "torn-write"
  | Bit_flip -> "bit-flip"

type damage = {
  d_offset : int;  (** where the undecodable tail starts *)
  d_bytes : int;  (** bytes from there to end of file *)
  d_kind : damage_kind;
  d_reason : string;
}

type scan = {
  s_records : record list;
  s_valid_bytes : int;  (** header + every decodable record *)
  s_damage : damage option;
}

(* Read one record; [Error] describes why the tail starting at the current
   frame is undecodable. A file that simply ends mid-frame is a torn write
   (the crash artifact of an interrupted append); a full-length frame whose
   checksum or payload is wrong is mid-stream bit rot. Frame boundaries
   cannot be resynchronized past either (records carry no per-frame magic),
   so everything from the damage offset belongs to the quarantined tail. *)
let read_record ic remaining =
  if remaining < 8 then
    Error (Torn_write, Printf.sprintf "incomplete frame header (%d bytes)" remaining)
  else
    let header = really_input_string ic 8 in
    let len = u32 header 0 and crc = u32 header 4 in
    if len > remaining - 8 then
      Error
        ( Torn_write,
          Printf.sprintf "truncated payload (%d of %d bytes)" (remaining - 8)
            len )
    else
      let payload = really_input_string ic len in
      if Checksum.string payload <> crc then
        Error (Bit_flip, "payload checksum mismatch")
      else
        match (Marshal.from_string payload 0 : record) with
        | r -> Ok r
        | exception _ -> Error (Bit_flip, "checksummed payload is undecodable")

(* --- reading ----------------------------------------------------------- *)

let scan_channel path ic =
  let total = in_channel_length ic in
  if total < String.length magic then corrupt "%s: missing header" path
  else begin
    let header = really_input_string ic (String.length magic) in
    if not (String.equal header magic) then corrupt "%s: not a WAL file" path;
    let rec loop acc =
      let at = pos_in ic in
      let remaining = total - at in
      if remaining = 0 then
        { s_records = List.rev acc; s_valid_bytes = at; s_damage = None }
      else
        match read_record ic remaining with
        | Ok r -> loop (r :: acc)
        | Error (kind, reason) ->
          {
            s_records = List.rev acc;
            s_valid_bytes = at;
            s_damage =
              Some
                {
                  d_offset = at;
                  d_bytes = remaining;
                  d_kind = kind;
                  d_reason = reason;
                };
          }
    in
    loop []
  end

let scan path =
  if not (Sys.file_exists path) then
    { s_records = []; s_valid_bytes = 0; s_damage = None }
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> scan_channel path ic)

(* --- writing ----------------------------------------------------------- *)

module Obs = struct
  let appends =
    Telemetry.Counter.make ~help:"WAL records appended"
      "minview_wal_appends_total"

  let syncs =
    Telemetry.Counter.make ~help:"WAL durability barriers (fsync)"
      "minview_wal_syncs_total"

  let bytes =
    Telemetry.Counter.make ~help:"WAL frame bytes pushed to the OS"
      "minview_wal_bytes_written_total"

  let fsync_seconds =
    Telemetry.Histogram.make ~help:"fsync latency of WAL durability barriers"
      "minview_wal_fsync_seconds"

  let group_frames =
    Telemetry.Histogram.make ~lo:1. ~factor:2. ~buckets:12
      ~help:"Records made durable per group commit (burst size)"
      "minview_wal_group_commit_frames"
end

type writer = {
  path : string;
  mutable oc : out_channel;
  (* frames accepted with [append ~sync:false] but not yet written, in
     [pending.(0 .. used - 1)] — a group commit pushes them to the OS in
     one write and one fsync. The buffer keeps its capacity between
     groups. *)
  mutable pending : Bytes.t;
  mutable used : int;
  mutable staged : int;  (* records in [pending] — the group-commit burst *)
}

(* Make a rename inside [path]'s directory durable: without the directory
   fsync, a power cut can resurrect the replaced file. Best-effort — some
   filesystems refuse directory fds or directory fsync. *)
let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let write_file path records =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      List.iter (fun r -> output_string oc (frame r)) records;
      flush oc;
      (* the content must be on disk before the rename publishes it *)
      try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ());
  Sys.rename tmp path

(* --- salvage ------------------------------------------------------------ *)

let quarantine_path path = path ^ ".quarantine"

let read_span path ~offset ~bytes =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      seek_in ic offset;
      really_input_string ic bytes)

(* Quarantine the undecodable tail beside the log, then atomically rewrite
   the valid prefix. The quarantine file is written and fsynced before the
   prefix rewrite discards the bad bytes, so no evidence is ever lost; both
   renames are made durable with a directory fsync. *)
let salvage path =
  let s = scan path in
  match s.s_damage with
  | None -> (s, None)
  | Some d ->
    let tail = read_span path ~offset:d.d_offset ~bytes:d.d_bytes in
    let qpath = quarantine_path path in
    let qtmp = qpath ^ ".tmp" in
    let oc = open_out_bin qtmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc tail;
        flush oc;
        try Unix.fsync (Unix.descr_of_out_channel oc)
        with Unix.Unix_error _ -> ());
    Sys.rename qtmp qpath;
    fsync_dir qpath;
    write_file path s.s_records;
    fsync_dir path;
    (s, Some qpath)

let reopen path =
  open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path

let open_scanned path s =
  if not (Sys.file_exists path) then begin
    (* create the log so appends always start on a record boundary *)
    write_file path [];
    fsync_dir path
  end;
  let oc = reopen path in
  (* the file is not read again: its length alone says whether appends
     land on the record boundary the scan found (a missing file scanned as
     0 bytes and now holds just the header) *)
  let length = out_channel_length oc in
  if length <> max s.s_valid_bytes (String.length magic) then begin
    close_out_noerr oc;
    corrupt "%s: %d bytes, but its scan ended on a record boundary at %d" path
      length s.s_valid_bytes
  end;
  { path; oc; pending = Bytes.create 4096; used = 0; staged = 0 }

let open_append path =
  let s = scan path in
  (* a damaged tail is repaired by quarantining the bad bytes and atomically
     rewriting the valid prefix — see [salvage] *)
  if s.s_damage <> None then ignore (salvage path);
  open_scanned path s

let fsync_channel oc =
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

let sync w =
  if w.used > 0 then begin
    let len = w.used in
    w.used <- 0;
    Telemetry.Histogram.observe Obs.group_frames (float_of_int w.staged);
    w.staged <- 0;
    Telemetry.Counter.inc Obs.bytes len;
    (* the crash point models a power cut mid-write: only a prefix of the
       group's frames reached the OS, so the log ends in a torn record that
       recovery must drop. Splitting the write in two halves (second half
       only after the crash point) makes that state reachable from tests.
       Both halves are written from the staging buffer in place. *)
    let half = len / 2 in
    output w.oc w.pending 0 half;
    flush w.oc;
    Maintenance.Faults.hit Maintenance.Faults.Mid_group_commit;
    output w.oc w.pending half (len - half);
    flush w.oc
  end;
  (* the commit point: the records must survive a power cut, not just the
     process, before any engine applies them. Wal_fsync sits right at the
     barrier — in [Fail] mode the frames have reached the OS but the
     durability acknowledgement is lost, the transient state the ingest
     retry policy must absorb by issuing the barrier again. *)
  Maintenance.Faults.hit Maintenance.Faults.Wal_fsync;
  Telemetry.Counter.one Obs.syncs;
  Telemetry.Histogram.time Obs.fsync_seconds (fun () -> fsync_channel w.oc)

(* Marshals [record] straight into the staging buffer behind room for its
   header, then writes the header in front: the bytes of [frame record],
   with no intermediate copy. A buffer too small for the payload is
   doubled and the record marshaled again. *)
let grow w =
  let bigger = Bytes.create (2 * Bytes.length w.pending) in
  Bytes.blit w.pending 0 bigger 0 w.used;
  w.pending <- bigger

let rec stage w record =
  let at = w.used + 8 in
  let room = Bytes.length w.pending - at in
  match
    if room <= 0 then None
    else Some (Marshal.to_buffer w.pending at room record [])
  with
  | Some len ->
    Bytes.set_int32_le w.pending w.used (Int32.of_int len);
    Bytes.set_int32_le w.pending (w.used + 4)
      (Int32.of_int (Checksum.sub w.pending at len));
    w.used <- at + len
  | None | (exception Failure _) ->
    grow w;
    stage w record

let append ?sync:(do_sync = true) w record =
  stage w record;
  w.staged <- w.staged + 1;
  Telemetry.Counter.one Obs.appends;
  if do_sync then sync w

let truncate w =
  (* anything still buffered belongs to batches the snapshot already
     contains (the warehouse syncs before applying) — drop, don't replay *)
  w.used <- 0;
  w.staged <- 0;
  close_out_noerr w.oc;
  write_file w.path [];
  (* the empty log is renamed into place, but until the directory entry is
     synced a crash can bring the old log back — replay must converge then *)
  Maintenance.Faults.hit Maintenance.Faults.After_truncate_rename;
  fsync_dir w.path;
  w.oc <- reopen w.path

let rotate w ~to_path =
  (* like [truncate], buffered-but-unsynced frames describe batches the
     just-taken checkpoint already contains — drop them *)
  w.used <- 0;
  w.staged <- 0;
  close_out_noerr w.oc;
  Sys.rename w.path to_path;
  fsync_dir to_path;
  if Filename.dirname to_path <> Filename.dirname w.path then
    fsync_dir w.path;
  write_file w.path [];
  (* same exposure as a truncate: the fresh log was renamed into place but
     a crash before the directory fsync may resurrect the old state *)
  Maintenance.Faults.hit Maintenance.Faults.After_truncate_rename;
  fsync_dir w.path;
  w.oc <- reopen w.path

let close w =
  (* best-effort: push any un-synced frames out rather than losing them *)
  (try sync w with _ -> ());
  close_out_noerr w.oc
