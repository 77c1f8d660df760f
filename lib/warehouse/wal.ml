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
end

type writer = {
  path : string;
  (* a descriptor, not a channel: a channel would keep the rest of a frame
     whose write failed and push it into the log when closed *)
  fd : Unix.file_descr;
  (* where [append] frames its record; it keeps its capacity between
     appends *)
  mutable pending : Bytes.t;
}

let write_file ?window path records =
  Durable.replace_file ?window path (fun oc ->
      output_string oc magic;
      List.iter (fun r -> output_string oc (frame r)) records)

(* --- salvage ------------------------------------------------------------ *)

let read_span path ~offset ~bytes =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      seek_in ic offset;
      really_input_string ic bytes)

(* Quarantine the undecodable tail beside the log, then atomically rewrite
   the valid prefix. The quarantine file is made durable before the prefix
   rewrite discards the bad bytes, so no evidence is ever lost. *)
let salvage path =
  let s = scan path in
  match s.s_damage with
  | None -> None
  | Some d ->
    let tail = read_span path ~offset:d.d_offset ~bytes:d.d_bytes in
    let q = Durable.quarantine ~contents:tail path in
    write_file path s.s_records;
    Some q

(* Nothing more may be written to a failed log, so its archive is a new
   file: the decodable prefix and an abort marker for the batch that
   failed it. An undecodable tail — normally that batch's torn frame — is
   set aside beside the archive first, as [salvage] does. *)
let archive_failed path ~dst ~seq =
  let s = scan path in
  Option.iter
    (fun d ->
      ignore
        (Durable.quarantine
           ~contents:(read_span path ~offset:d.d_offset ~bytes:d.d_bytes)
           dst))
    s.s_damage;
  write_file dst (s.s_records @ [ Abort { seq } ]);
  Durable.remove path

let writer path =
  match
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  with
  | fd -> { path; fd; pending = Bytes.create 4096 }
  | exception Unix.Unix_error (e, _, _) -> Durable.fail path "open" e

(* every record was synced by its own append: nothing is buffered, so
   closing cannot lose a record *)
let close w = try Unix.close w.fd with Unix.Unix_error _ -> ()

let open_scanned path s =
  (* create the log so appends always start on a record boundary *)
  if not (Sys.file_exists path) then write_file path [];
  let w = writer path in
  (* the file is not read again: its length alone says whether appends
     land on the record boundary the scan found (a missing file scanned as
     0 bytes and now holds just the header) *)
  let length = (Unix.fstat w.fd).Unix.st_size in
  if length <> max s.s_valid_bytes (String.length magic) then begin
    close w;
    corrupt "%s: %d bytes, but its scan ended on a record boundary at %d" path
      length s.s_valid_bytes
  end;
  w

let open_append path =
  let s = scan path in
  (* a damaged tail is repaired by quarantining the bad bytes and atomically
     rewriting the valid prefix — see [salvage] *)
  if s.s_damage <> None then ignore (salvage path);
  open_scanned path s

let create path =
  (* the empty log is renamed into place, but until the directory entry is
     synced a crash can bring the old log back — replay must converge then *)
  write_file ~window:Maintenance.Faults.After_truncate_rename path [];
  writer path

(* Marshals [record] into the staging buffer behind room for its header,
   then writes the header in front: the bytes of [frame record], with no
   intermediate copy. Returns the frame's length. A buffer too small for
   the payload is doubled and the record marshaled again. *)
let rec stage w record =
  match Marshal.to_buffer w.pending 8 (Bytes.length w.pending - 8) record [] with
  | len ->
    Bytes.set_int32_le w.pending 0 (Int32.of_int len);
    Bytes.set_int32_le w.pending 4 (Int32.of_int (Checksum.sub w.pending 8 len));
    8 + len
  | exception Failure _ ->
    w.pending <- Bytes.create (2 * Bytes.length w.pending);
    stage w record

let append w record =
  let len = stage w record in
  Telemetry.Counter.one Obs.appends;
  Telemetry.Counter.inc Obs.bytes len;
  (* the crash point models a power cut mid-write: only a prefix of the
     frame reached the OS, so the log ends in a torn record that recovery
     must drop. Splitting the write in two halves (second half only after
     the crash point) makes that state reachable from tests. *)
  let write off n =
    try ignore (Unix.write w.fd w.pending off n)
    with Unix.Unix_error (e, _, _) -> Durable.fail w.path "write" e
  in
  let half = len / 2 in
  write 0 half;
  Maintenance.Faults.hit Maintenance.Faults.Mid_group_commit;
  write half (len - half);
  (* the commit point: the record must survive a power cut, not just the
     process, before any engine applies it *)
  Telemetry.Counter.one Obs.syncs;
  Telemetry.Histogram.time Obs.fsync_seconds (fun () ->
      Durable.barrier w.path w.fd)
