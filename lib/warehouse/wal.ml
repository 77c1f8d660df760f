(* Write-ahead log: length-prefixed, CRC-checksummed records (see wal.mli). *)

module Codec = Relational.Codec
module Datatype = Relational.Datatype
module Delta = Relational.Delta
module Value = Relational.Value

type record =
  | Batch of { seq : int; deltas : Delta.t list }
  | Abort of { seq : int }

let seq_of = function Batch { seq; _ } -> seq | Abort { seq } -> seq

exception Corrupt of string
exception Unencodable of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt
let unencodable fmt = Printf.ksprintf (fun m -> raise (Unencodable m)) fmt

(* The writer's format; older logs are read, never appended to. *)
let version = 3
let magic = "minview-wal/3\n"
let magic_v2 = "minview-wal/2\n"
let magic_v1 = "minview-wal/1\n"

(* --- version-3 payloads ------------------------------------------------ *)

(* A payload is a kind byte (0: batch, 1: abort) and the seq as a varint.
   A batch goes on with its table dictionary — a count, then per table its
   name and its column types — then its delta count and its deltas. A
   delta is a varint [4 * table index + change kind] (0 insert, 1 delete,
   2 update: one byte while the batch touches fewer than 32 tables), then
   its rows as untagged cells ([Codec.add_row]). An update writes its full
   before-image, then per run of up to 63 columns a varint mask of the
   columns whose cell changed and those cells of the after-image.
   Version 2 was the same but for its FLOAT cells, each 8 IEEE bytes
   ([Codec.raw_float_reader] reads them). *)

let kind_batch = 0
let kind_abort = 1
let mask_width = 63

(* A table of the batch being encoded: its dictionary index and the types
   its rows must have. *)
type entry = { e_name : string; e_index : int; e_types : Datatype.t array }

(* The types come from the rows themselves: a logged delta was admitted, so
   it conforms to its table's schema and holds no NULL. The first row of a
   table in the batch fixes its types; every later row is checked against
   them as it is written. *)
let row_types table tup =
  Array.map
    (function
      | Value.Null -> unencodable "a NULL cell in a row of %s" table
      | v -> Datatype.of_value v)
    tup

let image (d : Delta.t) =
  match d.change with
  | Delta.Insert tup | Delta.Delete tup | Delta.Update { before = tup; _ } ->
    tup

let rec lookup name = function
  | [] -> None
  | e :: rest -> if String.equal e.e_name name then Some e else lookup name rest

(* The batch's tables in order of first use, newest first. *)
let dictionary deltas =
  List.fold_left
    (fun dict (d : Delta.t) ->
      match dict with
      | e :: _ when String.equal e.e_name d.table -> dict
      | _ when Option.is_some (lookup d.table dict) -> dict
      | _ ->
        { e_name = d.table; e_index = List.length dict;
          e_types = row_types d.table (image d) }
        :: dict)
    [] deltas

let same_cell a b =
  a == b
  ||
  match (a, b) with
  | Value.Int x, Value.Int y -> x = y
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.String x, Value.String y -> String.equal x y
  | Value.Bool x, Value.Bool y -> x = y
  | _ -> false

let add_row w e tup =
  if Array.length tup <> Array.length e.e_types then
    unencodable "a %d-cell row in %s, whose first logged row has %d"
      (Array.length tup) e.e_name (Array.length e.e_types);
  Codec.add_row w e.e_types tup

let add_changed w e before after =
  let types = e.e_types in
  let n = Array.length types in
  if Array.length after <> n then
    unencodable "a %d-cell after-image in %s, whose rows have %d"
      (Array.length after) e.e_name n;
  let base = ref 0 in
  while !base < n do
    let stop = min n (!base + mask_width) in
    let mask = ref 0 in
    for i = !base to stop - 1 do
      if not (same_cell (Array.unsafe_get before i) (Array.unsafe_get after i))
      then mask := !mask lor (1 lsl (i - !base))
    done;
    Codec.add_varint w !mask;
    for i = !base to stop - 1 do
      if !mask land (1 lsl (i - !base)) <> 0 then
        Codec.add_cell w (Array.unsafe_get types i) (Array.unsafe_get after i)
    done;
    base := stop
  done

let add_batch w seq deltas =
  let dict = dictionary deltas in
  Codec.add_byte w kind_batch;
  Codec.add_varint w seq;
  Codec.add_varint w (List.length dict);
  List.iter
    (fun e ->
      Codec.add_string w e.e_name;
      Codec.add_varint w (Array.length e.e_types);
      Array.iter (Codec.add_datatype w) e.e_types)
    (List.rev dict);
  Codec.add_varint w (List.length deltas);
  match dict with
  | [] -> ()
  | first :: _ ->
    (* a batch's deltas mostly keep to one table *)
    let last = ref first in
    List.iter
      (fun (d : Delta.t) ->
        if not (String.equal !last.e_name d.table) then
          last := Option.get (lookup d.table dict);
        let e = !last in
        match d.change with
        | Delta.Insert tup ->
          Codec.add_varint w (e.e_index lsl 2);
          add_row w e tup
        | Delta.Delete tup ->
          Codec.add_varint w ((e.e_index lsl 2) lor 1);
          add_row w e tup
        | Delta.Update { before; after } ->
          Codec.add_varint w ((e.e_index lsl 2) lor 2);
          add_row w e before;
          add_changed w e before after)
      deltas

let encode_into w record =
  match record with
  | Abort { seq } ->
    Codec.add_byte w kind_abort;
    Codec.add_varint w seq
  | Batch { seq; deltas } -> (
    (* [Codec.add_cell] refuses a cell of the wrong type: that too is a
       row the log cannot hold *)
    try add_batch w seq deltas
    with Invalid_argument m -> raise (Unencodable m))

let encode record =
  let w = Codec.writer 256 in
  encode_into w record;
  Bytes.sub_string (Codec.bytes w) 0 (Codec.length w)

let decode_delta r tables =
  let tag = Codec.varint r in
  let index = tag lsr 2 in
  if index >= Array.length tables then
    Codec.malformed "table %d of a %d-table dictionary" index
      (Array.length tables);
  let table, types = Array.unsafe_get tables index in
  match tag land 3 with
  | 0 -> { Delta.table; change = Delta.Insert (Codec.row r types) }
  | 1 -> { Delta.table; change = Delta.Delete (Codec.row r types) }
  | 2 ->
    let before = Codec.row r types in
    (* unchanged cells share the before-image's boxes *)
    let after = Array.copy before in
    let n = Array.length types in
    let base = ref 0 in
    while !base < n do
      let stop = min n (!base + mask_width) in
      let mask = Codec.varint r in
      if mask lsr (stop - !base) <> 0 then
        Codec.malformed "an update mask marks columns past %d" n;
      for i = !base to stop - 1 do
        if mask land (1 lsl (i - !base)) <> 0 then
          Array.unsafe_set after i (Codec.cell r (Array.unsafe_get types i))
      done;
      base := stop
    done;
    { Delta.table; change = Delta.Update { before; after } }
  | k -> Codec.malformed "change kind %d" k

let decode_batch r seq =
  let tables =
    Array.init (Codec.count r) (fun _ ->
        let name = Codec.string r in
        (name, Array.init (Codec.count r) (fun _ -> Codec.datatype r)))
  in
  let[@tail_mod_cons] rec deltas n =
    if n = 0 then []
    else
      let d = decode_delta r tables in
      d :: deltas (n - 1)
  in
  Batch { seq; deltas = deltas (Codec.count r) }

(* Versions 2 and 3 *)
let decode_typed reader payload =
  let r = reader (Bytes.unsafe_of_string payload) 0 (String.length payload) in
  let record =
    match Codec.byte r with
    | 0 -> decode_batch r (Codec.varint r)
    | 1 -> Abort { seq = Codec.varint r }
    | k -> Codec.malformed "record kind %d" k
  in
  if Codec.remaining r <> 0 then
    Codec.malformed "%d byte(s) after the record" (Codec.remaining r);
  record

(* The one legacy decoder: version 1 logged each record as a [Marshal]
   payload, readable only by a build whose [record] has the same layout. *)
let decode_v1 payload : record = Marshal.from_string payload 0

let decode ~version payload =
  match version with
  | 1 -> decode_v1 payload
  | 2 -> decode_typed Codec.raw_float_reader payload
  | 3 -> decode_typed Codec.reader payload
  | v -> invalid_arg (Printf.sprintf "Wal.decode: version %d" v)

(* --- framing ----------------------------------------------------------- *)

(* Appends [record]'s frame to [w]: room for the 8 header bytes, the
   payload encoded straight behind them, then the header written in
   front. An encoding error leaves a partial frame in [w], which no caller
   writes out. *)
let frame_into w record =
  let at = Codec.length w in
  for _ = 1 to 8 do
    Codec.add_byte w 0
  done;
  encode_into w record;
  let b = Codec.bytes w and len = Codec.length w - at - 8 in
  Bytes.set_int32_le b at (Int32.of_int len);
  Bytes.set_int32_le b (at + 4) (Int32.of_int (Checksum.sub b (at + 8) len))

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
  s_version : int;
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
let read_record ~version ic remaining =
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
        match decode ~version payload with
        | r -> Ok r
        | exception Codec.Malformed m ->
          Error (Bit_flip, "checksummed payload is undecodable: " ^ m)
        | exception _ -> Error (Bit_flip, "checksummed payload is undecodable")

(* --- reading ----------------------------------------------------------- *)

let scan_channel path ic =
  let total = in_channel_length ic in
  if total < String.length magic then corrupt "%s: missing header" path
  else begin
    let header = really_input_string ic (String.length magic) in
    let version =
      if String.equal header magic then version
      else if String.equal header magic_v2 then 2
      else if String.equal header magic_v1 then 1
      else corrupt "%s: not a WAL file" path
    in
    let rec loop acc =
      let at = pos_in ic in
      let remaining = total - at in
      if remaining = 0 then
        {
          s_version = version;
          s_records = List.rev acc;
          s_valid_bytes = at;
          s_damage = None;
        }
      else
        match read_record ~version ic remaining with
        | Ok r -> loop (r :: acc)
        | Error (kind, reason) ->
          {
            s_version = version;
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
    { s_version = version; s_records = []; s_valid_bytes = 0; s_damage = None }
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
  pending : Codec.writer;
}

(* Every frame is encoded before the file is touched, so a record that
   cannot be encoded — one a legacy log held — leaves [path] as it was. *)
let write_file path records =
  let w = Codec.writer 4096 in
  (try List.iter (frame_into w) records
   with Unencodable m ->
     corrupt "%s: a record cannot be rewritten in the current format: %s" path
       m);
  Durable.replace_file path (fun oc ->
      output_string oc magic;
      output oc (Codec.bytes w) 0 (Codec.length w))

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
  | fd -> { path; fd; pending = Codec.writer 4096 }
  | exception Unix.Unix_error (e, _, _) -> Durable.fail path "open" e

(* every record was synced by its own append: nothing is buffered, so
   closing cannot lose a record *)
let close w = try Unix.close w.fd with Unix.Unix_error _ -> ()

let open_scanned path s =
  let legacy = s.s_version <> version && Sys.file_exists path in
  (* create the log so appends always start on a record boundary; a
     legacy log is never appended to: its decodable prefix (all of it,
     once salvaged) is rewritten in the current format first *)
  if legacy then write_file path s.s_records
  else if not (Sys.file_exists path) then write_file path [];
  let w = writer path in
  (* the file is not read again: its length alone says whether appends
     land on the record boundary the scan found (a missing file scanned as
     0 bytes and now holds just the header) *)
  let length = (Unix.fstat w.fd).Unix.st_size in
  if (not legacy) && length <> max s.s_valid_bytes (String.length magic)
  then begin
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
  write_file path [];
  writer path

let append w record =
  Codec.clear w.pending;
  frame_into w.pending record;
  let len = Codec.length w.pending in
  Telemetry.Counter.one Obs.appends;
  Telemetry.Counter.inc Obs.bytes len;
  Durable.write w.path w.fd (Codec.bytes w.pending) 0 len;
  (* the commit point: the record must survive a power cut, not just the
     process, before any engine applies it *)
  Telemetry.Counter.one Obs.syncs;
  Telemetry.with_phase Obs.fsync_seconds "" (fun () ->
      Durable.barrier w.path w.fd)
