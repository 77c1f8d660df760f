module Codec = Relational.Codec
module Database = Relational.Database

type strategy = Minimal | Psj | Replicate

type contents = {
  views : (Algebra.View.t * strategy) list;
  shadow : Database.t;
  dead : Relational.Delta.rejection list;
  seq : int;
}

exception Corrupt of string
exception Incompatible of string

let corrupt fmt = Format.kasprintf (fun m -> raise (Corrupt m)) fmt

let magic = "minview-warehouse-state/7\n"
let v6_magic = "minview-warehouse-state/6\n"
let v5_magic = "minview-warehouse-state/5\n"

(* Magic lines of the formats this build refuses, and why. *)
let refused_formats =
  [
    ( "minview-warehouse-state/1\n",
      "uses the unchecksummed version-1 format; re-save it with this build" );
    ( "minview-warehouse-state/2\n",
      "uses the version-2 format without the parallel-pool record; re-save \
       it with this build" );
    ( "minview-warehouse-state/3\n",
      "uses the version-3 format, whose shadow kept every row twice; load \
       and save it with a build that writes version 5 first" );
    ( "minview-warehouse-state/4\n",
      "uses the version-4 format, whose shadow kept every row twice; load \
       and save it with a build that writes version 5 first" );
  ]

(* Version 7: the magic line, then the sections in the order of
   [fold_sections]. A section is framed as
     u32-le header length, u64-le body length, u32-le CRC-32 of those
     twelve bytes, the header and the body;
     header: kind byte, name, row count, column count, column types;
     body: the rows, through [Codec].
   [save] streams every body through one chunk of [chunk_len] bytes,
   checksummed and written each time it fills, and patches the frame in
   after the body: its CRC joins that of the twelve bytes and the header
   to the body's with [Checksum.combine]. So a checkpoint holds one chunk
   in memory whatever the store's size, and writes the bytes a section
   staged whole would have. Only the catalog's view definitions are
   marshaled. Version 6 was the same but for two things: every FLOAT cell
   was its 8 IEEE bytes ([Codec.raw_float_reader] reads them), and the
   catalog held a pool-size varint after the batch number, which the
   decoder skips. *)

let frame_len = 16

(* The one buffer a snapshot's sections stream through. *)
let chunk_len = 65536

(* A section, of one of four kinds. Each function below has a case for
   every kind: adding a kind is one case here, one in each of them, and
   its place in [fold_sections] and [kinds]. *)
type section = Catalog | Rows of string | Incoming of string | Dead_letters

let kind = function
  | Catalog -> 0
  | Rows _ -> 1
  | Incoming _ -> 2
  | Dead_letters -> 3

let section_name = function
  | Catalog -> "catalog"
  | Rows table -> "rows of " ^ table
  | Incoming table -> "reference counts of " ^ table
  | Dead_letters -> "dead letters"

(* The row count of the header *)
let row_count c = function
  | Catalog -> Database.table_count c.shadow
  | Rows table -> Database.row_count c.shadow table
  | Incoming table -> Database.incoming_count c.shadow table
  | Dead_letters -> List.length c.dead

(* The column types of the header, which the catalog decides *)
let column_types c = function
  | Catalog | Dead_letters -> [||]
  | Rows table -> Database.column_types (Database.schema_of c.shadow table)
  | Incoming table ->
    [| Database.key_type (Database.schema_of c.shadow table);
       Relational.Datatype.TInt |]

(* The catalog holds the batch number, the view definitions and what
   [Database.add_catalog] writes. The view definitions, a few hundred
   bytes, are the one part of a snapshot whose encoding depends on the
   build. *)
let encode c w = function
  | Catalog ->
    Codec.add_varint w c.seq;
    Codec.add_string w (Marshal.to_string c.views []);
    Database.add_catalog c.shadow w
  | Rows table -> Database.add_rows c.shadow table w
  | Incoming table -> Database.add_incoming c.shadow table w
  | Dead_letters -> List.iter (Codec.add_rejection w) c.dead

(* The view definitions do not unmarshal: another build wrote them. *)
exception Foreign_views

(* [c], the contents decoded so far, with the section's [rows] read from
   [r], of format [version] *)
let decode_body ~version c ~rows r = function
  | Catalog -> (
    let seq = Codec.varint r in
    if version = 6 then ignore (Codec.varint r : int);
    let blob = Codec.string r in
    let shadow = Database.restore_catalog r in
    if rows <> Database.table_count shadow then
      Codec.malformed "row count %d" rows;
    match (Marshal.from_string blob 0 : (Algebra.View.t * strategy) list) with
    | views -> { c with views; shadow; seq }
    | exception _ -> raise Foreign_views)
  | Rows table ->
    Database.restore_rows c.shadow table ~rows r;
    c
  | Incoming table ->
    Database.restore_incoming c.shadow table ~keys:rows r;
    c
  | Dead_letters ->
    { c with dead = List.init rows (fun _ -> Codec.rejection r) }

(* Every section, in file order, folded over the contents: the catalog,
   which names the tables; each table's rows and reference counts, in the
   catalog's table order; the dead letters. *)
let fold_sections f c =
  let c = f Catalog c in
  let c =
    List.fold_left
      (fun c table -> f (Incoming table) (f (Rows table) c))
      c (Database.table_names c.shadow)
  in
  f Dead_letters c

let kinds = List.map kind [ Catalog; Rows ""; Incoming ""; Dead_letters ]

let save c path =
  Durable.replace_file path @@ fun oc ->
    output_string oc magic;
    (* every section's body streams through [chunk]: each time it fills
       it is checksummed, while its bytes are still in cache, and
       written. The frame holds the body's length and the CRC, so it is
       written as a placeholder and patched once the body is out. *)
    let frame = Bytes.make frame_len '\000' and head = Codec.writer 256 in
    let crc = ref 0 and blen = ref 0 in
    let chunk =
      Codec.chunks chunk_len (fun b len ->
          crc := Checksum.update !crc b 0 len;
          blen := !blen + len;
          output oc b 0 len)
    in
    let section s c =
      let types = column_types c s in
      Codec.clear head;
      Codec.add_byte head (kind s);
      Codec.add_string head (section_name s);
      Codec.add_varint head (row_count c s);
      Codec.add_varint head (Array.length types);
      Array.iter (Codec.add_datatype head) types;
      let hlen = Codec.length head and at = pos_out oc in
      output oc frame 0 frame_len;
      output oc (Codec.bytes head) 0 hlen;
      crc := 0;
      blen := 0;
      encode c chunk s;
      Codec.flush chunk;
      Bytes.set_int32_le frame 0 (Int32.of_int hlen);
      Bytes.set_int64_le frame 4 (Int64.of_int !blen);
      Bytes.set_int32_le frame 12
        (Int32.of_int
           (Checksum.combine
              (Checksum.update (Checksum.sub frame 0 12) (Codec.bytes head) 0
                 hlen)
              !crc !blen));
      let next = pos_out oc in
      seek_out oc at;
      output oc frame 0 frame_len;
      seek_out oc next;
      c
    in
    ignore (fold_sections section c : contents)

(* Versions 6 and 7 *)
let decode_sections ~version path ic =
  let body = if version = 6 then Codec.raw_float_reader else Codec.reader in
  let frame = Bytes.create frame_len in
  let buf = ref (Bytes.create 65536) in
  (* The next section, which must be [s]: its CRC is checked before any of
     its bytes is decoded. *)
  let next s c =
    let name = section_name s in
    let fail fmt = Format.kasprintf (corrupt "%s: section %s: %s" path name) fmt in
    let left = in_channel_length ic - pos_in ic in
    if left < frame_len then corrupt "%s: truncated frame header" path;
    really_input ic frame 0 frame_len;
    let hlen = Int32.to_int (Bytes.get_int32_le frame 0) land 0xffffffff in
    let blen = Int64.to_int (Bytes.get_int64_le frame 4) in
    let avail = left - frame_len in
    if blen < 0 || hlen > avail || blen > avail - hlen then
      corrupt "%s: truncated section %s (%d byte(s) left)" path name avail;
    let len = hlen + blen in
    if Bytes.length !buf < len then
      buf := Bytes.create (max len (2 * Bytes.length !buf));
    really_input ic !buf 0 len;
    if
      Checksum.update (Checksum.sub frame 0 12) !buf 0 len
      <> Int32.to_int (Bytes.get_int32_le frame 12) land 0xffffffff
    then corrupt "%s: checksum mismatch in section %s" path name;
    match
      let h = Codec.reader !buf 0 hlen in
      let byte = Codec.byte h in
      let found = Codec.string h in
      let rows = Codec.varint h in
      let types = Array.init (Codec.count h) (fun _ -> Codec.datatype h) in
      if byte <> kind s || not (String.equal found name) then
        fail "found %S (kind %d) in its place" found byte;
      if rows < 0 then fail "row count %d" rows;
      if types <> column_types c s then
        fail "its column types differ from the catalog's";
      let r = body !buf hlen blen in
      let c = decode_body ~version c ~rows r s in
      if Codec.remaining r > 0 then
        fail "%d byte(s) after its last row" (Codec.remaining r);
      c
    with
    | c -> c
    | exception
        ( Codec.Malformed m
        | Database.Violation m
        | Relational.Schema.Invalid m ) ->
      fail "%s" m
    | exception Foreign_views ->
      corrupt "%s: undecodable view definitions (incompatible build?)" path
  in
  let c =
    fold_sections next
      { views = []; shadow = Database.create (); dead = []; seq = 0 }
  in
  if pos_in ic < in_channel_length ic then
    corrupt "%s: %d byte(s) after the last section" path
      (in_channel_length ic - pos_in ic);
  c

(* The validator as version 5 marshaled it: its shadow in the frozen
   layout of [Database.V5], and its undo journal (empty between batches). *)
type v5_validator = {
  v5_shadow : Database.V5.t;
  v5_txn : Relational.Delta.t list option;
}

(* Version 5: u32-le payload length, u32-le CRC-32, and a [Marshal]
   payload of the views and their strategies, the validator, the dead
   letters, the batch sequence number and the pool size, which is
   dropped. Its shadow is converted to the current store, row by row. *)
let decode_v5 path ic =
  let left = in_channel_length ic - pos_in ic in
  if left < 8 then corrupt "%s: truncated frame header" path;
  let frame = really_input_string ic 8 in
  let u32 off = Int32.to_int (String.get_int32_le frame off) land 0xffffffff in
  let len = u32 0 and crc = u32 4 in
  if len > left - 8 then
    corrupt "%s: truncated payload (%d of %d bytes)" path (left - 8) len;
  let payload = really_input_string ic len in
  if Checksum.string payload <> crc then
    corrupt "%s: checksum mismatch" path;
  match
    (Marshal.from_string payload 0
      : (Algebra.View.t * strategy) list * v5_validator
        * Relational.Delta.rejection list * int * int)
  with
  | exception _ -> corrupt "%s: undecodable payload (incompatible build?)" path
  | views, validator, dead, seq, (_ : int) -> (
    match Database.of_v5 validator.v5_shadow with
    | shadow -> { views; shadow; dead; seq }
    | exception Database.Violation m -> corrupt "%s: %s" path m)

let decode path =
  In_channel.with_open_bin path (fun ic ->
      let total = in_channel_length ic in
      let magic_len = String.length magic in
      if total < magic_len then
        corrupt "%s: truncated header (%d bytes)" path total;
      let header = really_input_string ic magic_len in
      if String.equal header magic then decode_sections ~version:7 path ic
      else if String.equal header v6_magic then
        decode_sections ~version:6 path ic
      else if String.equal header v5_magic then decode_v5 path ic
      else
        match List.assoc_opt header refused_formats with
        | Some why -> raise (Incompatible (Printf.sprintf "%s %s" path why))
        | None -> corrupt "%s is not a warehouse state file" path)

let verify path =
  match decode path with
  | c -> Ok c.seq
  | exception (Corrupt m | Incompatible m | Sys_error m) -> Error m
