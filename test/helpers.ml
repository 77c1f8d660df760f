(* Shared test fixtures: alcotest testables, schema/view shorthands, and the
   paper's example instances. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
module Datatype = Relational.Datatype
module Delta = Relational.Delta
module View = Algebra.View
module Attr = Algebra.Attr
module Aggregate = Algebra.Aggregate
module Select_item = Algebra.Select_item
module Predicate = Algebra.Predicate
module Cmp = Algebra.Cmp

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal
let tuple : Tuple.t Alcotest.testable = Alcotest.testable Tuple.pp Tuple.equal

let relation : Relation.t Alcotest.testable =
  Alcotest.testable Relation.pp Relation.equal

let i n = Value.Int n
let s x = Value.String x
let f x = Value.Float x
let b x = Value.Bool x

let row vs = Array.of_list vs

(* A one-table joined row for direct [View_state] feeds: [key]'s cells,
   then per select item its argument — [`Key] for a group-by item,
   [`Count] for a COUNT, [`Sum v] for a SUM/AVG argument, [`Val v] for a
   MIN/MAX/DISTINCT one — read through the same typed plan the engine
   compiles. *)
let feed_row key args =
  let module Feed = Maintenance.Feed in
  let k = Array.length key in
  let cell p = { Feed.slot = 0; base = p; plain = -1 } in
  let f =
    Feed.create ~auxs:[| None |]
      ~key:(Array.init k cell)
      ~args:
        (Array.mapi
           (fun j -> function
             | `Key -> Feed.Key
             | `Count -> Feed.Weight
             | `Sum _ -> Feed.Sum { c = cell (k + j); sum = -1 }
             | `Val _ -> Feed.Value { c = cell (k + j); ext = -1 })
           args)
  in
  Feed.bind_base f 0
    (Array.append key
       (Array.map (function `Sum v | `Val v -> v | `Key | `Count -> Value.Null) args));
  f

(* [rows] (tuple, multiplicity) rendered afresh as the body of a QUERY
   reply: [mult<TAB>cell...<LF>] lines, each cell [Value.to_string]. *)
let render_lines rows =
  String.concat ""
    (List.map
       (fun (tup, m) ->
         String.concat "\t"
           (string_of_int m :: List.map Value.to_string (Array.to_list tup))
         ^ "\n")
       rows)

(* relation from expanded tuple lists *)
let rel rows = Relation.of_list (List.map (fun r -> (row r, 1)) rows)

let a = Attr.make
let join src dst = { View.src; dst }

let local attr op const =
  { Predicate.left = attr; op; right = Predicate.Const const }

let group = Select_item.group
let sum ?(alias = "sum") attr = Select_item.Agg (Aggregate.make ~alias Aggregate.Sum (Some attr))
let avg ?(alias = "avg") attr = Select_item.Agg (Aggregate.make ~alias Aggregate.Avg (Some attr))
let min_ ?(alias = "min") attr = Select_item.Agg (Aggregate.make ~alias Aggregate.Min (Some attr))
let max_ ?(alias = "max") attr = Select_item.Agg (Aggregate.make ~alias Aggregate.Max (Some attr))
let count_star ?(alias = "cnt") () = Select_item.Agg (Aggregate.make ~alias Aggregate.Count_star None)

let count_distinct ?(alias = "cntd") attr =
  Select_item.Agg
    (Aggregate.make ~distinct:true ~alias Aggregate.Count (Some attr))

(* The paper's example instance behind Tables 3 and 4: sales with known
   timeid/productid/price combinations. *)
let paper_example_db () =
  let db = Workload.Retail.empty () in
  List.iteri
    (fun idx (day, month, year) ->
      Database.insert db "time"
        (row [ i (idx + 1); i day; i month; i year ]))
    [ (1, 1, 1997); (2, 1, 1997); (3, 2, 1997); (4, 1, 1996) ];
  List.iteri
    (fun idx (brand, cat) ->
      Database.insert db "product" (row [ i (idx + 1); s brand; s cat ]))
    [ ("acme", "food"); ("apex", "drink") ];
  Database.insert db "store" (row [ i 1; s "1 Main"; s "aal"; s "dk"; s "m" ]);
  (* the instance of Table 3: (timeid, productid, price) combinations with
     duplicates *)
  List.iteri
    (fun idx (timeid, productid, price) ->
      Database.insert db "sale"
        (row [ i (idx + 1); i timeid; i productid; i 1; i price ]))
    [
      (1, 1, 10); (1, 1, 10); (1, 2, 10); (2, 1, 15); (2, 1, 15); (2, 1, 20);
      (3, 2, 30);
    ];
  db

(* Everything a store holds, in a canonical order: per table, every row with
   the number of rows referencing its key. *)
let store_image db =
  List.map
    (fun tbl ->
      let key = Schema.key_index (Database.schema_of db tbl) in
      let rows =
        Database.fold db tbl
          (fun tup acc ->
            (tup, Database.reference_count db tbl tup.(key)) :: acc)
          []
      in
      (tbl, List.sort (fun (a, _) (b, _) -> Tuple.compare a b) rows))
    (Database.table_names db)

let store_image_t = Alcotest.(list (pair string (list (pair tuple int))))

(* --- snapshot sections (versions 6 and 7), read independently of
   [Warehouse] ---

   After the magic line, each section is framed as u32-le header length,
   u64-le body length and u32-le CRC-32 of those twelve bytes, the header
   and the body; the header is a kind byte, the name, the row count and
   the column count and types. Tests use this to damage or rewrite one
   section at a time. *)

let snapshot_magic_len = String.length "minview-warehouse-state/7\n"

(* A varint as [Relational.Codec] writes one: 7 bits a byte, low first. *)
let read_varint s pos =
  let rec go acc shift pos =
    let b = Char.code s.[pos] in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then (acc, pos + 1) else go acc (shift + 7) (pos + 1)
  in
  go 0 0 pos

let add_varint b n =
  let rec go n =
    if n lsr 7 = 0 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go n

type section = {
  sec_off : int;  (** of its frame, in the file *)
  sec_len : int;  (** frame, header and body *)
  sec_kind : int;
  sec_name : string;
  sec_rows : int;
  sec_types : string;  (** the column count and types, as stored *)
  sec_body : string;
}

let snapshot_sections s =
  let rec go off acc =
    if off >= String.length s then List.rev acc
    else begin
      let hlen = Int32.to_int (String.get_int32_le s off) in
      let blen = Int64.to_int (String.get_int64_le s (off + 4)) in
      let h = off + 16 in
      let name_len, p = read_varint s (h + 1) in
      let rows, p' = read_varint s (p + name_len) in
      let sec =
        {
          sec_off = off;
          sec_len = 16 + hlen + blen;
          sec_kind = Char.code s.[h];
          sec_name = String.sub s p name_len;
          sec_rows = rows;
          sec_types = String.sub s p' (h + hlen - p');
          sec_body = String.sub s (h + hlen) blen;
        }
      in
      go (off + sec.sec_len) (sec :: acc)
    end
  in
  go snapshot_magic_len []

(* The section framed again, with a CRC of what it now holds. *)
let frame_section sec =
  let head = Buffer.create 64 in
  Buffer.add_char head (Char.chr sec.sec_kind);
  add_varint head (String.length sec.sec_name);
  Buffer.add_string head sec.sec_name;
  add_varint head sec.sec_rows;
  Buffer.add_string head sec.sec_types;
  let frame = Bytes.create 16 in
  Bytes.set_int32_le frame 0 (Int32.of_int (Buffer.length head));
  Bytes.set_int64_le frame 4 (Int64.of_int (String.length sec.sec_body));
  let covered =
    Bytes.sub_string frame 0 12 ^ Buffer.contents head ^ sec.sec_body
  in
  Bytes.set_int32_le frame 12
    (Int32.of_int (Warehouse.Checksum.string covered));
  Bytes.to_string frame ^ Buffer.contents head ^ sec.sec_body

(* --- the version-6 and -7 encoders, each section staged whole ----------

   [Warehouse.save] as it was before its sections streamed: every body
   staged in a growable writer, its cells read as values through a
   cursor, and the frame checksummed over the whole section at once. The
   oracle for the streamed writer, for a warehouse whose views all have
   [strategy]. Version 6 wrote a pool-size varint (0) after the batch
   number and every FLOAT cell as its 8 IEEE bytes; version 7 writes
   cells through [Relational.Codec]. *)

(* A FLOAT cell as version 6 wrote it *)
let add_raw_float w x =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float x);
  Bytes.iter (fun c -> Relational.Codec.add_byte w (Char.code c)) b

(* [Relational.Codec]'s untagged cells and tagged deltas, with version
   [v]'s FLOAT cells *)
let add_cell_v v w ty x =
  match (v, x) with
  | 6, Value.Float f -> add_raw_float w f
  | _ -> Relational.Codec.add_cell w ty x

let add_rejection_v v w (r : Delta.rejection) =
  let module Codec = Relational.Codec in
  if v = 7 then Codec.add_rejection w r
  else begin
    let value = function
      | Value.Null -> Codec.add_byte w 0
      | Value.Int x ->
        Codec.add_byte w 1;
        Codec.add_int w x
      | Value.Float x ->
        Codec.add_byte w 2;
        add_raw_float w x
      | Value.String x ->
        Codec.add_byte w 3;
        Codec.add_string w x
      | Value.Bool x ->
        Codec.add_byte w 4;
        Codec.add_bool w x
    in
    let tuple t =
      Codec.add_varint w (Array.length t);
      Array.iter value t
    in
    Codec.add_byte w
      (match r.Delta.reason with
      | Delta.Unknown_table -> 0
      | Delta.Schema_mismatch -> 1
      | Delta.Duplicate_key -> 2
      | Delta.Missing_row -> 3
      | Delta.Dangling_reference -> 4
      | Delta.Referenced_key -> 5
      | Delta.Not_updatable -> 6
      | Delta.Engine_failure -> 7);
    Codec.add_string w r.Delta.detail;
    Codec.add_string w r.Delta.delta.Delta.table;
    match r.Delta.delta.Delta.change with
    | Delta.Insert t ->
      Codec.add_byte w 0;
      tuple t
    | Delta.Delete t ->
      Codec.add_byte w 1;
      tuple t
    | Delta.Update { before; after } ->
      Codec.add_byte w 2;
      tuple before;
      tuple after
  end

let buffered ~version ?(strategy = Warehouse.Minimal) wh =
  let module Codec = Relational.Codec in
  let out = Buffer.create 4096 in
  Buffer.add_string out (Printf.sprintf "minview-warehouse-state/%d\n" version);
  let staged fill =
    let w = Codec.writer 16 in
    fill w;
    Bytes.sub_string (Codec.bytes w) 0 (Codec.length w)
  in
  let section kind name ~rows types fill =
    let head =
      staged (fun w ->
          Codec.add_byte w kind;
          Codec.add_string w name;
          Codec.add_varint w rows;
          Codec.add_varint w (Array.length types);
          Array.iter (Codec.add_datatype w) types)
    and body = staged fill in
    let frame = Bytes.create 16 in
    Bytes.set_int32_le frame 0 (Int32.of_int (String.length head));
    Bytes.set_int64_le frame 4 (Int64.of_int (String.length body));
    Bytes.set_int32_le frame 12
      (Int32.of_int
         (Warehouse.Checksum.string (Bytes.sub_string frame 0 12 ^ head ^ body)));
    Buffer.add_bytes out frame;
    Buffer.add_string out head;
    Buffer.add_string out body
  in
  let shadow = Warehouse.believed_source wh in
  let tables = Database.table_names shadow in
  section 0 "catalog" ~rows:(List.length tables) [||] (fun w ->
      Codec.add_varint w (Warehouse.ingested_batches wh);
      if version = 6 then Codec.add_varint w 0;
      Codec.add_string w
        (Marshal.to_string
           (List.rev_map (fun v -> (v, strategy)) (Warehouse.views wh))
           []);
      Database.add_catalog shadow w);
  List.iter
    (fun name ->
      let schema = Database.schema_of shadow name in
      let types = Database.column_types schema
      and key = Schema.key_index schema in
      let cur = Database.Cursor.create shadow name in
      let each_row f =
        for r = 0 to Database.Cursor.rows cur - 1 do
          Database.Cursor.seek cur r;
          f ()
        done
      in
      section 1 ("rows of " ^ name) ~rows:(Database.Cursor.rows cur) types
        (fun w ->
          each_row (fun () ->
              Array.iteri
                (fun j ty ->
                  add_cell_v version w ty (Database.Cursor.cell cur j))
                types));
      section 2 ("reference counts of " ^ name)
        ~rows:(Database.incoming_count shadow name)
        [| types.(key); Datatype.TInt |]
        (fun w ->
          each_row (fun () ->
              let k = Database.Cursor.cell cur key in
              let n = Database.reference_count shadow name k in
              if n > 0 then begin
                add_cell_v version w types.(key) k;
                Codec.add_int w n
              end)))
    tables;
  let dead = List.rev (Warehouse.dead_letters wh) in
  section 3 "dead letters" ~rows:(List.length dead) [||] (fun w ->
      List.iter (add_rejection_v version w) dead);
  Buffer.contents out

let buffered_v6 = buffered ~version:6
let buffered_v7 = buffered ~version:7

(* substring test used when checking rendered reports *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* [n] sale inserts with ids from [first], valid against a retail store
   loaded with [p] (foreign keys cycle through its days, products and
   stores). Every insert carries a distinct price. *)
let sale_inserts (p : Workload.Retail.params) ~first n =
  List.init n (fun j ->
      Delta.insert "sale"
        (row
           [ i (first + j); i ((j mod p.Workload.Retail.days) + 1);
             i ((j mod p.Workload.Retail.products) + 1);
             i ((j mod p.Workload.Retail.stores) + 1); i (j + 1) ]))

(* Labelled op mixes that drive the netted == serial oracles: the
   generator's default, one that mostly deletes (the netted path applies
   negative changes after the positive ones) and one that mostly updates
   (repricings go in place, and chains of updates to one row net to one).
   The default's label is empty. *)
(* The per-delta oracle of the netted route: each delta applied as its own
   batch, in stream order, so no netting ever combines two of them. *)
let apply_each apply e deltas = List.iter (fun d -> apply e [ d ]) deltas

(* A netted batch's net changes as fresh deltas, tables in first-touch
   order. *)
let netted_deltas (t : Relational.Delta_batch.t) =
  List.concat_map
    (fun tb ->
      let name = Relational.Delta_batch.name tb and acc = ref [] in
      Relational.Delta_batch.iter tb
        ~insert:(fun t -> acc := Delta.insert name t :: !acc)
        ~delete:(fun t -> acc := Delta.delete name t :: !acc)
        ~update:(fun before after ->
          acc := Delta.update name ~before ~after :: !acc);
      List.rev !acc)
    t.Relational.Delta_batch.tables

let op_mixes =
  [ ("", Workload.Delta_gen.default_mix);
    ("delete-heavy", { Workload.Delta_gen.insert = 2; delete = 6; update = 1 });
    ("update-heavy", { Workload.Delta_gen.insert = 1; delete = 1; update = 8 }) ]

(* --- a star whose facts carry a FLOAT measure ----------------------------- *)

(* The retail star cut down to the columns views read, with a FLOAT
   [amount] beside the INT [price] on every sale:
   sale(id, timeid, productid, storeid, price, amount). [price], [amount]
   and [timeid] are updatable, so an update may leave every group where it
   is or move its sale to another day. Amounts are multiples of 0.25, so
   every float sum is exact whatever order it is folded in. *)
let measure_empty () =
  let col name col_type = { Schema.col_name = name; col_type } in
  let db = Database.create () in
  Database.add_table db
    (Schema.make ~name:"time" ~key:"id"
       [ col "id" Datatype.TInt; col "month" Datatype.TInt;
         col "year" Datatype.TInt ])
    ~updatable:[ "month" ];
  Database.add_table db
    (Schema.make ~name:"product" ~key:"id"
       [ col "id" Datatype.TInt; col "brand" Datatype.TString ])
    ~updatable:[ "brand" ];
  Database.add_table db
    (Schema.make ~name:"store" ~key:"id"
       [ col "id" Datatype.TInt; col "city" Datatype.TString ])
    ~updatable:[];
  Database.add_table db
    (Schema.make ~name:"sale" ~key:"id"
       [ col "id" Datatype.TInt; col "timeid" Datatype.TInt;
         col "productid" Datatype.TInt; col "storeid" Datatype.TInt;
         col "price" Datatype.TInt; col "amount" Datatype.TFloat ])
    ~updatable:[ "timeid"; "price"; "amount" ];
  List.iter
    (fun (src_col, dst_table) ->
      Database.add_reference db
        { Relational.Integrity.src_table = "sale"; src_col; dst_table })
    [ ("timeid", "time"); ("productid", "product"); ("storeid", "store") ];
  db

let measure_days = 6
let measure_products = 4
let measure_stores = 3

(* A random sale [id]: few distinct values per column, so groups collide. *)
let measure_sale rng id =
  let pick n = i (Workload.Prng.int rng n + 1) in
  row
    [ i id; pick measure_days; pick measure_products; pick measure_stores;
      pick 20; f (float_of_int (Workload.Prng.int rng 40 + 1) *. 0.25) ]

let measure_db ?(facts = 40) seed =
  let db = measure_empty () in
  for d = 1 to measure_days do
    Database.insert db "time"
      (row [ i d; i ((d mod 3) + 1); i (if d <= 3 then 1996 else 1997) ])
  done;
  for p = 1 to measure_products do
    Database.insert db "product" (row [ i p; s (Printf.sprintf "b%d" (p mod 3)) ])
  done;
  for st = 1 to measure_stores do
    Database.insert db "store" (row [ i st; s (Printf.sprintf "c%d" (st mod 2)) ])
  done;
  let rng = Workload.Prng.create seed in
  for id = 1 to facts do
    Database.insert db "sale" (measure_sale rng id)
  done;
  db

(* [n] legal sale changes, applied to [db] as they are generated: one in
   five an insertion, one in five a deletion, the rest updates of the
   price, the amount, both (none of which moves a group of an all-SUM/AVG
   view), the day, or all three. *)
let measure_changes rng db ~n =
  let sales () = Database.fold db "sale" (fun tup acc -> tup :: acc) [] in
  let next_id () =
    1
    + Database.fold db "sale"
        (fun tup m -> match tup.(0) with Value.Int id -> max m id | _ -> m)
        0
  in
  let change () =
    match sales (), Workload.Prng.int rng 10 with
    | [], _ | _, (0 | 1) -> Delta.insert "sale" (measure_sale rng (next_id ()))
    | rows, (2 | 3) -> Delta.delete "sale" (Workload.Prng.pick rng rows)
    | rows, _ ->
      let before = Workload.Prng.pick rng rows in
      let fresh = measure_sale rng 0 in
      let after = Array.copy before in
      let take cols = List.iter (fun c -> after.(c) <- fresh.(c)) cols in
      (match Workload.Prng.int rng 5 with
      | 0 -> take [ 4 ]
      | 1 -> take [ 5 ]
      | 2 -> take [ 4; 5 ]
      | 3 -> take [ 1 ]
      | _ -> take [ 1; 4; 5 ]);
      Delta.update "sale" ~before ~after
  in
  List.init n (fun _ ->
      let d = change () in
      Database.apply db d;
      d)

(* [ingest_checkpointing ~every wh batch] ingests [batch], then
   checkpoints when [wh]'s batch count is a multiple of [every]: a caller
   that checkpoints every n-th batch, for the crash states and chains that
   needs. *)
let ingest_checkpointing ~every wh batch =
  Warehouse.ingest wh batch;
  if Warehouse.ingested_batches wh mod every = 0 then Warehouse.checkpoint wh

(* CI post-mortem hook: when MINVIEW_TEST_TELEMETRY_DIR is set (the CI
   test step does), every test binary dumps its final metrics snapshot
   and trace ring there on exit, so a failing `dune runtest` leaves
   TELEMETRY_dump.json / trace JSONL artifacts to upload. *)
let () =
  match Sys.getenv_opt "MINVIEW_TEST_TELEMETRY_DIR" with
  | None -> ()
  | Some dir ->
      at_exit (fun () ->
          (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
          let base =
            Filename.remove_extension (Filename.basename Sys.executable_name)
          in
          let write name contents =
            try
              let oc = open_out (Filename.concat dir name) in
              output_string oc contents;
              close_out oc
            with Sys_error _ -> ()
          in
          write (base ^ "_TELEMETRY_dump.json") (Telemetry.dump_json ());
          write
            (base ^ "_trace.jsonl")
            (String.concat ""
               (List.map
                  (fun s -> Telemetry.Trace.span_to_json s ^ "\n")
                  (Telemetry.Trace.recent ()))))
