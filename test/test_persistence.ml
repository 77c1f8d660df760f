(* Tests for warehouse persistence: the maintained state survives a
   save/load cycle and ingestion resumes seamlessly. *)

open Helpers

let test case fn = Alcotest.test_case case `Quick fn

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let tiny =
  {
    Workload.Retail.days = 8;
    stores = 2;
    products = 12;
    sold_per_store_day = 4;
    tx_per_product = 2;
    brands = 4;
    seed = 31;
  }

let build () =
  let db = Workload.Retail.load tiny in
  let wh = Warehouse.create db in
  Warehouse.add_view wh Workload.Retail.product_sales;
  Warehouse.add_view ~strategy:Warehouse.Psj wh Workload.Retail.monthly_revenue;
  Warehouse.add_view ~strategy:Warehouse.Replicate wh
    Workload.Retail.sales_by_time;
  (db, wh)

let contents wh name = snd (Warehouse.query wh name)

let tests =
  [
    test "save/load round-trips every view" (fun () ->
        let db, wh = build () in
        let rng = Workload.Prng.create 1 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:150);
        let path = tmp "wh_roundtrip.bin" in
        Warehouse.save wh path;
        let wh' = Warehouse.load path in
        Alcotest.(check (list string)) "names"
          (Warehouse.view_names wh) (Warehouse.view_names wh');
        List.iter
          (fun name ->
            Alcotest.check relation name (contents wh name) (contents wh' name))
          (Warehouse.view_names wh);
        Sys.remove path);
    test "ingestion resumes after a restart" (fun () ->
        let db, wh = build () in
        let rng = Workload.Prng.create 2 in
        Warehouse.ingest wh (Workload.Delta_gen.stream rng db ~n:100);
        let path = tmp "wh_resume.bin" in
        Warehouse.save wh path;
        (* the process "restarts": only the state file and the live delta
           stream remain *)
        let wh' = Warehouse.load path in
        let more = Workload.Delta_gen.stream rng db ~n:100 in
        Warehouse.ingest wh' more;
        List.iter
          (fun view ->
            Alcotest.check relation view.View.name
              (Algebra.Eval.eval db view)
              (contents wh' view.View.name))
          [ Workload.Retail.product_sales; Workload.Retail.monthly_revenue;
            Workload.Retail.sales_by_time ];
        Sys.remove path);
    test "detail profile survives the round trip" (fun () ->
        let _db, wh = build () in
        let path = tmp "wh_profile.bin" in
        Warehouse.save wh path;
        let wh' = Warehouse.load path in
        Alcotest.(check (list (triple string int int))) "profile"
          (Warehouse.detail_profile wh)
          (Warehouse.detail_profile wh');
        Sys.remove path);
    test "a snapshot keeps no copy of the facts the warehouse deleted"
      (fun () ->
        let db = Workload.Retail.load Workload.Retail.small_params in
        let wh = Warehouse.create db in
        Warehouse.add_view wh Workload.Retail.sales_by_time;
        let size path = (Unix.stat path).Unix.st_size in
        let created = tmp "wh_created.bin" in
        Warehouse.save wh created;
        let dir = Filename.temp_dir "wh_emptied" "" in
        Warehouse.attach wh ~dir;
        Warehouse.ingest wh
          (Database.fold db "sale"
             (fun tup acc -> Delta.delete "sale" tup :: acc)
             []);
        Warehouse.checkpoint wh;
        Warehouse.close wh;
        (* facts dominate the store: once all are deleted, the snapshot must
           shrink to under half of the one saved right after [create] — it
           would not if the initial extract were still retained and saved *)
        Alcotest.(check bool) "under half the size" true
          (2 * size (Filename.concat dir "snapshot.bin") < size created);
        Sys.remove created);
    test "load rejects foreign files" (fun () ->
        let path = tmp "wh_bogus.bin" in
        let oc = open_out_bin path in
        output_string oc "definitely not a warehouse state file .........";
        close_out oc;
        (match Warehouse.load path with
        | exception Warehouse.Error { kind = Warehouse.Corrupt_state; _ } -> ()
        | _ -> Alcotest.fail "expected Corrupt_state");
        Sys.remove path);
    test "load rejects truncated files" (fun () ->
        let path = tmp "wh_short.bin" in
        let oc = open_out_bin path in
        output_string oc "mini";
        close_out oc;
        (match Warehouse.load path with
        | exception Warehouse.Error { kind = Warehouse.Corrupt_state; _ } -> ()
        | _ -> Alcotest.fail "expected Corrupt_state");
        Sys.remove path);
  ]

(* --- the section codec: a round trip through save and load ------------- *)

(* [Value.equal], except that a float is its bits: [-0.0] is not [0.0] and
   each NaN payload is its own value. *)
let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let same_tuple a b = Array.length a = Array.length b && Array.for_all2 same_value a b

let edge_floats =
  [ -0.0; 0.0; infinity; neg_infinity; Float.nan;
    Int64.float_of_bits 0x7FF8_0000_0000_0001L;
    Int64.float_of_bits 0xFFF8_0000_DEAD_BEEFL;
    Int64.float_of_bits 0x7FF0_0000_0000_0001L; 4.9e-324; max_float; 0.1 ]

let edge_ints = [ min_int; max_int; 0; -1; 1; 63; 64; -64; -65; 4095; 4096 ]

let edge_texts =
  [ ""; "\000"; "a\nb\r\n"; String.make 300 '\000' ^ String.init 256 Char.chr ]

let col name ty = { Schema.col_name = name; col_type = ty }

let edge_schema =
  Schema.make ~name:"edge_cells" ~key:"id"
    [ col "id" Datatype.TInt; col "f" Datatype.TFloat; col "t" Datatype.TString;
      col "b" Datatype.TBool; col "i" Datatype.TInt ]

(* The edge cells, each at least once, then the generated ones; keys
   include [min_int] and [max_int]. *)
let edge_rows extra =
  let pick l k = List.nth l (k mod List.length l) in
  let fixed =
    List.init 12 (fun k ->
        [| Value.Int (if k = 0 then min_int else if k = 1 then max_int else k);
           Value.Float (pick edge_floats k); Value.String (pick edge_texts k);
           Value.Bool (k land 1 = 0); Value.Int (pick edge_ints k) |])
  in
  fixed
  @ List.mapi
      (fun k (f, n, t, b) ->
        [| Value.Int (100 + k); Value.Float f; Value.String t; Value.Bool b;
           Value.Int n |])
      extra

(* Deltas the warehouse refuses, holding NULL and the edge cells: they
   reach the dead-letter section through its tagged values. *)
let refused rows =
  List.concat_map
    (fun row ->
      [ Delta.insert "edge_cells" (Array.append row [| Value.Null |]);
        Delta.insert "no_such_table" row;
        Delta.update "edge_cells" ~before:(Array.map Fun.id row)
          ~after:(Array.append [| Value.Null |] row) ])
    rows

let dead_letter_equal (a : Delta.rejection) (b : Delta.rejection) =
  a.reason = b.reason && String.equal a.detail b.detail
  && String.equal a.delta.table b.delta.table
  &&
  match (a.delta.change, b.delta.change) with
  | Delta.Insert x, Delta.Insert y | Delta.Delete x, Delta.Delete y ->
    same_tuple x y
  | Delta.Update u, Delta.Update v ->
    same_tuple u.before v.before && same_tuple u.after v.after
  | _ -> false

let prop_round_trip =
  QCheck2.Test.make ~count:25 ~name:"save/load keeps store, views and dead letters"
    QCheck2.Gen.(
      pair (int_bound 100_000)
        (small_list
           (quad float int (string_size ~gen:char (int_bound 40)) bool)))
    (fun (seed, extra) ->
      let rng = Workload.Prng.create seed in
      let inst = Workload.Schema_gen.random rng in
      let db = inst.Workload.Schema_gen.db in
      Database.add_table db edge_schema ~updatable:[];
      let rows = edge_rows extra in
      List.iter (Database.insert db "edge_cells") rows;
      let wh = Warehouse.create db in
      let views =
        List.init 2 (fun k ->
            { (Workload.Schema_gen.random_view rng inst) with
              View.name = Printf.sprintf "v%d" k })
      in
      List.iter (Warehouse.add_view wh) views;
      (* the stream leaves the edge rows as they are *)
      Warehouse.ingest wh
        (Workload.Delta_gen.stream_for rng db
           ~tables:inst.Workload.Schema_gen.all_tables ~n:40);
      ignore (Warehouse.ingest_report wh (refused rows) : Warehouse.report);
      let path = tmp (Printf.sprintf "wh_codec_%d.bin" seed) in
      Warehouse.save wh path;
      let wh' = Warehouse.load path in
      Sys.remove path;
      let src = Warehouse.believed_source wh
      and src' = Warehouse.believed_source wh' in
      let check what ok = ok || QCheck2.Test.fail_reportf "%s differs" what in
      let same_image (t, rows) (t', rows') =
        String.equal t t'
        && List.equal
             (fun (r, n) (r', n') -> Tuple.equal r r' && n = n')
             rows rows'
      in
      check "store image"
        (List.equal same_image (store_image src) (store_image src'))
      && check "an edge row"
           (List.for_all
              (fun row ->
                match Database.find_by_key src' "edge_cells" row.(0) with
                | Some row' -> same_tuple row row'
                | None -> false)
              rows)
      && check "a view"
           (List.for_all
              (fun (v : View.t) ->
                Relation.equal (contents wh v.View.name)
                  (contents wh' v.View.name))
              views)
      && check "the dead letters"
           (List.equal dead_letter_equal (Warehouse.dead_letters wh)
              (Warehouse.dead_letters wh')))

(* --- the streamed writer == the whole-section encoder ------------------ *)

(* QCHECK_COUNT=200 dune exec test/test_persistence.exe  — soak mode *)
let count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some n -> int_of_string n
  | None -> 8

(* [save] streams a section through 64 KiB chunks. A [bulk] table's rows
   span three or more of them: thousands of short rows, the edge floats
   (both zeros, NaNs) and edge ints, and a TEXT cell longer than a chunk
   every thousand rows. [empty] holds no row and has a TEXT key. *)
let chunk = 65_536

let bulk_schema =
  Schema.make ~name:"bulk" ~key:"id"
    [ col "id" Datatype.TInt; col "t" Datatype.TString; col "f" Datatype.TFloat;
      col "b" Datatype.TBool; col "n" Datatype.TInt ]

let empty_schema =
  Schema.make ~name:"empty" ~key:"k"
    [ col "k" Datatype.TString; col "x" Datatype.TFloat ]

let bulk_rows rng =
  List.init
    (3_000 + Workload.Prng.int rng 3_000)
    (fun k ->
      let text =
        if k mod 1_000 = 7 then
          String.make (chunk + 1 + Workload.Prng.int rng chunk)
            (Char.chr (Workload.Prng.int rng 256))
        else String.init (Workload.Prng.int rng 40) (fun j -> Char.chr (j + 48))
      in
      [| Value.Int k; Value.String text;
         Value.Float (Workload.Prng.pick rng edge_floats);
         Value.Bool (Workload.Prng.int rng 2 = 0);
         Value.Int
           (if Workload.Prng.int rng 2 = 0 then Workload.Prng.pick rng edge_ints
            else Workload.Prng.int rng 1_000_000) |])

let read_file path = In_channel.with_open_bin path In_channel.input_all

let prop_streamed_equals_buffered =
  QCheck2.Test.make ~count
    ~name:"a streamed snapshot == each section staged whole"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rng = Workload.Prng.create seed in
      let inst = Workload.Schema_gen.random ~floats:true rng in
      let db = inst.Workload.Schema_gen.db in
      Database.add_table db bulk_schema ~updatable:[];
      Database.add_table db empty_schema ~updatable:[];
      List.iter (Database.insert db "bulk") (bulk_rows rng);
      let wh = Warehouse.create db in
      List.iter
        (fun k ->
          Warehouse.add_view wh
            { (Workload.Schema_gen.random_view ~extended:true rng inst) with
              View.name = Printf.sprintf "v%d" k })
        [ 0; 1 ];
      Warehouse.ingest wh
        (Workload.Delta_gen.stream_for rng db
           ~tables:inst.Workload.Schema_gen.all_tables ~n:40);
      ignore
        (Warehouse.ingest_report wh (refused (edge_rows [])) : Warehouse.report);
      let path = tmp (Printf.sprintf "wh_streamed_%d.bin" seed) in
      Warehouse.save wh path;
      let saved = read_file path in
      Sys.remove path;
      let spans =
        List.exists
          (fun sec ->
            String.equal sec.sec_name "rows of bulk"
            && String.length sec.sec_body >= 3 * chunk)
          (snapshot_sections saved)
      in
      (spans || QCheck2.Test.fail_report "the bulk rows span under 3 chunks")
      && (String.equal saved (buffered_v7 wh)
         || QCheck2.Test.fail_reportf "%d-byte snapshot differs from the oracle"
              (String.length saved))
      &&
      (* the same store written as version 6 loads to the same state *)
      let v6 = tmp (Printf.sprintf "wh_streamed_v6_%d.bin" seed) in
      Out_channel.with_open_bin v6 (fun oc ->
          output_string oc (buffered_v6 wh));
      let wh6 = Warehouse.load v6 in
      Warehouse.save wh6 path;
      let again = read_file path in
      Sys.remove v6;
      Sys.remove path;
      String.equal saved again
      || QCheck2.Test.fail_report "a version-6 oracle loads to another state")

(* The words one [save] allocates, after a first save: a table of
   [facts] rows of every cell type. A major collection on each side folds
   the words allocated straight into the major heap (a chunk, a grown
   buffer) into the counters, which otherwise count them at the next
   slice; the paths have one length. *)
let save_words facts =
  let db = Database.create () in
  Database.add_table db bulk_schema ~updatable:[];
  for k = 1 to facts do
    Database.insert db "bulk"
      [| Value.Int k; Value.String (string_of_int (k * 7919));
         Value.Float (float_of_int k /. 4.); Value.Bool (k land 1 = 0);
         Value.Int (k * 104_729) |]
  done;
  let wh = Warehouse.create db in
  let path = tmp (Printf.sprintf "wh_save_words_%06d.bin" facts) in
  Warehouse.save wh path;
  let words () =
    Gc.full_major ();
    let s = Gc.quick_stat () in
    s.minor_words +. s.major_words -. s.promoted_words
  in
  let w0 = words () in
  Warehouse.save wh path;
  let w1 = words () in
  Sys.remove path;
  int_of_float (w1 -. w0)

(* The minor words one [Database.restore_rows] allocates, after a first
   restore, reading [rows] rows of a table of INT and FLOAT measures: a
   cell goes from the reader straight into its word, so nothing is
   allocated per row. The row blocks and the key index are allocated
   whole, outside the minor heap; the array of the blocks holds one word
   per 1,024 rows. *)
let measures_schema =
  Schema.make ~name:"measures" ~key:"id"
    [ col "id" Datatype.TInt; col "x" Datatype.TFloat; col "y" Datatype.TFloat;
      col "n" Datatype.TInt ]

let restore_words rows =
  let db = Database.create () in
  Database.add_table db measures_schema ~updatable:[];
  for k = 1 to rows do
    Database.insert db "measures"
      [| Value.Int k; Value.Float (float_of_int k /. 3.);
         Value.Float (-0.5 *. float_of_int k); Value.Int (k * 7919) |]
  done;
  let w = Relational.Codec.writer 64 in
  Database.add_rows db "measures" w;
  let body = Relational.Codec.bytes w and len = Relational.Codec.length w in
  let restore () =
    let db' = Database.create () in
    Database.add_table db' measures_schema ~updatable:[];
    Database.restore_rows db' "measures" ~rows
      (Relational.Codec.reader body 0 len);
    db'
  in
  ignore (Sys.opaque_identity (restore ()));
  let w0 = Gc.minor_words () in
  let db' = restore () in
  let w1 = Gc.minor_words () in
  let rows_of db = List.map Tuple.to_string (Database.rows_by_key db "measures") in
  Alcotest.(check (list string)) "restored rows" (rows_of db) (rows_of db');
  int_of_float (w1 -. w0)

let streaming_tests =
  [
    QCheck_alcotest.to_alcotest prop_streamed_equals_buffered;
    test "save allocates the same words at 2,000 and at 32,000 facts"
      (fun () ->
        let small = save_words 2_000 and large = save_words 32_000 in
        Printf.printf "save: %d words at 2,000 facts, %d at 32,000\n" small
          large;
        Alcotest.(check int) "words at 32,000 facts" small large);
    test "restoring FLOAT and INT rows allocates the same words at 2,000 and \
          at 32,000 rows, but for its block pointers"
      (fun () ->
        let small = restore_words 2_000 and large = restore_words 32_000 in
        Printf.printf "restore: %d minor words at 2,000 rows, %d at 32,000\n"
          small large;
        let blocks n = (n + 1023) / 1024 in
        Alcotest.(check int) "words at 32,000 rows, less its block pointers"
          (small - blocks 2_000) (large - blocks 32_000));
  ]

let () =
  Alcotest.run "persistence"
    [ ("save-load", tests);
      ("codec", [ QCheck_alcotest.to_alcotest prop_round_trip ]);
      ("streamed", streaming_tests) ]
