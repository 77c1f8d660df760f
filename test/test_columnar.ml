(* Columnar storage against the paper's definitions: the typed-segment
   Aux_state must hold the group-by of its live weighted tuples
   (Algorithm 3.1: Plain columns, COUNT( * ), the SUM replacements) and
   View_state must render what Algebra.Eval recomputes from the live rows,
   under random insert/delete/update/rollback sequences, applied one
   delta per batch and netted. Plus directed tests for the physical layer: dictionary growth
   (including concurrent intern), column specialization and demotion,
   swap-with-last index repair, and undo-journal cell restoration. *)

open Helpers
module AS = Maintenance.Aux_state
module VS = Maintenance.View_state
module Column = Maintenance.Column
module Icol = Maintenance.Column.Icol
module Marks = Maintenance.Column.Marks
module Dict = Maintenance.Dict
module Rowmap = Relational.Rowmap
module Engines = Maintenance.Engines
module Derive = Mindetail.Derive
module Auxview = Mindetail.Auxview
module Prng = Workload.Prng
module Gen = QCheck2.Gen

module KM = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

let test case fn = Alcotest.test_case case `Quick fn

(* QCHECK_COUNT=500 dune exec test/test_columnar.exe  — soak mode *)
let count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some n -> int_of_string n
  | None -> 40

let tiny_params =
  {
    Workload.Retail.days = 8;
    stores = 2;
    products = 12;
    sold_per_store_day = 4;
    tx_per_product = 2;
    brands = 4;
    seed = 17;
  }

(* product_sales: SUM / COUNT( * ) / COUNT(DISTINCT product.brand) — no
   append-only extrema anywhere, so every auxview supports deletions. *)
let specs_for table =
  let db = Workload.Retail.load tiny_params in
  let d = Derive.derive db Workload.Retail.product_sales in
  match Derive.spec_for d table with
  | Some spec -> (spec, Database.schema_of db table)
  | None -> Alcotest.fail (table ^ ": expected a retained auxview")

(* one group through the cursor accessors, as comparable data *)
let row_sig st (r : AS.row) = (AS.plains st r, AS.cnt r, AS.sums st r, AS.exts st r)

let as_rows st =
  let acc = ref [] in
  AS.iter st (fun r -> acc := row_sig st r :: !acc);
  List.sort compare !acc

(* --- aux state == group-by of its live tuples ---------------------------- *)

(* The rule [Materialize.aux] applies after its semijoins, over weighted
   tuples: group by the spec's Plain columns, adding up COUNT( * ) and each
   Sum_of. As [row_sig]s (these specs keep no extrema), sorted. *)
let group_by spec schema live =
  let idx c = Schema.index_of schema c in
  let plain = Array.of_list (List.map idx (Auxview.group_columns spec)) in
  let summed = List.map idx (Auxview.summed_columns spec) in
  let add (tup, cnt) =
    let weighted = List.map (fun src -> Value.scale tup.(src) cnt) summed in
    KM.update (Tuple.project tup plain) (function
      | None -> Some (cnt, weighted)
      | Some (c, sums) -> Some (c + cnt, List.map2 Value.add sums weighted))
  in
  KM.fold
    (fun key (c, sums) acc -> (key, c, Array.of_list sums, [||]) :: acc)
    (List.fold_right add live KM.empty) []
  |> List.sort compare

(* Those groups as the view's rows, in spec column order. *)
let relation_of spec groups =
  let rel = Relation.create () in
  List.iter
    (fun (key, c, sums, _) ->
      let cell (_, def) =
        match def with
        | Auxview.Plain col -> key.(Option.get (Auxview.plain_position spec col))
        | Auxview.Sum_of col -> sums.(Option.get (Auxview.sum_position spec col))
        | Auxview.Count_star -> i c
        | Auxview.Min_of _ | Auxview.Max_of _ -> assert false
      in
      let r = Array.of_list (List.map cell spec.Auxview.columns) in
      if spec.Auxview.compressed then Relation.insert rel r
      else Relation.insert ~count:c rel r)
    groups;
  rel

(* Drive a columnar state through a random weighted insert/delete
   stream, in committed and rolled-back transaction segments, comparing
   the full observable state after every segment with the group-by of the
   live tuples, and with a twin fed the live tuples in reverse order: its
   rows lie in another order, which [equal] must not see. *)
let aux_matrix ~gen_tup seed (spec, schema) =
  let st1 = AS.create spec schema in
  let rng = Prng.create seed in
  let present = ref [] in
  let ok = ref true in
  let check () =
    let groups = group_by spec schema !present in
    let twin = AS.create spec schema in
    List.iter (fun (tup, count) -> AS.insert_base ~count twin tup) (List.rev !present);
    ok :=
      !ok
      && Relation.equal (AS.to_relation st1) (relation_of spec groups)
      && as_rows st1 = groups
      && AS.equal st1 twin
      && AS.equal twin st1
      && AS.row_count st1 = List.length groups
      && AS.base_count st1
         = List.fold_left (fun acc (_, c) -> acc + c) 0 !present
  in
  let op () =
    let n = List.length !present in
    if n > 0 && Prng.int rng 3 = 0 then begin
      let idx = Prng.int rng n in
      let tup, cnt = List.nth !present idx in
      present := List.filteri (fun j _ -> j <> idx) !present;
      AS.delete_base ~count:cnt st1 tup
    end
    else begin
      let tup = gen_tup rng in
      let cnt = 1 + Prng.int rng 3 in
      present := (tup, cnt) :: !present;
      AS.insert_base ~count:cnt st1 tup
    end
  in
  for _ = 1 to 3 do
    AS.begin_txn st1;
    for _ = 1 to 15 do op () done;
    AS.commit st1;
    check ();
    let saved = !present in
    AS.begin_txn st1;
    for _ = 1 to 15 do op () done;
    AS.rollback st1;
    present := saved;
    check ()
  done;
  !ok

(* small key spaces so folds, underflows-to-zero and re-creations all occur *)
let sale_tup rng =
  row
    [
      i (1000 + Prng.int rng 60); i (1 + Prng.int rng 4); i (1 + Prng.int rng 5);
      i (1 + Prng.int rng 2); i (Prng.int rng 20);
    ]

(* dimension tuples are functionally determined by their key, as in any
   keyed base table — two tuples with one id must be the same tuple *)
let product_tup rng =
  let id = 1 + Prng.int rng 30 in
  row
    [
      i id;
      s (Printf.sprintf "brand-%d" (id mod 5));
      s (Printf.sprintf "cat-%d" (id mod 3));
    ]

let prop_aux_root =
  QCheck2.Test.make ~count
    ~name:"aux state == group-by of live tuples (root, int columns)"
    ~print:string_of_int (Gen.int_bound 100_000) (fun seed ->
      aux_matrix ~gen_tup:sale_tup seed (specs_for "sale"))

let prop_aux_dimension =
  QCheck2.Test.make ~count
    ~name:"aux state == group-by of live tuples (dimension, dictionary columns)"
    ~print:string_of_int (Gen.int_bound 100_000) (fun seed ->
      aux_matrix ~gen_tup:product_tup seed (specs_for "product"))

(* --- view state == recomputation ----------------------------------------- *)

(* group g, SUM(v), COUNT( * ), AVG(v), MAX(v), COUNT(DISTINCT lbl): CSMAS
   components plus both non-CSMAS kinds (extremum + distinct). *)
let vview =
  {
    View.name = "v";
    having = [];
    select =
      [
        group (a "t" "g");
        sum ~alias:"s" (a "t" "v");
        count_star ~alias:"c" ();
        avg ~alias:"av" (a "t" "v");
        max_ ~alias:"mx" (a "t" "v");
        count_distinct ~alias:"cd" (a "t" "lbl");
      ];
    tables = [ "t" ];
    locals = [];
    joins = [];
  }

let vs_contribs key ~v ~lbl =
  feed_row key [| `Key; `Sum (i v); `Count; `Sum (i v); `Val (i v); `Val (s lbl) |]

(* The live entries as base table [t]: entry (g, v, lbl, cnt) is [cnt]
   rows, each under a fresh id. *)
let t_db entries =
  let col name col_type = { Schema.col_name = name; col_type } in
  let db = Database.create () in
  Database.add_table db
    (Schema.make ~name:"t" ~key:"id"
       [ col "id" Datatype.TInt; col "g" Datatype.TInt; col "v" Datatype.TInt;
         col "lbl" Datatype.TString ])
    ~updatable:[];
  let id = ref 0 in
  List.iter
    (fun (k, v, lbl, cnt) ->
      for _ = 1 to cnt do
        incr id;
        Database.insert db "t" (row [ i !id; i k; i v; s lbl ])
      done)
    entries;
  db

(* A view state under random feeds and unfeeds, in committed and
   rolled-back segments, against recomputation from base tables and a twin
   fed the live entries in reverse order. *)
let view_matrix seed =
  let s1 = VS.create vview ~determined:false in
  let rng = Prng.create seed in
  let present = ref [] in
  let ok = ref true in
  let contribs (k, v, lbl, _) = vs_contribs (row [ i k ]) ~v ~lbl in
  let op () =
    let n = List.length !present in
    if n > 0 && Prng.int rng 3 = 0 then begin
      let idx = Prng.int rng n in
      let ((_, _, _, cnt) as entry) = List.nth !present idx in
      present := List.filteri (fun j _ -> j <> idx) !present;
      VS.unfeed s1 (contribs entry) ~cnt
    end
    else begin
      let ((_, _, _, cnt) as entry) =
        ( Prng.int rng 5, Prng.int rng 25,
          Printf.sprintf "l%d" (Prng.int rng 4), 1 + Prng.int rng 3 )
      in
      present := entry :: !present;
      VS.feed s1 (contribs entry) ~cnt
    end
  in
  (* the engine's MAX recomputation: a dirtied group takes the maximum of
     its live entries *)
  let resolve () =
    List.iter
      (fun key ->
        let mx =
          List.fold_left
            (fun m (k, v, _, _) ->
              if Value.equal key.(0) (i k) then max m v else m)
            min_int !present
        in
        VS.set_value s1 ~key ~item:4 (i mx))
      (VS.take_dirty s1)
  in
  let check () =
    resolve ();
    let twin = VS.create vview ~determined:false in
    List.iter
      (fun ((_, _, _, cnt) as entry) -> VS.feed twin (contribs entry) ~cnt)
      (List.rev !present);
    ok :=
      !ok
      && Relation.equal (VS.render s1) (Algebra.Eval.eval (t_db !present) vview)
      && VS.equal s1 twin
      && VS.equal twin s1
  in
  for _ = 1 to 3 do
    VS.begin_txn s1;
    for _ = 1 to 15 do op () done;
    VS.commit s1;
    check ();
    let saved = !present in
    VS.begin_txn s1;
    for _ = 1 to 15 do op () done;
    VS.rollback s1;
    present := saved;
    (* rollback also restores the (empty, post-resolve) dirty set *)
    ok := !ok && not (VS.is_dirty_pending s1);
    check ()
  done;
  !ok

let prop_view_matrix =
  QCheck2.Test.make ~count ~name:"view state == recomputation (random feeds)"
    ~print:string_of_int (Gen.int_bound 100_000) view_matrix

(* --- netted engine equivalence -------------------------------------------- *)

let prop_netted_equivalence =
  QCheck2.Test.make ~count:(max 15 (count / 2))
    ~name:"columnar engines: netted == serial (random streams)"
    ~print:string_of_int (Gen.int_bound 100_000) (fun seed ->
      let db = Workload.Retail.load tiny_params in
      let ser = Engines.minimal db Workload.Retail.product_sales in
      let par = Engines.minimal db Workload.Retail.product_sales in
      let rng = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 3 do
        let deltas = Workload.Delta_gen.stream rng db ~n:25 in
        apply_each Engines.apply_batch ser deltas;
        Engines.apply_batch par deltas;
        ok :=
          !ok
          && Relation.equal (Engines.view_contents ser)
               (Engines.view_contents par)
          && Engines.equal_state ser par
      done;
      !ok)

(* --- scratch isolation: an engine and its twin ---------------------------- *)

(* The serial feed joins through a per-engine scratch row. An engine and
   its twin, built from a copy of the source the engine has absorbed and
   fed interleaved batches from the two diverging sources, must each equal
   recomputation over its own source; the original then takes the netted
   path after all those serial batches. *)
let prop_twin_isolation =
  let views =
    [|
      Workload.Retail.product_sales; Workload.Retail.product_sales_max;
      Workload.Retail.sales_by_time; Workload.Retail.monthly_revenue;
    |]
  in
  QCheck2.Test.make ~count:(max 10 (count / 4))
    ~name:"engine and its twin: interleaved batches == own recomputation"
    ~print:(fun (v, seed) -> Printf.sprintf "%s / seed %d" views.(v).View.name seed)
    Gen.(pair (int_bound (Array.length views - 1)) (int_bound 100_000))
    (fun (v, seed) ->
      let view = views.(v) in
      let db = Workload.Retail.load tiny_params in
      let e = Engines.minimal db view in
      let rng = Prng.create seed in
      (* a batch before the twin leaves the original's scratch row holding
         rows of its own auxiliary views *)
      Engines.apply_batch e (Workload.Delta_gen.stream rng db ~n:15);
      let db' = Database.copy db in
      let c = Engines.minimal db' view in
      let rng' = Prng.create (seed + 1) in
      let agrees e db =
        Relation.equal (Engines.view_contents e) (Algebra.Eval.eval db view)
      in
      let ok = ref (Engines.equal_state e c) in
      for _ = 1 to 4 do
        Engines.apply_batch e (Workload.Delta_gen.stream rng db ~n:12);
        ok := !ok && agrees e db;
        Engines.apply_batch c (Workload.Delta_gen.stream rng' db' ~n:12);
        ok := !ok && agrees c db' && agrees e db
      done;
      Engines.apply_batch e (Workload.Delta_gen.stream rng db ~n:20);
      Engines.apply_batch c (Workload.Delta_gen.stream rng' db' ~n:12);
      !ok && agrees e db && agrees c db')

(* --- directed: dictionaries --------------------------------------------- *)

let dict_tests =
  [
    test "dictionary growth keeps codes dense and stable" (fun () ->
        let d = Dict.create () in
        let n = 5_000 in
        (* growth doubles several times; codes stay dense and first-come *)
        for k = 0 to n - 1 do
          Alcotest.(check int) "dense code" k
            (Dict.intern d (Printf.sprintf "key-%d" k))
        done;
        Alcotest.(check int) "size" n (Dict.size d);
        for k = 0 to n - 1 do
          let str = Printf.sprintf "key-%d" k in
          Alcotest.(check int) "re-intern is stable" k (Dict.intern d str);
          Alcotest.(check string) "decode round-trips" str (Dict.decode d k);
          Alcotest.(check int) "hash matches Value.hash"
            (Value.hash (s str)) (Dict.hash d k)
        done;
        Alcotest.(check bool) "byte accounting nonzero" true (Dict.byte_size d > 0));
    test "concurrent intern with lock-free decode" (fun () ->
        let d = Dict.create () in
        let n = 2_000 in
        let writers =
          List.init 4 (fun w ->
              Domain.spawn (fun () ->
                  for k = 0 to n - 1 do
                    ignore (Dict.intern d (Printf.sprintf "key-%d" ((k + (w * 97)) mod n)))
                  done))
        in
        (* reader races the writers: any code below the observed size must
           decode to a fully-initialized slot *)
        for _ = 1 to 20_000 do
          let sz = Dict.size d in
          if sz > 0 then begin
            let c = sz - 1 in
            if not (String.length (Dict.decode d c) > 0) then
              Alcotest.fail "torn decode";
            ignore (Dict.hash d c)
          end
        done;
        List.iter Domain.join writers;
        Alcotest.(check int) "each string interned once" n (Dict.size d);
        for k = 0 to n - 1 do
          let str = Printf.sprintf "key-%d" k in
          Alcotest.(check string) "round trip" str (Dict.decode d (Dict.intern d str))
        done);
    test "pooled dictionaries are shared per (table, column)" (fun () ->
        let pool = Dict.create_pool () in
        let d1 = Dict.shared pool ~table:"product" ~column:"brand" in
        let d2 = Dict.shared pool ~table:"product" ~column:"brand" in
        let other = Dict.shared pool ~table:"product" ~column:"category" in
        Alcotest.(check bool) "same instance" true (d1 == d2);
        Alcotest.(check bool) "distinct column, distinct dict" true (d1 != other);
        let c1 = Column.create ~dict:d1 () and c2 = Column.create ~dict:d2 () in
        Column.append c1 (s "acme");
        Column.append c2 (s "acme");
        Column.append c2 (s "apex");
        Alcotest.(check string) "dict storage" "dict" (Column.kind c1);
        Alcotest.(check int) "interned once across columns" 2 (Dict.size d1);
        Alcotest.check value "decode through the column" (s "acme") (Column.get c2 0));
  ]

(* --- directed: columns --------------------------------------------------- *)

let column_tests =
  [
    test "int column: specialization, cell arithmetic, swap-delete" (fun () ->
        let c = Column.create () in
        Alcotest.(check string) "untyped" "empty" (Column.kind c);
        for k = 0 to 99 do Column.append c (i k) done;
        Alcotest.(check string) "specialized" "int" (Column.kind c);
        Column.add_cell c 5 (i 10) 3;
        Alcotest.check value "add_cell folds scaled value" (i 35) (Column.get c 5);
        Column.sub_cell c 5 (i 10) 3;
        Alcotest.check value "sub_cell reverses" (i 5) (Column.get c 5);
        Alcotest.(check bool) "equal_cell" true (Column.equal_cell c 7 (i 7));
        Alcotest.(check bool) "equal_cell mismatch" false (Column.equal_cell c 7 (i 8));
        Alcotest.(check int) "hash_cell" (Value.hash (i 7)) (Column.hash_cell c 7);
        Column.swap_delete c 0;
        Alcotest.(check int) "length after delete" 99 (Column.length c);
        Alcotest.check value "last cell moved into the hole" (i 99) (Column.get c 0);
        (* 99 cells in a 128-cell buffer of 4-byte cells, on the heap *)
        Alcotest.(check int) "cell bytes" 512 (Column.byte_size c);
        Alcotest.(check int) "no off-heap payload" 0 (Column.offheap_bytes c));
    test "type mismatch demotes to boxed, preserving cells" (fun () ->
        let c = Column.create () in
        for k = 0 to 49 do Column.append c (i k) done;
        Column.append c (f 1.5);
        Alcotest.(check string) "demoted" "boxed" (Column.kind c);
        Alcotest.check value "old cell survives" (i 42) (Column.get c 42);
        Alcotest.check value "new cell stored" (f 1.5) (Column.get c 50);
        Column.add_cell c 42 (i 1) 2;
        Alcotest.check value "generic add_cell still works" (i 44) (Column.get c 42));
    test "float column: unboxed arithmetic, int operands" (fun () ->
        let c = Column.create () in
        Column.append c (f 1.0);
        Column.append c (f 2.0);
        Alcotest.(check string) "specialized" "float" (Column.kind c);
        Column.add_cell c 0 (f 0.5) 2;
        Alcotest.check value "float add" (f 2.0) (Column.get c 0);
        Column.add_cell c 0 (i 2) 3;
        Alcotest.check value "int operand on float storage" (f 8.0) (Column.get c 0);
        Column.set c 1 (f 9.5);
        Alcotest.check value "set" (f 9.5) (Column.get c 1));
    test "boxed sentinel column represents absent values" (fun () ->
        let c = Column.create_boxed () in
        Column.append c Value.Null;
        Column.append c (i 3);
        Alcotest.(check string) "forced boxed" "boxed" (Column.kind c);
        Alcotest.check value "sentinel" Value.Null (Column.get c 0);
        Column.combine_ext c 1 (i 7) ~is_min:false;
        Alcotest.check value "max combine" (i 7) (Column.get c 1);
        Column.combine_ext c 1 (i 5) ~is_min:true;
        Alcotest.check value "min combine" (i 5) (Column.get c 1));
    test "Icol: dense int cells with grow and swap-delete" (fun () ->
        let c = Icol.create () in
        for k = 0 to 999 do Icol.append c (k * 2) done;
        Alcotest.(check int) "length" 1000 (Icol.length c);
        Alcotest.(check int) "get" 84 (Icol.get c 42);
        Icol.add c 42 5;
        Alcotest.(check int) "add" 89 (Icol.get c 42);
        Icol.set c 42 84;
        Icol.swap_delete c 0;
        Alcotest.(check int) "swap-delete" 1998 (Icol.get c 0);
        Alcotest.(check int) "shrunk" 999 (Icol.length c));
    test "Marks: an epoch unmarks every row, past its 255th too" (fun () ->
        let m = Marks.create () in
        for _ = 1 to 40 do Marks.append m done;
        Marks.next_epoch m;
        Marks.mark m 3;
        Marks.mark m 39;
        Alcotest.(check bool) "marked" true (Marks.marked m 3);
        Alcotest.(check bool) "unmarked" false (Marks.marked m 4);
        Marks.swap_delete m 3;
        Alcotest.(check bool) "the last row's mark moved" true (Marks.marked m 3);
        Alcotest.(check int) "shrunk" 39 (Marks.length m);
        Marks.append m;
        Alcotest.(check bool) "appended unmarked" false (Marks.marked m 39);
        (* row 3 holds epoch 1; 255 epochs later the epochs have wrapped
           back to 1, and the row must not read as marked *)
        for e = 2 to 256 do
          Marks.next_epoch m;
          Alcotest.(check bool) (Printf.sprintf "epoch %d" e) false (Marks.marked m 3)
        done);
  ]

(* --- directed: rowmap ---------------------------------------------------- *)

let rowmap_tests =
  [
    test "rowmap: find, steal, rename, tombstone churn" (fun () ->
        (* keys live outside the map, as in the columnar states *)
        let keys = Hashtbl.create 64 in
        let key_of r = Hashtbl.find keys r in
        let m = Rowmap.create ~hash:(fun r -> Hashtbl.hash (key_of r)) () in
        let add r k =
          Hashtbl.replace keys r k;
          Rowmap.add m ~hash:(Hashtbl.hash k) r
        in
        let find k =
          Rowmap.find m ~hash:(Hashtbl.hash k) ~eq:(fun r -> key_of r = k)
        in
        for r = 0 to 99 do add r (1000 + r) done;
        Alcotest.(check int) "live entries" 100 (Rowmap.length m);
        for r = 0 to 99 do
          Alcotest.(check (option int)) "find" (Some r) (find (1000 + r))
        done;
        Alcotest.(check (option int)) "absent" None (find 42);
        (* steal: replace the entry for key 1000 with a new row *)
        Hashtbl.replace keys 500 1000;
        (match
           Rowmap.replace m ~hash:(Hashtbl.hash 1000)
             ~eq:(fun r -> key_of r = 1000)
             500
         with
        | Some prev -> Alcotest.(check int) "stole row 0" 0 prev
        | None -> Alcotest.fail "expected a steal");
        Alcotest.(check (option int)) "stolen" (Some 500) (find 1000);
        (* rename: swap-with-last renumbers a row *)
        Alcotest.(check bool) "rename" true
          (Rowmap.rename_value m ~hash:(Hashtbl.hash 1001) ~old_row:1 ~new_row:700);
        Hashtbl.replace keys 700 1001;
        Alcotest.(check (option int)) "renamed" (Some 700) (find 1001);
        (* churn: repeated add/remove forces resizes through tombstones *)
        for cycle = 0 to 50 do
          for j = 0 to 63 do
            let r = 10_000 + (cycle * 64) + j in
            add r r
          done;
          for j = 0 to 63 do
            if j mod 2 = 0 then begin
              let r = 10_000 + (cycle * 64) + j in
              Alcotest.(check bool) "remove" true
                (Rowmap.remove_value m ~hash:(Hashtbl.hash (key_of r)) r)
            end
          done
        done;
        Alcotest.(check int) "live after churn" (100 + (51 * 32)) (Rowmap.length m);
        Alcotest.(check (option int)) "survivor found" (Some 10_001) (find 10_001);
        Alcotest.(check (option int)) "victim gone" None (find 10_002);
        let seen = ref 0 in
        Rowmap.iter m (fun _ -> incr seen);
        Alcotest.(check int) "iter visits live rows" (Rowmap.length m) !seen);
  ]

(* A slot's home must not be the low bits of the hash alone: those bits
   also bucket a [Hashtbl], so a load in such a table's fold order, or
   any set of keys filtered on a low bit, arrives sorted by, or agreeing
   in, exactly those bits. A load sorted by more low bits
   than the growing map has slots piles every key into one run, and a
   shared low bit leaves half the slots without a key to start there.
   Counted: [eq] calls per key while loading the keys with [replace] (the
   probe past the run an insert makes) and then per [find] of every key.
   At the final load of 0.61 a good home reads about 2.2 and 1.8. *)
let mean_probes ~hash keys =
  let m = Rowmap.create ~hash () in
  let calls = ref 0 in
  let eq k r =
    incr calls;
    r = k
  in
  Array.iter (fun k -> ignore (Rowmap.replace m ~hash:(hash k) ~eq:(eq k) k)) keys;
  let per_insert = float_of_int !calls /. float_of_int (Array.length keys) in
  calls := 0;
  Array.iter
    (fun k ->
      if Rowmap.find m ~hash:(hash k) ~eq:(eq k) <> Some k then
        Alcotest.failf "key %d not found" k)
    keys;
  (per_insert, float_of_int !calls /. float_of_int (Array.length keys))

let check_probes (per_insert, per_find) =
  if per_insert > 3. || per_find > 2.2 then
    Alcotest.failf
      "%.2f eq calls per insert, %.2f per find (at most 3 and 2.2 expected)"
      per_insert per_find

let rowmap_home_tests =
  let n = 40_000 and hash = Relational.Value.hash_int in
  [
    test "rowmap: keys sorted by their low hash bits probe short runs"
      (fun () ->
        (* the bucket mask of a 40k-row [Hashtbl] *)
        let big_mask = 32_767 in
        let keys = Array.init n Fun.id in
        Array.stable_sort
          (fun a b -> compare (hash a land big_mask) (hash b land big_mask))
          keys;
        check_probes (mean_probes ~hash keys));
    test "rowmap: keys that share their low hash bits probe short runs"
      (fun () ->
        (* the keys whose two low hash bits are zero *)
        let keys =
          Seq.ints 0
          |> Seq.filter (fun k -> hash k land 3 = 0)
          |> Seq.take n |> Array.of_seq
        in
        check_probes (mean_probes ~hash keys));
  ]

(* The closure-free probe against [find], under random add / remove /
   rename sequences over a small key domain whose hashes collide (a few
   probe chains, broken by tombstones and rebuilt by resizes). *)
let probe_eq keys k r = Hashtbl.find keys r = k

let prop_rowmap_probe =
  QCheck2.Test.make ~count:(4 * count) ~name:"rowmap: probe == find (random churn)"
    ~print:QCheck2.Print.(list (pair int int))
    Gen.(list_size (int_range 1 400) (pair (int_bound 2) (int_bound 40)))
    (fun ops ->
      let keys = Hashtbl.create 64 in
      let hash k = k mod 7 in
      let m = Rowmap.create ~hint:8 ~hash:(fun r -> hash (Hashtbl.find keys r)) () in
      (* live key -> its row, the model *)
      let live = Hashtbl.create 64 in
      let next = ref 0 in
      let fresh () =
        incr next;
        !next
      in
      let agree () =
        List.for_all
          (fun k ->
            let found =
              match
                Rowmap.find m ~hash:(hash k) ~eq:(fun r -> Hashtbl.find keys r = k)
              with
              | Some r -> r
              | None -> -1
            in
            let probed = Rowmap.probe m ~hash:(hash k) probe_eq keys k in
            probed = found
            && probed = Option.value (Hashtbl.find_opt live k) ~default:(-1))
          (List.init 41 Fun.id)
      in
      List.for_all
        (fun (op, k) ->
          (match op, Hashtbl.find_opt live k with
          | 0, None ->
            let r = fresh () in
            Hashtbl.replace keys r k;
            Rowmap.add m ~hash:(hash k) r;
            Hashtbl.replace live k r
          | 1, Some r ->
            ignore (Rowmap.remove_value m ~hash:(hash k) r);
            Hashtbl.remove live k
          | 2, Some r ->
            let r' = fresh () in
            Hashtbl.replace keys r' k;
            ignore (Rowmap.rename_value m ~hash:(hash k) ~old_row:r ~new_row:r');
            Hashtbl.replace live k r'
          | _ -> ());
          agree ())
        ops)

(* --- the grouped store on its own ----------------------------------------- *)

module Groups = Maintenance.Groups
module VMap = Groups.VMap

(* A group as the boxed model keeps it: the count, one typed cell, one int
   component and one multiset. *)
type mgroup = { mcnt : int; mcell : Value.t; mint : int; mset : int VMap.t }

(* Keys of an int and a dictionary-encoded string. *)
let new_store () =
  Groups.create
    ~keys:[| Column.create (); Column.create () |]
    ~cells:[| Column.create () |]
    ~ints:1 ~sets:1

let locate (st : Groups.t) key =
  let hash = Tuple.hash key in
  (hash, Groups.find st ~hash key)

let add_group (st : Groups.t) key m =
  let hash, _ = locate st key in
  Array.iteri (fun j c -> Column.append c key.(j)) st.keys;
  Column.append st.cells.(0) m.mcell;
  Icol.append st.ints.(0) m.mint;
  Groups.sets_append st.sets.(0) m.mset;
  Groups.note_created st ~hash (Groups.add_row st ~hash m.mcnt)

let agrees (st : Groups.t) model =
  Groups.group_count st = KM.cardinal model
  && KM.for_all
       (fun key m ->
         let _, r = locate st key in
         r >= 0
         && Tuple.equal (Groups.key_at st r) key
         && Icol.get st.cnts r = m.mcnt
         && Value.equal (Column.get st.cells.(0) r) m.mcell
         && Icol.get st.ints.(0) r = m.mint
         && VMap.equal Int.equal st.sets.(0).maps.(r) m.mset)
       model

let log_words (st : Groups.t) = Obj.reachable_words (Obj.repr st.log)

(* 300 transactions of random appends, journaled cell updates and
   swap-deletes, committed (the log emptied, or kept past its transaction
   as a view state keeps it for publication) or rolled back, against a
   boxed model: the marks' epochs wrap past 255. Transaction 100 creates
   1,200 groups and rolls back, so committing the small transaction 101
   releases its log; at the end a store rebuilt from the model, in
   reverse key order, is [Groups.equal] to it. *)
let groups_run seed =
  let rng = Prng.create seed in
  let st = new_store () in
  let model = ref KM.empty in
  let ok = ref true in
  let expect b = ok := !ok && b in
  let key k = row [ i k; s (Printf.sprintf "g%d" (k mod 5)) ] in
  let append k =
    let v = Prng.int rng 100 in
    let m =
      { mcnt = 1; mcell = i v; mint = 2 * v; mset = VMap.singleton (i v) 1 }
    in
    add_group st (key k) m;
    model := KM.add (key k) m !model
  in
  let update key m (hash, r) =
    let d = 1 + Prng.int rng 5 in
    let had = Option.value (VMap.find_opt (i d) m.mset) ~default:0 in
    let mset = VMap.add (i d) (had + d) m.mset in
    Groups.note_row st ~hash r;
    Icol.add st.cnts r d;
    Column.add_cell st.cells.(0) r (i d) 1;
    Icol.add st.ints.(0) r (-d);
    st.sets.(0).maps.(r) <- mset;
    model :=
      KM.add key
        {
          mcnt = m.mcnt + d;
          mcell = Value.add m.mcell (i d);
          mint = m.mint - d;
          mset;
        }
        !model
  in
  let delete key (hash, r) =
    Groups.note_row st ~hash r;
    let moved = Groups.delete_row st ~hash r in
    (* the moved group is now found at [r] *)
    if moved >= 0 then begin
      let k = Groups.key_at st r in
      expect (Groups.find st ~hash:(Tuple.hash k) k = r)
    end;
    model := KM.remove key !model
  in
  let op k =
    let ((_, r) as at) = locate st (key k) in
    if r < 0 then append k
    else if Prng.int rng 3 = 0 then delete (key k) at
    else update (key k) (KM.find (key k) !model) at
  in
  for txn = 1 to 300 do
    let before = !model in
    let start = Groups.log_length st in
    Groups.begin_txn st;
    if txn = 100 then for k = 1_000 to 2_199 do op k done
    else for _ = 0 to Prng.int rng 4 do op (Prng.int rng 24) done;
    if txn = 100 || (txn <> 101 && Prng.int rng 4 = 0) then begin
      Groups.rollback st;
      model := before;
      (* entries logged before the transaction stay *)
      expect (Groups.log_length st = start)
    end
    else begin
      Groups.commit st;
      let words = log_words st in
      if txn = 101 || Prng.int rng 2 = 0 then Groups.clear_log st;
      if txn = 101 then expect (log_words st * 4 < words)
    end;
    expect (agrees st !model)
  done;
  let rebuilt = new_store () in
  List.iter (fun (key, m) -> add_group rebuilt key m) (List.rev (KM.bindings !model));
  !ok && Groups.equal st rebuilt && Groups.equal rebuilt st

let prop_groups =
  QCheck2.Test.make ~count:(max 10 (count / 4))
    ~name:"grouped store == boxed model (300 transactions)" Gen.int groups_run

(* --- directed: swap-delete index repair ---------------------------------- *)

(* rows_with through the secondary index vs. a full scan: must agree after
   swap-with-last deletions renumber rows *)
let check_index st ~column values =
  List.iter
    (fun v ->
      let indexed = List.sort compare (List.map (row_sig st) (AS.rows_with st ~column v)) in
      let scanned = ref [] in
      AS.iter st (fun r ->
          if Value.equal (AS.plain_of st r column) v then
            scanned := row_sig st r :: !scanned);
      Alcotest.(check bool)
        (Printf.sprintf "index agrees with scan for %s=%s" column (Value.to_string v))
        true
        (indexed = List.sort compare !scanned))
    values

(* [AS.load] of [tups], in order, from a shadow table: [schema]'s columns
   and then a row number as the key, so that a multiset of rows can be
   stored. *)
let load_rows st (schema : Schema.t) tups =
  let db = Database.create () in
  let n = { Schema.col_name = "row_number"; col_type = Datatype.TInt } in
  Database.add_table db
    (Schema.make ~name:schema.name ~key:n.col_name
       (Array.to_list schema.columns @ [ n ]))
    ~updatable:[];
  List.iteri
    (fun k tup -> Database.insert db schema.name (Array.append tup [| i k |]))
    tups;
  AS.load st
    (Database.Cursor.create db schema.name)
    ~keep:(fun _ -> true) ~admit:(fun _ -> true)

(* The root auxiliary view of a MIN/MAX view, indexed on its group
   columns as the engine does, loaded and then under random inserts,
   swap-with-last deletes and rollbacks: after every step each bucket
   equals the index [load] builds in one pass over the surviving rows, and
   [rows_with] equals an unindexed [iter_where]. *)
let check_buckets_fresh () =
  let db = Workload.Retail.load tiny_params in
  let d = Derive.derive db Workload.Retail.product_sales_max in
  let spec = Option.get (Derive.spec_for d "sale") in
  let schema = Database.schema_of db "sale" in
  let columns = Auxview.group_columns spec in
  let mk ?indexed_columns () = AS.create ?indexed_columns spec schema in
  let st = mk ~indexed_columns:columns () in
  let rng = Prng.create 23 in
  let present = ref [] in
  (* start from a loaded state, so that churn also runs on buckets and
     offsets built in one pass *)
  for _ = 1 to 40 do
    present := sale_tup rng :: !present
  done;
  load_rows st schema (List.rev !present);
  (* every value sale_tup can draw in these columns, and one it cannot *)
  let domain = List.init 21 (fun k -> i k) in
  let check what =
    let fresh = mk ~indexed_columns:columns () and plain = mk () in
    load_rows fresh schema !present;
    load_rows plain schema !present;
    Alcotest.(check bool) (what ^ ": buckets == fresh build") true
      (AS.equal st fresh);
    List.iter
      (fun column ->
        List.iter
          (fun v ->
            let indexed =
              List.sort compare
                (List.map (row_sig st) (AS.rows_with st ~column v))
            in
            let scanned = ref [] in
            let (_ : int) =
              AS.iter_where plain [ (column, [ v ]) ] (fun r ->
                  scanned := row_sig plain r :: !scanned)
            in
            let label =
              Printf.sprintf "%s: %s=%s" what column (Value.to_string v)
            in
            Alcotest.(check bool) (label ^ " rows_with == scan") true
              (indexed = List.sort compare !scanned);
            (* a bucket holds exactly its value's rows *)
            Alcotest.(check int) (label ^ " examined") (List.length indexed)
              (AS.iter_where st [ (column, [ v ]) ] ignore))
          domain)
      columns
  in
  let churn () =
    for _ = 1 to 25 do
      let tup = sale_tup rng in
      present := tup :: !present;
      AS.insert_base st tup
    done;
    (* delete a scattered half; swap-with-last renumbers rows *)
    let victims, keep =
      List.partition (fun _ -> Prng.int rng 2 = 0) !present
    in
    List.iter (AS.delete_base st) victims;
    present := keep
  in
  for round = 1 to 8 do
    churn ();
    check (Printf.sprintf "round %d" round);
    AS.begin_txn st;
    let before = !present in
    churn ();
    if round mod 2 = 0 then begin
      AS.rollback st;
      present := before;
      check (Printf.sprintf "round %d rolled back" round)
    end
    else begin
      AS.commit st;
      check (Printf.sprintf "round %d committed" round)
    end
  done

let index_tests =
  [
    test "group-column buckets == fresh build after churn and rollbacks"
      check_buckets_fresh;
    test "swap-delete repairs secondary indexes" (fun () ->
        let spec, schema = specs_for "sale" in
        let column = List.hd (Auxview.group_columns spec) in
        let st = AS.create ~indexed_columns:[ column ] spec schema in
        let rng = Prng.create 99 in
        let present = ref [] in
        let values = List.init 4 (fun k -> i (k + 1)) in
        for round = 1 to 6 do
          for _ = 1 to 20 do
            let tup = sale_tup rng in
            present := tup :: !present;
            AS.insert_base st tup
          done;
          (* delete a scattered half; swap-with-last renumbers rows *)
          let victims, keep =
            List.partition (fun _ -> Prng.int rng 2 = 0) !present
          in
          List.iter (AS.delete_base st) victims;
          present := keep;
          check_index st ~column values;
          (* a rolled-back wave of deletions must also leave the index intact *)
          if round mod 2 = 0 && !present <> [] then begin
            AS.begin_txn st;
            List.iter (AS.delete_base st) !present;
            Alcotest.(check int) "emptied in txn" 0 (AS.row_count st);
            AS.rollback st;
            check_index st ~column values
          end
        done);
  ]

(* --- directed: undo-journal cell restoration ------------------------------ *)

let undo_tests =
  [
    test "aux rollback restores cells, indexes and totals" (fun () ->
        let spec, schema = specs_for "sale" in
        let column = List.hd (Auxview.group_columns spec) in
        let st = AS.create ~indexed_columns:[ column ] spec schema in
        let rng = Prng.create 7 in
        let committed = List.init 30 (fun _ -> sale_tup rng) in
        List.iter (AS.insert_base st) committed;
        (* the oracle: a second store fed the committed rows only *)
        let snap = AS.create ~indexed_columns:[ column ] spec schema in
        List.iter (AS.insert_base snap) committed;
        AS.begin_txn st;
        (* touch existing cells, create new groups, delete groups to zero *)
        List.iteri (fun k tup -> if k mod 2 = 0 then AS.insert_base ~count:3 st tup) committed;
        List.iter (fun k -> AS.delete_base st (List.nth committed k)) [ 0; 2; 4 ];
        for _ = 1 to 20 do AS.insert_base st (sale_tup rng) done;
        Alcotest.(check bool) "mutated" false (AS.equal st snap);
        AS.rollback st;
        Alcotest.(check bool) "structurally restored" true (AS.equal st snap);
        Alcotest.check relation "contents restored" (AS.to_relation snap)
          (AS.to_relation st);
        Alcotest.(check int) "base total restored" (AS.base_count snap)
          (AS.base_count st);
        check_index st ~column (List.init 4 (fun k -> i (k + 1))));
    test "dimension aux rollback restores dictionary-encoded cells" (fun () ->
        let spec, schema = specs_for "product" in
        let st = AS.create spec schema in
        let rng = Prng.create 11 in
        let committed = List.init 20 (fun _ -> product_tup rng) in
        List.iter (AS.insert_base st) committed;
        let snap = AS.create spec schema in
        List.iter (AS.insert_base snap) committed;
        AS.begin_txn st;
        for _ = 1 to 25 do AS.insert_base st (product_tup rng) done;
        List.iter (fun k -> AS.delete_base st (List.nth committed k)) [ 1; 3 ];
        AS.rollback st;
        Alcotest.(check bool) "restored" true (AS.equal st snap);
        Alcotest.check relation "contents restored" (AS.to_relation snap)
          (AS.to_relation st));
    test "view rollback restores components and the dirty set" (fun () ->
        let feed st k v lbl = VS.feed st (vs_contribs (row [ i k ]) ~v ~lbl) ~cnt:1 in
        (* the oracle: a second state fed the committed contributions only *)
        let committed () =
          let st = VS.create vview ~determined:false in
          feed st 1 10 "a";
          feed st 1 20 "b";
          feed st 1 30 "b";
          feed st 2 5 "a";
          (* leave group 1 dirty on purpose (its MAX is gone): rollback
             must restore the set *)
          VS.unfeed st (vs_contribs (row [ i 1 ]) ~v:30 ~lbl:"b") ~cnt:1;
          st
        in
        let st = committed () and snap = committed () in
        Alcotest.(check bool) "dirty before txn" true (VS.is_dirty_pending st);
        VS.begin_txn st;
        ignore (VS.take_dirty st);
        feed st 3 7 "c";
        (* drops "b" from group 1's DISTINCT multiset *)
        VS.unfeed st (vs_contribs (row [ i 1 ]) ~v:20 ~lbl:"b") ~cnt:1;
        VS.set_value st ~key:(row [ i 2 ]) ~item:4 (i 999);
        VS.rollback st;
        Alcotest.(check bool) "structurally restored" true (VS.equal st snap);
        Alcotest.(check bool) "dirty set restored" true (VS.is_dirty_pending st);
        Alcotest.(check int) "group count restored" 2 (VS.group_count st));
  ]

(* --- byte accounting ------------------------------------------------------ *)

let accounting_tests =
  [
    test "byte accounting grows with content" (fun () ->
        let spec, schema = specs_for "product" in
        let st = AS.create spec schema in
        let empty_bytes = AS.byte_size st in
        let rng = Prng.create 3 in
        for _ = 1 to 200 do AS.insert_base st (product_tup rng) done;
        Alcotest.(check bool) "bytes grew" true (AS.byte_size st > empty_bytes);
        let vs = VS.create vview ~determined:false in
        let before = VS.byte_size vs in
        for k = 0 to 199 do
          VS.feed vs (vs_contribs (row [ i k ]) ~v:k ~lbl:"x") ~cnt:1
        done;
        Alcotest.(check bool) "view bytes grew" true (VS.byte_size vs > before);
        (* integer and boxed cells only: nothing off the heap *)
        Alcotest.(check int) "view off-heap payload" 0 (VS.offheap_bytes vs));
    test "an undo log far larger than its last use is released" (fun () ->
        (* the log is not in [byte_size]; its count and hash columns are
           on the OCaml heap, so the heap words the state reaches show it *)
        let words st = Obj.reachable_words (Obj.repr st) in
        let spec, schema = specs_for "sale" in
        let st = AS.create spec schema in
        let sale k = row [ i k; i ((k mod 40) + 1); i ((k / 40) + 1); i 1; i 5 ] in
        let txn ks =
          AS.begin_txn st;
          List.iter (fun k -> AS.insert_base st (sale k)) ks;
          AS.commit st
        in
        txn (List.init 2000 succ);
        let big = words st in
        (* 1,000 entries keep a capacity of 2,048: within four times *)
        txn (List.init 1000 succ);
        Alcotest.(check int) "aux log kept" big (words st);
        (* one entry: 2,048 is past four times 64 *)
        txn [ 1 ];
        Alcotest.(check bool) "aux log released" true (words st + 4000 < big);
        let vs = VS.create vview ~determined:false in
        let feed k = VS.feed vs (vs_contribs (row [ i k ]) ~v:k ~lbl:"x") ~cnt:1 in
        let batch ks =
          VS.begin_txn vs;
          List.iter feed ks;
          VS.commit vs;
          ignore (VS.publish vs)
        in
        batch (List.init 2000 succ);
        let big = words vs in
        batch [ 1 ];
        Alcotest.(check bool) "view log released" true (words vs + 4000 < big));
  ]

(* --- the width rule ---------------------------------------------------------

   An integer buffer keeps 4-byte cells until a value outside the int32
   range is stored, then 8-byte cells for good. Every operation, against
   an [int array] model, on values at and across the edges of a narrow
   cell and at the ends of [int]; a column's integer storage is such a
   buffer, and is checked alongside. *)

let fits_int32 x = x >= -0x8000_0000 && x <= 0x7FFF_FFFF

let gen_cell =
  Gen.oneof
    [
      Gen.int_range (-4) 4;
      Gen.map (fun d -> 0x7FFF_FFFF + d) (Gen.int_range (-2) 2);
      Gen.map (fun d -> -0x8000_0000 + d) (Gen.int_range (-2) 2);
      Gen.oneofl [ min_int; max_int ];
    ]

type op =
  | Append of int
  | Set of int * int
  | Add of int * int * int  (** row, operand, count *)
  | Sub of int * int * int
  | Swap_delete of int
  | Truncate of int
  | Append_counts of int * int list  (** cells, and the cell of each item *)

let show_op = function
  | Append v -> Printf.sprintf "append %d" v
  | Set (r, v) -> Printf.sprintf "set %d %d" r v
  | Add (r, v, n) -> Printf.sprintf "add %d %d*%d" r v n
  | Sub (r, v, n) -> Printf.sprintf "sub %d %d*%d" r v n
  | Swap_delete r -> Printf.sprintf "swap_delete %d" r
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Append_counts (n, into) ->
    Printf.sprintf "append_counts %d [%s]" n
      (String.concat ";" (List.map string_of_int into))

(* Rows are drawn as naturals, taken modulo the length when applied. *)
let gen_op =
  let open Gen in
  frequency
    [
      (4, map (fun v -> Append v) gen_cell);
      (2, map2 (fun r v -> Set (r, v)) nat gen_cell);
      (2, map3 (fun r v n -> Add (r, v, n)) nat gen_cell (int_range 0 3));
      (2, map3 (fun r v n -> Sub (r, v, n)) nat gen_cell (int_range 0 3));
      (1, map (fun r -> Swap_delete r) nat);
      (1, map (fun n -> Truncate n) nat);
      ( 1,
        int_range 0 4 >>= fun n ->
        map
          (fun into -> Append_counts (n, into))
          (list_size (int_range 0 6) (int_range (-1) (n - 1))) );
    ]

(* The buffer, the column and the model after every operation, and the
   buffer wide exactly when some stored value did not fit 4 bytes. *)
let width_rule_run ops =
  let c = Icol.create () and col = Column.create () in
  let m = ref [||] and wide = ref false in
  let store v = if not (fits_int32 v) then wide := true in
  let agree () =
    let m = !m in
    Icol.length c = Array.length m
    && Column.length col = Array.length m
    && Icol.width c = (if !wide then 8 else 4)
    && Icol.byte_size c = Icol.width c * Icol.capacity c
    && Array.for_all Fun.id
         (Array.mapi
            (fun r v ->
              Icol.get c r = v
              && Value.equal (Column.get col r) (i v)
              && Column.equal_cell col r (i v)
              && Column.hash_cell col r = Value.hash (i v))
            m)
  in
  List.for_all
    (fun op ->
      let n = Array.length !m in
      (match op with
      | Append v ->
        Icol.append c v;
        Column.append col (i v);
        m := Array.append !m [| v |];
        store v
      | Set (r, v) when n > 0 ->
        let r = r mod n in
        Icol.set c r v;
        Column.set col r (i v);
        !m.(r) <- v;
        store v
      | Add (r, v, k) when n > 0 ->
        let r = r mod n in
        Icol.add c r (v * k);
        Column.add_cell col r (i v) k;
        !m.(r) <- !m.(r) + (v * k);
        store !m.(r)
      | Sub (r, v, k) when n > 0 ->
        let r = r mod n in
        Icol.add c r (-(v * k));
        Column.sub_cell col r (i v) k;
        !m.(r) <- !m.(r) - (v * k);
        store !m.(r)
      | Swap_delete r when n > 0 ->
        let r = r mod n in
        Icol.swap_delete c r;
        Column.swap_delete col r;
        !m.(r) <- !m.(n - 1);
        m := Array.sub !m 0 (n - 1)
      | Truncate k ->
        let k = k mod (n + 1) in
        Icol.truncate c k;
        Column.truncate col k;
        m := Array.sub !m 0 k
      | Append_counts (k, into) ->
        Icol.append_counts c ~into:(Array.of_list into) k;
        let counts =
          Array.init k (fun r -> List.length (List.filter (( = ) r) into))
        in
        Array.iter (fun v -> Column.append col (i v)) counts;
        m := Array.append !m counts
      | Set _ | Add _ | Sub _ | Swap_delete _ -> ());
      agree ())
    ops

let prop_width_rule =
  QCheck2.Test.make ~count:(10 * count)
    ~name:"integer buffer and column == int array model (width rule)"
    ~print:QCheck2.Print.(list show_op)
    Gen.(list_size (int_range 1 60) gen_op)
    width_rule_run

(* [Column.fold_stored] of an INT column over a table's rows, against the
   row-at-a-time fold: a group's cell is its first row's, then summed,
   or replaced by a smaller or greater value. Sums cross the edges of a
   narrow cell mid-fold. *)
let fold_stored_run rows =
  let db = Database.create () in
  let col name = { Schema.col_name = name; col_type = Datatype.TInt } in
  Database.add_table db
    (Schema.make ~name:"t" ~key:"k" [ col "k"; col "x" ])
    ~updatable:[];
  List.iteri (fun k (_, x) -> Database.insert db "t" (row [ i k; i x ])) rows;
  (* groups numbered in the order of their first rows; a label of 5:
     the row folds into none *)
  let seen = Hashtbl.create 8 in
  let into =
    Array.of_list
      (List.map
         (fun (g, _) ->
           if g = 5 then -1
           else
             match Hashtbl.find_opt seen g with
             | Some id -> id
             | None ->
               let id = Hashtbl.length seen in
               Hashtbl.add seen g id;
               id)
         rows)
  in
  let groups = Hashtbl.length seen in
  let cur = Database.Cursor.create db "t" in
  (* the table's rows come back in its storage order: fold in that *)
  let xs = Array.init (Database.Cursor.rows cur) (fun r ->
    Database.Cursor.seek cur r;
    (Database.Cursor.int cur 0, Database.Cursor.int cur 1))
  in
  let into = Array.map (fun (k, _) -> into.(k)) xs in
  List.for_all
    (fun (op, step) ->
      let c = Column.create () in
      Column.fold_stored c cur 1 ~into ~groups op;
      let model = Array.make groups None in
      Array.iteri
        (fun r g ->
          if g >= 0 then
            let x = snd xs.(r) in
            model.(g) <-
              Some (match model.(g) with None -> x | Some y -> step y x))
        into;
      Column.length c = groups
      && Array.for_all Fun.id
           (Array.mapi
              (fun g v ->
                match v with
                | Some v -> Value.equal (Column.get c g) (i v)
                | None -> false)
              model))
    [ (Column.Sum, ( + )); (Column.Min, min); (Column.Max, max) ]

let prop_fold_stored =
  QCheck2.Test.make ~count:(5 * count)
    ~name:"fold_stored of INT cells == row-at-a-time fold (width rule)"
    ~print:QCheck2.Print.(list (pair int int))
    Gen.(
      list_size (int_range 0 40)
        (pair (int_range 0 5)
           (oneof [ gen_cell; map (fun d -> 0x4000_0000 + d) (int_range 0 9) ])))
    fold_stored_run

(* One store of integer keys, component and int cells, its groups
   registered in the order given. *)
let int_store groups =
  let st =
    Groups.create ~keys:[| Column.create () |] ~cells:[| Column.create () |]
      ~ints:1 ~sets:0
  in
  List.iter
    (fun (k, cnt) ->
      Column.append st.keys.(0) (i k);
      Column.append st.cells.(0) (i (2 * k));
      Icol.append st.ints.(0) (3 * k);
      ignore (Groups.add_row st ~hash:(Tuple.hash (row [ i k ])) cnt : int))
    groups;
  st

let narrow_groups =
  [ (0, 1); (1, 2); (-0x8000_0000 / 3, 3); (0x7FFF_FFFF / 3, 4); (5_000, 5) ]

let width_tests =
  [
    test "a narrow and a widened store of the same groups agree" (fun () ->
        let narrow = int_store narrow_groups in
        (* a group past every narrow cell widens each column, and its
           deletion leaves them wide *)
        let big = 1 lsl 40 in
        let wide = int_store ((big, big) :: narrow_groups) in
        ignore (Groups.delete_row wide ~hash:(Tuple.hash (row [ i big ])) 0 : int);
        Alcotest.(check int) "narrow counts" 4 (Icol.width narrow.cnts);
        Alcotest.(check int) "wide counts" 8 (Icol.width wide.cnts);
        Alcotest.(check int) "wide int cells" 8 (Icol.width wide.ints.(0));
        Alcotest.(check bool) "Groups.equal narrow wide" true
          (Groups.equal narrow wide);
        Alcotest.(check bool) "Groups.equal wide narrow" true
          (Groups.equal wide narrow);
        for r = 0 to Groups.group_count wide - 1 do
          let key = Groups.key_at wide r in
          let r' = Groups.find narrow ~hash:(Tuple.hash key) key in
          Alcotest.(check bool) "found" true (r' >= 0);
          Alcotest.(check bool) "equal_cells" true
            (Column.equal_cells wide.keys.(0) r narrow.keys.(0) r'
            && Column.equal_cells narrow.cells.(0) r' wide.cells.(0) r);
          Alcotest.(check int) "hash_cell" (Column.hash_cell narrow.keys.(0) r')
            (Column.hash_cell wide.keys.(0) r);
          Alcotest.(check int) "row hash == Tuple.hash of the boxed key"
            (Tuple.hash key) (Groups.row_hash wide r);
          Alcotest.(check int) "narrow row hash" (Tuple.hash key)
            (Groups.row_hash narrow r')
        done;
        (* one different cell is told apart, whatever the widths *)
        Column.set wide.cells.(0) 0 (Value.add (Column.get wide.cells.(0) 0) (i 1));
        Alcotest.(check bool) "a changed cell differs" false (Groups.equal narrow wide));
    test "byte accounting: allocated cells times their width" (fun () ->
        (* five groups: 16-cell key and component columns (64 B each), 8-cell
           count and int buffers (32 B each), 16 marks and 64 map slots
           (256 B) *)
        let st = int_store narrow_groups in
        Alcotest.(check int) "narrow store" 464 (Groups.byte_size st);
        Alcotest.(check int) "count buffer" 32 (Icol.byte_size st.cnts);
        Column.set st.cells.(0) 3 (i (1 lsl 40));
        Alcotest.(check int) "one widened column" (464 + 64) (Groups.byte_size st);
        Alcotest.(check int) "its bytes" 128 (Column.byte_size st.cells.(0));
        (* and a widened buffer stays wide once the value is gone *)
        Column.set st.cells.(0) 3 (i 0);
        Alcotest.(check int) "never narrows back" (464 + 64) (Groups.byte_size st));
    test "row ids have one checked bound" (fun () ->
        Alcotest.(check int) "2^31 - 1 rows" 0x7FFF_FFFF Rowmap.max_rows;
        Rowmap.check_row (Rowmap.max_rows - 1);
        let refused r =
          match Rowmap.check_row r with
          | () -> false
          | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "the 2^31-th row is refused" true
          (refused Rowmap.max_rows);
        Alcotest.(check bool) "and every later one" true (refused max_int);
        (* the last row id a store can hold fits a narrow cell *)
        let c = Icol.create () in
        Icol.append c (Rowmap.max_rows - 1);
        Alcotest.(check int) "narrow row ids" 4 (Icol.width c));
  ]

let () =
  Alcotest.run "columnar"
    [
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_aux_root;
            prop_aux_dimension;
            prop_view_matrix;
            prop_netted_equivalence;
            prop_twin_isolation;
            prop_groups;
          ] );
      ("dict", dict_tests);
      ("column", column_tests);
      ( "rowmap",
        rowmap_tests @ rowmap_home_tests
        @ [ QCheck_alcotest.to_alcotest prop_rowmap_probe ] );
      ("index-repair", index_tests);
      ("undo-journal", undo_tests);
      ("accounting", accounting_tests);
      ( "width-rule",
        width_tests
        @ List.map QCheck_alcotest.to_alcotest [ prop_width_rule; prop_fold_stored ]
      );
    ]
