(* Unit tests for the relational substrate: values, schemas, tuples, bag
   relations, the operational store and its constraint enforcement. *)

open Helpers

let test case fn = Alcotest.test_case case `Quick fn

(* --- values ------------------------------------------------------------ *)

let value_tests =
  [
    test "equal on same type" (fun () ->
        Alcotest.(check bool) "int" true (Value.equal (i 3) (i 3));
        Alcotest.(check bool) "int neq" false (Value.equal (i 3) (i 4));
        Alcotest.(check bool) "string" true (Value.equal (s "x") (s "x"));
        Alcotest.(check bool) "bool" true (Value.equal (b true) (b true));
        Alcotest.(check bool) "float" true (Value.equal (f 1.5) (f 1.5)));
    test "equal across types is false" (fun () ->
        Alcotest.(check bool) "int/float" false (Value.equal (i 1) (f 1.));
        Alcotest.(check bool) "int/string" false (Value.equal (i 1) (s "1")));
    test "compare is a total order" (fun () ->
        let vs = [ i 2; i 1; s "b"; s "a"; f 0.5; b false; b true ] in
        let sorted = List.sort Value.compare vs in
        Alcotest.(check int) "stable length" (List.length vs) (List.length sorted);
        (* antisymmetry spot checks *)
        List.iter
          (fun x ->
            List.iter
              (fun y ->
                let xy = Value.compare x y and yx = Value.compare y x in
                Alcotest.(check int) "antisym" 0 (compare (compare xy 0) (- (compare yx 0))))
              vs)
          vs);
    test "hash respects equality" (fun () ->
        Alcotest.(check int) "int" (Value.hash (i 42)) (Value.hash (i 42));
        Alcotest.(check int) "str" (Value.hash (s "ab")) (Value.hash (s "ab")));
    test "add/sub/mul int" (fun () ->
        Alcotest.check value "add" (i 7) (Value.add (i 3) (i 4));
        Alcotest.check value "sub" (i (-1)) (Value.sub (i 3) (i 4));
        Alcotest.check value "mul" (i 12) (Value.mul (i 3) (i 4)));
    test "mixed arithmetic promotes to float" (fun () ->
        Alcotest.check value "add" (f 4.5) (Value.add (i 3) (f 1.5));
        Alcotest.check value "sub" (f 1.5) (Value.sub (f 4.5) (i 3)));
    test "scale" (fun () ->
        Alcotest.check value "int" (i 12) (Value.scale (i 4) 3);
        Alcotest.check value "float" (f 9.) (Value.scale (f 3.) 3));
    test "zero_like" (fun () ->
        Alcotest.check value "int" (i 0) (Value.zero_like (i 9));
        Alcotest.check value "float" (f 0.) (Value.zero_like (f 9.)));
    test "div_as_float" (fun () ->
        Alcotest.check value "avg" (f 2.5) (Value.div_as_float (i 5) (i 2)));
    test "non-numeric arithmetic raises" (fun () ->
        Alcotest.check_raises "add" (Invalid_argument "Value.add: non-numeric operands (a, 1)")
          (fun () -> ignore (Value.add (s "a") (i 1)));
        (match Value.scale (s "a") 2 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "scale should raise"));
    test "to_string" (fun () ->
        Alcotest.(check string) "int" "42" (Value.to_string (i 42));
        Alcotest.(check string) "string" "abc" (Value.to_string (s "abc"));
        Alcotest.(check string) "bool" "true" (Value.to_string (b true)));
    test "to_string renders floats exactly and strings verbatim" (fun () ->
        List.iter
          (fun (x, expected) ->
            Alcotest.(check string) expected expected (Value.to_string (f x)))
          [
            (1.5, "1.5"); (0.1, "0.1"); (1e21, "1e+21"); (1e-7, "1e-07");
            (123456789., "123456789"); (1234567.5, "1234567.5");
            (1. /. 3., "0.3333333333333333"); (0.1 +. 0.2, "0.30000000000000004");
            (-0., "-0"); (0., "0"); (nan, "nan"); (infinity, "inf");
            (neg_infinity, "-inf");
          ];
        Alcotest.(check string) "null" "NULL" (Value.to_string Value.Null);
        (* no formatter in the way: no escapes, no line breaks at a margin *)
        let long =
          String.concat "@ " (List.init 40 (fun k -> "w%" ^ string_of_int k))
          ^ "\nnext"
        in
        Alcotest.(check string) "string" long (Value.to_string (s long));
        Alcotest.(check string) "pp" long (Format.asprintf "%a" Value.pp (s long)));
    test "add_to_buffer writes exactly the bytes of to_string" (fun () ->
        let ints =
          [ 0; 1; -1; 9; 10; -10; 99; 100; 123456789; -987654321; max_int;
            min_int; max_int - 1; min_int + 1 ]
        in
        let values =
          List.map i ints
          @ List.map f
              [ 0.; -0.; 1.5; -2.25; 1234567.5; 1e21; 1e-7; nan; infinity;
                neg_infinity ]
          @ [ s ""; s "abc"; s "tab\there"; s "two\tcells\n"; s "NULL";
              Value.Null; b true; b false ]
        in
        List.iter
          (fun v ->
            let buf = Buffer.create 4 in
            Buffer.add_string buf "x";
            Value.add_to_buffer buf v;
            Alcotest.(check string) (Value.to_string v)
              ("x" ^ Value.to_string v) (Buffer.contents buf))
          values;
        List.iter
          (fun x ->
            let buf = Buffer.create 4 in
            Value.add_int_to_buffer buf x;
            Alcotest.(check string) (string_of_int x) (string_of_int x)
              (Buffer.contents buf))
          ints);
  ]

(* Every float reads back from its text to the same bits (nan to a
   nan). *)
let prop_float_round_trip =
  QCheck2.Test.make ~count:2000 ~name:"to_string of a float reads back exactly"
    ~print:(fun x -> Printf.sprintf "%h" x)
    QCheck2.Gen.(
      oneof
        [ float; map Int64.float_of_bits int64; map float_of_int int;
          map (fun k -> float_of_int k /. 100.) (int_range (-100_000) 100_000) ])
    (fun x ->
      let text = Value.to_string (f x) in
      let back = float_of_string text in
      if Float.is_nan x then Float.is_nan back
      else Int64.equal (Int64.bits_of_float back) (Int64.bits_of_float x))

(* --- datatypes ---------------------------------------------------------- *)

let datatype_tests =
  [
    test "of_sql_name" (fun () ->
        Alcotest.(check bool) "int" true (Datatype.of_sql_name "INT" = Some Datatype.TInt);
        Alcotest.(check bool) "integer" true (Datatype.of_sql_name "integer" = Some Datatype.TInt);
        Alcotest.(check bool) "varchar" true (Datatype.of_sql_name "VARCHAR" = Some Datatype.TString);
        Alcotest.(check bool) "real" true (Datatype.of_sql_name "REAL" = Some Datatype.TFloat);
        Alcotest.(check bool) "bogus" true (Datatype.of_sql_name "BLOB" = None));
    test "check and of_value" (fun () ->
        Alcotest.(check bool) "ok" true (Datatype.check Datatype.TInt (i 1));
        Alcotest.(check bool) "bad" false (Datatype.check Datatype.TInt (s "1"));
        Alcotest.(check bool) "of_value" true
          (Datatype.of_value (f 1.) = Datatype.TFloat));
    test "is_numeric" (fun () ->
        Alcotest.(check bool) "int" true (Datatype.is_numeric Datatype.TInt);
        Alcotest.(check bool) "text" false (Datatype.is_numeric Datatype.TString));
  ]

(* --- schemas and tuples -------------------------------------------------- *)

let sch =
  Schema.make ~name:"t" ~key:"id"
    [
      { Schema.col_name = "id"; col_type = Datatype.TInt };
      { Schema.col_name = "x"; col_type = Datatype.TString };
      { Schema.col_name = "y"; col_type = Datatype.TInt };
    ]

let schema_tests =
  [
    test "index_of and type_of" (fun () ->
        Alcotest.(check int) "id" 0 (Schema.index_of sch "id");
        Alcotest.(check int) "y" 2 (Schema.index_of sch "y");
        Alcotest.(check bool) "type" true (Schema.type_of sch "x" = Datatype.TString));
    test "key_index and column_names" (fun () ->
        Alcotest.(check int) "key" 0 (Schema.key_index sch);
        Alcotest.(check (list string)) "cols" [ "id"; "x"; "y" ]
          (Schema.column_names sch));
    test "mem" (fun () ->
        Alcotest.(check bool) "yes" true (Schema.mem sch "x");
        Alcotest.(check bool) "no" false (Schema.mem sch "z"));
    test "conforms checks arity and types" (fun () ->
        Alcotest.(check bool) "ok" true (Schema.conforms sch (row [ i 1; s "a"; i 2 ]));
        Alcotest.(check bool) "short" false (Schema.conforms sch (row [ i 1; s "a" ]));
        Alcotest.(check bool) "type" false (Schema.conforms sch (row [ i 1; i 2; i 3 ])));
    test "make rejects duplicate columns" (fun () ->
        match
          Schema.make ~name:"bad" ~key:"a"
            [ { Schema.col_name = "a"; col_type = Datatype.TInt };
              { Schema.col_name = "a"; col_type = Datatype.TInt } ]
        with
        | exception Schema.Invalid _ -> ()
        | _ -> Alcotest.fail "expected Invalid");
    test "make rejects missing key" (fun () ->
        match
          Schema.make ~name:"bad" ~key:"k"
            [ { Schema.col_name = "a"; col_type = Datatype.TInt } ]
        with
        | exception Schema.Invalid _ -> ()
        | _ -> Alcotest.fail "expected Invalid");
    test "tuple project and concat" (fun () ->
        let t = row [ i 1; s "a"; i 2 ] in
        Alcotest.check tuple "proj" (row [ i 2; i 1 ]) (Tuple.project t [| 2; 0 |]);
        Alcotest.check tuple "concat" (row [ i 1; s "a" ])
          (Tuple.concat (row [ i 1 ]) (row [ s "a" ])));
    test "tuple compare orders lexicographically" (fun () ->
        Alcotest.(check bool) "lt" true (Tuple.compare (row [ i 1; i 2 ]) (row [ i 1; i 3 ]) < 0);
        Alcotest.(check bool) "len" true (Tuple.compare (row [ i 1 ]) (row [ i 1; i 1 ]) < 0);
        Alcotest.(check int) "eq" 0 (Tuple.compare (row [ i 1 ]) (row [ i 1 ])));
  ]

(* --- bag relations ------------------------------------------------------- *)

let relation_tests =
  [
    test "insert and multiplicity" (fun () ->
        let r = Relation.create () in
        Relation.insert r (row [ i 1 ]);
        Relation.insert ~count:2 r (row [ i 1 ]);
        Alcotest.(check int) "mult" 3 (Relation.multiplicity r (row [ i 1 ]));
        Alcotest.(check int) "card" 3 (Relation.cardinality r);
        Alcotest.(check int) "distinct" 1 (Relation.distinct_cardinality r));
    test "delete decrements and removes" (fun () ->
        let r = Relation.create () in
        Relation.insert ~count:2 r (row [ i 1 ]);
        Alcotest.(check bool) "del" true (Relation.delete r (row [ i 1 ]));
        Alcotest.(check int) "mult" 1 (Relation.multiplicity r (row [ i 1 ]));
        Alcotest.(check bool) "del2" true (Relation.delete r (row [ i 1 ]));
        Alcotest.(check bool) "mem" false (Relation.mem r (row [ i 1 ]));
        Alcotest.(check bool) "underflow" false (Relation.delete r (row [ i 1 ])));
    test "delete more than present fails without change" (fun () ->
        let r = Relation.create () in
        Relation.insert r (row [ i 1 ]);
        Alcotest.(check bool) "too many" false (Relation.delete ~count:2 r (row [ i 1 ]));
        Alcotest.(check int) "unchanged" 1 (Relation.multiplicity r (row [ i 1 ])));
    test "insert rejects non-positive count" (fun () ->
        let r = Relation.create () in
        match Relation.insert ~count:0 r (row [ i 1 ]) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "bag equality ignores insertion order" (fun () ->
        let r1 = rel [ [ i 1 ]; [ i 2 ]; [ i 2 ] ] in
        let r2 = rel [ [ i 2 ]; [ i 1 ]; [ i 2 ] ] in
        Alcotest.check relation "equal" r1 r2);
    test "bag equality distinguishes multiplicities" (fun () ->
        let r1 = rel [ [ i 1 ]; [ i 2 ] ] in
        let r2 = rel [ [ i 1 ]; [ i 2 ]; [ i 2 ] ] in
        Alcotest.(check bool) "neq" false (Relation.equal r1 r2));
    test "diff" (fun () ->
        let r1 = rel [ [ i 1 ]; [ i 2 ]; [ i 2 ] ] in
        let r2 = rel [ [ i 2 ] ] in
        let d = Relation.diff r1 r2 in
        Alcotest.(check int) "1" 1 (Relation.multiplicity d (row [ i 1 ]));
        Alcotest.(check int) "2" 1 (Relation.multiplicity d (row [ i 2 ])));
    test "to_sorted_list is deterministic" (fun () ->
        let r = rel [ [ i 3 ]; [ i 1 ]; [ i 2 ] ] in
        Alcotest.(check (list (pair tuple int)))
          "sorted"
          [ (row [ i 1 ], 1); (row [ i 2 ], 1); (row [ i 3 ], 1) ]
          (Relation.to_sorted_list r));
    test "to_sorted_list keeps multiplicities and orders mixed tuples" (fun () ->
        let rows =
          [ [ i 2; s "b" ]; [ i 1; s "z" ]; [ i 2; s "a" ]; [ i 1; s "z" ];
            [ i 10; s "a" ]; [ i (-3); s "q" ]; [ i 2; s "b" ]; [ i 2; s "b" ] ]
        in
        let r = rel rows in
        Alcotest.(check (list (pair tuple int)))
          "sorted"
          [
            (row [ i (-3); s "q" ], 1); (row [ i 1; s "z" ], 2);
            (row [ i 2; s "a" ], 1); (row [ i 2; s "b" ], 3);
            (row [ i 10; s "a" ], 1);
          ]
          (Relation.to_sorted_list r);
        Alcotest.(check (list (pair tuple int))) "empty" []
          (Relation.to_sorted_list (rel [])));
    test "copy is independent" (fun () ->
        let r = rel [ [ i 1 ] ] in
        let c = Relation.copy r in
        Relation.insert c (row [ i 2 ]);
        Alcotest.(check bool) "orig" false (Relation.mem r (row [ i 2 ]));
        Alcotest.(check bool) "copy" true (Relation.mem c (row [ i 2 ])));
    test "fold visits distinct tuples once" (fun () ->
        let r = rel [ [ i 1 ]; [ i 1 ]; [ i 2 ] ] in
        let visits = Relation.fold (fun _ _ acc -> acc + 1) r 0 in
        Alcotest.(check int) "visits" 2 visits);
  ]

(* --- deltas -------------------------------------------------------------- *)

let delta_tests =
  [
    test "as_delete_insert splits updates" (fun () ->
        let before = row [ i 1; s "a" ] and after = row [ i 1; s "b" ] in
        match Delta.as_delete_insert (Delta.Update { before; after }) with
        | [ Delta.Delete d; Delta.Insert a ] ->
          Alcotest.check tuple "del" before d;
          Alcotest.check tuple "ins" after a
        | _ -> Alcotest.fail "expected delete+insert");
    test "as_delete_insert passes through" (fun () ->
        Alcotest.(check int) "ins" 1
          (List.length (Delta.as_delete_insert (Delta.Insert (row [ i 1 ]))));
        Alcotest.(check int) "del" 1
          (List.length (Delta.as_delete_insert (Delta.Delete (row [ i 1 ])))));
    test "changed_indices" (fun () ->
        let before = row [ i 1; s "a"; i 5 ] and after = row [ i 1; s "b"; i 6 ] in
        Alcotest.(check (list int)) "changed" [ 1; 2 ]
          (Delta.changed_indices (Delta.Update { before; after }));
        Alcotest.(check (list int)) "insert none" []
          (Delta.changed_indices (Delta.Insert before)));
  ]

(* --- database ------------------------------------------------------------ *)

let mk_db () =
  let db = Database.create () in
  Database.add_table db
    (Schema.make ~name:"dim" ~key:"id"
       [ { Schema.col_name = "id"; col_type = Datatype.TInt };
         { Schema.col_name = "label"; col_type = Datatype.TString } ])
    ~updatable:[ "label" ];
  Database.add_table db
    (Schema.make ~name:"fact" ~key:"id"
       [ { Schema.col_name = "id"; col_type = Datatype.TInt };
         { Schema.col_name = "dimid"; col_type = Datatype.TInt };
         { Schema.col_name = "v"; col_type = Datatype.TInt } ])
    ~updatable:[ "v" ];
  Database.add_reference db
    { Relational.Integrity.src_table = "fact"; src_col = "dimid"; dst_table = "dim" };
  db

let expect_violation name fn =
  match fn () with
  | exception Database.Violation _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Violation")

let database_tests =
  [
    test "insert and find_by_key" (fun () ->
        let db = mk_db () in
        Database.insert db "dim" (row [ i 1; s "a" ]);
        Alcotest.(check (option tuple)) "found" (Some (row [ i 1; s "a" ]))
          (Database.find_by_key db "dim" (i 1));
        Alcotest.(check (option tuple)) "missing" None
          (Database.find_by_key db "dim" (i 2)));
    test "duplicate key rejected" (fun () ->
        let db = mk_db () in
        Database.insert db "dim" (row [ i 1; s "a" ]);
        expect_violation "dup" (fun () ->
            Database.insert db "dim" (row [ i 1; s "b" ])));
    test "non-conforming tuple rejected" (fun () ->
        let db = mk_db () in
        expect_violation "arity" (fun () -> Database.insert db "dim" (row [ i 1 ]));
        expect_violation "type" (fun () ->
            Database.insert db "dim" (row [ s "x"; s "a" ])));
    test "dangling foreign key rejected" (fun () ->
        let db = mk_db () in
        expect_violation "fk" (fun () ->
            Database.insert db "fact" (row [ i 1; i 99; i 5 ])));
    test "referenced dimension cannot be deleted" (fun () ->
        let db = mk_db () in
        Database.insert db "dim" (row [ i 1; s "a" ]);
        Database.insert db "fact" (row [ i 1; i 1; i 5 ]);
        expect_violation "referenced" (fun () ->
            Database.delete db "dim" (row [ i 1; s "a" ]));
        Database.delete db "fact" (row [ i 1; i 1; i 5 ]);
        Database.delete db "dim" (row [ i 1; s "a" ]);
        Alcotest.(check int) "empty" 0 (Database.row_count db "dim"));
    test "reference_count tracks referents" (fun () ->
        let db = mk_db () in
        Database.insert db "dim" (row [ i 1; s "a" ]);
        Database.insert db "fact" (row [ i 1; i 1; i 5 ]);
        Database.insert db "fact" (row [ i 2; i 1; i 6 ]);
        Alcotest.(check int) "two" 2 (Database.reference_count db "dim" (i 1));
        Database.delete db "fact" (row [ i 1; i 1; i 5 ]);
        Alcotest.(check int) "one" 1 (Database.reference_count db "dim" (i 1)));
    test "delete of absent tuple rejected" (fun () ->
        let db = mk_db () in
        expect_violation "absent" (fun () ->
            Database.delete db "dim" (row [ i 1; s "a" ])));
    test "update of non-updatable column rejected" (fun () ->
        let db = mk_db () in
        Database.insert db "dim" (row [ i 1; s "a" ]);
        Database.insert db "fact" (row [ i 1; i 1; i 5 ]);
        (* dimid is not declared updatable *)
        expect_violation "not updatable" (fun () ->
            Database.update db "fact" ~before:(row [ i 1; i 1; i 5 ])
              ~after:(row [ i 1; i 2; i 5 ])));
    test "update of updatable column applies" (fun () ->
        let db = mk_db () in
        Database.insert db "dim" (row [ i 1; s "a" ]);
        Database.update db "dim" ~before:(row [ i 1; s "a" ])
          ~after:(row [ i 1; s "b" ]);
        Alcotest.(check (option tuple)) "updated" (Some (row [ i 1; s "b" ]))
          (Database.find_by_key db "dim" (i 1)));
    test "update of absent tuple rejected" (fun () ->
        let db = mk_db () in
        expect_violation "absent" (fun () ->
            Database.update db "dim" ~before:(row [ i 1; s "a" ])
              ~after:(row [ i 1; s "b" ])));
    test "apply routes delta kinds" (fun () ->
        let db = mk_db () in
        Database.apply db (Delta.insert "dim" (row [ i 1; s "a" ]));
        Database.apply db
          (Delta.update "dim" ~before:(row [ i 1; s "a" ])
             ~after:(row [ i 1; s "z" ]));
        Database.apply db (Delta.delete "dim" (row [ i 1; s "z" ]));
        Alcotest.(check int) "empty" 0 (Database.row_count db "dim"));
    test "copy is a deep, independent replica" (fun () ->
        let db = mk_db () in
        Database.insert db "dim" (row [ i 1; s "a" ]);
        let replica = Database.copy db in
        Database.insert db "dim" (row [ i 2; s "b" ]);
        Alcotest.(check int) "orig" 2 (Database.row_count db "dim");
        Alcotest.(check int) "replica" 1 (Database.row_count replica "dim");
        expect_violation "replica fk" (fun () ->
            Database.insert replica "fact" (row [ i 1; i 99; i 0 ])));
    test "table_names is sorted" (fun () ->
        let db = mk_db () in
        Alcotest.(check (list string)) "names" [ "dim"; "fact" ]
          (Database.table_names db));
    test "duplicate table rejected" (fun () ->
        let db = mk_db () in
        expect_violation "dup table" (fun () ->
            Database.add_table db
              (Schema.make ~name:"dim" ~key:"id"
                 [ { Schema.col_name = "id"; col_type = Datatype.TInt } ])
              ~updatable:[]));
    test "reference to a string column rejected (type mismatch)" (fun () ->
        let db = mk_db () in
        (* dim.label is TEXT, fact.v is INT: a reference fact.label does not
           exist; use a fresh table with a TEXT fk against dim's INT key *)
        Database.add_table db
          (Schema.make ~name:"note" ~key:"id"
             [ { Schema.col_name = "id"; col_type = Datatype.TInt };
               { Schema.col_name = "dimref"; col_type = Datatype.TString } ])
          ~updatable:[];
        expect_violation "type mismatch" (fun () ->
            Database.add_reference db
              { Relational.Integrity.src_table = "note"; src_col = "dimref";
                dst_table = "dim" }));
    test "reference on loaded table rejected" (fun () ->
        let db = mk_db () in
        Database.insert db "dim" (row [ i 1; s "a" ]);
        Database.add_table db
          (Schema.make ~name:"extra" ~key:"id"
             [ { Schema.col_name = "id"; col_type = Datatype.TInt } ])
          ~updatable:[];
        Database.insert db "extra" (row [ i 1 ]);
        expect_violation "late constraint" (fun () ->
            Database.add_reference db
              { Relational.Integrity.src_table = "extra"; src_col = "id";
                dst_table = "dim" }));
  ]

let contains ~needle haystack = contains haystack needle

let printer_tests =
  [
    test "render pads and frames" (fun () ->
        let out =
          Relational.Table_printer.render ~header:[ "a"; "bb" ]
            [ [ "1"; "2" ]; [ "10"; "200" ] ]
        in
        Alcotest.(check bool) "frame" true (out.[0] = '+');
        Alcotest.(check bool) "row" true (contains ~needle:"| 10 | 200 |" out));
    test "render pads multi-byte UTF-8 by code points" (fun () ->
        let out =
          Relational.Table_printer.render ~header:[ "name"; "n" ]
            [ [ "Z\xc3\xbcrich"; "1" ]; [ "north"; "2" ] ]
        in
        Alcotest.(check string) "aligned"
          "+--------+---+\n\
           | name   | n |\n\
           +--------+---+\n\
           | Z\xc3\xbcrich | 1 |\n\
           | north  | 2 |\n\
           +--------+---+\n"
          out);
    test "render rejects ragged rows" (fun () ->
        match
          Relational.Table_printer.render ~header:[ "a"; "b" ] [ [ "1" ] ]
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "render_relation shows multiplicities" (fun () ->
        let r = Relation.of_list [ (row [ i 1 ], 2); (row [ i 2 ], 1) ] in
        let out = Relational.Table_printer.render_relation ~columns:[ "x" ] r in
        Alcotest.(check bool) "count col" true (contains ~needle:"| 2 |" out));
  ]

let () =
  Alcotest.run "relational"
    [
      ("value", value_tests @ [ QCheck_alcotest.to_alcotest prop_float_round_trip ]);
      ("datatype", datatype_tests);
      ("schema", schema_tests);
      ("relation", relation_tests);
      ("delta", delta_tests);
      ("database", database_tests);
      ("table_printer", printer_tests);
    ]
