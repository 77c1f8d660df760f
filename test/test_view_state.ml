(* Direct unit tests for the view-group state: component maintenance,
   DISTINCT value multisets, dirty-group tracking, group rewriting,
   rendering, byte accounting. *)

open Helpers
module VS = Maintenance.View_state

let test case fn = Alcotest.test_case case `Quick fn

(* a small view: group g, SUM(v), COUNT( * ), AVG(v), MAX(v), COUNT(DISTINCT s) *)
let view =
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

let contribs key ~v ~lbl =
  feed_row key [| `Key; `Sum (i v); `Count; `Sum (i v); `Val (i v); `Val (s lbl) |]

let feed st key ~v ~lbl = VS.feed st (contribs key ~v ~lbl) ~cnt:1
let unfeed st key ~v ~lbl = VS.unfeed st (contribs key ~v ~lbl) ~cnt:1

let fresh () = VS.create view ~determined:false

let rows st = Relation.to_sorted_list (VS.render st)

(* end of a batch with no extremum lost: nothing for the engine to do *)
let settle st =
  Alcotest.(check (list tuple)) "nothing to recompute" [] (VS.take_dirty st)

let multiset st key = VS.multiset st ~key ~item:5
let counts = Alcotest.(list (pair value int))

let tests =
  [
    test "feed creates and accumulates CSMAS components" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:20 ~lbl:"b";
        settle st;
        Alcotest.(check int) "one group" 1 (VS.group_count st);
        match rows st with
        | [ (r, 1) ] ->
          Alcotest.check value "g" (i 1) r.(0);
          Alcotest.check value "sum" (i 30) r.(1);
          Alcotest.check value "count" (i 2) r.(2);
          Alcotest.check value "avg" (f 15.) r.(3);
          Alcotest.check value "max" (i 20) r.(4);
          Alcotest.check value "distinct" (i 2) r.(5)
        | _ -> Alcotest.fail "expected one row");
    test "unfeed reverses CSMAS components exactly" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:20 ~lbl:"a";
        ignore (VS.take_dirty st);
        unfeed st (row [ i 1 ]) ~v:20 ~lbl:"a";
        (* the deleted 20 was the MAX: group goes dirty *)
        Alcotest.(check bool) "dirty" true (VS.is_dirty_pending st);
        let dirty = VS.take_dirty st in
        Alcotest.(check (list tuple)) "the MAX group" [ row [ i 1 ] ] dirty;
        List.iter (fun k -> VS.set_value st ~key:k ~item:4 (i 10)) dirty;
        match rows st with
        | [ (r, 1) ] ->
          Alcotest.check value "sum" (i 10) r.(1);
          Alcotest.check value "count" (i 1) r.(2);
          Alcotest.check value "max" (i 10) r.(4);
          Alcotest.check value "distinct" (i 1) r.(5)
        | _ -> Alcotest.fail "expected one row");
    test "deleting a non-extremal value leaves the group clean" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:20 ~lbl:"b";
        settle st;
        unfeed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        (* MAX unaffected, and the DISTINCT count follows its multiset: "a"
           left it, with nothing marked dirty *)
        Alcotest.(check bool) "clean" false (VS.is_dirty_pending st);
        match rows st with
        | [ (r, 1) ] ->
          Alcotest.check value "max intact" (i 20) r.(4);
          Alcotest.check value "distinct" (i 1) r.(5)
        | _ -> Alcotest.fail "expected one row");
    test "DISTINCT multiset counts base rows per value" (fun () ->
        let st = fresh () in
        let key = row [ i 1 ] in
        VS.feed st (contribs key ~v:10 ~lbl:"a") ~cnt:2;
        feed st key ~v:20 ~lbl:"b";
        Alcotest.check counts "two values" [ (s "a", 2); (s "b", 1) ] (multiset st key);
        unfeed st key ~v:10 ~lbl:"a";
        Alcotest.check counts "a kept once" [ (s "a", 1); (s "b", 1) ] (multiset st key);
        Alcotest.(check bool) "never dirty" false (VS.is_dirty_pending st);
        unfeed st key ~v:20 ~lbl:"b";
        Alcotest.check counts "b dropped" [ (s "a", 1) ] (multiset st key);
        (match rows st with
        | [ (r, 1) ] -> Alcotest.check value "distinct" (i 1) r.(5)
        | _ -> Alcotest.fail "expected one row");
        Alcotest.check counts "not a DISTINCT item" [] (VS.multiset st ~key ~item:4);
        Alcotest.check counts "absent group" [] (multiset st (row [ i 9 ])));
    test "MIN/MAX/SUM/AVG DISTINCT are re-folded when the batch settles"
      (fun () ->
        let dview =
          {
            view with
            View.select =
              [
                group (a "t" "g");
                Select_item.Agg
                  (Aggregate.make ~distinct:true ~alias:"sd" Aggregate.Sum
                     (Some (a "t" "x")));
                Select_item.Agg
                  (Aggregate.make ~distinct:true ~alias:"ad" Aggregate.Avg
                     (Some (a "t" "x")));
                Select_item.Agg
                  (Aggregate.make ~distinct:true ~alias:"mn" Aggregate.Min
                     (Some (a "t" "x")));
                Select_item.Agg
                  (Aggregate.make ~distinct:true ~alias:"mx" Aggregate.Max
                     (Some (a "t" "x")));
              ];
          }
        in
        let st = VS.create dview ~determined:false in
        let key = row [ i 1 ] in
        let cs x = feed_row key (Array.append [| `Key |] (Array.make 4 (`Val (f x)))) in
        List.iter (fun x -> VS.feed st (cs x) ~cnt:1) [ 0.5; 1e16; 0.5; 0.25 ];
        settle st;
        VS.unfeed st (cs 1e16) ~cnt:1;
        Alcotest.(check bool) "pending re-fold" true (VS.is_dirty_pending st);
        settle st;
        match rows st with
        | [ (r, 1) ] ->
          Alcotest.check value "sum" (f 0.75) r.(1);
          Alcotest.check value "avg" (f 0.375) r.(2);
          Alcotest.check value "min" (f 0.25) r.(3);
          Alcotest.check value "max" (f 0.5) r.(4)
        | _ -> Alcotest.fail "expected one row");
    test "group disappears at zero and forgets its dirt" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        ignore (VS.take_dirty st);
        unfeed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        Alcotest.(check int) "gone" 0 (VS.group_count st);
        Alcotest.(check (list (pair tuple int))) "no rows" [] (rows st);
        Alcotest.(check bool) "no dirt" false (VS.is_dirty_pending st));
    test "unfeed of missing group raises" (fun () ->
        let st = fresh () in
        match unfeed st (row [ i 9 ]) ~v:1 ~lbl:"a" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "unfeed underflow raises" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        match VS.unfeed st (contribs (row [ i 1 ]) ~v:10 ~lbl:"a") ~cnt:5 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "determined mode keeps a one-value DISTINCT multiset" (fun () ->
        let st = VS.create view ~determined:true in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:20 ~lbl:"a";
        Alcotest.(check bool) "never dirty" false (VS.is_dirty_pending st);
        (match rows st with
        | [ (r, 1) ] -> Alcotest.check value "distinct count" (i 1) r.(5)
        | _ -> Alcotest.fail "expected one row");
        (* a dimension update rewrites the determined value for every row *)
        VS.adjust_group st ~key:(row [ i 1 ]) ~new_key:(row [ i 1 ])
          [ (5, VS.Set_current (s "z")) ];
        Alcotest.check counts "rewritten" [ (s "z", 2) ] (multiset st (row [ i 1 ])));
    test "adjust_group shifts sums and moves keys" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:20 ~lbl:"a";
        settle st;
        (* pretend a determined attribute moved from 10/20-base to +5 each:
           Shift_sum adds delta x n *)
        VS.adjust_group st ~key:(row [ i 1 ]) ~new_key:(row [ i 2 ])
          [ (1, VS.Shift_sum (i 5)); (3, VS.Shift_sum (i 5)) ];
        (match rows st with
        | [ (r, 1) ] ->
          Alcotest.check value "new key" (i 2) r.(0);
          Alcotest.check value "sum shifted by 2x5" (i 40) r.(1)
        | _ -> Alcotest.fail "expected one row"));
    test "a re-keyed group rolls back and publishes under its new key"
      (fun () ->
        let build () =
          let st = fresh () in
          List.iter (fun k -> feed st (row [ i k ]) ~v:(10 * k) ~lbl:"a") [ 1; 2; 3 ];
          settle st;
          st
        in
        let st = build () and snap = build () in
        ignore (VS.publish st);
        let rekey () =
          VS.adjust_group st ~key:(row [ i 1 ]) ~new_key:(row [ i 9 ])
            [ (1, VS.Shift_sum (i 5)) ]
        in
        VS.begin_txn st;
        rekey ();
        VS.rollback st;
        Alcotest.(check bool) "rolled back" true (VS.equal st snap);
        Alcotest.(check (list (pair tuple int))) "rows restored" (rows snap) (rows st);
        VS.begin_txn st;
        rekey ();
        VS.commit st;
        Alcotest.(check (list (pair tuple int)))
          "publication == full render"
          (Array.to_list (Relation.to_sorted_array (VS.render st)))
          (Array.to_list (VS.publish st)));
    test "adjust_group rejects key collisions" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 2 ]) ~v:20 ~lbl:"a";
        ignore (VS.take_dirty st);
        match VS.adjust_group st ~key:(row [ i 1 ]) ~new_key:(row [ i 2 ]) [] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "set_value on a vanished group is a no-op" (fun () ->
        let st = fresh () in
        VS.set_value st ~key:(row [ i 7 ]) ~item:4 (i 0);
        Alcotest.(check int) "still empty" 0 (VS.group_count st));
    test "a re-created group starts a fresh multiset" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        settle st;
        unfeed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:5 ~lbl:"b";
        settle st;
        Alcotest.check counts "only b" [ (s "b", 1) ] (multiset st (row [ i 1 ]));
        match rows st with
        | [ (r, 1) ] -> Alcotest.check value "distinct" (i 1) r.(5)
        | _ -> Alcotest.fail "expected one row");
    test "byte_size counts the DISTINCT multiset" (fun () ->
        let st = fresh () in
        let key = row [ i 1 ] in
        feed st key ~v:1 ~lbl:"l0";
        let last = ref (VS.byte_size st) in
        for k = 1 to 40 do
          feed st key ~v:1 ~lbl:(Printf.sprintf "l%d" k);
          let now = VS.byte_size st in
          Alcotest.(check bool) "a new value costs at least a map node" true
            (now >= !last + 48);
          last := now
        done;
        (* another row carrying a known value adds no entry *)
        feed st key ~v:1 ~lbl:"l7";
        Alcotest.(check int) "repeat value" !last (VS.byte_size st));
    test "publish merges committed groups and renders in full after an \
          untracked change" (fun () ->
        let st = fresh () in
        List.iter (fun g -> feed st (row [ i g ]) ~v:g ~lbl:"a") [ 1; 2; 3 ];
        settle st;
        let published () = Array.to_list (VS.publish st) in
        let check what =
          Alcotest.(check (list (pair tuple int))) what (rows st) (published ())
        in
        check "the first publication renders in full";
        VS.begin_txn st;
        feed st (row [ i 2 ]) ~v:5 ~lbl:"b";
        unfeed st (row [ i 3 ]) ~v:3 ~lbl:"a";
        feed st (row [ i 4 ]) ~v:4 ~lbl:"a";
        settle st;
        VS.commit st;
        check "a commit's groups are merged in";
        (* outside a transaction no journal names the changed group *)
        feed st (row [ i 1 ]) ~v:9 ~lbl:"c";
        settle st;
        check "an untracked change is rendered in full";
        let before = published () in
        VS.begin_txn st;
        feed st (row [ i 7 ]) ~v:7 ~lbl:"a";
        VS.rollback st;
        Alcotest.(check (list (pair tuple int)))
          "a rolled-back batch changes nothing" before (published ());
        VS.begin_txn st;
        Alcotest.check_raises "publishing inside a transaction"
          (Invalid_argument "View_state.publish: transaction open") (fun () ->
            ignore (VS.publish st));
        VS.rollback st);
    test "fold_groups exposes base-row counts" (fun () ->
        let st = fresh () in
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 1 ]) ~v:10 ~lbl:"a";
        feed st (row [ i 2 ]) ~v:10 ~lbl:"a";
        let total = VS.fold_groups st (fun _ cnt acc -> acc + cnt) 0 in
        Alcotest.(check int) "total" 3 total);
  ]

let () = Alcotest.run "view_state" [ ("view_state", tests) ]
