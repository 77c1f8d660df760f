(* Omitting the huge fact table (Section 3.3): when the view groups by the
   key of a dimension, the fact table transitively depends on everything,
   sits in nobody's Need set and feeds only CSMAS aggregates — so its
   auxiliary view is eliminated and the warehouse stores only the tiny
   dimension detail table.

   Run with: dune exec examples/fact_table_elimination.exe *)

module R = Workload.Retail

let () =
  let source = R.load R.small_params in
  let view = R.sales_by_time in

  let d = Mindetail.Derive.derive source view in
  print_string (Mindetail.Explain.report d);
  (match Mindetail.Derive.omitted_tables d with
  | [ "sale" ] -> print_endline "=> the fact table needs NO detail copy at all"
  | other ->
    Printf.printf "unexpected omissions: [%s]\n" (String.concat ", " other));

  let wh = Warehouse.create source in
  Warehouse.add_view wh view;
  print_endline "\ndetail storage (note: no saleDTL):";
  print_string
    (Warehouse.Storage.render_profile (Warehouse.detail_profile wh));

  (* maintenance still works on fact inserts, deletes and price updates *)
  let rng = Workload.Prng.create 77 in
  let deltas =
    Workload.Delta_gen.stream_for rng source ~tables:[ "sale"; "time" ]
      ~n:1_000
  in
  Warehouse.ingest wh deltas;
  let _, maintained = Warehouse.query wh "sales_by_time" in
  Printf.printf
    "\nafter %d changes, maintained view matches recomputation: %b\n"
    (List.length deltas)
    (Relational.Relation.equal maintained (Algebra.Eval.eval source view))
