(* The paper's running example (Section 1.1) at laptop scale: the grocery
   chain star schema, the product_sales view, and a storage comparison of
   the three detail-data strategies — full replication, PSJ auxiliary views
   (Quass et al.), and the paper's minimal duplicate-compressed views.

   Run with: dune exec examples/retail_star.exe *)

module R = Workload.Retail

let params =
  {
    R.days = 60;
    stores = 4;
    products = 120;
    sold_per_store_day = 30;
    tx_per_product = 5;
    brands = 12;
    seed = 1998;
  }

let () =
  Printf.printf "loading retail star schema: %d fact rows...\n%!"
    (R.fact_rows params);
  let source = R.load params in
  let view = R.product_sales in

  (* the paper's derivation *)
  let d = Mindetail.Derive.derive source view in
  print_string (Mindetail.Explain.report d);

  (* three warehouses over the same source *)
  let strategies =
    [ (Warehouse.Replicate, "full replication");
      (Warehouse.Psj, "PSJ auxiliary views");
      (Warehouse.Minimal, "minimal (this paper)") ]
  in
  let warehouses =
    List.map
      (fun (s, label) ->
        let wh = Warehouse.create source in
        Warehouse.add_view ~strategy:s wh view;
        (wh, label))
      strategies
  in
  print_endline "detail data stored per strategy:";
  List.iter
    (fun (wh, label) ->
      let profile = Warehouse.detail_profile wh in
      Printf.printf "%-22s %8d rows  %10s\n" label
        (List.fold_left (fun acc (_, r, _) -> acc + r) 0 profile)
        (Warehouse.Storage.show_bytes
           (Warehouse.Storage.profile_bytes profile)))
    warehouses;

  (* a month of source activity *)
  let rng = Workload.Prng.create 2024 in
  let deltas = Workload.Delta_gen.stream rng source ~n:2_000 in
  Printf.printf "\ningesting %d source changes...\n%!" (List.length deltas);
  List.iter (fun (wh, _) -> Warehouse.ingest wh deltas) warehouses;

  (* all strategies agree with recomputation *)
  let expected = Algebra.Eval.eval source view in
  List.iter
    (fun (wh, label) ->
      let _, got = Warehouse.query wh view.Algebra.View.name in
      Printf.printf "%-22s matches recomputation: %b\n" label
        (Relational.Relation.equal got expected))
    warehouses;

  print_endline "\nproduct_sales after the change stream:";
  let wh_min = fst (List.nth warehouses 2) in
  let cols, rel = Warehouse.query wh_min "product_sales" in
  print_string (Relational.Table_printer.render_relation ~columns:cols rel)
