(* Current vs. old detail data (Figure 1): the warehouse keeps a mutable
   current partition of the fact table and an append-only old partition.
   Section 4's observation — old detail can be reduced further because only
   insertions must be survived — shows up directly: the old partition
   pre-aggregates MIN/MAX and shrinks by another two orders of magnitude.

   Run with: dune exec examples/old_detail_aging.exe *)

module R = Workload.Retail
module P = Maintenance.Partitioned

let params = { R.small_params with R.days = 30; seed = 99 }

(* revenue / traffic / price-ceiling profile per month *)
let profile =
  let a = Algebra.Attr.make in
  {
    Algebra.View.name = "monthly_profile";
    having = [];
    select =
      [
        Algebra.Select_item.group (a "time" "month");
        Algebra.Select_item.Agg
          (Algebra.Aggregate.make ~alias:"Revenue" Algebra.Aggregate.Sum
             (Some (a "sale" "price")));
        Algebra.Select_item.Agg
          (Algebra.Aggregate.make ~alias:"Sales" Algebra.Aggregate.Count_star
             None);
        Algebra.Select_item.Agg
          (Algebra.Aggregate.make ~alias:"MaxPrice" Algebra.Aggregate.Max
             (Some (a "sale" "price")));
      ];
    tables = [ "sale"; "time" ];
    locals = [];
    joins = [ { Algebra.View.src = a "sale" "timeid"; dst = a "time" "id" } ];
  }

let show_profile p =
  print_string
    (Warehouse.Storage.render_profile (P.detail_profile p))

let () =
  let db = R.load params in
  let boundary = ref 10 in
  let is_old tup =
    match tup.(1) with Relational.Value.Int t -> t <= !boundary | _ -> false
  in
  let p = P.init db profile ~is_old in
  print_endline "detail data, split at day 10:";
  show_profile p;

  (* a week of traffic: new sales land in the current partition; prices of
     recent sales get corrected; old sales are immutable *)
  let rng = Workload.Prng.create 17 in
  for _ = 1 to 7 do
    let inserts = { Workload.Delta_gen.insert = 1; delete = 0; update = 0 } in
    let stream =
      Workload.Delta_gen.stream_for ~mix:inserts rng db ~tables:[ "sale" ]
        ~n:150
    in
    P.apply_batch p stream
  done;
  Printf.printf "\nafter a week: merged view == recomputed: %b\n"
    (Relational.Relation.equal (P.view_contents p)
       (Algebra.Eval.eval db profile));

  (* nightly job: age days 11..20 out of the current partition *)
  let aged =
    Relational.Database.fold db "sale"
      (fun tup acc ->
        match tup.(1) with
        | Relational.Value.Int t when t > 10 && t <= 20 -> tup :: acc
        | _ -> acc)
      []
  in
  boundary := 20;
  P.age_out p aged;
  Printf.printf "aged %d facts into the old partition; view unchanged: %b\n"
    (List.length aged)
    (Relational.Relation.equal (P.view_contents p)
       (Algebra.Eval.eval db profile));
  print_endline "detail data after aging (old partition stays tiny):";
  show_profile p
