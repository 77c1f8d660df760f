(* Writes the golden state directory: the warehouse of [schema.sql],
   attached to DIR (its initial checkpoint is the snapshot), then one
   logged batch per change script. Nothing checkpoints after them, so the
   log holds every batch.

   dune exec test/golden/make_golden.exe -- test/golden/schema.sql DIR \
     test/golden/batch1.sql test/golden/batch2.sql test/golden/batch3.sql *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  let db = Relational.Database.create () in
  let views =
    Sqlfront.Elaborate.views
      (Sqlfront.Elaborate.run_script db (read_file Sys.argv.(1)))
  in
  let wh = Warehouse.create db in
  List.iter (Warehouse.add_view wh) views;
  Warehouse.attach wh ~dir:Sys.argv.(2);
  for i = 3 to Array.length Sys.argv - 1 do
    Warehouse.ingest wh
      (Sqlfront.Elaborate.changes
         (Sqlfront.Elaborate.run_script db (read_file Sys.argv.(i))))
  done;
  Warehouse.close wh
