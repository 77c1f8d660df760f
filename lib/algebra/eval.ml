module Database = Relational.Database
module Schema = Relational.Schema
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value

let output_columns (v : View.t) = List.map Select_item.alias v.View.select

(* Environment: bindings from table name to its current tuple. *)
let lookup db env (a : Attr.t) =
  let tup = List.assoc a.Attr.table env in
  tup.(Schema.index_of (Database.schema_of db a.Attr.table) a.Attr.column)

let passes_locals db (v : View.t) env table =
  List.for_all
    (fun p -> Predicate.holds p (lookup db env))
    (View.locals_of v ~table)

(* Depth-first extension of [env] with all tables in the subtree rooted at
   the destinations of [table]'s outgoing joins. Key joins yield at most one
   partner per join, so this either completes the row or drops it. *)
let rec extend db (v : View.t) env table =
  let joins = View.joins_from v table in
  List.fold_left
    (fun env_opt (j : View.join) ->
      match env_opt with
      | None -> None
      | Some env -> (
        let fk = lookup db env j.View.src in
        match Database.find_by_key db j.View.dst.Attr.table fk with
        | None -> None
        | Some partner ->
          let env = (j.View.dst.Attr.table, partner) :: env in
          if passes_locals db v env j.View.dst.Attr.table then
            extend db v env j.View.dst.Attr.table
          else None))
    (Some env) joins

let rows db (v : View.t) f acc =
  let r = View.root v in
  Database.fold db r
    (fun tup acc ->
      let env = [ (r, tup) ] in
      if not (passes_locals db v env r) then acc
      else
        match extend db v env r with
        | None -> acc
        | Some env -> f (lookup db env) acc)
    acc

module GroupKey = struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end

module GH = Hashtbl.Make (GroupKey)

let eval db (v : View.t) =
  let gattrs = Array.of_list (View.group_attrs v) in
  let args =
    Array.of_list
      (List.filter_map
         (function
           | Select_item.Agg agg -> Some (Aggregate.attr agg)
           | Select_item.Group _ -> None)
         v.View.select)
  in
  (* Each row keeps only its aggregates' arguments, in select-list order;
     its tuples are garbage once it is grouped. *)
  let groups : Value.t array list ref GH.t = GH.create 64 in
  let () =
    rows db v
      (fun look () ->
        let key = Array.map look gattrs in
        let row =
          Array.map
            (function Some a -> look a | None -> Value.Int 1)
            args
        in
        match GH.find_opt groups key with
        | Some cell -> cell := row :: !cell
        | None -> GH.add groups key (ref [ row ]))
      ()
  in
  let result = Relation.create ~size_hint:(GH.length groups) () in
  GH.iter
    (fun key cell ->
      let rows_in_group = !cell in
      let gi = ref 0 and ai = ref 0 in
      let out =
        List.map
          (fun item ->
            match item with
            | Select_item.Group _ ->
              let v = key.(!gi) in
              incr gi;
              v
            | Select_item.Agg agg -> (
              let j = !ai in
              incr ai;
              let occs = List.map (fun row -> (row.(j), 1)) rows_in_group in
              match Aggregate.compute agg occs with
              | Some value -> value
              | None -> assert false (* group is non-empty by construction *)))
          v.View.select
      in
      Relation.insert result (Array.of_list out))
    groups;
  View.filter_having v result
