module Database = Relational.Database
module Schema = Relational.Schema
module Datatype = Relational.Datatype
module Value = Relational.Value
module View = Algebra.View
module Attr = Algebra.Attr
module Aggregate = Algebra.Aggregate
module Select_item = Algebra.Select_item
module Predicate = Algebra.Predicate
module Cmp = Algebra.Cmp

type t = {
  db : Database.t;
  fact : string;
  dims : string list;
  all_tables : string list;
}

let col name ty = { Schema.col_name = name; col_type = ty }

let string_pool = [| "x"; "y"; "z"; "w" |]

(* Signed zeros and a NaN beside values whose sums stay exact in any
   order. *)
let float_pool = [| 0.; -0.; nan; 0.25; -1.5; 2.75 |]

let random_value rng = function
  | Datatype.TInt -> Value.Int (Prng.int rng 6)
  | Datatype.TString ->
    Value.String string_pool.(Prng.int rng (Array.length string_pool))
  | Datatype.TBool -> Value.Bool (Prng.int rng 2 = 0)
  | Datatype.TFloat -> Value.Float float_pool.(Prng.int rng (Array.length float_pool))

(* attribute columns for one table: 1-3 of mixed types (no floats: exact
   incremental arithmetic keeps comparisons strict) *)
let random_attr_columns rng prefix =
  let n = 1 + Prng.int rng 3 in
  List.init n (fun j ->
      let ty =
        match Prng.int rng 3 with
        | 0 -> Datatype.TInt
        | 1 -> Datatype.TString
        | _ -> Datatype.TBool
      in
      col (Printf.sprintf "%s%d" prefix j) ty)

let load_table rng db name ~rows =
  let schema = Database.schema_of db name in
  for key = 1 to rows do
    let tup =
      Array.map
        (fun (c : Schema.column) ->
          if String.equal c.Schema.col_name schema.Schema.key then
            Value.Int key
          else random_value rng c.Schema.col_type)
        schema.Schema.columns
    in
    Database.insert db name tup
  done

let random ?(floats = false) rng =
  let db = Database.create () in
  let ndims = Prng.int rng 4 in
  let dims = List.init ndims (fun i -> Printf.sprintf "dim%d" i) in
  (* one optional sub-dimension below dim0 (a snowflake arm) *)
  let sub = ndims > 0 && Prng.chance rng 0.35 in
  if sub then begin
    Database.add_table db
      (Schema.make ~name:"sub0" ~key:"id"
         (col "id" Datatype.TInt :: random_attr_columns rng "sa"))
      ~updatable:[];
    load_table rng db "sub0" ~rows:(3 + Prng.int rng 4)
  end;
  List.iteri
    (fun i dim ->
      let attrs = random_attr_columns rng (Printf.sprintf "d%d_" i) in
      let fk = if sub && i = 0 then [ col "subid" Datatype.TInt ] else [] in
      let updatable =
        List.filter_map
          (fun (c : Schema.column) ->
            if Prng.chance rng 0.5 then Some c.Schema.col_name else None)
          attrs
      in
      Database.add_table db
        (Schema.make ~name:dim ~key:"id"
           ((col "id" Datatype.TInt :: fk) @ attrs))
        ~updatable;
      if sub && i = 0 then
        Database.add_reference db
          { Relational.Integrity.src_table = dim; src_col = "subid";
            dst_table = "sub0" })
    dims;
  (* load dims after all constraints are declared *)
  let sub_rows = if sub then Database.row_count db "sub0" else 0 in
  List.iteri
    (fun i dim ->
      let schema = Database.schema_of db dim in
      let rows = 4 + Prng.int rng 5 in
      for key = 1 to rows do
        let tup =
          Array.map
            (fun (c : Schema.column) ->
              if String.equal c.Schema.col_name "id" then Value.Int key
              else if String.equal c.Schema.col_name "subid" then
                Value.Int (Prng.int rng sub_rows + 1)
              else random_value rng c.Schema.col_type)
            schema.Schema.columns
        in
        Database.insert db dim tup
      done;
      ignore i)
    dims;
  (* the fact table: foreign keys, measures, a label; occasionally an
     updatable foreign key (exposed updates) *)
  let fks = List.mapi (fun i _ -> Printf.sprintf "fk%d" i) dims in
  let measures =
    col "m0" Datatype.TInt
    :: (if Prng.chance rng 0.5 then [ col "m1" Datatype.TInt ] else [])
    @ if floats then [ col "mf" Datatype.TFloat ] else []
  in
  let fact_cols =
    (col "id" Datatype.TInt :: List.map (fun f -> col f Datatype.TInt) fks)
    @ measures
    @ [ col "lbl" Datatype.TString ]
  in
  let updatable =
    List.map (fun (c : Schema.column) -> c.Schema.col_name)
      (List.filter (fun _ -> true) measures)
    @ (if fks <> [] && Prng.chance rng 0.3 then [ List.hd fks ] else [])
  in
  Database.add_table db (Schema.make ~name:"fact" ~key:"id" fact_cols)
    ~updatable;
  List.iteri
    (fun i dim ->
      Database.add_reference db
        { Relational.Integrity.src_table = "fact";
          src_col = Printf.sprintf "fk%d" i; dst_table = dim })
    dims;
  let schema = Database.schema_of db "fact" in
  for key = 1 to 40 + Prng.int rng 60 do
    let tup =
      Array.map
        (fun (c : Schema.column) ->
          if String.equal c.Schema.col_name "id" then Value.Int key
          else
            match
              List.find_index
                (fun f -> String.equal f c.Schema.col_name)
                fks
            with
            | Some i ->
              Value.Int
                (Prng.int rng (Database.row_count db (List.nth dims i)) + 1)
            | None -> random_value rng c.Schema.col_type)
        schema.Schema.columns
    in
    Database.insert db "fact" tup
  done;
  {
    db;
    fact = "fact";
    dims;
    all_tables = ("fact" :: dims) @ (if sub then [ "sub0" ] else []);
  }

(* --- random views over a generated instance ----------------------------- *)

let attrs_of inst table =
  let schema = Database.schema_of inst.db table in
  List.map
    (fun (c : Schema.column) -> (Attr.make table c.Schema.col_name, c.Schema.col_type))
    (Array.to_list schema.Schema.columns)

let sublist rng xs = List.filter (fun _ -> Prng.chance rng 0.4) xs

let random_view ?(extended = false) rng inst =
  (* pick the dims to join; include sub0 only below dim0 *)
  let dims = sublist rng inst.dims in
  let with_sub =
    List.mem "dim0" dims
    && List.mem "sub0" inst.all_tables
    && Prng.chance rng 0.6
  in
  let tables = (inst.fact :: dims) @ (if with_sub then [ "sub0" ] else []) in
  let joins =
    List.map
      (fun dim ->
        let i = Scanf.sscanf dim "dim%d" Fun.id in
        { View.src = Attr.make inst.fact (Printf.sprintf "fk%d" i);
          dst = Attr.make dim "id" })
      dims
    @
    if with_sub then
      [ { View.src = Attr.make "dim0" "subid"; dst = Attr.make "sub0" "id" } ]
    else []
  in
  (* candidate group attributes: fact fks/label and non-key dim attributes *)
  let candidates =
    List.concat_map
      (fun tbl ->
        List.filter
          (fun ((a : Attr.t), _) ->
            not (String.equal a.Attr.column "id")
            && not (String.equal a.Attr.column "subid"))
          (attrs_of inst tbl))
      tables
  in
  let groups = sublist rng candidates in
  let int_attrs =
    List.filter (fun (_, ty) -> ty = Datatype.TInt) candidates
  in
  (* the measures [extended] also aggregates: FLOAT ones, and MIN *)
  let numeric_attrs =
    if extended then
      List.filter (fun (_, ty) -> Datatype.is_numeric ty) candidates
    else int_attrs
  in
  let fresh =
    let n = ref 0 in
    fun prefix ->
      incr n;
      Printf.sprintf "%s%d" prefix !n
  in
  let aggs =
    [ Select_item.Agg (Aggregate.make ~alias:"cnt" Aggregate.Count_star None) ]
    @ List.concat_map
        (fun (at, _) ->
          let pick p mk = if Prng.chance rng p then [ mk () ] else [] in
          pick 0.5 (fun () ->
              Select_item.Agg
                (Aggregate.make ~alias:(fresh "sum") Aggregate.Sum (Some at)))
          @ pick 0.25 (fun () ->
                Select_item.Agg
                  (Aggregate.make ~alias:(fresh "mx") Aggregate.Max (Some at)))
          @ pick 0.2 (fun () ->
                Select_item.Agg
                  (Aggregate.make ~alias:(fresh "av") Aggregate.Avg (Some at)))
          @
          if extended then
            pick 0.25 (fun () ->
                Select_item.Agg
                  (Aggregate.make ~alias:(fresh "mn") Aggregate.Min (Some at)))
          else [])
        numeric_attrs
    @
    (* a DISTINCT over some candidate attribute *)
    match candidates with
    | [] -> []
    | cs when Prng.chance rng 0.4 ->
      let at, _ = Prng.pick rng cs in
      [ Select_item.Agg
          (Aggregate.make ~distinct:true ~alias:(fresh "dst") Aggregate.Count
             (Some at)) ]
    | _ -> []
  in
  (* drop superfluous MAX/AVG over group-by attributes *)
  let group_attrs = List.map fst groups in
  let aggs =
    List.filter
      (fun item ->
        match item with
        | Select_item.Agg g -> (
          match g.Aggregate.func, Aggregate.attr g with
          | (Aggregate.Min | Aggregate.Max | Aggregate.Avg), Some at ->
            not (List.exists (Attr.equal at) group_attrs)
          | _ -> true)
        | Select_item.Group _ -> true)
      aggs
  in
  let locals =
    List.filter_map
      (fun (at, ty) ->
        if ty = Datatype.TInt && Prng.chance rng 0.2 then
          Some
            { Predicate.left = at;
              op = (if Prng.chance rng 0.5 then Cmp.Le else Cmp.Ge);
              right = Predicate.Const (Value.Int (1 + Prng.int rng 4)) }
        else None)
      candidates
  in
  let select =
    List.map
      (fun ((at : Attr.t), _) ->
        Select_item.group ~alias:(fresh (at.Attr.table ^ "_" ^ at.Attr.column))
          at)
      groups
    @ aggs
  in
  let having =
    if extended && Prng.chance rng 0.3 then
      [ { View.h_column = "cnt"; h_op = Cmp.Ge;
          h_const = Value.Int (1 + Prng.int rng 3) } ]
    else []
  in
  let view = { View.name = "gen_view"; select; tables; locals; joins; having } in
  View.validate inst.db view;
  view
