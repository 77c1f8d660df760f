(* Seeded inputs for the pipeline benchmark: the operational store and the
   delta stream.

   The store is a bench-local copy of the retail star of
   [Workload.Retail] (same table and column names, so the paper's views
   apply unchanged) whose fact table carries a FLOAT measure, [amount],
   beside the INT [price]. Amounts are multiples of 0.25, so every float
   SUM stays exact and the audit can compare maintained against
   recomputed views with plain equality.

   The stream does O(1) work per delta: it keeps the live facts in an
   array, issues fresh ids, and only emits changes the validator accepts
   (updates and deletes always carry the fact's current before-image). *)

module Value = Relational.Value
module Database = Relational.Database
module Schema = Relational.Schema
module Datatype = Relational.Datatype
module Delta = Relational.Delta
module Prng = Workload.Prng

type shape = {
  days : int;
  stores : int;
  products : int;
  brands : int;
  facts : int;  (** initial fact rows *)
}

let col name ty = { Schema.col_name = name; col_type = ty }

let schema () =
  let db = Database.create () in
  Database.add_table db
    (Schema.make ~name:"time" ~key:"id"
       [ col "id" Datatype.TInt; col "day" Datatype.TInt;
         col "month" Datatype.TInt; col "year" Datatype.TInt ])
    ~updatable:[ "month" ];
  Database.add_table db
    (Schema.make ~name:"product" ~key:"id"
       [ col "id" Datatype.TInt; col "brand" Datatype.TString;
         col "category" Datatype.TString ])
    ~updatable:[ "brand"; "category" ];
  Database.add_table db
    (Schema.make ~name:"store" ~key:"id"
       [ col "id" Datatype.TInt; col "street_address" Datatype.TString;
         col "city" Datatype.TString; col "country" Datatype.TString;
         col "manager" Datatype.TString ])
    ~updatable:[ "manager" ];
  Database.add_table db
    (Schema.make ~name:"sale" ~key:"id"
       [ col "id" Datatype.TInt; col "timeid" Datatype.TInt;
         col "productid" Datatype.TInt; col "storeid" Datatype.TInt;
         col "price" Datatype.TInt; col "amount" Datatype.TFloat ])
    ~updatable:[ "price"; "amount" ];
  List.iter
    (fun (src_col, dst_table) ->
      Database.add_reference db
        { Relational.Integrity.src_table = "sale"; src_col; dst_table })
    [ ("timeid", "time"); ("productid", "product"); ("storeid", "store") ];
  db

(* --- the live fact array ------------------------------------------------- *)

type t = {
  shape : shape;
  rng : Prng.t;
  mutable live : Relational.Tuple.t array;
  mutable n : int;  (** live facts: [live.(0 .. n-1)] *)
  mutable next_id : int;
  mutable zipf_cdf : int array;  (** cumulative Zipf(1) weights, hot set *)
}

let price rng = Prng.int rng 100 + 1
let amount rng = Value.Float (float_of_int (Prng.int rng 400 + 1) *. 0.25)

let fresh g =
  let id = g.next_id in
  g.next_id <- id + 1;
  [| Value.Int id;
     Value.Int (Prng.int g.rng g.shape.days + 1);
     Value.Int (Prng.int g.rng g.shape.products + 1);
     Value.Int (Prng.int g.rng g.shape.stores + 1);
     Value.Int (price g.rng);
     amount g.rng |]

let push g tup =
  if g.n = Array.length g.live then begin
    let bigger = Array.make (2 * g.n) [||] in
    Array.blit g.live 0 bigger 0 g.n;
    g.live <- bigger
  end;
  g.live.(g.n) <- tup;
  g.n <- g.n + 1

(* A new price that differs from the old one, and a fresh amount. *)
let repriced g before =
  let after = Array.copy before in
  let old = match before.(4) with Value.Int p -> p | _ -> 0 in
  after.(4) <- Value.Int (1 + ((old + Prng.int g.rng 99) mod 100));
  after.(5) <- amount g.rng;
  after

let live_facts g = g.n

(* Build the operational store and the stream state that mirrors its fact
   table. Dimension rows follow [Workload.Retail.load]: the first half of
   the days are 1996, the rest 1997. *)
let create shape ~seed =
  let db = schema () in
  let rng = Prng.create seed in
  let half = max 1 (shape.days / 2) in
  for d = 0 to shape.days - 1 do
    Database.insert db "time"
      [| Value.Int (d + 1); Value.Int ((d mod 30) + 1);
         Value.Int ((d mod 360 / 30) + 1);
         Value.Int (if d < half then 1996 else 1997) |]
  done;
  for i = 0 to shape.products - 1 do
    Database.insert db "product"
      [| Value.Int (i + 1);
         Value.String (Printf.sprintf "brand%d" (i mod shape.brands));
         Value.String (Printf.sprintf "cat%d" (i mod 10)) |]
  done;
  for s = 0 to shape.stores - 1 do
    Database.insert db "store"
      [| Value.Int (s + 1);
         Value.String (Printf.sprintf "%d Main St" (100 + s));
         Value.String (Printf.sprintf "city%d" (s mod 7));
         Value.String "DK";
         Value.String (Printf.sprintf "manager%d" (s mod 11)) |]
  done;
  let g =
    {
      shape;
      rng;
      live = Array.make (max 16 shape.facts) [||];
      n = 0;
      next_id = 1;
      zipf_cdf = [||];
    }
  in
  for _ = 1 to shape.facts do
    let tup = fresh g in
    Database.insert db "sale" tup;
    push g tup
  done;
  (db, g)

(* --- batches ------------------------------------------------------------- *)

(* Uniform mix: [insert_pct]% fresh facts, [update_pct]% price/amount
   updates of a uniformly chosen live fact, the rest deletes (swap-remove
   from the live array). *)
let uniform_batch g ~size ~insert_pct ~update_pct =
  List.init size (fun _ ->
      let r = Prng.int g.rng 100 in
      if r < insert_pct || g.n = 0 then begin
        let tup = fresh g in
        push g tup;
        Delta.insert "sale" tup
      end
      else begin
        let i = Prng.int g.rng g.n in
        let before = g.live.(i) in
        if r < insert_pct + update_pct then begin
          let after = repriced g before in
          g.live.(i) <- after;
          Delta.update "sale" ~before ~after
        end
        else begin
          g.n <- g.n - 1;
          g.live.(i) <- g.live.(g.n);
          g.live.(g.n) <- [||];
          Delta.delete "sale" before
        end
      end)

(* Zipf(1) over [hot] ranks as integer cumulative weights (scaled so the
   total fits an [int]); a draw is one uniform integer and a binary
   search, O(log hot) = O(1) for a fixed hot set. *)
let zipf_table hot =
  let cdf = Array.make hot 0 in
  let acc = ref 0 in
  for r = 1 to hot do
    acc := !acc + (1_000_000_000 / r);
    cdf.(r - 1) <- !acc
  done;
  cdf

let zipf_rank g =
  let cdf = g.zipf_cdf in
  let u = Prng.int g.rng cdf.(Array.length cdf - 1) in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* Churn: [insert_pct]% fresh facts, the rest updates of a hot fact drawn
   from Zipf(1) over [hot] facts spread across the initial fact array.
   Churn never deletes, so the hot facts stay at their slots. *)
let churn_batch g ~size ~hot ~insert_pct =
  if Array.length g.zipf_cdf <> hot then g.zipf_cdf <- zipf_table hot;
  let initial = g.shape.facts in
  List.init size (fun _ ->
      if Prng.int g.rng 100 < insert_pct then begin
        let tup = fresh g in
        push g tup;
        Delta.insert "sale" tup
      end
      else begin
        let i = zipf_rank g * 7_919 mod initial in
        let before = g.live.(i) in
        let after = repriced g before in
        g.live.(i) <- after;
        Delta.update "sale" ~before ~after
      end)
