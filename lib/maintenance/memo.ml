(* Open addressing with linear probing over one flat array of (key,
   value) pairs, made on the first binding and grown at half load;
   [absent] as a value marks an empty slot. *)
let absent = min_int

type t = { mutable cells : int array; mutable n : int }

let create () = { cells = [||]; n = 0 }

(* Fibonacci hashing, as {!Relational.Rowmap} places its slots. *)
let home k mask = ((k * 0x9E3779B97F4A7C1) lsr 29) land mask

let rec slot cells mask k i =
  if
    Array.unsafe_get cells ((2 * i) + 1) = absent
    || Array.unsafe_get cells (2 * i) = k
  then i
  else slot cells mask k ((i + 1) land mask)

let find t k =
  if t.n = 0 then absent
  else
    let mask = (Array.length t.cells / 2) - 1 in
    Array.unsafe_get t.cells ((2 * slot t.cells mask k (home k mask)) + 1)

let rec add t k v =
  let slots = Array.length t.cells / 2 in
  if 2 * (t.n + 1) > slots then begin
    let old = t.cells in
    t.cells <- Array.make (2 * max 8 (2 * slots)) absent;
    t.n <- 0;
    for i = 0 to (Array.length old / 2) - 1 do
      if old.((2 * i) + 1) <> absent then add t old.(2 * i) old.((2 * i) + 1)
    done;
    add t k v
  end
  else begin
    let mask = slots - 1 in
    let i = slot t.cells mask k (home k mask) in
    if t.cells.((2 * i) + 1) = absent then t.n <- t.n + 1;
    t.cells.(2 * i) <- k;
    t.cells.((2 * i) + 1) <- v
  end
