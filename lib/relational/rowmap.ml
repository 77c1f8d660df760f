(* Slots are 32-bit entries packed in [Bytes] — row ids are segment offsets
   and stay far below 2^31, and halving the slot width matters: the slot
   table is the largest per-row overhead of the columnar representation
   (the bytes/aux-row numbers in BENCH_columnar.json count it).

   Slot encoding: [empty] never held an entry (terminates probe chains);
   [tombstone] held one once (does not terminate chains). *)
let empty = -1
let tombstone = -2

type t = {
  hash : int -> int;
  mutable slots : Bytes.t;  (** 4 bytes per slot, native endian *)
  mutable mask : int;
  mutable live : int;
  mutable fill : int;  (** live + tombstones *)
  mutable probes : int;  (** probe chains walked, for O(delta) tests *)
}

(* A slot's home takes the high bits of a multiplicative mix of the hash
   (Fibonacci hashing). The low bits alone would not do: keys can arrive
   sorted by exactly those bits, as a [Hashtbl]'s fold order hands them
   out, and a load in that order would pile them into one run. *)
let home hash mask = ((hash * 0x9E3779B97F4A7C1) lsr 29) land mask

let slot_get slots i = Int32.to_int (Bytes.get_int32_ne slots (4 * i))
let slot_set slots i v = Bytes.set_int32_ne slots (4 * i) (Int32.of_int v)

(* every byte 0xff = each int32 slot reads as [empty] *)
let make_slots cap = Bytes.make (4 * cap) '\xff'

let rec pow2 n c = if c >= n then c else pow2 n (2 * c)

(* 64 slots by default: a map of a handful of groups, probed once per
   scanned row by a build, then rarely meets a collision (8 keys: 1.5 slot
   visits a probe in 16 slots, 1.1 in 64). An explicit [hint] is taken as
   given, down to 8 slots. *)
let create ?(hint = 64) ~hash () =
  let cap = pow2 (max 8 hint) 8 in
  { hash; slots = make_slots cap; mask = cap - 1; live = 0; fill = 0;
    probes = 0 }

let copy t ~hash = { t with hash; slots = Bytes.copy t.slots; probes = 0 }

let clear t =
  Bytes.fill t.slots 0 (Bytes.length t.slots) '\xff';
  t.live <- 0;
  t.fill <- 0
let length t = t.live
let probes t = t.probes

let rehash t cap =
  let old = t.slots in
  let slots = make_slots cap in
  let mask = cap - 1 in
  for s = 0 to (Bytes.length old / 4) - 1 do
    let row = slot_get old s in
    if row >= 0 then begin
      let i = ref (home (t.hash row) mask) in
      while slot_get slots !i <> empty do
        i := (!i + 1) land mask
      done;
      slot_set slots !i row
    end
  done;
  t.slots <- slots;
  t.mask <- mask;
  t.fill <- t.live

(* Grow when 3/4 full (counting tombstones); shrink tombstone load by
   rehashing in place when live entries alone would fit twice over. *)
let maybe_grow t =
  if 4 * (t.fill + 1) > 3 * (t.mask + 1) then
    rehash t
      (if 4 * (t.live + 1) > 3 * (t.mask + 1) / 2 then 2 * (t.mask + 1)
       else t.mask + 1)

let reserve t n =
  let cap = ref (t.mask + 1) in
  while 4 * (t.live + n) > 3 * !cap do
    cap := 2 * !cap
  done;
  if !cap > t.mask + 1 then rehash t !cap

let find t ~hash ~eq =
  t.probes <- t.probes + 1;
  let mask = t.mask and slots = t.slots in
  let rec probe i =
    let s = slot_get slots i in
    if s = empty then None
    else if s >= 0 && eq s then Some s
    else probe ((i + 1) land mask)
  in
  probe (home hash mask)

(* A top-level loop: [eq] and its context travel as arguments, so a probe
   with a closed [eq] allocates nothing. *)
let rec probe_from slots mask eq a b i =
  let s = slot_get slots i in
  if s = empty then -1
  else if s >= 0 && eq a b s then s
  else probe_from slots mask eq a b ((i + 1) land mask)

let probe t ~hash eq a b =
  t.probes <- t.probes + 1;
  probe_from t.slots t.mask eq a b (home hash t.mask)

let rec probe3_from slots mask eq a b c i =
  let s = slot_get slots i in
  if s = empty then -1
  else if s >= 0 && eq a b c s then s
  else probe3_from slots mask eq a b c ((i + 1) land mask)

let probe3 t ~hash eq a b c =
  t.probes <- t.probes + 1;
  probe3_from t.slots t.mask eq a b c (home hash t.mask)

(* The first slot from [i] on that holds no entry. *)
let rec free_slot slots mask i =
  let s = slot_get slots i in
  if s = empty || s = tombstone then i
  else free_slot slots mask ((i + 1) land mask)

let insert t ~hash row =
  maybe_grow t;
  let i = free_slot t.slots t.mask (home hash t.mask) in
  if slot_get t.slots i = empty then t.fill <- t.fill + 1;
  slot_set t.slots i row;
  t.live <- t.live + 1

let add t ~hash row =
  t.probes <- t.probes + 1;
  insert t ~hash row

let load t pairs =
  let cap = Array.length pairs / 2 in
  if t.fill > 0 || cap = 0 || cap land (cap - 1) <> 0 then
    invalid_arg "Rowmap.load: map not empty or table size not a power of two";
  let slots = make_slots cap in
  for i = 0 to cap - 1 do
    let row = pairs.((2 * i) + 1) in
    if row >= 0 then begin
      slot_set slots i row;
      t.live <- t.live + 1
    end
  done;
  t.slots <- slots;
  t.mask <- cap - 1;
  t.fill <- t.live

(* Like [probe3]: a closed [eq] and its context, so nothing is allocated. *)
let rec replace3_from t slots mask eq a b c row i =
  let s = slot_get slots i in
  if s = empty then -1
  else if s >= 0 && eq a b c s then begin
    slot_set slots i row;
    s
  end
  else replace3_from t slots mask eq a b c row ((i + 1) land mask)

let replace3 t ~hash eq a b c row =
  t.probes <- t.probes + 1;
  match replace3_from t t.slots t.mask eq a b c row (home hash t.mask) with
  | -1 ->
    insert t ~hash row;
    -1
  | prev -> prev

let replace t ~hash ~eq row =
  match replace3 t ~hash (fun eq () () s -> eq s) eq () () row with
  | -1 -> None
  | prev -> Some prev

(* The slot from [i] on that holds [row], or [-1]. *)
let rec slot_of slots mask row i =
  let s = slot_get slots i in
  if s = empty then -1
  else if s = row then i
  else slot_of slots mask row ((i + 1) land mask)

let remove_value t ~hash row =
  t.probes <- t.probes + 1;
  let i = slot_of t.slots t.mask row (home hash t.mask) in
  i >= 0
  && begin
       slot_set t.slots i tombstone;
       t.live <- t.live - 1;
       true
     end

let rename_value t ~hash ~old_row ~new_row =
  t.probes <- t.probes + 1;
  let i = slot_of t.slots t.mask old_row (home hash t.mask) in
  i >= 0
  && begin
       slot_set t.slots i new_row;
       true
     end

let iter t f =
  for i = 0 to t.mask do
    let s = slot_get t.slots i in
    if s >= 0 then f s
  done

let byte_size t = Bytes.length t.slots
