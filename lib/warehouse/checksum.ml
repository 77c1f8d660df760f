(* CRC-32 (IEEE 802.3, reflected, polynomial 0xedb88320) over bytes.
   Used to detect torn writes and bit rot in WAL records and snapshot
   sections before any byte is decoded — unmarshalling a corrupt WAL
   record is undefined behaviour, so every payload is checksum-gated.

   Slicing-by-8: [tk] advances the register over one byte followed by [k]
   zero bytes, so eight lookups consume two little-endian 32-bit words at
   once; the tail goes byte by byte through [t0], the classic table. The
   values are those of the bytewise loop. *)

let poly = 0xedb88320

let t0 =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let next t = Array.map (fun c -> (c lsr 8) lxor t0.(c land 0xff)) t
let t1 = next t0
let t2 = next t1
let t3 = next t2
let t4 = next t3
let t5 = next t4
let t6 = next t5
let t7 = next t6

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] word b i =
  let w = get32u b i in
  Int32.to_int (if Sys.big_endian then swap32 w else w) land 0xffffffff

(* The range is checked once, so the words are read unchecked; every
   index below is masked to a byte (or is a 32-bit value shifted right by
   24), so the 256-entry tables are read without bounds checks. *)
let update crc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Checksum.update";
  let crc = ref (crc lxor 0xffffffff) in
  let i = ref off and stop = off + len in
  while !i + 8 <= stop do
    let lo = !crc lxor word b !i and hi = word b (!i + 4) in
    crc :=
      Array.unsafe_get t7 (lo land 0xff)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xff)
      lxor Array.unsafe_get t4 (lo lsr 24)
      lxor Array.unsafe_get t3 (hi land 0xff)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xff)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xff)
      lxor Array.unsafe_get t0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    let c = !crc lxor Char.code (Bytes.unsafe_get b j) in
    crc := Array.unsafe_get t0 (c land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xffffffff

let sub b off len = update 0 b off len
let string s = sub (Bytes.unsafe_of_string s) 0 (String.length s)

(* [combine], as zlib's [crc32_combine]: a CRC is a polynomial over GF(2)
   (bit 31 is x^0), and appending [len] bytes multiplies the first CRC's
   register by x^(8 len) modulo the generator. [mult a b] is a b mod P;
   [x2n.(k)] is x^(2^k) mod P, so x^n is a product of the entries for
   the bits of [n]. *)
let mult a b =
  let p = ref 0 and m = ref (1 lsl 31) and b = ref b in
  while !m <> 0 do
    if a land !m <> 0 then p := !p lxor !b;
    m := !m lsr 1;
    b := (!b lsr 1) lxor (poly land (- (!b land 1)))
  done;
  !p

let x2n =
  let t = Array.make 32 (1 lsl 30) in
  for k = 1 to 31 do
    t.(k) <- mult t.(k - 1) t.(k - 1)
  done;
  t

(* x^(8 n) mod P: bit [j] of [n] is x^(2^(j + 3)). *)
let x8n n =
  let p = ref (1 lsl 31) and n = ref n and k = ref 3 in
  while !n <> 0 do
    if !n land 1 = 1 then p := mult (Array.unsafe_get x2n (!k land 31)) !p;
    n := !n lsr 1;
    incr k
  done;
  !p

let combine crc1 crc2 len2 =
  if len2 < 0 then invalid_arg "Checksum.combine"
  else mult (x8n len2) crc1 lxor crc2
