(* CRC-32 (IEEE 802.3, reflected, polynomial 0xedb88320) over bytes.
   Used to detect torn writes and bit rot in WAL records and snapshot
   sections before any byte is decoded — unmarshalling a corrupt WAL
   record is undefined behaviour, so every payload is checksum-gated.

   Slicing-by-4: [t1], [t2], [t3] advance the register over one byte
   followed by one, two or three zero bytes, so four lookups consume a
   little-endian 32-bit word at once; the tail goes byte by byte through
   [t0], the classic table. The values are those of the bytewise loop. *)

let t0 =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let next t = Array.map (fun c -> (c lsr 8) lxor t0.(c land 0xff)) t
let t1 = next t0
let t2 = next t1
let t3 = next t2

(* Every index below is masked to a byte (or is a 32-bit value shifted
   right by 24), so the 256-entry tables are read without bounds checks. *)
let update crc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Checksum.update";
  let crc = ref (crc lxor 0xffffffff) in
  let i = ref off and stop = off + len in
  while !i + 4 <= stop do
    let c =
      !crc lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xffffffff)
    in
    crc :=
      Array.unsafe_get t3 (c land 0xff)
      lxor Array.unsafe_get t2 ((c lsr 8) land 0xff)
      lxor Array.unsafe_get t1 ((c lsr 16) land 0xff)
      lxor Array.unsafe_get t0 (c lsr 24);
    i := !i + 4
  done;
  for j = !i to stop - 1 do
    let c = !crc lxor Char.code (Bytes.unsafe_get b j) in
    crc := Array.unsafe_get t0 (c land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xffffffff

let sub b off len = update 0 b off len
let string s = sub (Bytes.unsafe_of_string s) 0 (String.length s)
