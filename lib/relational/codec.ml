(* Typed binary cells, rows and deltas (see codec.mli). *)

(* --- writing ------------------------------------------------------------ *)

type writer = {
  mutable buf : bytes;
  mutable len : int;
  spill : (bytes -> int -> unit) option;  (** a chunk writer's consumer *)
  mutable memo : bytes;  (** see [put_float_bits] *)
}

let writer n =
  { buf = Bytes.create (max n 16); len = 0; spill = None; memo = Bytes.empty }

let chunks n spill =
  { buf = Bytes.create (max n 16); len = 0; spill = Some spill;
    memo = Bytes.empty }
let clear w = w.len <- 0
let length w = w.len
let bytes w = w.buf

let flush w =
  match w.spill with
  | Some spill when w.len > 0 ->
    spill w.buf w.len;
    w.len <- 0
  | _ -> ()

(* The slow path of [reserve]: a chunk writer spills its bytes, and grows
   only for a caller that reserved more than it holds, which [room]'s
   callers do not. *)
let make_room w n =
  flush w;
  let need = w.len + n in
  if need > Bytes.length w.buf then begin
    let b = Bytes.create (max need (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 b 0 w.len;
    w.buf <- b
  end

(* Room for [n] more bytes; every [put_*] below writes unchecked after it. *)
let reserve w n = if w.len + n > Bytes.length w.buf then make_room w n

let room w n =
  match w.spill with
  | Some _ when n > Bytes.length w.buf -> false
  | _ ->
    reserve w n;
    true

let[@inline] put_byte w c =
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (c land 0xff));
  w.len <- w.len + 1

let add_byte w c =
  reserve w 1;
  put_byte w c

(* The varint of [n] at [i] of [b], and the position after it. [lsr]
   treats the int as 63 unsigned bits, so at most 9 bytes. *)
let varint_at b i n =
  let n = ref n and i = ref i in
  while !n lsr 7 <> 0 do
    Bytes.unsafe_set b !i (Char.unsafe_chr (!n land 0x7f lor 0x80));
    n := !n lsr 7;
    incr i
  done;
  Bytes.unsafe_set b !i (Char.unsafe_chr !n);
  !i + 1

let put_varint w n = w.len <- varint_at w.buf w.len n

let add_varint w n =
  reserve w 9;
  put_varint w n

(* An OCaml int has 63 bits, so its sign is bit 62. *)
let[@inline] zigzag n = (n lsl 1) lxor (n asr 62)
let put_int w n = put_varint w (zigzag n)

let add_int w n =
  reserve w 9;
  put_int w n

(* The stdlib's [Bytes.set_int64_le] is not inlined here and would box
   its argument: the primitives keep a float cell allocation-free. *)
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* A FLOAT cell [x] that is [m / 10^e] bit for bit — the division
   correctly rounded — for some [e] in 0..6 and [|m| < 2^51] is the
   varint of [8 * zigzag m + e], with the smallest such [e]; any other
   ([-0.0], NaN, the infinities, subnormals, every non-decimal double) is
   the byte [raw_tag] and its 8 IEEE bytes, little-endian. Below 2^51
   distinct mantissas of one exponent land more than an ulp apart, so a
   decimal of exponent [e] has one mantissa, the product [x * 10^e]
   rounded to the nearest integer. *)
let pow10 = [| 1.; 10.; 100.; 1e3; 1e4; 1e5; 1e6 |]
let raw_tag = 7
let no_mantissa = min_int

(* Adding and taking away 1.5 * 2^52 rounds a float below 2^51 in
   magnitude to the nearest integer, with no call into C. *)
let round_magic = 0x1.8p52

(* The mantissa of [x], whose bits are [bits], at exponent [e]; or
   [no_mantissa]. *)
let[@inline] mantissa x bits e =
  let scale = Array.unsafe_get pow10 e in
  let p = x *. scale in
  if Float.abs p < 0x1p51 then begin
    let m = p +. round_magic -. round_magic in
    if Int64.equal (Int64.bits_of_float (m /. scale)) bits then Float.to_int m
    else no_mantissa
  end
  else no_mantissa

let[@inline] put_raw w bits =
  put_byte w raw_tag;
  set64u w.buf w.len (if Sys.big_endian then swap64 bits else bits);
  w.len <- w.len + 8

(* The code of a FLOAT cell: the varint value of its decimal at the
   smallest exponent it fits, or -1. Inlined: a call would box [x] and
   [bits]. *)
let[@inline] float_code x bits =
  let e = ref 0 and m = ref no_mantissa in
  while !m = no_mantissa && !e <= 6 do
    m := mantissa x bits !e;
    if !m = no_mantissa then incr e
  done;
  if !m = no_mantissa then -1 else (zigzag !m lsl 3) lor !e

(* Slots of a writer's [memo], 16 bytes each: a FLOAT cell's bits, then
   its varint's bytes, little-endian, with its length less one in the
   last byte; or there [raw_tag] for a cell written raw, and [not_kept]
   for a varint of 8 bytes, which leaves no room for its length. *)
let memo_slots = 1024
let not_kept = 8

(* Measures repeat, as the reader's box cache ([float_cell]) counts on
   too: [memo] holds the bytes of the last cell that hashed to each slot,
   so a repeated value costs a hash, a compare and one 8-byte store
   instead of up to seven multiplies, rounds and divides and a varint
   loop whose length branches follow the digits. It is allocated at the
   writer's first FLOAT cell; its zeros are the slot of [+0.0], whose cell
   is the one byte 0. At most 9 bytes, and nothing allocated per cell. *)
let[@inline] put_float_bits w bits =
  if Bytes.length w.memo = 0 then
    w.memo <- Bytes.make (16 * memo_slots) '\000';
  let memo = w.memo in
  let slot =
    16
    * Int64.to_int
        (Int64.shift_right_logical (Int64.mul bits 0x9E37_79B9_7F4A_7C15L) 54)
  in
  let kept = get64u memo (slot + 8) in
  let last = Int64.to_int (Int64.shift_right_logical kept 56) in
  let hit = Int64.equal (get64u memo slot) bits in
  if hit && last < raw_tag then begin
    (* the bytes past the varint land where the next cell goes *)
    set64u w.buf w.len (if Sys.big_endian then swap64 kept else kept);
    w.len <- w.len + last + 1
  end
  else if hit && last = raw_tag then put_raw w bits
  else begin
    let code = float_code (Int64.float_of_bits bits) bits in
    set64u memo slot bits;
    if code < 0 then begin
      set64u memo (slot + 8) (Int64.shift_left (Int64.of_int raw_tag) 56);
      put_raw w bits
    end
    else begin
      let at = w.len in
      put_varint w code;
      let n = w.len - at in
      let cell = get64u w.buf at in
      let cell = if Sys.big_endian then swap64 cell else cell in
      set64u memo (slot + 8)
        (if n < 8 then
           Int64.logor
             (Int64.logand cell (Int64.pred (Int64.shift_left 1L (8 * n))))
             (Int64.shift_left (Int64.of_int (n - 1)) 56)
         else Int64.shift_left (Int64.of_int not_kept) 56)
    end
  end

let add_float w x =
  reserve w 9;
  put_float_bits w (Int64.bits_of_float x)

let put_words w ty src off n =
  match ty with
  | Datatype.TInt ->
    let i = ref w.len in
    for k = 0 to n - 1 do
      i := varint_at w.buf !i (zigzag (Int64.to_int (get64u src (off + (8 * k)))))
    done;
    w.len <- !i
  | Datatype.TFloat ->
    for k = 0 to n - 1 do
      put_float_bits w (get64u src (off + (8 * k)))
    done
  | Datatype.TBool ->
    for k = 0 to n - 1 do
      put_byte w (if Int64.to_int (get64u src (off + (8 * k))) <> 0 then 1 else 0)
    done
  | Datatype.TString -> invalid_arg "Codec.put_words: a TEXT cell is a string"

let put_string w s =
  let n = String.length s in
  put_varint w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

(* A string longer than a chunk writer's room crosses chunks. *)
let add_string w s =
  let n = String.length s in
  if room w (9 + n) then put_string w s
  else begin
    add_varint w n;
    let pos = ref 0 in
    while !pos < n do
      if w.len = Bytes.length w.buf then flush w;
      let k = min (n - !pos) (Bytes.length w.buf - w.len) in
      Bytes.unsafe_blit_string s !pos w.buf w.len k;
      w.len <- w.len + k;
      pos := !pos + k
    done
  end

let add_bool w b = add_byte w (Bool.to_int b)

let datatype_code = function
  | Datatype.TInt -> 0
  | Datatype.TFloat -> 1
  | Datatype.TString -> 2
  | Datatype.TBool -> 3

let add_datatype w ty = add_byte w (datatype_code ty)

let add_cell w ty v =
  match (ty, v) with
  | Datatype.TInt, Value.Int x -> add_int w x
  | Datatype.TFloat, Value.Float x -> add_float w x
  | Datatype.TString, Value.String x -> add_string w x
  | Datatype.TBool, Value.Bool x -> add_bool w x
  | _ ->
    invalid_arg
      (Printf.sprintf "Codec.add_cell: %s value in a %s column"
         (Value.type_name v) (Datatype.to_string ty))

let add_row w types tup =
  for i = 0 to Array.length types - 1 do
    add_cell w (Array.unsafe_get types i) tup.(i)
  done

let add_value w v =
  match v with
  | Value.Null -> add_byte w 0
  | Value.Int x ->
    add_byte w 1;
    add_int w x
  | Value.Float x ->
    add_byte w 2;
    add_float w x
  | Value.String x ->
    add_byte w 3;
    add_string w x
  | Value.Bool x ->
    add_byte w 4;
    add_bool w x

let add_tuple w tup =
  add_varint w (Array.length tup);
  Array.iter (add_value w) tup

let add_delta w (d : Delta.t) =
  add_string w d.table;
  match d.change with
  | Delta.Insert tup ->
    add_byte w 0;
    add_tuple w tup
  | Delta.Delete tup ->
    add_byte w 1;
    add_tuple w tup
  | Delta.Update { before; after } ->
    add_byte w 2;
    add_tuple w before;
    add_tuple w after

let reasons =
  [| Delta.Unknown_table; Delta.Schema_mismatch; Delta.Duplicate_key;
     Delta.Missing_row; Delta.Dangling_reference; Delta.Referenced_key;
     Delta.Not_updatable; Delta.Engine_failure |]

let reason_code (r : Delta.reason) =
  match r with
  | Delta.Unknown_table -> 0
  | Delta.Schema_mismatch -> 1
  | Delta.Duplicate_key -> 2
  | Delta.Missing_row -> 3
  | Delta.Dangling_reference -> 4
  | Delta.Referenced_key -> 5
  | Delta.Not_updatable -> 6
  | Delta.Engine_failure -> 7

let add_rejection w (r : Delta.rejection) =
  add_byte w (reason_code r.reason);
  add_string w r.detail;
  add_delta w r.delta

(* --- reading ------------------------------------------------------------ *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

(* [floats] holds the FLOAT cells decoded last, direct-mapped by their
   bits (see [float_cell]); it is allocated by the first cell boxed, so a
   reader that decodes into words ([float_to]) never makes one.
   [raw_floats]: every FLOAT cell is its 8 IEEE bytes, as formats before
   the decimal cells wrote them. *)
type reader = {
  src : bytes;
  mutable pos : int;
  stop : int;
  mutable floats : Value.t array;
  raw_floats : bool;
}

let make_reader raw_floats b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Codec.reader";
  { src = b; pos = off; stop = off + len; floats = [||]; raw_floats }

let reader b off len = make_reader false b off len
let raw_float_reader b off len = make_reader true b off len

let remaining r = r.stop - r.pos

let need r n =
  if n > r.stop - r.pos then
    malformed "a %d-byte cell overruns its section (%d byte(s) left)" n
      (r.stop - r.pos)

let byte r =
  need r 1;
  let c = Char.code (Bytes.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  c

(* One loop over the bytes, with no call per byte. *)
let varint_loop r =
  let src = r.src and stop = r.stop in
  let p = ref r.pos and acc = ref 0 and shift = ref 0 and last = ref false in
  while not !last do
    if !p >= stop then need r 1;
    let b = Char.code (Bytes.unsafe_get src !p) in
    incr p;
    acc := !acc lor ((b land 0x7f) lsl !shift);
    if b < 0x80 then last := true
    else begin
      shift := !shift + 7;
      if !shift > 56 then malformed "a varint runs past 9 bytes"
    end
  done;
  r.pos <- !p;
  !acc

(* A fact row is mostly varints of one to three bytes: those are read
   without the loop. *)
let varint r =
  let src = r.src and p = r.pos in
  if p + 3 <= r.stop then begin
    let b0 = Char.code (Bytes.unsafe_get src p) in
    if b0 < 0x80 then begin
      r.pos <- p + 1;
      b0
    end
    else
      let b1 = Char.code (Bytes.unsafe_get src (p + 1)) in
      if b1 < 0x80 then begin
        r.pos <- p + 2;
        (b0 land 0x7f) lor (b1 lsl 7)
      end
      else
        let b2 = Char.code (Bytes.unsafe_get src (p + 2)) in
        if b2 < 0x80 then begin
          r.pos <- p + 3;
          (b0 land 0x7f) lor ((b1 land 0x7f) lsl 7) lor (b2 lsl 14)
        end
        else varint_loop r
  end
  else varint_loop r

let int r =
  let z = varint r in
  (z lsr 1) lxor -(z land 1)

let count r =
  let n = varint r in
  if n < 0 || n > r.stop - r.pos then
    malformed "a count of %d exceeds the %d byte(s) left" n (r.stop - r.pos);
  n

let string r =
  let n = count r in
  let s = Bytes.sub_string r.src r.pos n in
  r.pos <- r.pos + n;
  s

let bool r =
  match byte r with
  | 0 -> false
  | 1 -> true
  | b -> malformed "BOOL byte %d" b

let datatype r =
  match byte r with
  | 0 -> Datatype.TInt
  | 1 -> Datatype.TFloat
  | 2 -> Datatype.TString
  | 3 -> Datatype.TBool
  | b -> malformed "column type %d" b

(* Decoded cells share boxes where values repeat: a decoded delta or
   dead letter can live long, and foreign keys into dimensions and small
   measures repeat. A small non-negative INT takes its one box from
   [Value.int]; a FLOAT takes the box of the last equal one (by bits, so
   [-0.0] and NaN payloads stay apart) that hashed to its slot of
   [floats]. Values are immutable, so the sharing cannot be observed. *)
let int_cell r = Value.int (int r)

let[@inline] raw_bits r =
  need r 8;
  let bits = get64u r.src r.pos in
  r.pos <- r.pos + 8;
  if Sys.big_endian then swap64 bits else bits

(* One division, as [put_float_bits] checked when it wrote the cell. A bad
   tag raises directly: a call to [malformed] in one branch would box the
   bits the others return. *)
let[@inline] float_bits r =
  if r.raw_floats then raw_bits r
  else
    let v = varint r in
    let e = v land 7 in
    if e <> raw_tag then
      let z = v lsr 3 in
      Int64.bits_of_float
        (Float.of_int ((z lsr 1) lxor -(z land 1)) /. Array.unsafe_get pow10 e)
    else if v = raw_tag then raw_bits r
    else raise (Malformed (Printf.sprintf "FLOAT tag %d" v))

let float_to r b off = Bytes.set_int64_ne b off (float_bits r)

(* The cell's bits pick its slot and decide a hit, so a hit allocates
   nothing. *)
let float_cell r =
  let bits = float_bits r in
  if Array.length r.floats = 0 then r.floats <- Array.make 256 Value.Null;
  let slot =
    Int64.to_int
      (Int64.shift_right_logical (Int64.mul bits 0x9E37_79B9_7F4A_7C15L) 56)
  in
  match Array.unsafe_get r.floats slot with
  | Value.Float y as v when Int64.equal (Int64.bits_of_float y) bits -> v
  | _ ->
    let v = Value.Float (Int64.float_of_bits bits) in
    Array.unsafe_set r.floats slot v;
    v

let cell r = function
  | Datatype.TInt -> int_cell r
  | Datatype.TFloat -> float_cell r
  | Datatype.TString -> Value.String (string r)
  | Datatype.TBool -> Value.Bool (bool r)

let typed_cell r types i = cell r (Array.unsafe_get types i)

(* The cells are read in column order, as they were written. *)
let row r types = Tuple.init_with (Array.length types) typed_cell r types

let value r =
  match byte r with
  | 0 -> Value.Null
  | 1 -> Value.Int (int r)
  | 2 -> float_cell r
  | 3 -> Value.String (string r)
  | 4 -> Value.Bool (bool r)
  | b -> malformed "value tag %d" b

let tuple r = Array.init (count r) (fun _ -> value r)

let delta r =
  let table = string r in
  match byte r with
  | 0 -> Delta.insert table (tuple r)
  | 1 -> Delta.delete table (tuple r)
  | 2 ->
    let before = tuple r in
    Delta.update table ~before ~after:(tuple r)
  | b -> malformed "change kind %d" b

let rejection r =
  let reason =
    match byte r with
    | b when b < Array.length reasons -> reasons.(b)
    | b -> malformed "rejection reason %d" b
  in
  let detail = string r in
  { Delta.delta = delta r; reason; detail }
