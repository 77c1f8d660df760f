(* FLOAT cells of [Relational.Codec]: every double survives bit for bit,
   takes at most 9 bytes, and is written as the smallest-exponent decimal
   that an exhaustive search finds, or raw. *)

module Codec = Relational.Codec
module Datatype = Relational.Datatype
module Value = Relational.Value

let test case fn = Alcotest.test_case case `Quick fn

let pow10 = [| 1.; 10.; 100.; 1e3; 1e4; 1e5; 1e6 |]

let add_varint b n =
  let rec go n =
    if n lsr 7 = 0 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go n

(* The cell of [x] by the format's definition, found the slow way: every
   exponent from 0 up, and around each scaled value the three integers
   nearest to it, each decoded by one division and compared by bits. *)
let reference x =
  let bits = Int64.bits_of_float x in
  let b = Buffer.create 9 in
  let decimal e =
    let near = Float.round (x *. pow10.(e)) in
    if not (Float.abs near <= 0x1p51) then None
    else
      let near = Float.to_int near in
      List.find_opt
        (fun m ->
          abs m < 1 lsl 51
          && Int64.equal (Int64.bits_of_float (float_of_int m /. pow10.(e))) bits)
        [ near - 1; near; near + 1 ]
  in
  let rec search e =
    if e > 6 then None
    else match decimal e with Some m -> Some (m, e) | None -> search (e + 1)
  in
  (match search 0 with
  | Some (m, e) -> add_varint b ((((m lsl 1) lxor (m asr 62)) lsl 3) lor e)
  | None ->
    Buffer.add_char b '\007';
    Buffer.add_int64_le b bits);
  Buffer.contents b

let written w = Bytes.sub_string (Codec.bytes w) 0 (Codec.length w)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let show x = Printf.sprintf "%h (bits %016Lx)" x (Int64.bits_of_float x)

(* [xs] written by [add_float] into one writer, so that a repeated double
   finds the writer's memo, and by [put_words] from their words: both
   must be the reference cells, each at most 9 bytes, and both readers
   must give every double back with its bits. *)
let check_cells xs =
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  let expected = List.map reference xs in
  let w = Codec.writer 16 in
  List.iter (Codec.add_float w) xs;
  let n = List.length xs in
  let words = Bytes.create (8 * n) in
  List.iteri (fun k x -> Bytes.set_int64_ne words (8 * k) (Int64.bits_of_float x)) xs;
  let w' = Codec.writer 16 in
  ignore (Codec.room w' (9 * n) : bool);
  Codec.put_words w' Datatype.TFloat words 0 n;
  let bytes = written w in
  let r = Codec.reader (Codec.bytes w) 0 (Codec.length w)
  and r' = Codec.reader (Codec.bytes w) 0 (Codec.length w) in
  let out = Bytes.create 8 in
  List.iter2
    (fun x cell ->
      if String.length cell > 9 then
        fail "%s takes %d bytes" (show x) (String.length cell);
      (match Codec.cell r Datatype.TFloat with
      | Value.Float y when same_bits x y -> ()
      | v -> fail "%s decodes as %s" (show x) (Value.to_string v));
      Codec.float_to r' out 0;
      let y = Int64.float_of_bits (Bytes.get_int64_ne out 0) in
      if not (same_bits x y) then
        fail "%s decodes into a word as %s" (show x) (show y))
    xs expected;
  let expected = String.concat "" expected in
  (String.equal bytes expected
  || fail "add_float wrote %S, the exhaustive search %S" bytes expected)
  && (String.equal (written w') expected
     || fail "put_words wrote %S, the exhaustive search %S" (written w')
          expected)
  && (Codec.remaining r = 0 || fail "%d byte(s) left" (Codec.remaining r))

(* The edges of the format and perfbench's amounts, the multiples of 0.25
   up to 100. *)
let fixed =
  [ -0.0; 0.0; Float.nan; Int64.float_of_bits 0x7FF8_0000_0000_0001L;
    Int64.float_of_bits 0xFFF0_0000_0000_0123L;
    Int64.float_of_bits 0x7FF4_0000_0000_0000L; Float.infinity;
    Float.neg_infinity; Int64.float_of_bits 1L; Float.min_float;
    0x1p51 -. 1.; 0x1p51; -.0x1p51; 0x1p53 +. 2.; 0.1; -0.1; 12.99; 1e-7;
    123456.789; 1e-6; 0.3; 1e300; Float.max_float; 2.5e-6; 9.999999 ]
  @ List.init 400 (fun k -> float_of_int (k + 1) *. 0.25)

(* Random doubles of three kinds: any 64-bit pattern, a decimal
   [m / 10^e] of up to 52 bits, and one of [fixed]. *)
let gen_float =
  QCheck2.Gen.(
    oneof
      [
        map Int64.float_of_bits int64;
        map3
          (fun m bits e ->
            float_of_int (m land ((1 lsl bits) - 1) * if m land 1 = 0 then 1 else -1)
            /. pow10.(e))
          int (int_range 1 52) (int_range 0 6);
        oneofl fixed;
      ])

let prop_cells =
  QCheck2.Test.make ~count:500
    ~name:"FLOAT cells: same bits back, at most 9 bytes, the smallest exponent"
    ~print:QCheck2.Print.(list show)
    QCheck2.Gen.(list_size (int_range 1 40) gen_float)
    (fun xs -> check_cells (xs @ List.rev xs))

(* The minor words [f n] allocates. *)
let words f n =
  let w0 = Gc.minor_words () in
  f n;
  int_of_float (Gc.minor_words () -. w0)

let tests =
  [
    test "the fixed doubles, one writer and one writer each" (fun () ->
        Alcotest.(check bool) "one writer, twice" true
          (check_cells (fixed @ fixed));
        List.iter
          (fun x -> Alcotest.(check bool) (show x) true (check_cells [ x ]))
          fixed);
    test "cells of a decimal measure: two and three bytes" (fun () ->
        List.iter
          (fun (x, n) ->
            let w = Codec.writer 16 in
            Codec.add_float w x;
            Alcotest.(check int) (show x) n (Codec.length w))
          [ (0.25, 2); (12.99, 3); (100., 2); (1310.71, 3); (1e-7, 9);
            (-0.0, 9); (1. /. 3., 9) ]);
    test "a malformed FLOAT tag is refused" (fun () ->
        let b = Bytes.of_string "\015" in
        match Codec.cell (Codec.reader b 0 1) Datatype.TFloat with
        | v -> Alcotest.failf "decoded as %s" (Value.to_string v)
        | exception Codec.Malformed _ -> ());
    test "encoding and decoding FLOAT words allocate nothing per cell"
      (fun () ->
        let cells n = Array.init n (fun k -> float_of_int k *. 0.25 +. 1. /. 3.) in
        let src n =
          let b = Bytes.create (8 * n) in
          Array.iteri
            (fun k x ->
              Bytes.set_int64_ne b (8 * k)
                (Int64.bits_of_float (if k land 1 = 0 then x else Float.round x)))
            (cells n);
          b
        in
        let w = Codec.writer (9 * 20_000) in
        let encode n =
          let b = src n in
          words
            (fun n ->
              Codec.clear w;
              Codec.put_words w Datatype.TFloat b 0 n)
            n
        in
        Alcotest.(check int) "encoding 20,000 cells" (encode 2_000)
          (encode 20_000);
        let out = Bytes.create (8 * 20_000) in
        let decode n =
          Codec.clear w;
          Codec.put_words w Datatype.TFloat (src n) 0 n;
          let r = Codec.reader (Codec.bytes w) 0 (Codec.length w) in
          words
            (fun n ->
              for k = 0 to n - 1 do
                Codec.float_to r out (8 * k)
              done)
            n
        in
        Alcotest.(check int) "decoding 20,000 cells" (decode 2_000)
          (decode 20_000));
  ]

let () =
  Alcotest.run "codec"
    [ ("float-cells", QCheck_alcotest.to_alcotest prop_cells :: tests) ]
