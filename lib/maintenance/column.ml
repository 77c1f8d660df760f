module Value = Relational.Value
module BA1 = Bigarray.Array1

module Icol = struct
  type t = { mutable len : int; mutable cells : int array }

  let create () = { len = 0; cells = [||] }
  let length c = c.len

  let check c i op =
    if i < 0 || i >= c.len then
      invalid_arg (Printf.sprintf "Column.Icol.%s: row %d of %d" op i c.len)

  let get c i =
    check c i "get";
    c.cells.(i)

  let set c i v =
    check c i "set";
    c.cells.(i) <- v

  let add c i d =
    check c i "add";
    c.cells.(i) <- c.cells.(i) + d

  (* Capacities double from 2 cells: an index bucket holds a handful of
     rows, so a larger first allocation would be mostly empty (see DESIGN.md
     "Physical representation"). *)
  let reserve n =
    let rec grown cap = if cap >= n then cap else grown (2 * cap) in
    if n = 0 then create () else { len = 0; cells = Array.make (grown 2) 0 }

  let append c v =
    if c.len = Array.length c.cells then begin
      let cells = Array.make (max 2 (2 * c.len)) 0 in
      Array.blit c.cells 0 cells 0 c.len;
      c.cells <- cells
    end;
    c.cells.(c.len) <- v;
    c.len <- c.len + 1

  let swap_delete c i =
    check c i "swap_delete";
    c.cells.(i) <- c.cells.(c.len - 1);
    c.len <- c.len - 1

  let byte_size c = 8 * Array.length c.cells
  let capacity c = Array.length c.cells
  let truncate c n = if n < c.len then c.len <- max 0 n
end

module Marks = struct
  (* A row is marked when its byte holds the current epoch. Epochs run
     from 1 to 255; past 255 every byte is cleared and the epochs start
     again, so a stale byte never equals the current epoch. *)
  type t = { mutable len : int; mutable cells : Bytes.t; mutable epoch : int }

  let create () = { len = 0; cells = Bytes.empty; epoch = 0 }
  let length c = c.len

  let check c i op =
    if i < 0 || i >= c.len then
      invalid_arg (Printf.sprintf "Column.Marks.%s: row %d of %d" op i c.len)

  let next_epoch c =
    if c.epoch = 255 then begin
      Bytes.fill c.cells 0 c.len '\000';
      c.epoch <- 1
    end
    else c.epoch <- c.epoch + 1

  let marked c i =
    check c i "marked";
    Char.code (Bytes.unsafe_get c.cells i) = c.epoch

  let mark c i =
    check c i "mark";
    Bytes.unsafe_set c.cells i (Char.unsafe_chr c.epoch)

  let append c =
    if c.len = Bytes.length c.cells then begin
      let cells = Bytes.create (max 16 (2 * c.len)) in
      Bytes.blit c.cells 0 cells 0 c.len;
      c.cells <- cells
    end;
    Bytes.unsafe_set c.cells c.len '\000';
    c.len <- c.len + 1

  let swap_delete c i =
    check c i "swap_delete";
    Bytes.unsafe_set c.cells i (Bytes.unsafe_get c.cells (c.len - 1));
    c.len <- c.len - 1

  let byte_size c = Bytes.length c.cells
end

type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) BA1.t
type float_ba = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t
type code_ba = (int32, Bigarray.int32_elt, Bigarray.c_layout) BA1.t

(* Storage specializes on the first appended value; a later type mismatch
   (or a NULL) demotes the whole column to boxed cells. The relational
   layer's typed schemas make demotion rare in practice. *)
type storage =
  | S_empty
  | S_int of int_ba
  | S_float of float_ba
  | S_dict of { codes : code_ba; dict : Dict.t }
  | S_boxed of Value.t array

type t = {
  mutable len : int;
  mutable storage : storage;
  dict_hint : Dict.t option;
  boxed_only : bool;
}

let create ?dict () =
  { len = 0; storage = S_empty; dict_hint = dict; boxed_only = false }

let create_boxed () =
  { len = 0; storage = S_empty; dict_hint = None; boxed_only = true }

let empty_like c = { c with len = 0; storage = S_empty }

let length c = c.len

let check c i op =
  if i < 0 || i >= c.len then
    invalid_arg (Printf.sprintf "Column.%s: row %d of %d" op i c.len)

let get c i =
  check c i "get";
  match c.storage with
  | S_empty -> assert false
  | S_int a -> Value.Int a.{i}
  | S_float a -> Value.Float a.{i}
  | S_dict { codes; dict } -> Value.String (Dict.decode dict (Int32.to_int codes.{i}))
  | S_boxed a -> a.(i)

let grow_int (a : int_ba) n : int_ba =
  let b = BA1.create Bigarray.int Bigarray.c_layout (max 16 n) in
  BA1.blit a (BA1.sub b 0 (BA1.dim a));
  b

let grow_float (a : float_ba) n : float_ba =
  let b = BA1.create Bigarray.float64 Bigarray.c_layout (max 16 n) in
  BA1.blit a (BA1.sub b 0 (BA1.dim a));
  b

let grow_codes (a : code_ba) n : code_ba =
  let b = BA1.create Bigarray.int32 Bigarray.c_layout (max 16 n) in
  BA1.blit a (BA1.sub b 0 (BA1.dim a));
  b

(* Demote to boxed cells, materializing what is already stored. *)
let to_boxed c =
  let cells = Array.make (max 16 (2 * c.len)) Value.Null in
  (match c.storage with
  | S_empty -> ()
  | S_int a ->
    for i = 0 to c.len - 1 do
      cells.(i) <- Value.Int a.{i}
    done
  | S_float a ->
    for i = 0 to c.len - 1 do
      cells.(i) <- Value.Float a.{i}
    done
  | S_dict { codes; dict } ->
    for i = 0 to c.len - 1 do
      cells.(i) <- Value.String (Dict.decode dict (Int32.to_int codes.{i}))
    done
  | S_boxed a -> Array.blit a 0 cells 0 c.len);
  c.storage <- S_boxed cells

let specialize c v =
  if c.boxed_only then to_boxed c
  else
    match v with
    | Value.Int _ -> c.storage <- S_int (BA1.create Bigarray.int Bigarray.c_layout 16)
    | Value.Float _ ->
      c.storage <- S_float (BA1.create Bigarray.float64 Bigarray.c_layout 16)
    | Value.String _ ->
      let dict =
        match c.dict_hint with Some d -> d | None -> Dict.create ()
      in
      c.storage <-
        S_dict { codes = BA1.create Bigarray.int32 Bigarray.c_layout 16; dict }
    | Value.Null | Value.Bool _ -> to_boxed c

let intern_code dict s =
  let code = Dict.intern dict s in
  if code > 0x3FFFFFFF then
    invalid_arg "Column: dictionary exceeded 2^30 distinct strings";
  Int32.of_int code

let rec append c v =
  match c.storage, v with
  | S_empty, _ ->
    specialize c v;
    append c v
  | S_int a, Value.Int x ->
    let a = if c.len = BA1.dim a then grow_int a (2 * c.len) else a in
    a.{c.len} <- x;
    c.storage <- S_int a;
    c.len <- c.len + 1
  | S_float a, Value.Float x ->
    let a = if c.len = BA1.dim a then grow_float a (2 * c.len) else a in
    a.{c.len} <- x;
    c.storage <- S_float a;
    c.len <- c.len + 1
  | S_dict { codes; dict }, Value.String s ->
    let codes =
      if c.len = BA1.dim codes then grow_codes codes (2 * c.len) else codes
    in
    codes.{c.len} <- intern_code dict s;
    c.storage <- S_dict { codes; dict };
    c.len <- c.len + 1
  | S_boxed a, _ ->
    let a =
      if c.len = Array.length a then begin
        let b = Array.make (max 16 (2 * c.len)) Value.Null in
        Array.blit a 0 b 0 c.len;
        b
      end
      else a
    in
    a.(c.len) <- v;
    c.storage <- S_boxed a;
    c.len <- c.len + 1
  | (S_int _ | S_float _ | S_dict _), _ ->
    to_boxed c;
    append c v

let set c i v =
  check c i "set";
  match c.storage, v with
  | S_empty, _ -> assert false
  | S_int a, Value.Int x -> a.{i} <- x
  | S_float a, Value.Float x -> a.{i} <- x
  | S_dict { codes; dict }, Value.String s -> codes.{i} <- intern_code dict s
  | S_boxed a, _ -> a.(i) <- v
  | (S_int _ | S_float _ | S_dict _), _ -> (
    to_boxed c;
    match c.storage with S_boxed a -> a.(i) <- v | _ -> assert false)

let swap_delete c i =
  check c i "swap_delete";
  let l = c.len - 1 in
  (match c.storage with
  | S_empty -> assert false
  | S_int a -> a.{i} <- a.{l}
  | S_float a -> a.{i} <- a.{l}
  | S_dict { codes; _ } -> codes.{i} <- codes.{l}
  | S_boxed a ->
    a.(i) <- a.(l);
    (* release the vacated box for the GC *)
    a.(l) <- Value.Null);
  c.len <- l

(* Cells past the new length stay allocated, to be overwritten by the next
   appends; boxed ones are released for the GC. *)
let truncate c n =
  if n < c.len then begin
    let n = max 0 n in
    (match c.storage with
    | S_boxed a -> Array.fill a n (c.len - n) Value.Null
    | S_empty | S_int _ | S_float _ | S_dict _ -> ());
    c.len <- n
  end

let equal_cell c i v =
  check c i "equal_cell";
  match c.storage, v with
  | S_empty, _ -> assert false
  | S_int a, Value.Int x -> a.{i} = x
  | S_float a, Value.Float x -> Float.equal a.{i} x
  | S_dict { codes; dict }, Value.String s ->
    String.equal (Dict.decode dict (Int32.to_int codes.{i})) s
  | S_boxed a, _ -> Value.equal a.(i) v
  | (S_int _ | S_float _ | S_dict _), _ -> false

(* [Value.hash_float] of an unboxed float: the bits are split here, so
   that no boxed float crosses the module boundary. *)
let[@inline] float_hash x =
  let b = Int64.bits_of_float x in
  Value.hash_float_words
    ~hi:(Int64.to_int (Int64.shift_right_logical b 32))
    ~lo:(Int64.to_int b land 0xFFFF_FFFF)

(* Must agree with [Value.hash] cell-for-cell: map probes hash boxed
   tuples on one side and stored cells on the other. *)
let hash_cell c i =
  check c i "hash_cell";
  match c.storage with
  | S_empty -> assert false
  | S_int a -> Value.hash_int a.{i}
  | S_float a -> float_hash a.{i}
  | S_dict { codes; dict } -> Dict.hash dict (Int32.to_int codes.{i})
  | S_boxed a -> Value.hash a.(i)

let add_cell c i v n =
  check c i "add_cell";
  match c.storage, v with
  | S_int a, Value.Int x -> a.{i} <- a.{i} + (x * n)
  | S_float a, Value.Float x -> a.{i} <- a.{i} +. (x *. float_of_int n)
  | S_float a, Value.Int x -> a.{i} <- a.{i} +. float_of_int (x * n)
  | _ ->
    (* generic fallback; a type-changing result (Int cell + Float operand)
       demotes the column via [set] *)
    set c i (Value.add (get c i) (Value.scale v n))

let sub_cell c i v n =
  check c i "sub_cell";
  match c.storage, v with
  | S_int a, Value.Int x -> a.{i} <- a.{i} - (x * n)
  | S_float a, Value.Float x -> a.{i} <- a.{i} -. (x *. float_of_int n)
  | S_float a, Value.Int x -> a.{i} <- a.{i} -. float_of_int (x * n)
  | _ -> set c i (Value.sub (get c i) (Value.scale v n))

(* --- cell to cell ---------------------------------------------------------

   Typed counterparts of the operations above whose operand is the cell
   [j] of a second column: matching storages meet without boxing either
   cell (two dictionary columns compare codes when they share their
   dictionary), and the arithmetic is exactly that of the boxed operation
   on [get src j]. *)

let equal_cells c i src j =
  check c i "equal_cells";
  check src j "equal_cells";
  match c.storage, src.storage with
  | S_int a, S_int b -> a.{i} = b.{j}
  | S_float a, S_float b -> Float.equal a.{i} b.{j}
  | S_dict { codes; dict }, S_dict { codes = codes'; dict = dict' } ->
    if dict == dict' then Int32.equal codes.{i} codes'.{j}
    else
      String.equal
        (Dict.decode dict (Int32.to_int codes.{i}))
        (Dict.decode dict' (Int32.to_int codes'.{j}))
  | _ -> equal_cell c i (get src j)

let append_cell c src j =
  check src j "append_cell";
  match c.storage, src.storage with
  | S_int a, S_int b when c.len < BA1.dim a ->
    a.{c.len} <- b.{j};
    c.len <- c.len + 1
  | S_float a, S_float b when c.len < BA1.dim a ->
    a.{c.len} <- b.{j};
    c.len <- c.len + 1
  | S_dict { codes; dict }, S_dict { codes = codes'; dict = dict' }
    when dict == dict' && c.len < BA1.dim codes ->
    codes.{c.len} <- codes'.{j};
    c.len <- c.len + 1
  | _ -> append c (get src j)

let add_cells c i src j n =
  check c i "add_cells";
  check src j "add_cells";
  match c.storage, src.storage with
  | S_int a, S_int b -> a.{i} <- a.{i} + (b.{j} * n)
  | S_float a, S_float b -> a.{i} <- a.{i} +. (b.{j} *. float_of_int n)
  | S_float a, S_int b -> a.{i} <- a.{i} +. float_of_int (b.{j} * n)
  | _ -> add_cell c i (get src j) n

let sub_cells c i src j n =
  check c i "sub_cells";
  check src j "sub_cells";
  match c.storage, src.storage with
  | S_int a, S_int b -> a.{i} <- a.{i} - (b.{j} * n)
  | S_float a, S_float b -> a.{i} <- a.{i} -. (b.{j} *. float_of_int n)
  | S_float a, S_int b -> a.{i} <- a.{i} -. float_of_int (b.{j} * n)
  | _ -> sub_cell c i (get src j) n

let zero_like_cell c i =
  check c i "zero_like_cell";
  match c.storage with
  | S_int _ -> Value.Int 0
  | S_float _ -> Value.Float 0.
  | S_empty | S_dict _ | S_boxed _ -> Value.zero_like (get c i)

let is_numeric_cell c i =
  check c i "is_numeric_cell";
  match c.storage with
  | S_int _ | S_float _ -> true
  | S_dict _ -> false
  | S_empty -> assert false
  | S_boxed a -> Value.is_numeric a.(i)

let combine_ext c i v ~is_min =
  check c i "combine_ext";
  match c.storage, v with
  | S_int a, Value.Int x ->
    if (is_min && x < a.{i}) || ((not is_min) && x > a.{i}) then a.{i} <- x
  | _ ->
    let cur = get c i in
    let cmp = Value.compare v cur in
    if (is_min && cmp < 0) || ((not is_min) && cmp > 0) then set c i v

(* --- cells of a stored base row ------------------------------------------

   The operations above with cell [j] of the row under a shadow cursor as
   the operand, read from its word where storage and column type agree,
   and with the arithmetic of the boxed operation on [Cursor.cell cur j].
   Anything else takes the boxed path. *)

module Cursor = Relational.Database.Cursor
module Datatype = Relational.Datatype

(* The row's words, read in place. *)
let[@inline] stored_int (cur : Cursor.t) j =
  Int64.to_int (Bytes.get_int64_ne cur.block (cur.base + (8 * j)))

let[@inline] stored_float (cur : Cursor.t) j =
  Int64.float_of_bits (Bytes.get_int64_ne cur.block (cur.base + (8 * j)))

let equal_stored c i (cur : Cursor.t) j =
  check c i "equal_stored";
  match c.storage, Array.unsafe_get cur.types j with
  | S_int a, Datatype.TInt -> a.{i} = stored_int cur j
  | S_float a, Datatype.TFloat -> Float.equal a.{i} (stored_float cur j)
  | S_dict { codes; dict }, Datatype.TString ->
    String.equal (Dict.decode dict (Int32.to_int codes.{i})) cur.texts.(j).(cur.row)
  | _ -> equal_cell c i (Cursor.cell cur j)

let append_stored c (cur : Cursor.t) j =
  match c.storage, Array.unsafe_get cur.types j with
  | S_int a, Datatype.TInt when c.len < BA1.dim a ->
    a.{c.len} <- stored_int cur j;
    c.len <- c.len + 1
  | S_float a, Datatype.TFloat when c.len < BA1.dim a ->
    a.{c.len} <- stored_float cur j;
    c.len <- c.len + 1
  | S_dict { codes; dict }, Datatype.TString when c.len < BA1.dim codes ->
    codes.{c.len} <- intern_code dict cur.texts.(j).(cur.row);
    c.len <- c.len + 1
  | _ -> append c (Cursor.cell cur j)

let append_scaled_stored c (cur : Cursor.t) j n =
  match c.storage, Array.unsafe_get cur.types j with
  | S_int a, Datatype.TInt when c.len < BA1.dim a ->
    a.{c.len} <- stored_int cur j * n;
    c.len <- c.len + 1
  | S_float a, Datatype.TFloat when c.len < BA1.dim a ->
    a.{c.len} <- stored_float cur j *. float_of_int n;
    c.len <- c.len + 1
  | _ -> append c (Value.scale (Cursor.cell cur j) n)

let add_stored c i (cur : Cursor.t) j n =
  check c i "add_stored";
  match c.storage, Array.unsafe_get cur.types j with
  | S_int a, Datatype.TInt -> a.{i} <- a.{i} + (stored_int cur j * n)
  | S_float a, Datatype.TFloat ->
    a.{i} <- a.{i} +. (stored_float cur j *. float_of_int n)
  | S_float a, Datatype.TInt -> a.{i} <- a.{i} +. float_of_int (stored_int cur j * n)
  | _ -> add_cell c i (Cursor.cell cur j) n

let combine_ext_stored c i (cur : Cursor.t) j ~is_min =
  check c i "combine_ext_stored";
  match c.storage, Array.unsafe_get cur.types j with
  | S_int a, Datatype.TInt ->
    let x = stored_int cur j in
    if (is_min && x < a.{i}) || ((not is_min) && x > a.{i}) then a.{i} <- x
  | _ -> combine_ext c i (Cursor.cell cur j) ~is_min

let boxed_bytes v =
  match v with
  | Value.Null -> 0
  | Value.Int _ | Value.Float _ | Value.Bool _ -> 16
  | Value.String s -> 24 + (String.length s / 8 * 8) + 8

let offheap_bytes c =
  match c.storage with
  | S_empty | S_boxed _ -> 0
  | S_int a -> 8 * BA1.dim a
  | S_float a -> 8 * BA1.dim a
  | S_dict { codes; _ } -> 4 * BA1.dim codes

let byte_size c =
  match c.storage with
  | S_empty -> 0
  | S_int _ | S_float _ | S_dict _ -> offheap_bytes c
  | S_boxed a ->
    let bytes = ref (8 * Array.length a) in
    for i = 0 to c.len - 1 do
      bytes := !bytes + boxed_bytes a.(i)
    done;
    !bytes

let dict c =
  match c.storage with
  | S_dict { dict; _ } -> Some dict
  | S_empty | S_int _ | S_float _ | S_boxed _ -> None

let kind c =
  match c.storage with
  | S_empty -> "empty"
  | S_int _ -> "int"
  | S_float _ -> "float"
  | S_dict _ -> "dict"
  | S_boxed _ -> "boxed"
