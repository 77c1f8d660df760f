module Value = Relational.Value

(* Line [i] is [body.[starts.(i)] .. body.[starts.(i + 1) - 1]]: [starts]
   has one entry per line plus the body's length. *)
type t = { body : string; starts : int array }

let body l = l.body
let count l = Array.length l.starts - 1
let empty = { body = ""; starts = [| 0 |] }

(* The line of one row: the format's one definition. *)
let add_line b ((row : Relational.Tuple.t), mult) =
  Value.add_int_to_buffer b mult;
  for i = 0 to Array.length row - 1 do
    Buffer.add_char b '\t';
    Value.add_to_buffer b row.(i)
  done;
  Buffer.add_char b '\n'

(* How far the walk looks for a shared row: the rows a publication
   re-rendered sit where their old rows sat, or a few rows away. *)
let window = 16

(* [k]'s index among [a.(i) .. a.(lim - 1)] by [==], or -1. *)
let rec find_from (a : (Relational.Tuple.t * int) array) k i lim =
  if i >= lim then -1 else if a.(i) == k then i else find_from a k (i + 1) lim

let find a ~from k = find_from a k from (min (Array.length a) (from + window))

let render ~scratch ?prev rows =
  let prev_rows, prev_lines =
    match prev with Some p -> p | None -> ([||], empty)
  in
  if rows == prev_rows then prev_lines
  else begin
    Buffer.clear scratch;
    let n = Array.length rows and np = Array.length prev_rows in
    let starts = Array.make (n + 1) 0 in
    (* the pending run of consecutive previous lines, copied as one *)
    let run_off = ref 0 and run_len = ref 0 in
    (* A diff of the two arrays by identity alone, no row is read: [j] is
       the next previous row not yet passed. *)
    let j = ref 0 in
    for i = 0 to n - 1 do
      let p = rows.(i) in
      let k =
        if !j < np && prev_rows.(!j) == p then !j
        else if !j + 1 < np && i + 1 < n && prev_rows.(!j + 1) == rows.(i + 1)
        then -2 (* [p] took the place of the previous row [j] *)
        else find prev_rows ~from:!j p
      in
      if k >= 0 then begin
        (* the previous rows before [k] were dropped *)
        let o = prev_lines.starts.(k) in
        let l = prev_lines.starts.(k + 1) - o in
        if !run_len > 0 && !run_off + !run_len = o then run_len := !run_len + l
        else begin
          Buffer.add_substring scratch prev_lines.body !run_off !run_len;
          run_off := o;
          run_len := l
        end;
        j := k + 1;
        starts.(i + 1) <- starts.(i) + l
      end
      else begin
        Buffer.add_substring scratch prev_lines.body !run_off !run_len;
        run_len := 0;
        add_line scratch p;
        starts.(i + 1) <- Buffer.length scratch;
        (* [p] is new: the previous row [j] was dropped unless it comes
           shortly (were it further, it is rendered again when met) *)
        if k = -2 || (!j < np && find rows ~from:(i + 1) prev_rows.(!j) < 0)
        then incr j
      end
    done;
    Buffer.add_substring scratch prev_lines.body !run_off !run_len;
    (* one allocation of the body's exact size *)
    { body = Buffer.contents scratch; starts }
  end
