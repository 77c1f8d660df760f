(* Display width of a UTF-8 string: one column per code point, so every
   byte except a continuation byte (0x80-0xBF) counts. *)
let width s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let render ~header rows =
  let ncols = List.length header in
  List.iter
    (fun r ->
      if List.length r <> ncols then
        invalid_arg "Table_printer.render: ragged row")
    rows;
  let widths = Array.of_list (List.map width header) in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (width cell)))
    rows;
  let buf = Buffer.create 256 in
  let sep () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i cell ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - width cell) ' ');
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  sep ();
  line header;
  sep ();
  List.iter line rows;
  sep ();
  Buffer.contents buf

let render_relation ~columns rel =
  let entries = Relation.to_sorted_list rel in
  let has_dups = List.exists (fun (_, n) -> n > 1) entries in
  let header = if has_dups then columns @ [ "#" ] else columns in
  let rows =
    List.map
      (fun (tup, n) ->
        let cells = Array.to_list (Array.map Value.to_string tup) in
        if has_dups then cells @ [ string_of_int n ] else cells)
      entries
  in
  render ~header rows
