(* Lightweight span tracer: a bounded ring of recent spans plus a pluggable
   sink. The ring answers "what did the last N pipeline phases cost" without
   any collector infrastructure; the JSONL sink turns the same stream into a
   file a notebook or jq can chew on.

   Spans are recorded at END time (a span that never finishes is never
   recorded) and carry wall-clock start, duration and a small bag of string
   attributes. Everything is guarded by one mutex — tracing is for
   phase-level events (tens per batch), not per-row hot paths. *)

type span = {
  name : string;
  start_s : float;
  dur_s : float;
  attrs : (string * string) list;
}

type sink = Null | Memory | Jsonl of string

let capacity = 512

type state = {
  mutable sink : sink;
  ring : span option array;
  mutable next : int;  (* ring slot for the next span *)
  mutable total : int; (* spans recorded since last [clear] *)
  mutable jsonl : Jsonl_sink.t option;
}

let state =
  {
    sink = Memory;
    ring = Array.make capacity None;
    next = 0;
    total = 0;
    jsonl = None;
  }

let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let span_to_json s =
  let attrs =
    s.attrs
    |> List.map (fun (k, v) ->
           Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
    |> String.concat ","
  in
  Printf.sprintf "{\"name\":\"%s\",\"start_s\":%.6f,\"dur_s\":%.9f,\"attrs\":{%s}}"
    (json_escape s.name) s.start_s s.dur_s attrs

let close_jsonl () =
  match state.jsonl with
  | Some s ->
    Jsonl_sink.close s;
    state.jsonl <- None
  | None -> ()

let set_sink sink =
  locked (fun () ->
      close_jsonl ();
      state.sink <- sink;
      match sink with
      | Jsonl path -> state.jsonl <- Some (Jsonl_sink.open_ path)
      | Null | Memory -> ())

let sink () = locked (fun () -> state.sink)

let record span =
  locked (fun () ->
      match state.sink with
      | Null -> ()
      | Memory ->
        state.ring.(state.next) <- Some span;
        state.next <- (state.next + 1) mod capacity;
        state.total <- state.total + 1
      | Jsonl _ ->
        state.ring.(state.next) <- Some span;
        state.next <- (state.next + 1) mod capacity;
        state.total <- state.total + 1;
        (match state.jsonl with
        | Some s -> Jsonl_sink.write_line s (span_to_json span)
        | None -> ()))

let with_span ?(attrs = []) name f =
  if Metrics.enabled () then begin
    let t0 = Metrics.now_s () in
    let finish () =
      record { name; start_s = t0; dur_s = Metrics.now_s () -. t0; attrs }
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end
  else f ()

let event ?(attrs = []) name =
  if Metrics.enabled () then
    record { name; start_s = Metrics.now_s (); dur_s = 0.; attrs }

(* Most recent last (chronological order of recording). *)
let recent () =
  locked (fun () ->
      let n = min state.total capacity in
      let first = (state.next - n + capacity) mod capacity in
      List.init n (fun i ->
          match state.ring.((first + i) mod capacity) with
          | Some s -> s
          | None -> assert false))

let total () = locked (fun () -> state.total)

let clear () =
  locked (fun () ->
      Array.fill state.ring 0 capacity None;
      state.next <- 0;
      state.total <- 0)
