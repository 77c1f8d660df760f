(* Lightweight span tracer: a bounded ring of recent spans. The ring
   answers "what did the last N pipeline phases cost" without any
   collector infrastructure.

   Spans are recorded at END time (a span that never finishes is never
   recorded) and carry wall-clock start, duration and a small bag of string
   attributes. The ring is guarded by one mutex — tracing is for
   phase-level events (tens per batch), not per-row hot paths. *)

type span = {
  name : string;
  start_s : float;
  dur_s : float;
  attrs : (string * string) list;
}

(* The bounded ring of the trace and of the lineage records: the newest
   [Array.length slots] items, slots not yet written holding [empty]. *)
module Ring = struct
  type 'a t = {
    slots : 'a array;
    empty : 'a;
    m : Mutex.t;
    mutable next : int;  (* slot for the next item *)
    mutable total : int;  (* items pushed since the last [clear] *)
  }

  let create n empty =
    { slots = Array.make n empty; empty; m = Mutex.create (); next = 0;
      total = 0 }

  (* Nothing between the lock and the unlock raises, so [push], which
     runs for every span, takes no handler and allocates nothing. *)
  let push r x =
    Mutex.lock r.m;
    r.slots.(r.next) <- x;
    r.next <- (r.next + 1) mod Array.length r.slots;
    r.total <- r.total + 1;
    Mutex.unlock r.m

  let recent r =
    Mutex.protect r.m (fun () ->
        let cap = Array.length r.slots in
        let n = min r.total cap in
        let first = r.next - n + cap in
        List.init n (fun i -> r.slots.((first + i) mod cap)))

  let total r = Mutex.protect r.m (fun () -> r.total)

  let clear r =
    Mutex.protect r.m (fun () ->
        Array.fill r.slots 0 (Array.length r.slots) r.empty;
        r.next <- 0;
        r.total <- 0)
end

let capacity = 512
let ring = Ring.create capacity { name = ""; start_s = 0.; dur_s = 0.; attrs = [] }

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

let record span = Ring.push ring span
let recent () = Ring.recent ring
let total () = Ring.total ring
let clear () = Ring.clear ring

(* The one timer. Its arguments are positional, not optional, so a phase
   allocates no option box beyond the caller's own. *)
let finish hist alloc name attrs t0 a0 =
  let dur_s = Metrics.now_s () -. t0 in
  (match hist with Some h -> Metrics.Histogram.observe h dur_s | None -> ());
  (match alloc with
  | Some h -> Metrics.Histogram.observe h (Gc.allocated_bytes () -. a0)
  | None -> ());
  if name <> "" then record { name; start_s = t0; dur_s; attrs }

let timed hist alloc name attrs f =
  if not (Metrics.enabled ()) then f ()
  else begin
    let t0 = Metrics.now_s () in
    let a0 = match alloc with Some _ -> Gc.allocated_bytes () | None -> 0. in
    match f () with
    | r ->
      finish hist alloc name attrs t0 a0;
      r
    | exception e ->
      finish hist alloc name attrs t0 a0;
      raise e
  end

let with_span ?(attrs = []) name f = timed None None name attrs f

(* Checked here too, so that a disabled phase does not even box [hist]. *)
let with_phase ?(attrs = []) ?alloc hist name f =
  if Metrics.enabled () then timed (Some hist) alloc name attrs f else f ()

let event ?(attrs = []) name =
  if Metrics.enabled () then
    record { name; start_s = Metrics.now_s (); dur_s = 0.; attrs }
