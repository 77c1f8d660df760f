(* Small helpers of the pipeline benchmark: clocks, order statistics,
   files and process memory. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks (q in 0..1). *)
let quantile xs q =
  match Array.length xs with
  | 0 -> nan
  | n ->
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median xs = quantile xs 0.5

(* The mean without the fastest and the slowest sample. The host's speed
   switches between two levels for seconds at a time, so the median of a
   handful of repeats jumps between them; a mean moves with the share of
   repeats that ran slow. *)
let trimmed_mean xs =
  let n = Array.length xs in
  if n < 3 then median xs
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let total = ref 0. in
    for i = 1 to n - 2 do
      total := !total +. s.(i)
    done;
    !total /. float_of_int (n - 2)
  end

(* --- host speed ----------------------------------------------------------- *)

(* Each vCPU of the 2-core VM the benchmark was tuned on switches between
   two speed levels, about 1.5x apart, for 5 to 30 s at a time, as other
   tenants load its sibling hyperthread. A run's share of time at the slow
   level varies from 0 to 1, so raw times moved by 25% between runs and
   between sets of runs. Every end-to-end time is therefore scaled to a
   reference speed: beside each timed operation the benchmark times a
   fixed kernel that does not use the program, and multiplies the
   operation's time by [reference_s / kernel time]. *)

(* One kernel pass: inserts and lookups of int keys in an open-addressing
   table. It allocates nothing, so it leaves the program's heap alone. *)
let slots = Array.make 8192 (-1)

let slot key =
  let j = ref (Hashtbl.hash key land 8191) in
  while slots.(!j) >= 0 && slots.(!j) <> key do
    j := (!j + 1) land 8191
  done;
  !j

let kernel () =
  Array.fill slots 0 8192 (-1);
  for i = 0 to 2047 do
    slots.(slot (i * 7919)) <- i * 7919
  done;
  let n = ref 0 in
  for i = 0 to 4095 do
    if slots.(slot (i * 7919)) = i * 7919 then incr n
  done;
  ignore (Sys.opaque_identity !n)

(* The kernel's pass time at the uncontended level of that VM. *)
let reference_s = 80e-6

(* Seconds a kernel pass takes now: the fastest of three passes, so an
   interrupt or a collection during one pass does not count. *)
let kernel_time () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = now () in
    kernel ();
    best := Float.min !best (now () -. t0)
  done;
  !best

(* The scale for times measured now: the median over the last five
   kernel timings, which follows a change of level within a few batches
   and ignores a single odd one. *)
let speed =
  let recent = Array.make 5 nan and next = ref 0 in
  fun () ->
    recent.(!next mod 5) <- kernel_time ();
    incr next;
    let seen = Array.sub recent 0 (min !next 5) in
    reference_s /. quantile seen 0.5

(* A growable float sample. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 256 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let values s = Array.sub s.data 0 s.len

(* A timed quantity: its wall times as measured and the same times scaled
   to the reference speed, kept side by side so that a report can show
   both and the correction can be checked. *)
type timed = { raw : samples; scaled : samples }

let timed () = { raw = samples (); scaled = samples () }

(* Record a wall time [dt] measured at scale [k]. *)
let record t dt k =
  add t.raw dt;
  add t.scaled (dt *. k)

(* [measure t f] runs [f] and records its duration in [t], scaled by
   kernel timings taken just before and after. *)
let measure t f =
  let before = speed () in
  let r, dt = time f in
  record t dt ((before +. speed ()) /. 2.);
  r

(* --- files --------------------------------------------------------------- *)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter
      (fun e -> remove_tree (Filename.concat path e))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec copy_tree src dst =
  match (Unix.stat src).Unix.st_kind with
  | Unix.S_DIR ->
    Unix.mkdir dst 0o755;
    Array.iter
      (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  | _ ->
    (* in chunks, so that a copy does not hold a whole file in memory *)
    In_channel.with_open_bin src (fun ic ->
        Out_channel.with_open_bin dst (fun oc ->
            let chunk = Bytes.create 65_536 in
            let rec go () =
              match In_channel.input ic chunk 0 65_536 with
              | 0 -> ()
              | n ->
                Out_channel.output oc chunk 0 n;
                go ()
            in
            go ()))

(* Peak resident set (VmHWM) in MiB; 0 where /proc is unavailable. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
        | _ -> acc)
      0.
      (String.split_on_char '\n' status)
  | exception Sys_error _ -> 0.

(* Reset the peak resident set to the current one, so that a later
   [peak_rss_mb] covers only what runs after this call. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* --- JSON output --------------------------------------------------------- *)

(* Every digit of a measured value; non-finite values (an empty sample)
   print as 0 so the line stays valid JSON. *)
let json_num x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_str s = "\"" ^ Telemetry.Trace.json_escape s ^ "\""
