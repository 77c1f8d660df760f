(* A pool marker that selects nothing (every batch is netted), and the
   one-shot [fan_out] of load and recovery's engine builds. *)

type pool = Serial

let serial = Serial

(* --- one-shot fan-out ------------------------------------------------------ *)

(* Independent, coarse tasks (one engine build per view) that run once, at
   load or recovery: the spawn cost is paid per call, but nothing is left
   behind, so recovering hundreds of times never reaches OCaml's domain
   limit. *)
let fan_out_domains tasks =
  max 1 (min tasks (Domain.recommended_domain_count ()))

let fan_out ~domains n f =
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failed = Atomic.make false in
  (* tasks are claimed in ascending order; after a failure no further task
     is claimed. Every task below a failed one was already claimed, so it
     runs to its end, and the lowest failing task is the one a serial loop
     would have raised first *)
  let rec work () =
    if not (Atomic.get failed) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (results.(i) <-
           match f i with
           | v -> Some (Ok v)
           | exception exn ->
             let bt = Printexc.get_raw_backtrace () in
             Atomic.set failed true;
             Some (Error (exn, bt)));
        work ()
      end
    end
  in
  (* a spawn that fails (the domain limit reached) leaves its share of the
     tasks to the workers that did start *)
  let spawned =
    List.init (max 0 (min domains n - 1)) (fun _ ->
        try Some (Domain.spawn work) with Failure _ -> None)
  in
  work ();
  (* each slot is written by one domain; the joins order those writes
     before the reads below *)
  List.iter (Option.iter Domain.join) spawned;
  Array.iter
    (function
      | Some (Error (exn, bt)) -> Printexc.raise_with_backtrace exn bt
      | Some (Ok _) | None -> ())
    results;
  Array.map
    (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
    results
