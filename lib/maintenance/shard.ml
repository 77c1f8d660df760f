(* Domain pool for shard-parallel maintenance (the one-shot [fan_out] is at
   the end of the file).

   Spawning a domain is far from free (it reserves a minor-heap arena and
   registers with the stop-the-world machinery), so the pool keeps its
   workers alive across phases: they are spawned lazily on the first
   multi-worker [run] and then park on a condition variable between jobs.
   A parked worker sits in [Condition.wait] — a blocking section — so it
   neither burns CPU nor delays any other domain's minor collection.

   With [domains = 1] (or a single-worker run) everything executes on the
   calling domain and no domain is ever spawned.

   Supervision: worker exceptions are captured and re-raised on the caller
   as [Worker_failed] (lowest worker index wins, deterministically), after
   every worker has finished its job, so a failing phase never leaves a
   worker mid-run. A pool created with a [deadline] additionally bounds
   how long the caller waits for each spawned worker; a worker that blows
   the deadline raises [Wedged] on the caller and poisons the pool — the
   wedged domain cannot be killed (OCaml domains are not cancellable), so
   it is abandoned and a fresh worker set is spawned on the next
   multi-worker run. Every worker slot is still awaited before [Wedged] is
   raised, so all non-wedged workers are quiescent — but the wedged domain
   itself may still be executing the job, and callers must treat any state
   it closes over as unsalvageable. The pool counts no failures itself: the
   supervising warehouse counts every raised or wedged run in
   [minview_warehouse_parallel_degradations_total].

   Workers are daemon-like: they are never joined, and the process exits
   normally while they are parked.  A pool must only be driven from one
   domain at a time (the engine's apply path already guarantees this). *)

type worker = {
  m : Mutex.t;
  cv : Condition.t;  (* signalled both ways: job posted / job finished *)
  mutable job : (int -> unit) option;
  mutable busy : bool;
  mutable error : exn option;
}

type pool = {
  domains : int;
  deadline : float option;  (* seconds the caller waits per worker per run *)
  eager : bool;  (* fan every batch out over all domains (tests only) *)
  mutable workers : worker array;  (* empty until the first parallel run *)
  mutable poisoned : bool;  (* a worker wedged: abandon and respawn *)
}

exception Wedged of { worker : int; waited : float }
exception Worker_failed of exn

let make ~eager deadline domains =
  if domains < 1 then invalid_arg "Shard.create: domains must be >= 1";
  (match deadline with
  | Some d when d <= 0. -> invalid_arg "Shard.create: deadline must be > 0"
  | Some _ | None -> ());
  { domains; deadline; eager; workers = [||]; poisoned = false }

let create ~domains = make ~eager:false None domains
let supervised ~domains ~deadline = make ~eager:false (Some deadline) domains
let eager ~domains = make ~eager:true None domains

let domains t = t.domains
let deadline t = t.deadline
let is_eager t = t.eager
let serial = create ~domains:1

let worker_loop w id =
  Mutex.lock w.m;
  while true do
    while w.job = None do
      Condition.wait w.cv w.m
    done;
    let f = Option.get w.job in
    Mutex.unlock w.m;
    let error = (try f id; None with exn -> Some exn) in
    Mutex.lock w.m;
    w.job <- None;
    w.error <- error;
    w.busy <- false;
    Condition.signal w.cv
  done

let ensure_workers pool =
  (* a poisoned pool abandons its workers (one of them is wedged inside a
     job and can never be reused) and starts a fresh set; the wedged domain
     leaks by design — OCaml offers no way to kill it *)
  if pool.poisoned then begin
    pool.workers <- [||];
    pool.poisoned <- false
  end;
  if Array.length pool.workers = 0 then
    pool.workers <-
      Array.init (pool.domains - 1) (fun i ->
          let w =
            {
              m = Mutex.create ();
              cv = Condition.create ();
              job = None;
              busy = false;
              error = None;
            }
          in
          ignore (Domain.spawn (fun () -> worker_loop w (i + 1)));
          w)

let post w f =
  Mutex.lock w.m;
  w.job <- Some f;
  w.busy <- true;
  w.error <- None;
  Condition.signal w.cv;
  Mutex.unlock w.m

let await w =
  Mutex.lock w.m;
  while w.busy do
    Condition.wait w.cv w.m
  done;
  let error = w.error in
  Mutex.unlock w.m;
  error

(* Deadline-bounded wait: [Condition] has no timed wait, so poll the busy
   flag in short sleeps. Only the supervised (deadline) path pays this;
   2 ms granularity is noise next to a multi-worker phase. *)
let await_deadline w ~seconds =
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    Mutex.lock w.m;
    if not w.busy then begin
      let error = w.error in
      Mutex.unlock w.m;
      Ok error
    end
    else begin
      Mutex.unlock w.m;
      let waited = Unix.gettimeofday () -. t0 in
      if waited > seconds then Error waited
      else begin
        Unix.sleepf 0.002;
        loop ()
      end
    end
  in
  loop ()

module Obs = struct
  let run_seconds =
    Telemetry.Histogram.make
      ~help:"Wall-clock latency of one multi-worker pool run"
      "minview_shard_run_seconds"

  let imbalance =
    Telemetry.Gauge.make
      ~help:"Busiest worker / mean worker busy time of the last pool run"
      "minview_shard_imbalance_ratio"

  (* registration is idempotent, so fetching the per-worker gauge by label
     on every run is just a registry lookup (worker counts are small) *)
  let busy w =
    Telemetry.Gauge.make
      ~labels:[ ("worker", string_of_int w) ]
      ~help:"Cumulative busy time of this pool worker across runs"
      "minview_shard_worker_busy_seconds_total"
end

let run_jobs pool n f =
  ensure_workers pool;
  (* the injected worker fault: in [Fail] mode the supervisor above the
     engine must roll the transaction back and degrade to serial apply *)
  let f w =
    Faults.hit Faults.In_shard_worker;
    f w
  in
  for w = 1 to n - 1 do
    post pool.workers.(w - 1) f
  done;
  let err0 = (try f 0; None with exn -> Some exn) in
  (* a simulated process death unwinds as itself, not as a worker's
     failure *)
  let reraise = function
    | Some (Faults.Crash _ as crash) -> raise crash
    | Some exn -> raise (Worker_failed exn)
    | None -> ()
  in
  (match pool.deadline with
  | None ->
    let errors = Array.init (n - 1) (fun i -> await pool.workers.(i)) in
    reraise err0;
    Array.iter reraise errors
  | Some seconds ->
    (* drain the await of every worker before raising — even after a wedge —
       so every worker that still answers is provably quiescent when the
       supervisor sees the failure. A wedge poisons the pool but does NOT
       stop the collection: skipping the remaining awaits would leave
       merely-slow workers running unobserved. Note that after [Wedged] the
       pool is still not quiescent: the wedged domain itself cannot be
       cancelled and may resume inside the job at any time, so the caller
       must abandon (never roll back or reuse) any state the job closes
       over. *)
    let errors = Array.make (n - 1) None in
    let wedged = ref None in
    for i = 0 to n - 2 do
      match await_deadline pool.workers.(i) ~seconds with
      | Ok e -> errors.(i) <- e
      | Error waited ->
        pool.poisoned <- true;
        if Option.is_none !wedged then
          wedged := Some (Wedged { worker = i + 1; waited })
    done;
    (match !wedged with Some exn -> raise exn | None -> ());
    reraise err0;
    Array.iter reraise errors)

(* [run pool n f] executes [f w] for workers [w = 0 .. n-1] where
   [n = min pool.domains n_wanted]; worker 0 runs on the calling domain. *)
let run pool ~workers:wanted f =
  let n = min pool.domains (max 1 wanted) in
  if n = 1 then f 0
  else if not (Telemetry.enabled ()) then run_jobs pool n f
  else begin
    (* each busy slot is written by exactly one domain, and the post/await
       mutexes order those writes before the caller's read below *)
    let busy = Array.make n 0. in
    let timed w =
      let t0 = Telemetry.now_s () in
      Fun.protect
        ~finally:(fun () -> busy.(w) <- Telemetry.now_s () -. t0)
        (fun () -> f w)
    in
    let t0 = Telemetry.now_s () in
    Fun.protect
      ~finally:(fun () ->
        Telemetry.Histogram.observe Obs.run_seconds
          (Telemetry.now_s () -. t0);
        let total = Array.fold_left ( +. ) 0. busy in
        let max_busy = Array.fold_left Float.max 0. busy in
        let mean = total /. float_of_int n in
        Telemetry.Gauge.set Obs.imbalance
          (if mean > 0. then max_busy /. mean else 1.);
        Array.iteri (fun w d -> Telemetry.Gauge.add (Obs.busy w) d) busy;
        (* the workload profile keeps the imbalance time series the scalar
           gauge above overwrites *)
        Telemetry.Workload.note_shard_run ~workers:n ~busy)
      (fun () -> run_jobs pool n timed)
  end

(* Shard [s] of [nshards] belongs to worker [s mod n] — every worker owns a
   disjoint, statically known set of shards, so two workers never touch the
   same hash table. *)
let owns ~worker ~workers shard = shard mod workers = worker

(* --- one-shot fan-out ------------------------------------------------------ *)

(* Independent, coarse tasks (one engine build per view) that run once, at
   load or after a wedge: the spawn cost is paid per call, but nothing is
   left behind — a resident pool per recovery would park [domains - 1]
   workers for the life of the process, and recovering hundreds of times
   would exhaust OCaml's domain limit. *)
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
