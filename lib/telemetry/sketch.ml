(* A streaming heavy-hitter sketch, one summary under one mutex. An
   update mutates several words (heap slots, an index table), so the
   mutex, not atomics, keeps it whole while serve and exporter domains
   render the profile. Every measured update runs on one domain, so the
   lock is uncontended. *)

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* --- Space-Saving heavy hitters ----------------------------------------- *)

(* Metwally/Agrawal/El Abbadi's Space-Saving with a binary min-heap on the
   counts instead of the classic stream-summary list: the list gives O(1)
   unit increments but weighted increments (the engine feeds compacted
   operations whose net count exceeds 1) degrade it to O(k); the heap is
   O(log k) for both. Invariants: every tracked key overcounts ([count >=
   true]) and overcounts by at most [err] ([count - err <= true]); a key
   with true frequency > n/k is always tracked, because the evicted minimum
   can never exceed n/k. *)
module Space_saving = struct
  type slot = {
    mutable hash : int;
    mutable label : string;
    mutable count : int;
    mutable err : int;
    mutable pos : int;  (* index in the heap array, kept by sifts *)
  }

  type t = {
    k : int;
    m : Mutex.t;
    mutable n : int;  (* stream weight seen *)
    heap : slot array;  (* slots [0 .. size-1] live, min-heap on count *)
    mutable size : int;
    index : (int, slot) Hashtbl.t;  (* key hash -> live slot *)
  }

  type entry = { e_key : string; e_hash : int; e_est : int; e_err : int }

  let dummy = { hash = 0; label = ""; count = 0; err = 0; pos = -1 }

  let create ~k =
    if k < 1 then invalid_arg "Sketch.Space_saving.create: k must be >= 1";
    {
      k;
      m = Mutex.create ();
      n = 0;
      heap = Array.make k dummy;
      size = 0;
      index = Hashtbl.create (2 * k);
    }

  let capacity t = t.k

  let swap t i j =
    let a = t.heap.(i) and b = t.heap.(j) in
    t.heap.(i) <- b;
    t.heap.(j) <- a;
    b.pos <- i;
    a.pos <- j

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.heap.(parent).count > t.heap.(i).count then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && t.heap.(l).count < t.heap.(!smallest).count then
      smallest := l;
    if r < t.size && t.heap.(r).count < t.heap.(!smallest).count then
      smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  (* A new key takes a free slot; the caller knows one is free. *)
  let insert t ~hash ~label ~count ~err =
    let s = { hash; label; count; err; pos = t.size } in
    t.heap.(t.size) <- s;
    t.size <- t.size + 1;
    sift_up t s.pos;
    Hashtbl.replace t.index hash s

  (* Core update, caller holds the lock. *)
  let touch_locked t ~weight ~hash ~label =
    t.n <- t.n + weight;
    match Hashtbl.find_opt t.index hash with
    | Some s ->
      s.count <- s.count + weight;
      sift_down t s.pos
    | None ->
      if t.size < t.k then insert t ~hash ~label:(label ()) ~count:weight ~err:0
      else begin
        (* evict the minimum: the classic over-count hand-off — the new
           key inherits the minimum as both baseline and error bound *)
        let s = t.heap.(0) in
        Hashtbl.remove t.index s.hash;
        s.err <- s.count;
        s.count <- s.count + weight;
        s.hash <- hash;
        s.label <- label ();
        Hashtbl.replace t.index hash s;
        sift_down t 0
      end

  let touch ?(weight = 1) t ~hash ~label =
    if weight > 0 && Metrics.enabled () then
      with_lock t.m (fun () -> touch_locked t ~weight ~hash ~label)

  let total t = with_lock t.m (fun () -> t.n)

  let top ?n t =
    let n = Option.value n ~default:t.k in
    let entries =
      with_lock t.m (fun () ->
          List.init t.size (fun i ->
              let s = t.heap.(i) in
              { e_key = s.label; e_hash = s.hash; e_est = s.count;
                e_err = s.err }))
    in
    List.sort (fun a b -> compare (b.e_est, a.e_hash) (a.e_est, b.e_hash))
      entries
    |> List.filteri (fun i _ -> i < n)

  let restore t entries ~total =
    with_lock t.m (fun () ->
        let entries =
          List.sort (fun a b -> compare b.e_est a.e_est) entries
        in
        List.iter
          (fun e ->
            (* additive: merge with whatever the summary already tracks *)
            match Hashtbl.find_opt t.index e.e_hash with
            | Some s ->
              s.count <- s.count + e.e_est;
              s.err <- s.err + e.e_err;
              sift_down t s.pos
            | None ->
              if t.size < t.k then
                insert t ~hash:e.e_hash ~label:e.e_key ~count:e.e_est
                  ~err:e.e_err)
          entries;
        t.n <- t.n + total)

  let reset t =
    with_lock t.m (fun () ->
        Hashtbl.reset t.index;
        Array.fill t.heap 0 t.k dummy;
        t.size <- 0;
        t.n <- 0)
end
