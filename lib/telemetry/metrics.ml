(* Domain-safe metrics: counters, gauges and fixed-log-bucket histograms
   behind a process-global registry.

   Write-side contention model: every metric splits its hot cells across
   [ncells] slots indexed by the writing domain's id, so the shard-parallel
   maintenance path (one resident domain per shard set) never has two
   domains bouncing the same cache line in the common case. Collisions
   (domain ids equal modulo [ncells]) stay correct — cells are [Atomic]s —
   they just contend. Reads merge all cells, so they are O(ncells) and
   linearizable enough for dashboards (a read concurrent with writes sees
   some interleaving, never a torn value).

   Registration is idempotent: [Counter.make name ~labels] returns the
   already-registered metric when (name, labels) exists, so call sites can
   register at module-init time or lazily without coordination. *)

let ncells = 16
let cell_mask = ncells - 1
let cell_index () = (Domain.self () :> int) land cell_mask

(* --- global switch ------------------------------------------------------ *)

(* Collection switch: when off, every write is a single Atomic.get and an
   early return, so instrumented code costs (almost) nothing. Reads and
   registration are unaffected. *)
let enabled_flag = Atomic.make true

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let now_s () = Unix.gettimeofday ()

(* --- atomic float helpers ---------------------------------------------- *)

let atomic_add_float a x =
  let rec go () =
    let cur = Atomic.get a in
    if not (Atomic.compare_and_set a cur (cur +. x)) then go ()
  in
  go ()

let atomic_min_float a x =
  let rec go () =
    let cur = Atomic.get a in
    if x < cur && not (Atomic.compare_and_set a cur x) then go ()
  in
  go ()

let atomic_max_float a x =
  let rec go () =
    let cur = Atomic.get a in
    if x > cur && not (Atomic.compare_and_set a cur x) then go ()
  in
  go ()

(* --- counters ----------------------------------------------------------- *)

module Counter_impl = struct
  type t = { cells : int Atomic.t array }

  let create () = { cells = Array.init ncells (fun _ -> Atomic.make 0) }

  let inc t n =
    if enabled () && n <> 0 then
      ignore (Atomic.fetch_and_add t.cells.(cell_index ()) n)

  let value t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.cells
  let reset t = Array.iter (fun c -> Atomic.set c 0) t.cells
end

(* --- gauges ------------------------------------------------------------- *)

module Gauge_impl = struct
  type t = { v : float Atomic.t }

  let create () = { v = Atomic.make 0. }
  let set t x = if enabled () then Atomic.set t.v x
  let add t x = if enabled () then atomic_add_float t.v x
  let value t = Atomic.get t.v
  let reset t = Atomic.set t.v 0.
end

(* --- histograms --------------------------------------------------------- *)

module Histogram_impl = struct
  (* Fixed log-scale buckets: bucket [0] holds values <= [lo]; bucket [i]
     (0 < i < n-1) holds values in (lo*factor^(i-1), lo*factor^i]; the last
     bucket is the +Inf overflow. The layout is fixed at registration, so
     merging cells (and scraping over time) is just integer addition. *)
  type cell = {
    buckets : int Atomic.t array;
    count : int Atomic.t;
    sum : float Atomic.t;
    mn : float Atomic.t;
    mx : float Atomic.t;
  }

  type t = {
    lo : float;
    factor : float;
    nbuckets : int;
    log_factor : float;
    cells : cell array;
  }

  let create ~lo ~factor ~buckets:nbuckets =
    if not (lo > 0.) then invalid_arg "Telemetry.Histogram: lo must be > 0";
    if not (factor > 1.) then
      invalid_arg "Telemetry.Histogram: factor must be > 1";
    if nbuckets < 2 then
      invalid_arg "Telemetry.Histogram: need at least 2 buckets";
    {
      lo;
      factor;
      nbuckets;
      log_factor = Float.log factor;
      cells =
        Array.init ncells (fun _ ->
            {
              buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
              count = Atomic.make 0;
              sum = Atomic.make 0.;
              mn = Atomic.make infinity;
              mx = Atomic.make neg_infinity;
            });
    }

  (* The 1e-9 slack keeps exact boundaries (v = lo * factor^i computed in
     floats) in their mathematical bucket despite log rounding. *)
  let bucket_of t v =
    if v <= t.lo then 0
    else
      let i =
        int_of_float (Float.ceil ((Float.log (v /. t.lo) /. t.log_factor) -. 1e-9))
      in
      if i >= t.nbuckets - 1 then t.nbuckets - 1 else max 0 i

  let observe t v =
    if enabled () then begin
      let c = t.cells.(cell_index ()) in
      ignore (Atomic.fetch_and_add c.buckets.(bucket_of t v) 1);
      ignore (Atomic.fetch_and_add c.count 1);
      atomic_add_float c.sum v;
      atomic_min_float c.mn v;
      atomic_max_float c.mx v
    end

  let count t =
    Array.fold_left (fun acc c -> acc + Atomic.get c.count) 0 t.cells

  let sum t = Array.fold_left (fun acc c -> acc +. Atomic.get c.sum) 0. t.cells

  let min_value t =
    let m =
      Array.fold_left (fun acc c -> Float.min acc (Atomic.get c.mn)) infinity
        t.cells
    in
    if m = infinity then Float.nan else m

  let max_value t =
    let m =
      Array.fold_left
        (fun acc c -> Float.max acc (Atomic.get c.mx))
        neg_infinity t.cells
    in
    if m = neg_infinity then Float.nan else m

  (* Upper bound of bucket [i]; the last is +Inf. *)
  let bucket_bounds t =
    Array.init t.nbuckets (fun i ->
        if i = t.nbuckets - 1 then infinity
        else t.lo *. (t.factor ** float_of_int i))

  let bucket_counts t =
    Array.init t.nbuckets (fun i ->
        Array.fold_left
          (fun acc c -> acc + Atomic.get c.buckets.(i))
          0 t.cells)

  let reset t =
    Array.iter
      (fun c ->
        Array.iter (fun b -> Atomic.set b 0) c.buckets;
        Atomic.set c.count 0;
        Atomic.set c.sum 0.;
        Atomic.set c.mn infinity;
        Atomic.set c.mx neg_infinity)
      t.cells

  let time t f =
    if enabled () then begin
      let t0 = now_s () in
      match f () with
      | r ->
        observe t (now_s () -. t0);
        r
      | exception e ->
        observe t (now_s () -. t0);
        raise e
    end
    else f ()
end

(* --- registry ----------------------------------------------------------- *)

type kind =
  | Counter of Counter_impl.t
  | Gauge of Gauge_impl.t
  | Histogram of Histogram_impl.t

type meta = {
  name : string;
  labels : (string * string) list;  (** sorted by label name *)
  help : string;
  kind : kind;
}

let registry : (string, meta) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let key name labels =
  String.concat "\x00" (name :: List.concat_map (fun (k, v) -> [ k; v ]) labels)

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

(* Idempotent registration: an existing (name, labels) entry is returned as
   is (its kind must match); otherwise [create ()] is installed. *)
let register ~name ~labels ~help ~wanted create =
  let labels =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels
  in
  let k = key name labels in
  Mutex.lock registry_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mutex)
    (fun () ->
      match Hashtbl.find_opt registry k with
      | Some m ->
        if not (String.equal (kind_name m.kind) wanted) then
          invalid_arg
            (Printf.sprintf "Telemetry: %s is already registered as a %s" name
               (kind_name m.kind));
        m.kind
      | None ->
        let kind = create () in
        Hashtbl.add registry k { name; labels; help; kind };
        kind)

module Counter = struct
  type t = Counter_impl.t

  let make ?(help = "") ?(labels = []) name : t =
    match
      register ~name ~labels ~help ~wanted:"counter" (fun () ->
          Counter (Counter_impl.create ()))
    with
    | Counter c -> c
    | Gauge _ | Histogram _ -> assert false

  let inc = Counter_impl.inc
  let one t = inc t 1
  let value = Counter_impl.value
end

module Gauge = struct
  type t = Gauge_impl.t

  let make ?(help = "") ?(labels = []) name : t =
    match
      register ~name ~labels ~help ~wanted:"gauge" (fun () ->
          Gauge (Gauge_impl.create ()))
    with
    | Gauge g -> g
    | Counter _ | Histogram _ -> assert false

  let set = Gauge_impl.set
  let add = Gauge_impl.add
  let value = Gauge_impl.value
end

module Histogram = struct
  type t = Histogram_impl.t

  (* Default layout: 1 µs lower edge, doubling buckets, 40 of them — covers
     1 µs .. ~4.5 min of latency with the last bucket as overflow. *)
  let make ?(help = "") ?(labels = []) ?(lo = 1e-6) ?(factor = 2.)
      ?(buckets = 40) name : t =
    match
      register ~name ~labels ~help ~wanted:"histogram" (fun () ->
          Histogram (Histogram_impl.create ~lo ~factor ~buckets))
    with
    | Histogram h -> h
    | Counter _ | Gauge _ -> assert false

  let observe = Histogram_impl.observe
  let count = Histogram_impl.count
  let sum = Histogram_impl.sum
  let min_value = Histogram_impl.min_value
  let max_value = Histogram_impl.max_value
  let bucket_bounds = Histogram_impl.bucket_bounds
  let bucket_counts = Histogram_impl.bucket_counts
  let time = Histogram_impl.time
end

(* --- snapshots ----------------------------------------------------------- *)

type histogram_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** nan when empty *)
  h_max : float;  (** nan when empty *)
  h_buckets : (float * int) array;
      (** (inclusive upper bound, count) per bucket, non-cumulative; the
          last bound is [infinity] *)
}

(* Rank-based percentile estimate from the bucket counts: find the bucket
   holding the q-th observation and interpolate linearly between its edges.
   The first bucket's lower edge and the overflow bucket's upper edge are
   unknown, so the tracked min/max observations stand in for them; the
   result is always clamped to [h_min, h_max]. *)
let percentile h q =
  if h.h_count = 0 || Float.is_nan q then Float.nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = q *. float_of_int h.h_count in
    let n_buckets = Array.length h.h_buckets in
    let rec go i cum =
      if i >= n_buckets then h.h_max
      else begin
        let bound, n = h.h_buckets.(i) in
        let cum' = cum + n in
        if n > 0 && float_of_int cum' >= target then begin
          let lo =
            if i = 0 then h.h_min else fst h.h_buckets.(i - 1)
          in
          let hi = if bound = infinity then h.h_max else bound in
          let frac = (target -. float_of_int cum) /. float_of_int n in
          let est =
            if hi <= lo then hi else lo +. (frac *. (hi -. lo))
          in
          Float.max h.h_min (Float.min h.h_max est)
        end
        else go (i + 1) cum'
      end
    in
    go 0 0
  end

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of histogram_snapshot

type snap = {
  s_name : string;
  s_labels : (string * string) list;
  s_help : string;
  s_value : value;
}

let snapshot () =
  let entries =
    Mutex.lock registry_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock registry_mutex)
      (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  in
  entries
  |> List.map (fun m ->
         let v =
           match m.kind with
           | Counter c -> Counter_v (Counter_impl.value c)
           | Gauge g -> Gauge_v (Gauge_impl.value g)
           | Histogram h ->
             Histogram_v
               {
                 h_count = Histogram_impl.count h;
                 h_sum = Histogram_impl.sum h;
                 h_min = Histogram_impl.min_value h;
                 h_max = Histogram_impl.max_value h;
                 h_buckets =
                   (let bounds = Histogram_impl.bucket_bounds h in
                    let counts = Histogram_impl.bucket_counts h in
                    Array.init (Array.length bounds) (fun i ->
                        (bounds.(i), counts.(i))));
               }
         in
         { s_name = m.name; s_labels = m.labels; s_help = m.help; s_value = v })
  |> List.sort (fun a b ->
         match String.compare a.s_name b.s_name with
         | 0 -> compare a.s_labels b.s_labels
         | c -> c)

let reset () =
  Mutex.lock registry_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mutex)
    (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m.kind with
          | Counter c -> Counter_impl.reset c
          | Gauge g -> Gauge_impl.reset g
          | Histogram h -> Histogram_impl.reset h)
        registry)
