(* Domain-safe metrics: counters, gauges and fixed-log-bucket histograms
   behind a process-global registry.

   Each metric is one set of atomics. Measured writers (perfbench, all three
   workloads): the maintenance pipeline writes every metric from one
   domain; only the derive/compression counters (bumped once per engine
   build on the fan-out build domains) and the warehouse read counter and
   histogram (main and the serve domain) see a second writer. Atomics keep
   those correct, and a read concurrent with writes sees some
   interleaving, never a torn value.

   Registration is idempotent: [Counter.make name ~labels] returns the
   already-registered metric when (name, labels) exists, so call sites can
   register at module-init time or lazily without coordination. *)

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

(* --- registry ----------------------------------------------------------- *)

(* Fixed log-scale buckets: bucket [0] holds values <= [lo]; bucket [i]
   (0 < i < n-1) holds values in (lo*factor^(i-1), lo*factor^i]; the last
   bucket is the +Inf overflow. The layout is fixed at registration, so
   scraping over time is just reading integer counts. *)
type histogram = {
  lo : float;
  factor : float;
  log_factor : float;
  buckets : int Atomic.t array;
  count : int Atomic.t;
  sum : float Atomic.t;
  mn : float Atomic.t;
  mx : float Atomic.t;
}

type kind =
  | Counter of int Atomic.t
  | Gauge of float Atomic.t
  | Histogram of histogram

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
  Mutex.protect registry_mutex (fun () ->
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

(* --- metric kinds -------------------------------------------------------- *)

module Counter = struct
  type t = int Atomic.t

  let make ?(help = "") ?(labels = []) name : t =
    match
      register ~name ~labels ~help ~wanted:"counter" (fun () ->
          Counter (Atomic.make 0))
    with
    | Counter c -> c
    | Gauge _ | Histogram _ -> assert false

  let inc t n = if enabled () && n <> 0 then ignore (Atomic.fetch_and_add t n)
  let one t = inc t 1
  let value = Atomic.get
end

module Gauge = struct
  type t = float Atomic.t

  let make ?(help = "") ?(labels = []) name : t =
    match
      register ~name ~labels ~help ~wanted:"gauge" (fun () ->
          Gauge (Atomic.make 0.))
    with
    | Gauge g -> g
    | Counter _ | Histogram _ -> assert false

  let set t x = if enabled () then Atomic.set t x
  let value = Atomic.get
end

module Histogram = struct
  type t = histogram

  (* Default layout: 1 µs lower edge, doubling buckets, 40 of them — covers
     1 µs .. ~4.5 min of latency with the last bucket as overflow. *)
  let make ?(help = "") ?(labels = []) ?(lo = 1e-6) ?(factor = 2.)
      ?(buckets = 40) name : t =
    if not (lo > 0.) then invalid_arg "Telemetry.Histogram: lo must be > 0";
    if not (factor > 1.) then
      invalid_arg "Telemetry.Histogram: factor must be > 1";
    if buckets < 2 then
      invalid_arg "Telemetry.Histogram: need at least 2 buckets";
    match
      register ~name ~labels ~help ~wanted:"histogram" (fun () ->
          Histogram
            {
              lo;
              factor;
              log_factor = Float.log factor;
              buckets = Array.init buckets (fun _ -> Atomic.make 0);
              count = Atomic.make 0;
              sum = Atomic.make 0.;
              mn = Atomic.make infinity;
              mx = Atomic.make neg_infinity;
            })
    with
    | Histogram h -> h
    | Counter _ | Gauge _ -> assert false

  (* The 1e-9 slack keeps exact boundaries (v = lo * factor^i computed in
     floats) in their mathematical bucket despite log rounding. *)
  let bucket_of t v =
    let last = Array.length t.buckets - 1 in
    if v <= t.lo then 0
    else
      let i =
        int_of_float (Float.ceil ((Float.log (v /. t.lo) /. t.log_factor) -. 1e-9))
      in
      if i >= last then last else max 0 i

  let observe t v =
    if enabled () then begin
      ignore (Atomic.fetch_and_add t.buckets.(bucket_of t v) 1);
      ignore (Atomic.fetch_and_add t.count 1);
      atomic_add_float t.sum v;
      atomic_min_float t.mn v;
      atomic_max_float t.mx v
    end

  let count t = Atomic.get t.count
  let sum t = Atomic.get t.sum

  let min_value t =
    let m = Atomic.get t.mn in
    if m = infinity then Float.nan else m

  let max_value t =
    let m = Atomic.get t.mx in
    if m = neg_infinity then Float.nan else m

  (* Upper bound of bucket [i]; the last is +Inf. *)
  let bucket_bounds t =
    let last = Array.length t.buckets - 1 in
    Array.init (last + 1) (fun i ->
        if i = last then infinity else t.lo *. (t.factor ** float_of_int i))

  let bucket_counts t = Array.map Atomic.get t.buckets

  let reset t =
    Array.iter (fun b -> Atomic.set b 0) t.buckets;
    Atomic.set t.count 0;
    Atomic.set t.sum 0.;
    Atomic.set t.mn infinity;
    Atomic.set t.mx neg_infinity
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

(* The one place a histogram's atomics become a snapshot: the registry
   dump and the workload profile's epoch lag both read it. *)
let histogram_snapshot h =
  let bounds = Histogram.bucket_bounds h in
  let counts = Histogram.bucket_counts h in
  {
    h_count = Histogram.count h;
    h_sum = Histogram.sum h;
    h_min = Histogram.min_value h;
    h_max = Histogram.max_value h;
    h_buckets = Array.mapi (fun i le -> (le, counts.(i))) bounds;
  }

let snapshot () =
  Mutex.protect registry_mutex (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  |> List.map (fun m ->
         let v =
           match m.kind with
           | Counter c -> Counter_v (Atomic.get c)
           | Gauge g -> Gauge_v (Atomic.get g)
           | Histogram h -> Histogram_v (histogram_snapshot h)
         in
         { s_name = m.name; s_labels = m.labels; s_help = m.help; s_value = v })
  |> List.sort (fun a b ->
         match String.compare a.s_name b.s_name with
         | 0 -> compare a.s_labels b.s_labels
         | c -> c)

let reset () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m.kind with
          | Counter c -> Atomic.set c 0
          | Gauge g -> Atomic.set g 0.
          | Histogram h -> Histogram.reset h)
        registry)
