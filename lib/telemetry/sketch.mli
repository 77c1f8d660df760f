(** A domain-safe streaming sketch over integer-hashed keys: Space-Saving
    top-k heavy hitters, in fixed memory regardless of stream length. It
    is one summary under one mutex, so updates from any domain and reads
    from serve or exporter domains stay consistent.

    Updates are keyed by an integer hash supplied by the caller (e.g.
    [Tuple.hash] of a group key); the printable label is only materialized
    — via the [label] thunk — when a key first enters a Space-Saving
    summary, so hits on already-tracked hot keys never touch a string.
    Distinct keys with colliding hashes are conflated; with 63-bit hashes
    this is an accepted approximation, not an error source worth a second
    hash. All updates are dropped while {!Metrics.enabled} is false. *)

module Space_saving : sig
  type t

  val create : k:int -> t
  (** [k >= 1] counters. @raise Invalid_argument otherwise. *)

  val capacity : t -> int

  val touch : ?weight:int -> t -> hash:int -> label:(unit -> string) -> unit
  (** Count [weight] (default 1) occurrences of the key; non-positive
      weights are ignored. O(log k). *)

  type entry = {
    e_key : string;  (** label captured when the key entered the summary *)
    e_hash : int;
    e_est : int;  (** estimated count; never below the true count *)
    e_err : int;  (** overestimation bound: [e_est - e_err <= true count] *)
  }

  val top : ?n:int -> t -> entry list
  (** Descending estimate (ties by ascending hash), at most [n] (default
      [k]) entries. Any key whose true frequency exceeds [total t / k] is
      present in the unlimited ([n = max_int]) list. *)

  val total : t -> int
  (** Stream length seen (sum of all weights). *)

  val restore : t -> entry list -> total:int -> unit
  (** Additively merge a persisted summary into this one (entries beyond
      [k] are dropped lowest-first); used to re-seed the sketch from a
      saved workload profile on recovery. *)

  val reset : t -> unit
end
