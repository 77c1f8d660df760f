(** Random star/snowflake schemas for property-based testing.

    Generates a fact table with 0–3 dimensions (one of which may itself
    reference a sub-dimension), random attribute types (int/string/bool),
    random updatable-column declarations — including occasionally updatable
    foreign keys, i.e. exposed updates — loads it with small random data, and
    produces random valid GPSJ views over it. Together with
    {!Delta_gen.stream} this exercises the whole pipeline on shapes no fixed
    workload covers. *)

type t = {
  db : Relational.Database.t;
  fact : string;
  dims : string list;  (** direct dimensions of the fact table *)
  all_tables : string list;
}

(** Generate and load a random schema instance. [floats] (default
    [false]) gives the fact table a FLOAT measure, [mf], whose values
    include both signed zeros and a NaN; every sum of them is exact in any
    order. *)
val random : ?floats:bool -> Prng.t -> t

(** A random valid GPSJ view over the instance (always validated).
    [extended] (default [false]) also draws MIN items, aggregates over
    FLOAT measures and a HAVING condition on [cnt]. Without it, the view
    drawn for an instance without floats is what earlier versions drew. *)
val random_view : ?extended:bool -> Prng.t -> t -> Algebra.View.t
