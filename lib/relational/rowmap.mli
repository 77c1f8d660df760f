(** Open-addressing hash index from keys stored {e in} rows to row ids:
    the key index of {!Database}'s tables and of the maintenance group
    stores.

    A [Rowmap] never stores keys: a slot holds only a row id, and the key
    lives in the owner's cells. Probing therefore takes the key's
    hash plus an equality closure over row ids; resizing rehashes via the
    [hash] closure given at creation (which reads the current cells of a
    row). Linear probing with tombstones — removals never break probe
    chains. A key's first slot comes from the high bits of a mix of its
    hash, so keys that arrive sorted by their low hash bits still spread
    over the table. *)

type t

(** Row ids a map indexes are below [max_rows], 2^31 - 1: a slot holds
    one in 32 bits. *)
val max_rows : int

(** [check_row r] refuses a row id past the bound: every slot write
    checks it, and a store that numbers its rows for a map checks a new
    row with it before it changes anything.
    @raise Invalid_argument if [r >= max_rows]. *)
val check_row : int -> unit

(** [home hash mask] is the first slot a key of hash [hash] is probed at
    in a map of [mask + 1] slots. *)
val home : int -> int -> int

(** [create ~hash ()] with [hash row] = the hash of row [row]'s key cells
    (must agree with the hash callers pass to the probe operations). The
    map starts at [hint] slots rounded up to a power of two (64 by
    default, at least 8), and doubles when 3/4 full. *)
val create : ?hint:int -> hash:(int -> int) -> unit -> t

(** [copy t ~hash] is an independent copy of [t] whose resizes hash
    through [hash]: the copied owner's cells. *)
val copy : t -> hash:(int -> int) -> t

(** [clear t] removes every entry and keeps the capacity, so a map
    refilled to the same size allocates nothing. *)
val clear : t -> unit

(** [reserve t n] makes room for [n] more entries in one resize: the
    capacity that [n] {!add}s would double a map without tombstones to,
    so none of them resizes it. *)
val reserve : t -> int -> unit

(** Number of live entries. *)
val length : t -> int

(** The probe chains walked since [create] or [copy]: one per {!find},
    {!probe}, {!probe3}, {!add}, {!replace}, {!replace3}, {!remove_value} and
    {!rename_value}, however many slots it visits. A count that does not
    grow with the map is what shows a path is O(delta). *)
val probes : t -> int

(** [find t ~hash ~eq] is the row of the unique entry whose key matches
    ([eq row] decides), if present. *)
val find : t -> hash:int -> eq:(int -> bool) -> int option

(** [probe t ~hash eq a b] is the row of the unique entry for which
    [eq a b row] holds, or [-1] — {!find} without the option and without a
    closure: pass a closed, top-level [eq] and its context [a], [b], and
    the probe allocates nothing. *)
val probe : t -> hash:int -> ('a -> 'b -> int -> bool) -> 'a -> 'b -> int

(** {!probe} with a three-part context. *)
val probe3 :
  t -> hash:int -> ('a -> 'b -> 'c -> int -> bool) -> 'a -> 'b -> 'c -> int

(** [add t ~hash row] inserts an entry. The caller guarantees no entry with
    an equal key exists. *)
val add : t -> hash:int -> int -> unit

(** [load t pairs] gives the empty map [t] the [n] slots of a build's
    probe table, [n = Array.length pairs / 2] a power of two: slot [i]
    holds row [pairs.(2i+1)], whose key hash is [pairs.(2i)], or nothing
    when that row is negative. The table must be laid out as a map of [n]
    slots lays out its entries: each in the first free slot from
    [home hash (n - 1)] on, none ever removed. Not counted in {!probes}.
    @raise Invalid_argument if [t] is not empty or [n] is not a power of
    two. *)
val load : t -> int array -> unit

(** [replace t ~hash ~eq row] upserts, returning the replaced entry's row
    (steal semantics for by-key maps). *)
val replace : t -> hash:int -> eq:(int -> bool) -> int -> int option

(** [replace3 t ~hash eq a b c row] is {!replace} with the closed test [eq
    a b c] of {!probe3}, allocating nothing; the replaced entry's row, or
    [-1] when [row] was inserted. *)
val replace3 :
  t -> hash:int -> ('a -> 'b -> 'c -> int -> bool) -> 'a -> 'b -> 'c -> int -> int

(** [remove_value t ~hash row] removes the entry holding exactly [row]
    (searched along [hash]'s probe chain); [false] if absent. *)
val remove_value : t -> hash:int -> int -> bool

(** [rename_value t ~hash ~old_row ~new_row] re-points the entry holding
    [old_row] (searched along [hash]'s probe chain) at [new_row]; [false]
    if absent. Used when swap-with-last deletion renumbers a row. *)
val rename_value : t -> hash:int -> old_row:int -> new_row:int -> bool

(** Iterate over live rows (arbitrary order). *)
val iter : t -> (int -> unit) -> unit

val byte_size : t -> int
