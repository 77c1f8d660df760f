(** CRC-32 (IEEE, as in zip/png) integrity checksums for the durability
    layer: WAL records and snapshot payloads are checksum-gated before they
    are unmarshalled. *)

(** [string s] is the CRC-32 of [s], in [0, 0xffffffff]. *)
val string : string -> int

(** [sub b off len] is the CRC-32 of bytes [off .. off + len - 1] of [b].
    @raise Invalid_argument if the range is outside [b]. *)
val sub : bytes -> int -> int -> int
