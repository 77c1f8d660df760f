(** CRC-32 (IEEE, as in zip/png) integrity checksums for the durability
    layer: WAL records and snapshot sections are checksum-gated before they
    are decoded. *)

(** [string s] is the CRC-32 of [s], in [0, 0xffffffff]. *)
val string : string -> int

(** [sub b off len] is the CRC-32 of bytes [off .. off + len - 1] of [b].
    @raise Invalid_argument if the range is outside [b]. *)
val sub : bytes -> int -> int -> int

(** [update crc b off len] continues [crc], the CRC-32 of some bytes [a],
    over bytes [off .. off + len - 1] of [b]: the result is the CRC-32 of
    [a] followed by that range. [update 0] is {!sub}, so a checksum can be
    computed over pieces that are never concatenated.
    @raise Invalid_argument if the range is outside [b]. *)
val update : int -> bytes -> int -> int -> int
