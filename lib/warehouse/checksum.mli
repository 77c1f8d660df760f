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

(** [combine crc1 crc2 len2] is the CRC-32 of [a] followed by [b], where
    [crc1] is the CRC-32 of [a] and [crc2] that of [b], [len2] bytes long
    (zlib's [crc32_combine]): a body checksummed as it streams out joins
    the checksum of what precedes it without being read again. It costs
    O(log len2), whatever [a]'s length.
    @raise Invalid_argument if [len2] is negative. *)
val combine : int -> int -> int -> int
