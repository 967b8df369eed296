(** CRC-32 (IEEE 802.3) checksums for the binary trace format and the
    journal's segment seals.

    The standard reflected polynomial [0xEDB88320] with initial value and
    final xor [0xFFFFFFFF] — byte-compatible with [zlib]'s [crc32], so
    traces can be checked with external tooling. Values fit in 32 bits and
    are returned as non-negative [int]s. Computed slicing-by-8 (eight
    bytes per step) from tables built once at module initialisation. *)

val update : int -> bytes -> pos:int -> len:int -> int
(** [update crc b ~pos ~len] extends a running checksum over
    [b.(pos .. pos+len-1)]. Start from [0].
    @raise Invalid_argument on an out-of-bounds range. *)

val bytes : ?pos:int -> ?len:int -> bytes -> int
(** Checksum of a byte range ([pos] defaults to [0], [len] to the rest). *)

val string : string -> int
