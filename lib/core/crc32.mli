(** CRC-32 (IEEE 802.3, reflected; the zlib/PNG checksum).

    The one implementation behind every checksum in the project: the
    persistent store's log frames, the corpus segment records and the
    binary wire protocol's frame trailer.

    The accumulator crosses the interface as [int32], but the hot loops
    run on the native [int] representation: per-byte [Int32] arithmetic
    boxes every intermediate.  The loops are slice-by-8: eight
    256-entry tables fold eight bytes per step, with a bytewise tail;
    the checksum is the one a bytewise table gives, bit for bit. *)

type bigstring = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val init : int32
(** The accumulator before any byte. *)

val string : int32 -> string -> int -> int -> int32
(** [string crc s pos len] feeds [s.[pos .. pos + len - 1]] into the
    accumulator.  The caller keeps the range inside [s]. *)

val bigstring : int32 -> bigstring -> int -> int -> int32
(** {!string} over a bigstring (e.g. a slice of an mmapped segment). *)

val of_string : string -> int32
(** The finished checksum of a whole string: the accumulator over it,
    complemented.  [of_string "123456789" = 0xCBF43926l], the standard
    check value. *)
