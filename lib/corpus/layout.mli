(** On-disk grammar of every verdict file: the corpus written by
    {!Campaign} and mapped by {!Snapshot}, and the certificate store
    ([Store]).  One record format, one exact-payload codec and one proof.

    A corpus is a directory:

    {v
    MANIFEST        checkpoint state (text, atomically replaced)
    shard-000.seg   append segment: magic + framed verdict records
    shard-000.idx   fixed-width sorted index, written once at seal time
    ...
    v}

    A store is one segment file: the same magic and records, never
    sealed, with no manifest or index.

    A segment is {!seg_magic} followed by records

    {v
    crc32 (u32 LE, over everything after it) | tag (u8) |
    band (u8) | key len (u32 LE) | payload len (u32 LE) | key | payload
    v}

    where [key] is the canonical cell-list key ({!key_of_prototile}) and

    {v
    tag  verdict                                     payload      written by
    0    non-exact: refuted (hole or BN test)        empty        campaign
    1    exact                                       tiling line  campaign, store
    2    not found: a bounded search found nothing   empty        store
    v}

    An exact payload ({!encode_payload}) is the tiling line
    ({!Core.Codec.tiling_to_string}) alone: Theorem 1 makes the
    certificate a function of the tiling, so readers derive it with
    {!Core.Certificate.build}.  [band] is the tile's area in a corpus
    (1..255) and 0 in a store, whose records come from requests rather
    than a band of the campaign.  Tag 2 is not a proof: it says a
    bounded search found nothing, so a sealed corpus never holds it and
    {!Snapshot.verify} rejects it, as it rejects band 0.

    An index file is its magic, a u64 LE entry count, then [count]
    entries of [key hash (u64 LE) | record offset (u64 LE)] sorted by
    (hash, offset): lookup is binary search on the hash then a key-bytes
    comparison against the mapped segment.

    Everything is deterministic - same parameters, byte-identical
    corpus - so crash-recovery correctness is checkable with [cmp]. *)

val seg_magic : string
val idx_magic : string
val magic_len : int

val version : int
(** Format version recorded in the manifest; readers reject others. *)

val header_size : int
(** Bytes of a record frame before the key. *)

val idx_entry_size : int

val tag_non_exact : int
val tag_exact : int
val tag_not_found : int

val manifest_name : string
val segment_name : int -> string
val index_name : int -> string

val key_of_cells : Lattice.Prototile.t -> string
(** The tile's cell list as given, encoded with
    {!Core.Codec.vecs_to_string}: the key of its class when the tile is
    canonical.  Probing with a raw request tile is sound because a hit
    implies the tile was canonical. *)

val key_of_prototile : Lattice.Prototile.t -> string
(** The record (and server cache) key: [key_of_cells] of the tile's
    canonical form ({!Lattice.Symmetry.canonical}). *)

val hash_key : string -> int
(** FNV-1a of the key bytes folded to 62 bits (always non-negative). *)

val shard_of_key : shards:int -> string -> int
(** [hash_key key mod shards]. *)

val encode_payload : Tiling.Single.t -> string
(** The payload of an exact record. *)

val decode_payload : string -> (Tiling.Single.t, string) result
(** Parse an exact payload: one line, revalidated through
    [Single.make].  More than one line is an [Error]. *)

val check_key : key:string -> Tiling.Single.t -> (unit, string) result
(** The keying rule of an exact record: the tiling's prototile is
    canonical and [key] is its key. *)

val prove : key:string -> Tiling.Single.t -> (unit, string) result
(** {!check_key}, then {!Core.Certificate.check} of
    {!Core.Certificate.build}: what every reader runs before it believes
    an exact record read from disk.  The trust anchor is the tiling that
    {!decode_payload} validated, never a stored certificate. *)

val put_u64 : Bytes.t -> int -> int -> unit
(** Little-endian u64 store (values are non-negative ints). *)

val encode_record : band:int -> tag:int -> key:string -> payload:string -> string
(** One framed record, CRC included.  Raises [Invalid_argument] on an
    empty key, a key or payload longer than a u32 can count, a band
    outside [0..255] or an unknown tag. *)

val fold_records :
  string ->
  init:'a ->
  f:('a -> off:int -> band:int -> tag:int -> key:string -> payload:string -> 'a) ->
  ('a, 'a * int * string) result
(** Walk a raw segment image (magic included) record by record.  The
    first bad magic, torn header, impossible length, CRC mismatch or
    unknown tag stops the walk with [Error (acc, valid_len, reason)]:
    the accumulator over the records before it, the byte length of that
    valid prefix, and the reason naming the offset.  The store truncates
    its file to [valid_len]; the campaign and {!Snapshot.verify}, which
    read only fsynced, manifest-covered bytes, treat any [Error] as
    corruption. *)

type band = {
  n : int;
  classes : int;
  exact : int;
  non_exact : int;
  lens : int array;  (** cumulative per-shard segment length after this band, bytes *)
}

type manifest = {
  shards : int;
  sealed : bool;  (** indexes written; snapshots may open *)
  bands : band list;  (** contiguous, ascending [n] starting at 1 *)
}

val manifest_to_string : manifest -> string
val manifest_of_string : string -> (manifest, string) result

val completed : manifest -> int
(** Highest fully-checkpointed band, 0 for none. *)

val shard_lengths : manifest -> int array
(** Per-shard segment byte length as of the last checkpointed band (the
    truncation targets for crash repair); all [magic_len] when no band
    has completed. *)
