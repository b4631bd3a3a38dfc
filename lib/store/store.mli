(** Crash-safe persistent certificate store.

    The schedule server's memory cache dies with the process; this store
    makes proven search results durable, so a restarted daemon answers
    every previously-settled query without re-paying the exponential
    tiling search.  It is a write-ahead log of records

    {v canonical key -> Found (tiling) | No_tiling v}

    keyed by the tile's congruence class
    ({!Corpus.Layout.key_of_prototile}, the same key the server's LRU
    and the corpus use).  Both outcomes are cacheable {e forever}: a
    tiling's machine-checkable {!Core.Certificate} is derived from it,
    and [No_tiling] records that a bounded search found nothing.

    {2 On-disk format}

    A store file is a {!Corpus.Layout} segment: the segment magic
    followed by verdict records, never sealed or indexed.  Every store
    record carries band 0.  A [Found] entry is a tag-1 (exact) record
    whose payload is {!Corpus.Layout.encode_payload} of the tiling,
    exactly as in a corpus; [No_tiling] is a tag-2 (not found) record
    with an empty payload - a bounded search found nothing, not the BN
    refutation that tag 0 means in a corpus.  Later records supersede
    earlier ones with the same key (write-ahead semantics).

    {2 Recovery invariant}

    [open_] never fails on a damaged store and never trusts damaged
    data: {!Corpus.Layout.fold_records} walks the records from the start
    and the store keeps the {e longest valid prefix}.  The first framing
    violation - torn header, impossible length, CRC mismatch, unknown
    tag - ends the walk and the file is truncated there, so a crash
    mid-append (or [kill -9], or a torn sector) costs at most the tail
    records.  A record whose CRC matches but which is not a valid store
    record (band other than 0, tag 0, a non-empty tag-2 payload, or an
    exact payload that fails {!Corpus.Layout.decode_payload} or
    {!Corpus.Layout.prove}) is {e dropped and counted}, never served -
    the trust anchor is the revalidated tiling, whose derived
    certificate the store checks before believing the disk.

    An empty file, or a torn proper prefix of the magic, is repaired
    into an empty store.  Any other file whose first bytes are not the
    magic - a foreign file, or a store in an older format - is refused
    and left byte-for-byte unchanged.

    After recovery the live set is held in memory as each live record's
    payload text, about a hundred bytes, rather than the decoded tiling,
    several times that.  [find] and [fold] are a hash lookup, a parse of
    that payload and {!Core.Certificate.build}: they never touch the
    disk and never re-run {!Core.Certificate.check}, which [open_] ran
    on every replayed record ([put] appends and keeps the payload of a
    tiling its caller built).  Each call returns freshly built values.

    {2 Compaction}

    Superseded records accumulate as garbage.  When the dead-record
    count crosses a threshold ([auto_compact_ratio] of the live count),
    the store snapshots: the live records are rewritten, sorted by key,
    to a temp file that is fsynced and atomically renamed over the log.
    [compact] forces a snapshot.

    Not thread-safe; the server serializes access (as it does for the
    memory cache). *)

type t

type entry =
  | Found of {
      tiling : Tiling.Single.t;  (** canonical orientation *)
      certificate : Core.Certificate.t;
          (** [Certificate.build tiling] from {!find} and {!fold}; {!put}
              ignores it.  It stays only because the daemon benchmark
              builds this constructor; removing it waits for a change
              to it. *)
    }
  | No_tiling  (** a bounded search found nothing *)

type recovery = {
  live : int;  (** distinct keys after recovery *)
  records : int;  (** records that passed CRC and validation *)
  dropped : int;  (** CRC-valid records dropped by semantic validation *)
  truncated_bytes : int;  (** bytes cut from the corrupt/torn tail *)
}

val open_ : ?auto_compact_ratio:float -> string -> t
(** Open or create the store at [path], recovering as described above.
    [auto_compact_ratio] (default [1.0]) triggers a snapshot when
    [dead > ratio * max 1 live] and [dead >= 16]; [infinity] disables
    auto-compaction.  Raises [Sys_error] for genuine I/O failure
    (permissions, missing directory) and, naming [path], for a
    non-empty file that does not start with the segment magic; never
    for corrupt records. *)

val path : t -> string
val recovery : t -> recovery

val length : t -> int
(** Live entries. *)

val mem : t -> string -> bool
val find : t -> string -> entry option

val put : t -> string -> entry -> unit
(** Append a record and update the live set; the record is flushed to
    the OS before returning.  A [Found] entry must satisfy
    {!Corpus.Layout.check_key} - a tiling for the canonical orientation
    whose key is [key] - enforced with [Invalid_argument], since a
    mismatched record would be dropped at the next recovery anyway; so
    is an empty key.  Only the tiling is stored; the entry's certificate
    is ignored. *)

val fold : t -> init:'b -> f:('b -> string -> entry -> 'b) -> 'b
(** Over the live set in ascending key order (deterministic). *)

val compact : t -> unit
(** Force a snapshot now. *)

val compactions : t -> int
(** Snapshots taken since [open_] (including automatic ones). *)

val close : t -> unit
(** Flush and close; further [put]/[compact] raise [Invalid_argument].
    Idempotent. *)
