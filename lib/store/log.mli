(** Crash-safe persistent certificate store.

    The schedule server's memory cache dies with the process; this store
    makes proven search results durable, so a restarted daemon answers
    every previously-settled query without re-paying the exponential
    tiling search.  It is a write-ahead log of records

    {v canonical key -> Found (tiling + certificate) | No_tiling v}

    keyed by the tile's congruence class ({!Lattice.Symmetry.canonical},
    the same key the server's LRU uses), because both outcomes are
    cacheable {e forever}: a tiling-derived schedule carries a
    machine-checkable {!Core.Certificate}, and [No_tiling] records a
    completed proof of exhaustion of the bounded search.

    {2 On-disk format}

    A log is the 8-byte magic ["TSTORE1\n"] followed by framed records:

    {v
    'R' | payload length (u32 LE) | CRC32 of payload (u32 LE) | payload
    v}

    The payload is text in the {!Core.Codec} dialect: a
    [tilesched/v1;kind=store] header line carrying [key] and [status]
    fields, then - for [status=found] - the tiling line
    ({!Core.Codec.tiling_to_string}) and the three certificate lines
    ({!Core.Certificate.to_string}).  Later records supersede earlier
    ones with the same key (write-ahead semantics).

    {2 Recovery invariant}

    [open_] never fails on a damaged log and never trusts damaged data:
    it scans frames from the start and keeps the {e longest valid
    prefix}.  The first framing violation - bad magic, torn header,
    impossible length, CRC mismatch - ends the scan and the file is
    truncated there, so a crash mid-append (or [kill -9], or a torn
    sector) costs at most the tail records.  A frame whose CRC matches
    but whose payload fails semantic validation (undecodable, key
    mismatch, or a certificate rejected by {!Core.Certificate.check}) is
    {e dropped and counted}, never served - the store re-proves every
    certificate before believing the disk.

    After recovery the live set is held in memory (the log is an
    index-free append file) as each live record's validated payload
    text, a few hundred bytes, rather than the decoded tiling and
    certificate, several times that.  [find] and [fold] are a hash
    lookup plus a parse of that payload: they never touch the disk and
    never re-run {!Core.Certificate.check}, which [open_] ran on every
    replayed record ([put] appends and keeps the payload of an entry
    its caller built).  Each call returns freshly parsed values.

    {2 Compaction}

    Superseded records accumulate as garbage.  When the dead-record
    count crosses a threshold ([auto_compact_ratio] of the live count),
    the store snapshots: the live payloads are copied, sorted by key, to
    a temp file that is fsynced and atomically renamed over the log.
    [compact] forces a snapshot.

    Not thread-safe; the server serializes access (as it does for the
    memory cache). *)

type t

type entry =
  | Found of {
      tiling : Tiling.Single.t;  (** canonical orientation *)
      certificate : Core.Certificate.t;
    }
  | No_tiling  (** the bounded search proved exhaustion *)

type recovery = {
  live : int;  (** distinct keys after recovery *)
  records : int;  (** frames that passed CRC and validation *)
  dropped : int;  (** CRC-valid frames dropped by semantic validation *)
  truncated_bytes : int;  (** bytes cut from the corrupt/torn tail *)
}

val open_ : ?auto_compact_ratio:float -> string -> t
(** Open or create the log at [path], recovering as described above.
    [auto_compact_ratio] (default [1.0]) triggers a snapshot when
    [dead > ratio * max 1 live] and [dead >= 16]; [infinity] disables
    auto-compaction.  Raises [Sys_error] only for genuine I/O failure
    (permissions, missing directory), never for corrupt contents. *)

val path : t -> string
val recovery : t -> recovery

val length : t -> int
(** Live entries. *)

val mem : t -> string -> bool
val find : t -> string -> entry option

val put : t -> string -> entry -> unit
(** Append a record and update the live set; the frame is flushed to the
    OS before returning.  A [Found] entry must hold a tiling for the
    canonical orientation whose key is [key] - enforced with
    [Invalid_argument], since a mismatched record would be dropped at
    the next recovery anyway. *)

val fold : t -> init:'b -> f:('b -> string -> entry -> 'b) -> 'b
(** Over the live set in ascending key order (deterministic). *)

val compact : t -> unit
(** Force a snapshot now. *)

val compactions : t -> int
(** Snapshots taken since [open_] (including automatic ones). *)

val close : t -> unit
(** Flush and close; further [put]/[compact] raise [Invalid_argument].
    Idempotent. *)

val key_of_prototile : Lattice.Prototile.t -> string
(** The store (and server cache) key: the canonical form's cell list,
    encoded with {!Core.Codec.vecs_to_string}. *)
