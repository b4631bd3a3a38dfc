(** The precompute campaign: every free polyomino up to a band bound,
    decided and made durable.

    {!run} streams {!Lattice.Polyomino.enumerate_free_iter} band by
    band (area [n] = one band).  Each tile is decided by
    {!Tiling.Search.decide}: a hole or a missing Beauquier-Nivat
    factorization is a {e complete} refutation for polyominoes, so the
    exact-cover machinery never runs on a non-exact tile, and an exact
    tile gets its lattice tiling (Wijshoff-van Leeuwen) and a
    certificate - the same tiling a fresh search in the daemon finds.
    Verdict computation fans out over the {!Parallel} pool
    (deterministically - results are assembled in band order at every
    [-j]).

    {2 Checkpoint-resume invariant}

    Records append to per-shard segments (shard = key hash mod shard
    count).  After each band: segments are fsynced, then the manifest -
    which names the band and the cumulative byte length of every
    segment - is atomically replaced (write-temp, fsync, rename).  On
    (re)open, every segment is truncated back to its manifest length,
    dropping any partial band, and the campaign redoes work from the
    first unlisted band.  Appends are deterministic, so a killed and
    resumed campaign produces a corpus {e byte-identical} to an
    uninterrupted one - CI asserts this with [cmp] after a [kill -9].

    Sealing (building the per-shard indexes and setting the manifest's
    [sealed] flag) happens only after the last band; growing a sealed
    corpus to a larger bound drops the seal first, so stale indexes can
    never look authoritative. *)

type report = {
  dir : string;
  shards : int;
  max_n : int;
  skipped_bands : int;  (** bands already checkpointed by an earlier run *)
  bands : Layout.band list;
}

val run :
  ?pool:Parallel.pool ->
  ?shards:int ->
  (* default 8; must match an existing corpus *)
  ?progress:(n:int -> done_:int -> total:int -> unit) ->
  (* called after each appended record; the crash tests' injection point *)
  dir:string ->
  max_n:int ->
  unit ->
  (report, string) result
(** Build or resume the corpus at [dir] up to band [max_n] (1..255) and
    seal it.  Completed bands are skipped ([skipped_bands] counts them);
    a partial band left by a crash is truncated away and redone. *)

val pp_report : Format.formatter -> report -> unit
