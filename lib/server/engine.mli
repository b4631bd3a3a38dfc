(** The schedule server's request engine.

    A long-lived service answering slot/schedule/tiling queries for
    arbitrary prototiles.  The expensive step - the tiling search behind
    Theorem 1 - is amortized three ways:

    - {b Canonicalizing cache.}  Results are cached under the tile's
      canonical form ({!Lattice.Symmetry.canonical}), so all congruent
      tiles (rotations, reflections, translations) share one LRU entry;
      a hit for a non-canonical orientation is answered by transporting
      the cached tiling through the symmetry witness and revalidating.
    - {b Coalescing.}  Within a batch, concurrent misses for the same
      canonical key trigger exactly one search; distinct missing keys
      are searched concurrently on the {!Parallel} pool, in first-
      occurrence order, so results are deterministic at every pool size.
    - {b Backpressure.}  A batch longer than [queue_bound] is cut: the
      excess requests receive an explicit [Overloaded] reply instead of
      queueing without bound; clients retry.
    - {b Persistence.}  With a [store] attached, the engine gains a
      second cache tier: a memory miss probes the persistent certificate
      store before searching (a hit is promoted into the LRU), and every
      completed search - a tiling, or a bounded search that found
      nothing - is written through, so settled results survive restarts
      and a warmed store answers without ever invoking
      {!Tiling.Search}.  Timeouts are not persisted, like they are not
      cached.
    - {b Precomputation.}  With a [corpus] attached (a sealed
      {!Corpus.Snapshot}), every tile request probes the mmap-backed
      verdict corpus {e before} the memory/store/search chain.  A hit
      answers with [src=corpus] and never touches the cache or the
      search pool; a canonical-orientation [Tile_search] hit is answered
      by splicing the stored tiling bytes straight from the mapped
      segment into the reply ({!Protocol.Tiling_raw_r}) with zero
      deserialization.

    Tile replies carry a {!Protocol.source} marker - [memory], [corpus],
    [store] or [fresh] - naming the tier that settled them.

    A miss runs {!Tiling.Search.find_tiling}'s stages
    ({!Tiling.Search.stages}) and answers its first hit.  Searches can be
    bounded by a wall-clock [deadline] checked between those stages; an expired search answers [Deadline_exceeded] and is
    {e not} cached (a later retry may succeed), while a completed search
    that proves no tiling exists caches [No_tiling]. *)

type t

val create :
  ?cache_capacity:int ->
  (* default 256 *)
  ?queue_bound:int ->
  (* default 512 *)
  ?deadline:float ->
  (* seconds per search; default unbounded *)
  ?pool:Parallel.pool ->
  (* default {!Parallel.default} *)
  ?store:Store.t ->
  (* second cache tier; default none *)
  ?corpus:Corpus.Snapshot.t ->
  (* precomputed verdict snapshot, probed before every other tier;
     default none *)
  unit ->
  t

val handle : t -> Protocol.request -> Protocol.response
(** A batch of one; never [Overloaded] (since [queue_bound >= 1]). *)

val handle_batch : t -> Protocol.request list -> Protocol.response list
(** Responses in request order.  Requests beyond [queue_bound] get
    [Overloaded]; admitted tile requests are canonicalized, looked up,
    coalesced and searched as described above. *)

val stats : t -> Protocol.server_stats
val queue_bound : t -> int

val corpus : t -> Corpus.Snapshot.t option
(** The attached snapshot, if any — the evloop front end probes it
    directly for its zero-copy binary reply path. *)

val add_corpus_hits : t -> int -> unit
(** Fold [n] corpus replies answered outside {!handle_batch} (the
    front end's loop-thread fast path) into [corpus_hits] and [served].
    Must be called from the thread that runs {!handle_batch}; the
    counters are not atomic. *)

