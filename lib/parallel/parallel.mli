(** A fixed pool of worker domains with deterministic fork/join maps.

    The search kernels of this project - sublattice enumeration, exact
    cover on the torus quotient, chromatic-number branching, multi-seed
    simulation sweeps - are embarrassingly parallel over independent
    subtrees.  This module provides the one primitive they share: run
    [n] independent tasks on a fixed set of domains and collect the
    results {e by task index}, so the output is bit-identical to the
    sequential run no matter how the tasks were interleaved.

    {2 Determinism contract}

    Every function here is a pure fork/join: task [i] may only write its
    own slot of the result, slots are assembled in index order, and no
    task observes another's timing.  Provided the task function itself is
    deterministic, [map pool f xs = List.map f xs] for {e every} pool
    size - the tests enforce this for the search engines at
    [jobs = 1, 2, 4, 8].

    {2 Pool lifecycle}

    A pool of [~jobs:j] keeps [j - 1] worker domains parked on a
    condition variable between batches; the calling domain works too, so
    [j] is the total parallelism.  [jobs = 1] spawns nothing and runs
    every batch inline.  Pools are cheap to keep around and are meant to
    be created once (see {!default}); [shutdown] joins the workers.

    Nested use is safe but not parallel: a task that re-enters the same
    pool (or any batch submitted while one is running) falls back to
    inline sequential execution rather than deadlocking. *)

type pool

val create : jobs:int -> pool
(** [create ~jobs] spawns [jobs - 1] worker domains.  [jobs] must be at
    least 1.  Oversubscribing the machine is allowed but pointless. *)

val jobs : pool -> int
(** Total parallelism (workers + the submitting domain). *)

val shutdown : pool -> unit
(** Terminate and join the workers; the pool then runs everything
    inline.  Idempotent. *)

val with_pool : jobs:int -> (pool -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, also on exception. *)

val default : unit -> pool
(** The process-wide shared pool, created on first use with
    {!set_default_jobs}'s value (initially [TILESCHED_JOBS] from the
    environment, else 1 - fully sequential).  All search entry points
    fall back to this pool when not handed one explicitly, which is how
    the [tilesched -j] flag reaches them. *)

val set_default_jobs : int -> unit
(** Set the size used by {!default}; if the default pool already exists
    at a different size it is shut down and recreated lazily. *)

val parallel_for : pool -> n:int -> (int -> unit) -> unit
(** Run [f 0 .. f (n-1)], distributed over the pool; returns when all
    are done.  If any task raises, one of the exceptions is re-raised
    here after the batch drains (remaining tasks are skipped on a
    best-effort basis). *)

module Steal : sig
  (** The work-stealing runtime.

      Each worker slot owns a deque of tasks; owners push and pop at the
      bottom (newest first, for locality), thieves steal from the top
      (oldest first - the shallowest subtree, hence the biggest expected
      remaining work, as in a Chase-Lev deque).  A thief that finds
      every deque empty while tasks are still outstanding raises a
      {e hungry} flag; running tasks poll it via {!should_split} and
      give away part of their remaining work with {!spawn}.

      {2 Determinism contract}

      Every task and every result chunk carries a canonical {e path
      key}: the list of branch positions from the search root
      identifying the subtree the chunk's results come from.  [run]
      concatenates all chunks sorted by key - lexicographically, with a
      prefix sorting before its extensions - so the output depends only
      on the keys, never on which worker computed a chunk or when.
      Callers must therefore (a) key chunks so that key order equals
      sequential enumeration order, and (b) never emit two chunks with
      equal keys from different subtrees.  Under those rules the result
      is bit-identical to the sequential run for every pool size,
      victim policy, and interleaving - the fuzzer drives randomized
      victim policies over ~100 seeds to enforce exactly this. *)

  type 'a ctx
  (** Handle a running task uses to interact with the scheduler. *)

  val should_split : 'a ctx -> bool
  (** True when some worker is starving and this worker's own deque is
      empty: the task should give away part of its remaining subtree via
      {!spawn}.  Cheap (two plain reads), safe to poll at every search
      node.  Always false at [jobs = 1]. *)

  val spawn : 'a ctx -> key:int list -> ('a ctx -> (int list * 'a) list) -> unit
  (** [spawn ctx ~key body] pushes a new task onto the calling worker's
      own deque, from where idle workers steal it.  [body] runs with a
      ctx of whichever worker executes it and returns its keyed chunks;
      [key] must be the canonical path of the subtree given away. *)

  val run :
    pool ->
    ?victim:(thief:int -> round:int -> victims:int -> int) ->
    ?weights:float array ->
    (int list * ('a ctx -> (int list * 'a) list)) array ->
    (int list * 'a) list
  (** [run pool tasks] executes the tasks (and everything they [spawn])
      to completion and returns all chunks sorted by path key.  Each
      task is [(key, body)]; bodies run on worker domains, so they must
      obey the same purity rule as every Parallel fan-out closure (lint
      R3): mutate only state created inside the body.

      [weights] (same length as [tasks]) seeds the initial deque
      assignment longest-processing-time-first from a caller-supplied
      cost model; it affects placement only, never the output.

      [victim ~thief ~round ~victims] is a debug hook for the steal-
      schedule fuzzer: it picks which of the [victims] other deques the
      starving [thief] scans on attempt [round] (any return value is
      reduced mod [victims]; the default scans round-robin).  It runs
      concurrently on worker domains, so it must be thread-safe.

      If any task raises, one exception is re-raised after the workers
      drain; remaining tasks are skipped best-effort. *)
end

val map_array : pool -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array pool f xs]: like [Array.map f xs]; element [i] of the
    result is [f xs.(i)] regardless of which domain computed it.  At
    [jobs = 1] this is [Array.map]; otherwise every element is one
    {!Steal} task (no splitting), which balances uneven per-element
    costs dynamically. *)

val map : pool -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs = List.map f xs], computed in parallel. *)

val filter_map : pool -> ('a -> 'b option) -> 'a list -> 'b list
(** [filter_map pool f xs = List.filter_map f xs]: [f] runs in
    parallel, the filtering keeps list order. *)

val concat_map : pool -> ('a -> 'b list) -> 'a list -> 'b list
(** [concat_map pool f xs = List.concat_map f xs]: chunk results are
    concatenated in input order. *)
