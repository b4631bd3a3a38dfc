(** The slotted-network simulation engine.

    Sensors sit on a [width x height] window of the square lattice and
    share one channel under the paper's binary interference model: the
    broadcast of the sensor at [s] reaches exactly the grid points of
    [s + N].  A reception at [r] succeeds iff exactly one transmitter
    reaches [r] in that slot and [r] itself is silent; a broadcast counts
    as {e delivered} when every intended receiver got it, otherwise the
    attempt is a collision and the packet stays queued for retry
    (senders get immediate, idealized feedback - this favors the
    contention baselines, never the TDMA schedules).

    Channel ablations relax the binary model:
    - [capture]: when several transmissions reach a receiver, the unique
      nearest (Chebyshev) transmitter is still decoded - the classic
      capture effect.  With it on, contention protocols lose fewer
      receptions; the schedule's guarantee is unaffected.
    - [loss_prob]: each (sender, receiver, slot) reception independently
      erased with this probability - fading/noise.  This breaks even
      TDMA's 100% delivery, but never causes {e collisions}.

    Fault injection ({!Faults}): scripted or seed-derived sensor deaths,
    churn (down/up cycles) and battery depletion.  A dead node stops
    sensing, transmitting, receiving and paying energy; its queued
    packets count as drops, so {!conservation_ok} still holds.  A down
    node keeps sensing and queueing but its radio is off.  Intended
    receivers are the alive ones - a broadcast whose whole neighborhood
    died counts as (vacuously) delivered.

    Per-slot accounting: transmitters pay [tx_cost], every node hearing at
    least one transmission pays [rx_cost], everyone else pays
    [idle_cost]; [Faults.extra_cost] adds a per-slot surcharge (e.g.
    cluster-head duty).  Alongside the aggregate, every node keeps its
    own {!Energy.account} - the basis of battery depletion and of the
    {!energy_conservation_ok} invariant.  All randomness is drawn from
    per-node streams split off the run seed, so runs are reproducible. *)

type config = {
  width : int;
  height : int;
  prototile : Lattice.Prototile.t;
  neighborhoods : (Zgeom.Vec.t -> Lattice.Prototile.t) option;
      (** Heterogeneous deployments (rule D1 of Section 4): when set, each
          position's interference prototile comes from this function and
          [prototile] is ignored for propagation. Use
          [Tiling.Multi.tile_of] to deploy per the paper's scheme. *)
  workload : Workload.spec;
  mac : Mac.factory;
  duration : int;  (** slots *)
  seed : int64;
  energy_model : Energy.model;
  queue_capacity : int;  (** packets per node; arrivals beyond are dropped *)
  capture : bool;  (** capture effect (default false: pure binary model) *)
  loss_prob : float;  (** independent reception-erasure probability *)
  trace : Trace.t option;  (** when set, the engine records per-event history *)
  faults : Faults.spec;  (** fault injection (default {!Faults.none}) *)
}

val default_config : mac:Mac.factory -> config
(** 10x10 grid, Chebyshev ball radius 1 (homogeneous), periodic traffic
    (1 packet per 50 slots), 2000 slots, seed 42, default energy, queue
    32, no capture, no loss, no faults. *)

type result = {
  mac_name : string;
  num_nodes : int;
  stats : Stats.snapshot;
  drops : int;  (** arrivals lost to full queues or to the owner's death *)
  backlog : int;  (** packets still queued at the end *)
  fairness : float;  (** Jain index of per-node delivered counts (1 = perfectly fair) *)
  node_accounts : Energy.account array;  (** per-node energy, indexed by node id *)
  deaths : (int * int) list;  (** [(time, node)] in order of occurrence *)
  alive_at_end : int;  (** nodes not dead when the run ended (down counts as alive) *)
}

val run : config -> result

val run_sweep :
  ?pool:Parallel.pool ->
  ?trace_of:(int64 -> Trace.t option) ->
  config ->
  seeds:int64 list ->
  result list
(** Independent {!run}s of the same configuration at each seed, in seed
    order.  With a pool of more than one domain (default
    {!Parallel.default}), the runs execute on separate domains; each run
    is fully self-contained (per-node PRNG streams split off its seed),
    so the result list is identical to sequentially mapping {!run}.

    Tracing: the shared [cfg.trace] sink is {e ignored} (one sink
    written by concurrent runs would interleave nondeterministically).
    Instead, [trace_of seed] supplies each run its own sink - a
    single-writer log per seed, filled identically at every pool size.
    Callers must return a distinct [Trace.t] per seed
    (sharing one across seeds reintroduces the race); the default keeps
    tracing off. *)

val pp_result : Format.formatter -> result -> unit

val conservation_ok : result -> bool
(** Invariant: arrivals = delivered + drops + backlog.  Holds with
    faults on: a dead node's buffered packets count as drops and its
    pending arrival is discarded before being counted. *)

val energy_conservation_ok : ?eps:float -> Energy.model -> result -> bool
(** Invariant: every node's [consumed] equals
    [tx_slots * tx_cost + rx_slots * rx_cost + idle_slots * idle_cost +
    extra] ({!Energy.account_consistent}), and the accounts sum to
    [stats.energy], both up to relative tolerance [eps] (default 1e-9).
    Pass the model the run used ([config.energy_model]). *)

val first_death : result -> int option
(** Slot of the earliest death, if any node died. *)
