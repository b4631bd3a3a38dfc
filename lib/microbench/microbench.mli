(** Bechamel micro-benchmarks of the core machinery, shared between the
    experiment harness ([bench/main.exe]) and the [tilesched bench]
    subcommand.

    The suite pins one workload per hot subsystem (boundary-word
    factorization, torus exact cover under each {!Tiling.Search.engine},
    schedule lookup, coloring, simulation, ...) and reports an OLS
    estimate of nanoseconds per call.  Rows serialize to the
    [BENCH_5.json] artifact - a JSON array of
    [{"name": ..., "ns_per_call": ...}] objects - which CI regenerates,
    schema-checks with {!validate_json} and uploads, so engine
    regressions are visible as a diffable time series. *)

type row = { name : string; ns_per_call : float }

val staircase : int -> Lattice.Prototile.t
(** Exact staircase polyomino with ~4k+2 boundary letters - the standard
    scaling family for the Beauquier-Nivat decision (also used by the
    EXP-S3 and EXP-A2 experiment sections). *)

val cross : int -> Lattice.Prototile.t
(** The [(2n - 1)]-cell cross: row 0 union column 0 of the [n x n]
    square.  Any two torus translates of it intersect, which is what
    makes {!skew_instance} adversarially skewed.  Requires [n >= 2]. *)

val skew_instance : n:int -> Lattice.Sublattice.t * Lattice.Prototile.t list
(** The adversarial skewed exact-cover instance of EXP-P3: [cross n]
    plus the monomino on the [n x n] torus.  At most one cross fits in
    any cover, so there are exactly [1 + n^2] covers and the single
    monomino-at-cell-0 root branch owns [(n^2 - 2n + 2) / (n^2 + 1)] of
    them - at least 90% for [n >= 20] (93% at the benchmark's [n = 28]).
    A static root split serializes that branch on one worker; lazy
    stealing re-splits it. *)

val skew_root_share : n:int -> float
(** Fraction of the instance's covers that lie in the fat root branch
    (monomino covering cell 0), measured by filtered enumeration at
    [jobs = 1].  The skew test asserts this is [>= 0.9] at [n = 20]. *)

val run : ?quota:float -> unit -> row list
(** Run the whole suite and return one row per benchmark, sorted by
    name.  [quota] is the Bechamel time budget per benchmark in seconds
    (default 0.5); smaller quotas trade estimate quality for wall time,
    which is what the CI smoke run wants.  Raises [Invalid_argument] if
    [quota <= 0]. *)

val run_skew : ?quota:float -> unit -> row list
(** The EXP-P3 scheduler benchmark, serialized to [BENCH_6.json]:
    {!Tiling.Search.count_torus_covers} on [skew_instance ~n:28] as
    [skew-seq-j1] (jobs = 1) and [skew-steal-j4] (jobs = 4).  A
    single-core host shows no speedup, so the artifact is
    schema-checked rather than threshold-checked.  [quota] as in
    {!run}. *)

val required : string list
(** Substrings that {!validate_json} demands among row names: the three
    torus-cover engines on the EXP-P2 workload (S/Z tetrominoes on the
    4x8 torus, all 1024 solutions, jobs = 1), each both as pure
    enumeration ([torus-all-*], {!Tiling.Search.count_torus_covers}) and
    end-to-end materialization ([torus-mat-*]), so the artifact always
    carries the backtracking/DLX/bitmask comparison this suite exists to
    track. *)

val required_skew : string list
(** The row names {!validate_json} demands of the [BENCH_6.json]
    artifact: the two {!run_skew} configurations. *)

val run_lifetime : ?quota:float -> unit -> row list
(** The lifetime suite (EXP-L1), serialized to [BENCH_7.json].  Two row
    families share the two-key schema with different units:
    [lifetime-*-first-death-slots] rows carry the {e slot} of the first
    battery death in a deterministic simulation (I-tetromino rows on an
    8x8 grid, tile leaders paying +1.0/slot against a 30-unit battery)
    under the static schedule vs a balanced 4-cover least-depleted
    rotation - the lifetime-extension factor is their ratio; the
    [repair-solve-*] rows are genuine Bechamel ns-per-call estimates of
    {!Lifetime.Repair.repair} on the minimal wrapped-row window (I-tet,
    8 cells) and on a one-ring-grown window (S-tet, 56 cells) - the
    repair-latency-vs-window-size comparison.  [quota] as in {!run}
    (the simulated rows ignore it: they are exact). *)

val required_lifetime : string list
(** The name substrings {!validate_json} demands of the [BENCH_7.json]
    artifact: the static and rotating lifetime rows and the repair
    solver timings. *)

val run_corpus : ?quota:float -> unit -> row list
(** The corpus suite (EXP-CORPUS), serialized to [BENCH_8.json].  Builds the
    full [n <= 7] verdict corpus (164 canonical classes) in a temp
    directory plus a certificate store holding the same verdicts, then
    measures a single key lookup against each tier: warm
    ([corpus-mmap-find-warm] vs [corpus-store-find-warm], both tiers
    resident, cycling through every key) and cold-start
    ([corpus-mmap-coldstart-find] vs [corpus-store-coldstart-find]:
    open the tier, find one key, close it).  The cold-start pair is the
    headline: {!Store.open_} replays and re-validates its whole log
    before the first answer, {!Corpus.Snapshot.open_} just maps the
    files, so the gap grows linearly with corpus size.  [quota] as in
    {!run}. *)

val required_corpus : string list
(** The name substrings {!validate_json} demands of the [BENCH_8.json]
    artifact: the four {!run_corpus} rows. *)

val run_server : ?quota:float -> exe:string -> unit -> row list
(** The wire-protocol suite (EXP-SRV2), serialized to [BENCH_10.json].
    Builds an [n <= 5] corpus, spawns [exe serve --corpus] on a temp
    Unix socket, and rides the two-key schema with three row families
    in different units: closed-loop warm tile-search throughput under
    each wire dialect ([server-text-warm-rps] vs
    [server-binary-warm-rps], requests/second, with their ratio as
    [server-binary-vs-text-speedup] - the binary codec plus the
    zero-copy corpus splice path is required to clear 5x); the
    open-loop per-request latency percentiles of a 10,000-connection
    binary run ([server-open-10k-p{50,95,99}-us], microseconds); and
    [server-open-10k-dropped], the undecodable-reply count of that
    run, which must be 0.  The closed-loop request count scales with
    [quota] ([quota * 10_000], at least 1000); the 10k-connection run
    is fixed-size.  The run finishes by shutting the spawned server
    down (and kills it if anything raises first). *)

val required_server : string list
(** The name substrings {!validate_json} demands of the [BENCH_10.json]
    artifact: the seven {!run_server} rows. *)

val to_json : row list -> string
(** Serialize rows as a JSON array of two-key objects, one per line.
    Output round-trips through {!validate_json} provided the rows
    include the demanded names. *)

val validate_json : ?required:string list -> string -> (row list, string) result
(** Strict schema check for the benchmark artifacts: a single JSON
    array of objects with exactly the keys ["name"] (string) and
    ["ns_per_call"] (non-negative number) in either order, no trailing
    garbage, and every [required] substring present among the names
    (default {!required}, the [BENCH_5.json] contract; pass
    {!required_skew} for [BENCH_6.json]).  Returns the parsed rows, or
    a message locating the first problem. *)
