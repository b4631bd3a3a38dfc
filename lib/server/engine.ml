open Zgeom
open Lattice

(* What the cache remembers per canonical tile: either a tiling of the
   canonical orientation or the verdict that a bounded search found
   nothing.  A reply derives the schedule (and a certificate from it)
   for the orientation it answers: [Schedule.of_tiling] copies a table
   [Single.make] already built, so keeping one is not worth a field. *)
type entry =
  | Found of Tiling.Single.t
  | Absent

type t = {
  cache : entry Cache.t;
  store : Store.t option;
  corpus : Corpus.Snapshot.t option;
  queue_bound : int;
  deadline : float option;
  pool : Parallel.pool;
  mutable served : int;
  mutable overloaded : int;
  mutable errors : int;
  mutable searches : int;
  mutable coalesced : int;
  mutable timeouts : int;
  mutable store_hits : int;
  mutable corpus_hits : int;
}

let create ?(cache_capacity = 256) ?(queue_bound = 512) ?deadline ?pool ?store ?corpus () =
  if queue_bound < 1 then invalid_arg "Engine.create: queue_bound must be >= 1";
  let pool = match pool with Some p -> p | None -> Parallel.default () in
  { cache = Cache.create ~capacity:cache_capacity; store; corpus; queue_bound; deadline;
    pool; served = 0; overloaded = 0; errors = 0;
    searches = 0; coalesced = 0; timeouts = 0; store_hits = 0; corpus_hits = 0 }

let queue_bound t = t.queue_bound

let corpus t = t.corpus

(* The evloop front end answers warm binary corpus probes on the loop
   thread without entering the engine; it folds those replies back into
   the counters here, from the engine thread, so [stats] stays the one
   source of truth and the counter fields stay single-threaded. *)
let add_corpus_hits t n =
  t.corpus_hits <- t.corpus_hits + n;
  t.served <- t.served + n

let stats t : Protocol.server_stats =
  let cache_hits, cache_misses, cache_evictions = Cache.counters t.cache in
  { served = t.served; overloaded = t.overloaded; errors = t.errors; searches = t.searches;
    coalesced = t.coalesced; timeouts = t.timeouts; cache_hits; cache_misses;
    cache_evictions; cache_entries = Cache.length t.cache; store_hits = t.store_hits;
    corpus_hits = t.corpus_hits }

(* The store keeps the tiling and derives its certificate on [find];
   [Store.put] stores the tiling alone. *)
let entry_of_stored : Store.entry -> entry = function
  | Store.No_tiling -> Absent
  | Store.Found { tiling; certificate = _ } -> Found tiling

let stored_of_entry : entry -> Store.entry = function
  | Absent -> Store.No_tiling
  | Found tiling -> Store.Found { tiling; certificate = Core.Certificate.build tiling }

(* [Tiling.Search.find_tiling] with the wall clock checked before every
   stage: a single stage can overshoot, so the bound is per-stage
   granular.  Returns [None] on timeout, [Some entry] otherwise. *)
let first_hit t tile =
  let deadline = Option.map (fun d -> Unix.gettimeofday () +. d) t.deadline in
  let expired () = match deadline with Some d -> Unix.gettimeofday () >= d | None -> false in
  let rec first stages =
    match stages () with
    | Seq.Nil -> Some Absent
    | Seq.Cons (_, _) when expired () -> None
    | Seq.Cons (stage, rest) -> (
      match stage () with
      | None -> first rest
      | Some tiling -> Some (Found tiling))
  in
  first (Tiling.Search.stages tile)

(* Transport a cached canonical tiling back to the client's orientation.
   If [canonicalize tile] returned witness [g], the canonical cells are
   [g(cells tile) - a] with [a] the lex-min of [g(cells tile)]; a tiling
   [offsets + Lambda] of the canonical tile therefore maps to
   [g^-1(offsets - a) + g^-1(Lambda)] for [tile] itself.  [Single.make]
   revalidates the transported tiling from scratch. *)
let transport ~tile ~g canon_tiling =
  let a =
    Vec.Set.min_elt (Vec.Set.map (Symmetry.apply g) (Prototile.cell_set tile))
  in
  let gi = Symmetry.inverse g in
  let period =
    Sublattice.of_rows
      (List.map (Symmetry.apply gi)
         (Sublattice.generators (Tiling.Single.period canon_tiling)))
  in
  let offsets =
    List.map
      (fun o -> Symmetry.apply gi (Vec.sub o a))
      (Tiling.Single.offsets canon_tiling)
  in
  Tiling.Single.make ~prototile:tile ~period ~offsets

(* Per-request resolution computed in the admission pass. *)
type resolution =
  | Refused
  | Control  (* Stats / Shutdown: answered in the final pass *)
  | Immediate of Protocol.response
  | Tile of {
      tile : Prototile.t;
      canon : Prototile.t;
      g : Symmetry.element;
      key : string;
    }

let answer t (req : Protocol.request) ~tile ~g ~source entry : Protocol.response =
  match entry with
  | Absent -> No_tiling source
  | Found tiling -> (
    let oriented =
      if Prototile.equal tile (Tiling.Single.prototile tiling) then Ok tiling
      else
        Result.map_error
          (( ^ ) "internal: transported tiling invalid: ")
          (transport ~tile ~g tiling)
    in
    match oriented with
    | Error msg ->
      t.errors <- t.errors + 1;
      Error_r msg
    | Ok tl -> (
      match req with
      | Slot { pos; _ } ->
        if Vec.dim pos <> Prototile.dim tile then begin
          t.errors <- t.errors + 1;
          Error_r "pos dimension does not match tile"
        end
        else
          let sched = Core.Schedule.of_tiling tl in
          Slot_r
            { slot = Core.Schedule.slot_at sched pos;
              num_slots = Core.Schedule.num_slots sched; source }
      | Schedule _ -> Schedule_r { schedule = Core.Schedule.of_tiling tl; source }
      | Tile_search _ -> Tiling_r { tiling = tl; certificate = Core.Certificate.build tl; source }
      | Stats | Shutdown -> assert false))

(* Answer straight from the mmap snapshot.  A [Tile_search] for the
   canonical orientation takes the zero-deserialization road: the stored
   tiling line's fields are sliced from the mapped segment and spliced
   verbatim into the reply ([Tiling_raw_r]) - no decode, no revalidation,
   no allocation beyond the reply line itself.  Every other shape
   (slot/schedule derivation, congruent orientations needing transport)
   decodes the tiling alone through [Snapshot.tiling] and reuses the
   ordinary [answer] path, which builds one schedule, for the
   orientation it answers, and only when the reply needs one.  Corpus hits never populate the LRU: the
   snapshot lookup is already O(log) in a mapped index, so promotion
   would only evict entries the slower tiers still need. *)
let answer_corpus t (req : Protocol.request) ~tile ~canon ~g corpus hit : Protocol.response =
  let source = Some Protocol.Corpus in
  match Corpus.Snapshot.verdict corpus hit with
  | `Non_exact -> No_tiling source
  | `Exact -> (
    match req with
    | Tile_search _ when Prototile.equal tile canon ->
      Tiling_raw_r { tiling_fields = Corpus.Snapshot.tiling_fields corpus hit; source }
    | _ -> (
      match Corpus.Snapshot.tiling corpus hit with
      | Ok (Some tiling) ->
        answer t req ~tile ~g ~source (Found tiling)
      | Ok None -> assert false (* verdict above was [`Exact] *)
      | Error msg ->
        t.errors <- t.errors + 1;
        Error_r ("corpus: " ^ msg)))

let handle_batch t reqs =
  (* Pass 1: admission control, canonicalization, tiered lookup (the
     mmap corpus snapshot first - it is read-only and O(log) to probe -
     then memory, then the persistent store; a store hit is promoted
     into the LRU so congruent followers hit memory). *)
  let resolutions =
    List.mapi
      (fun i (req : Protocol.request) ->
        if i >= t.queue_bound then Refused
        else
          match req with
          | Stats | Shutdown -> Control
          | Slot { tile; _ } | Schedule tile | Tile_search tile ->
            let canon, g = Symmetry.canonicalize tile in
            let key = Corpus.Layout.key_of_cells canon in
            (match
               Option.bind t.corpus (fun c ->
                   Option.map (fun h -> (c, h)) (Corpus.Snapshot.find c key))
             with
            | Some (c, hit) ->
              t.corpus_hits <- t.corpus_hits + 1;
              Immediate (answer_corpus t req ~tile ~canon ~g c hit)
            | None ->
            match Cache.find t.cache key with
            | Some entry ->
              Immediate (answer t req ~tile ~g ~source:(Some Protocol.Memory) entry)
            | None -> (
              match Option.bind t.store (fun store -> Store.find store key) with
              | Some stored ->
                let entry = entry_of_stored stored in
                Cache.add t.cache key entry;
                t.store_hits <- t.store_hits + 1;
                Immediate (answer t req ~tile ~g ~source:(Some Protocol.Store) entry)
              | None -> Tile { tile; canon; g; key })))
      reqs
  in
  (* Pass 2: coalesce misses by canonical key (first-occurrence order)
     and search the distinct keys concurrently.  Timeouts are not
     cached. *)
  let missing = ref [] in
  let seen = Hashtbl.create 16 in
  List.iter
    (function
      | Tile { key; canon; _ } ->
        if Hashtbl.mem seen key then t.coalesced <- t.coalesced + 1
        else begin
          Hashtbl.add seen key ();
          (* Search the canonical orientation so the cached entry is
             canonical regardless of which orientation missed first. *)
          missing := (key, canon) :: !missing
        end
      | _ -> ())
    resolutions;
  let missing = List.rev !missing in
  t.searches <- t.searches + List.length missing;
  let results =
    Parallel.map t.pool (fun (key, canon) -> (key, first_hit t canon)) missing
  in
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun (key, result) ->
      (match result with
      | Some entry ->
        Cache.add t.cache key entry;
        (* Write-through: completed verdicts (either way) are durable;
           timeouts are not persisted, like they are not cached. *)
        Option.iter (fun store -> Store.put store key (stored_of_entry entry)) t.store
      | None -> t.timeouts <- t.timeouts + 1);
      Hashtbl.replace by_key key result)
    results;
  (* Pass 3: answers in request order. *)
  List.map2
    (fun (req : Protocol.request) resolution ->
      let resp : Protocol.response =
        match resolution with
        | Refused ->
          t.overloaded <- t.overloaded + 1;
          Overloaded
        | Control -> (
          match req with
          | Stats -> Stats_r (stats t)
          | Shutdown -> Shutting_down
          | _ -> assert false)
        | Immediate r -> r
        | Tile { tile; g; key; _ } -> (
          match Hashtbl.find by_key key with
          | None -> Deadline_exceeded
          | Some entry -> answer t req ~tile ~g ~source:(Some Protocol.Fresh) entry)
      in
      (match resp with Overloaded -> () | _ -> t.served <- t.served + 1);
      resp)
    reqs resolutions

let handle t req = match handle_batch t [ req ] with [ r ] -> r | _ -> assert false
