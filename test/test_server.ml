(* Tests for the schedule server: LRU cache, canonicalizing cache keys,
   orientation transport, request coalescing, backpressure, deadlines,
   the wire protocol, the line front end, and load-generator
   determinism across pool sizes. *)

open Lattice
module Cache = Server.Cache
module Protocol = Server.Protocol
module Engine = Server.Engine
module Frontend = Server.Frontend
module Loadgen = Server.Loadgen

let qc = QCheck_alcotest.to_alcotest

let tet c = Prototile.tetromino c
let v2 = Zgeom.Vec.make2

(* ---------- cache ---------- *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Alcotest.(check (option int)) "a hit" (Some 1) (Cache.find c "a");
  (* "b" is now LRU; inserting "c" evicts it. *)
  Cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Cache.find c "c");
  Alcotest.(check int) "length" 2 (Cache.length c);
  let hits, misses, evictions = Cache.counters c in
  Alcotest.(check (list int)) "counters" [ 3; 1; 1 ] [ hits; misses; evictions ]

let test_cache_replace_not_eviction () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "a" 2;
  Cache.add c "b" 3;
  let _, _, evictions = Cache.counters c in
  Alcotest.(check int) "no eviction on replace" 0 evictions;
  Alcotest.(check (option int)) "replaced" (Some 2) (Cache.find c "a")

let test_cache_to_alist_lru_order () =
  let c = Cache.create ~capacity:3 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  Alcotest.(check (list (pair string int)))
    "MRU first" [ ("c", 3); ("b", 2); ("a", 1) ] (Cache.to_alist c);
  (* A hit reorders; to_alist must see the new recency order... *)
  ignore (Cache.find c "a");
  Alcotest.(check (list (pair string int)))
    "hit promotes" [ ("a", 1); ("c", 3); ("b", 2) ] (Cache.to_alist c);
  (* ...but to_alist itself must not touch recency or the counters. *)
  let counters_before = Cache.counters c in
  Alcotest.(check (list (pair string int)))
    "to_alist left order unchanged" [ ("a", 1); ("c", 3); ("b", 2) ] (Cache.to_alist c);
  let h, m, e = counters_before and h', m', e' = Cache.counters c in
  Alcotest.(check (list int)) "counters untouched" [ h; m; e ] [ h'; m'; e' ]

(* ---------- canonical keys ---------- *)

let test_congruent_tiles_share_entry () =
  let e = Engine.create ~queue_bound:16 () in
  List.iter
    (fun tile -> ignore (Engine.handle e (Protocol.Schedule tile)))
    [ tet `S; tet `Z; tet `L; tet `J; Prototile.rect 2 3; Prototile.rect 3 2 ];
  let s = Engine.stats e in
  Alcotest.(check int) "three canonical classes" 3 s.Protocol.cache_entries;
  Alcotest.(check int) "three misses" 3 s.Protocol.cache_misses;
  Alcotest.(check int) "three hits" 3 s.Protocol.cache_hits;
  Alcotest.(check int) "three searches" 3 s.Protocol.searches

(* Every orientation of every catalogued tile must be answered with a
   valid tiling/certificate for *that* orientation, transported from the
   one cached canonical entry. *)
let orientations tile =
  let rec rots k t = if k = 0 then [] else t :: rots (k - 1) (Prototile.rot90 t) in
  rots 4 tile @ rots 4 (Prototile.reflect tile)

let test_transport_all_orientations () =
  let e = Engine.create ~queue_bound:16 () in
  List.iter
    (fun base ->
      List.iter
        (fun tile ->
          match Engine.handle e (Protocol.Tile_search tile) with
          | Protocol.Tiling_r { tiling; certificate; _ } ->
            Alcotest.(check bool)
              "tiling is for the requested orientation" true
              (Prototile.equal (Tiling.Single.prototile tiling) tile);
            (match Core.Certificate.check certificate with
            | Ok () -> ()
            | Error f ->
              Alcotest.failf "certificate rejected: %a" Core.Certificate.pp_failure f)
          | _ -> Alcotest.fail "expected a tiling")
        (orientations base))
    [ tet `S; tet `L; tet `T; Prototile.pentomino `P ];
  (* 4 canonical classes, 32 requests: 28 hits. *)
  let s = Engine.stats e in
  Alcotest.(check int) "entries" 4 s.Protocol.cache_entries;
  Alcotest.(check int) "hits" 28 s.Protocol.cache_hits

let test_slot_matches_schedule () =
  let e = Engine.create () in
  List.iter
    (fun tile ->
      let sched =
        match Engine.handle e (Protocol.Schedule tile) with
        | Protocol.Schedule_r { schedule; _ } -> schedule
        | _ -> Alcotest.fail "expected schedule"
      in
      for x = -3 to 3 do
        for y = -3 to 3 do
          match Engine.handle e (Protocol.Slot { tile; pos = v2 x y }) with
          | Protocol.Slot_r { slot; num_slots; _ } ->
            Alcotest.(check int) "m" (Prototile.size tile) num_slots;
            Alcotest.(check int) "slot" (Core.Schedule.slot_at sched (v2 x y)) slot
          | _ -> Alcotest.fail "expected slot"
        done
      done)
    [ tet `Z; Prototile.rect 3 2 ]

(* ---------- coalescing / backpressure / deadlines ---------- *)

let test_coalescing () =
  let e = Engine.create ~queue_bound:64 () in
  let reqs = List.init 10 (fun _ -> Protocol.Schedule (tet `S)) in
  let resps = Engine.handle_batch e reqs in
  Alcotest.(check int) "all answered" 10 (List.length resps);
  List.iter
    (function Protocol.Schedule_r _ -> () | _ -> Alcotest.fail "expected schedule")
    resps;
  let s = Engine.stats e in
  Alcotest.(check int) "misses" 10 s.Protocol.cache_misses;
  Alcotest.(check int) "searches" 1 s.Protocol.searches;
  Alcotest.(check int) "coalesced" 9 s.Protocol.coalesced;
  Alcotest.(check int) "entries" 1 s.Protocol.cache_entries

let test_backpressure () =
  let e = Engine.create ~queue_bound:4 () in
  let reqs = List.init 10 (fun _ -> Protocol.Schedule (tet `O)) in
  let resps = Engine.handle_batch e reqs in
  let statuses =
    List.map (function Protocol.Overloaded -> "over" | _ -> "answered") resps
  in
  Alcotest.(check (list string))
    "first queue_bound admitted, rest refused"
    (List.init 10 (fun i -> if i < 4 then "answered" else "over"))
    statuses;
  let s = Engine.stats e in
  Alcotest.(check int) "overloaded" 6 s.Protocol.overloaded;
  Alcotest.(check int) "served" 4 s.Protocol.served

let test_deadline_zero () =
  let e = Engine.create ~deadline:0.0 () in
  (match Engine.handle e (Protocol.Schedule (tet `S)) with
  | Protocol.Deadline_exceeded -> ()
  | _ -> Alcotest.fail "expected deadline");
  let s = Engine.stats e in
  Alcotest.(check int) "timeout counted" 1 s.Protocol.timeouts;
  Alcotest.(check int) "timeouts are not cached" 0 s.Protocol.cache_entries

(* A fresh miss runs exactly [Tiling.Search.find_tiling]: on canonical
   tiles (so no transport is involved) an engine with no corpus and no
   store answers [src=fresh] with the very tiling the library search
   returns, or [No_tiling] when it returns none. *)
let test_fresh_search_is_find_tiling () =
  let rng = Prng.Xoshiro.create 14L in
  let random = List.init 24 (fun i -> Randomtile.polyomino rng ~cells:(1 + (i mod 7))) in
  let cells l = Prototile.of_cells (List.map (fun (x, y) -> v2 x y) l) in
  let fixed =
    [ cells [ (0, 0); (2, 0) ];
      cells [ (0, 0); (2, 0); (0, 2); (2, 2) ];
      (* The F pentomino: no Beauquier-Nivat factorization, no tiling. *)
      cells [ (0, 0); (1, 0); (-1, 1); (0, 1); (0, 2) ] ]
  in
  let key t =
    ( Lattice.Sublattice.generators (Tiling.Single.period t),
      Tiling.Single.offsets t,
      Prototile.cells (Tiling.Single.prototile t) )
  in
  List.iter
    (fun tile ->
      let tile = Symmetry.canonical tile in
      let name = Prototile.to_string tile in
      let reply = Engine.handle (Engine.create ()) (Protocol.Tile_search tile) in
      match (reply, Tiling.Search.find_tiling tile) with
      | Protocol.Tiling_r { tiling; source = Some Protocol.Fresh; _ }, Some expected ->
        Alcotest.(check bool)
          (name ^ ": same tiling as find_tiling")
          true
          (key tiling = key expected)
      | Protocol.No_tiling (Some Protocol.Fresh), None -> ()
      | _ -> Alcotest.failf "%s: reply disagrees with find_tiling" name)
    (fixed @ random)

let test_no_tiling_cached () =
  (* {0,1,3} in Z has no tiling with period <= 4*3: every difference is
     forbidden mod 6, and the mod-9/mod-12 cases die by the same residue
     arithmetic - so the bounded search proves Absent, which must be
     cached like any other result. *)
  let v1 x = Zgeom.Vec.of_list [ x ] in
  let tile = Prototile.of_cells [ v1 0; v1 1; v1 3 ] in
  let e = Engine.create () in
  let r1 = Engine.handle e (Protocol.Schedule tile) in
  let r2 = Engine.handle e (Protocol.Schedule tile) in
  (match (r1, r2) with
  | Protocol.No_tiling _, Protocol.No_tiling _ -> ()
  | _ -> Alcotest.fail "expected No_tiling twice");
  let s = Engine.stats e in
  Alcotest.(check int) "absence cached" 1 s.Protocol.cache_hits;
  Alcotest.(check int) "one search" 1 s.Protocol.searches

let test_pos_dim_mismatch () =
  let e = Engine.create () in
  match
    Engine.handle e (Protocol.Slot { tile = tet `S; pos = Zgeom.Vec.of_list [ 1; 2; 3 ] })
  with
  | Protocol.Error_r _ -> ()
  | _ -> Alcotest.fail "expected error reply"

(* ---------- protocol ---------- *)

let roundtrip_req req =
  match Protocol.request_of_string (Protocol.request_to_string ~id:7 req) with
  | Ok (Some 7, req') -> req' = req
  | _ -> false

let test_request_roundtrip () =
  List.iter
    (fun req -> Alcotest.(check bool) "roundtrip" true (roundtrip_req req))
    [ Protocol.Slot { tile = tet `S; pos = v2 3 (-4) }; Protocol.Schedule (tet `J);
      Protocol.Tile_search (Prototile.chebyshev_ball ~dim:2 1); Protocol.Stats;
      Protocol.Shutdown ]

let test_response_roundtrip () =
  let tiling =
    match Tiling.Search.find_tiling (tet `S) with
    | Some t -> t
    | None -> Alcotest.fail "S tiles"
  in
  let sched = Core.Schedule.of_tiling tiling in
  let check_rt resp ok =
    match Protocol.response_of_string (Protocol.response_to_string ~id:3 resp) with
    | Ok (Some 3, resp') -> Alcotest.(check bool) "roundtrip" true (ok resp')
    | Ok (_, _) -> Alcotest.fail "id lost"
    | Error e -> Alcotest.fail e
  in
  check_rt
    (Protocol.Slot_r { slot = 2; num_slots = 4; source = Some Protocol.Memory })
    (fun r -> r = Protocol.Slot_r { slot = 2; num_slots = 4; source = Some Protocol.Memory });
  check_rt (Protocol.Schedule_r { schedule = sched; source = None }) (function
    | Protocol.Schedule_r { schedule = s; source = None } ->
      List.for_all
        (fun v -> Core.Schedule.slot_at s v = Core.Schedule.slot_at sched v)
        (Sublattice.cosets (Core.Schedule.period sched))
    | _ -> false);
  check_rt
    (Protocol.Tiling_r
       { tiling; certificate = Core.Certificate.build tiling; source = Some Protocol.Store })
    (function
      | Protocol.Tiling_r { tiling = t; certificate; source = Some Protocol.Store } ->
        Prototile.equal (Tiling.Single.prototile t) (tet `S)
        && Core.Certificate.check certificate = Ok ()
      | _ -> false);
  check_rt (Protocol.No_tiling (Some Protocol.Fresh)) (fun r ->
      r = Protocol.No_tiling (Some Protocol.Fresh));
  check_rt (Protocol.No_tiling None) (fun r -> r = Protocol.No_tiling None);
  check_rt Protocol.Overloaded (fun r -> r = Protocol.Overloaded);
  check_rt (Protocol.Error_r "boom | pipe") (function
    | Protocol.Error_r _ -> true
    | _ -> false)

(* Lines from servers predating the store carry neither [src] nor
   [store_hits]; the decoders must accept them (absent source = [None],
   absent counter = 0). *)
let strip_field line field =
  String.split_on_char '|' line
  |> List.filter (fun kv ->
         not (String.length kv > String.length field
             && String.sub kv 0 (String.length field + 1) = field ^ "="))
  |> String.concat "|"

let test_old_format_lines_decode () =
  let line =
    Protocol.response_to_string ~id:4
      (Protocol.Slot_r { slot = 1; num_slots = 5; source = Some Protocol.Store })
  in
  let old_line = strip_field line "src" in
  Alcotest.(check bool) "src actually stripped" true (old_line <> line);
  (match Protocol.response_of_string old_line with
  | Ok (Some 4, Protocol.Slot_r { slot = 1; num_slots = 5; source = None }) -> ()
  | _ -> Alcotest.fail "pre-store slot line must decode with source = None");
  let e = Engine.create () in
  let stats_line =
    match Engine.handle e Protocol.Stats with
    | Protocol.Stats_r _ as r -> Protocol.response_to_string r
    | _ -> Alcotest.fail "expected stats"
  in
  let old_stats = strip_field stats_line "store_hits" in
  Alcotest.(check bool) "store_hits actually stripped" true (old_stats <> stats_line);
  match Protocol.response_of_string old_stats with
  | Ok (_, Protocol.Stats_r s) ->
    Alcotest.(check int) "absent store_hits defaults to 0" 0 s.Protocol.store_hits
  | _ -> Alcotest.fail "pre-store stats line must decode"

(* Decoders must be total under single-character corruption. *)
let mutate_gen line =
  let open QCheck.Gen in
  let n = String.length line in
  oneof
    [ (* substitute *)
      (let* i = int_bound (n - 1) in
       let* c = printable in
       return (String.mapi (fun j x -> if j = i then c else x) line));
      (* delete one char *)
      (let* i = int_bound (n - 1) in
       return (String.sub line 0 i ^ String.sub line (i + 1) (n - i - 1)));
      (* truncate *)
      (let* i = int_bound (n - 1) in
       return (String.sub line 0 i));
      (* swap adjacent *)
      (let* i = int_bound (max 0 (n - 2)) in
       let b = Bytes.of_string line in
       if n >= 2 then begin
         let t = Bytes.get b i in
         Bytes.set b i (Bytes.get b (i + 1));
         Bytes.set b (i + 1) t
       end;
       return (Bytes.to_string b)) ]

let test_protocol_fuzz =
  let lines =
    [ Protocol.request_to_string ~id:12 (Protocol.Slot { tile = tet `S; pos = v2 1 2 });
      Protocol.request_to_string (Protocol.Tile_search (Prototile.rect 2 3));
      Protocol.response_to_string ~id:9
        (Protocol.Slot_r { slot = 1; num_slots = 4; source = Some Protocol.Memory });
      (match Engine.handle (Engine.create ()) (Protocol.Schedule (tet `L)) with
      | Protocol.Schedule_r _ as r -> Protocol.response_to_string r
      | _ -> assert false);
      (match Engine.handle (Engine.create ()) (Protocol.Tile_search (tet `L)) with
      | Protocol.Tiling_r _ as r -> Protocol.response_to_string r
      | _ -> assert false) ]
  in
  QCheck.Test.make ~count:500 ~name:"mutated protocol lines never raise"
    QCheck.(make Gen.(oneof (List.map mutate_gen lines)))
    (fun line ->
      (match Protocol.request_of_string line with Ok _ | Error _ -> ());
      (match Protocol.response_of_string line with Ok _ | Error _ -> ());
      true)

(* ---------- front end ---------- *)

let test_handle_lines_merges_errors () =
  let e = Engine.create () in
  let good = Protocol.request_to_string ~id:1 Protocol.Stats in
  let lines, shutdown = Frontend.handle_lines e [ "garbage"; good; "also-garbage" ] in
  Alcotest.(check bool) "no shutdown" false shutdown;
  (match List.map Protocol.response_of_string lines with
  | [ Ok (None, Protocol.Error_r _); Ok (Some 1, Protocol.Stats_r _);
      Ok (None, Protocol.Error_r _) ] ->
    ()
  | _ -> Alcotest.fail "positions not preserved");
  let lines, shutdown =
    Frontend.handle_lines e [ Protocol.request_to_string Protocol.Shutdown ]
  in
  Alcotest.(check bool) "shutdown flagged" true shutdown;
  Alcotest.(check int) "one reply" 1 (List.length lines)

(* ---------- load generator ---------- *)

let small_config =
  { Loadgen.default with Loadgen.requests = 500; clients = 6; seed = 42L }

let run_at_jobs jobs config =
  Parallel.with_pool ~jobs (fun pool ->
      let e = Engine.create ~cache_capacity:64 ~queue_bound:64 ~pool () in
      Loadgen.run e config)

let deterministic_summary r = Format.asprintf "%a" Loadgen.pp_report r

let test_loadgen_deterministic_across_jobs () =
  let r1 = run_at_jobs 1 small_config in
  let r2 = run_at_jobs 2 small_config in
  let r4 = run_at_jobs 4 small_config in
  Alcotest.(check string) "jobs 1 = jobs 2" (deterministic_summary r1)
    (deterministic_summary r2);
  Alcotest.(check string) "jobs 1 = jobs 4" (deterministic_summary r1)
    (deterministic_summary r4);
  Alcotest.(check string) "checksums agree" r1.Loadgen.checksum r2.Loadgen.checksum

let test_loadgen_acceptance () =
  (* The acceptance demo: 10k skewed requests, clients under the queue
     bound: high hit rate, zero overloads, everything completes. *)
  let config = { Loadgen.default with Loadgen.seed = 7L } in
  let r = run_at_jobs 2 config in
  Alcotest.(check int) "all completed" 10_000 r.Loadgen.completed;
  Alcotest.(check int) "no overloads below the bound" 0 r.Loadgen.overloaded_replies;
  Alcotest.(check int) "no errors" 0 r.Loadgen.errors;
  Alcotest.(check bool) "hit rate above 90%" true (r.Loadgen.hit_rate > 0.9)

let test_loadgen_overload () =
  (* More clients than the queue bound: every round overflows, yet every
     request completes via retries and the refusals are explicit. *)
  let config = { small_config with Loadgen.clients = 24 } in
  let r =
    Parallel.with_pool ~jobs:2 (fun pool ->
        let e = Engine.create ~cache_capacity:64 ~queue_bound:8 ~pool () in
        Loadgen.run e config)
  in
  Alcotest.(check int) "all completed despite overload" 500 r.Loadgen.completed;
  Alcotest.(check bool) "overloads happened" true (r.Loadgen.overloaded_replies > 0);
  Alcotest.(check bool) "server never dropped silently" true
    (r.Loadgen.server.Protocol.overloaded = r.Loadgen.overloaded_replies)

let () =
  Alcotest.run "server"
    [
      ( "cache",
        [
          Alcotest.test_case "LRU eviction and counters" `Quick test_cache_lru;
          Alcotest.test_case "replace is not eviction" `Quick
            test_cache_replace_not_eviction;
          Alcotest.test_case "to_alist in recency order" `Quick
            test_cache_to_alist_lru_order;
        ] );
      ( "canonicalization",
        [
          Alcotest.test_case "congruent tiles share an entry" `Quick
            test_congruent_tiles_share_entry;
          Alcotest.test_case "transport to all 8 orientations" `Slow
            test_transport_all_orientations;
          Alcotest.test_case "slot agrees with schedule" `Quick
            test_slot_matches_schedule;
        ] );
      ( "engine",
        [
          Alcotest.test_case "identical misses coalesce" `Quick test_coalescing;
          Alcotest.test_case "backpressure beyond queue bound" `Quick test_backpressure;
          Alcotest.test_case "deadline 0 answers Deadline_exceeded" `Quick
            test_deadline_zero;
          Alcotest.test_case "fresh search = find_tiling" `Quick test_fresh_search_is_find_tiling;
          Alcotest.test_case "no-tiling results are cached" `Slow test_no_tiling_cached;
          Alcotest.test_case "pos dimension mismatch" `Quick test_pos_dim_mismatch;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "pre-store lines still decode" `Quick
            test_old_format_lines_decode;
          qc test_protocol_fuzz;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "handle_lines merges parse errors" `Quick
            test_handle_lines_merges_errors;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "deterministic across -j" `Slow
            test_loadgen_deterministic_across_jobs;
          Alcotest.test_case "acceptance: 10k skewed requests" `Slow
            test_loadgen_acceptance;
          Alcotest.test_case "overload: explicit refusals, no drops" `Quick
            test_loadgen_overload;
        ] );
    ]
