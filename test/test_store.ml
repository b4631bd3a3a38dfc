(* Tests for the persistent certificate store: free-polyomino
   enumeration (the offline producer's domain), log roundtrips and
   supersede/compaction semantics, crash-recovery under truncation and
   bit-flip corruption, and the engine's store tier (source markers,
   warm-start without searches). *)

open Lattice
module Protocol = Server.Protocol
module Engine = Server.Engine

let tet c = Prototile.tetromino c
let v2 = Zgeom.Vec.make2

let with_temp_store f =
  let path = Filename.temp_file "tilesched-store" ".log" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let found_entry tile =
  match Tiling.Search.find_tiling tile with
  | Some tiling -> Store.Found { tiling; certificate = Core.Certificate.build tiling }
  | None -> Alcotest.failf "expected a tiling for a %d-cell tile" (Prototile.size tile)

(* ---------- enumeration (OEIS A000105) ---------- *)

let test_enumerate_counts () =
  List.iteri
    (fun i expected ->
      let n = i + 1 in
      Alcotest.(check int)
        (Printf.sprintf "free polyominoes of area %d" n)
        expected
        (List.length (Polyomino.enumerate_free n)))
    [ 1; 1; 2; 5; 12; 35; 108 ]

let test_enumerate_canonical_reps () =
  List.iter
    (fun n ->
      let tiles = Polyomino.enumerate_free n in
      List.iter
        (fun tile ->
          Alcotest.(check int) "area" n (Prototile.size tile);
          Alcotest.(check bool) "connected polyomino" true (Polyomino.is_polyomino tile);
          Alcotest.(check bool)
            "is its own canonical representative" true
            (Prototile.equal tile (Symmetry.canonical tile)))
        tiles;
      let distinct = List.sort_uniq Prototile.compare tiles in
      Alcotest.(check int) "no duplicate classes" (List.length tiles) (List.length distinct))
    [ 1; 2; 3; 4; 5 ];
  (* The corpus campaign keys each streamed tile by its own cells, so the
     streaming enumerator must yield canonical representatives too. *)
  let streamed = ref 0 in
  Polyomino.enumerate_free_iter ~max_area:8 (fun ~area tile ->
      incr streamed;
      Alcotest.(check int) "streamed area" area (Prototile.size tile);
      if not (Prototile.equal tile (Symmetry.canonical tile)) then
        Alcotest.failf "streamed tile of area %d is not its own canonical representative" area);
  Alcotest.(check int) "free polyominoes of area <= 8" (1 + 1 + 2 + 5 + 12 + 35 + 108 + 369)
    !streamed

(* ---------- log roundtrip / supersede / compaction ---------- *)

let test_crc32_vector () =
  (* The classic IEEE 802.3 check value. *)
  Alcotest.(check int32) "crc32(123456789)" 0xCBF43926l (Core.Crc32.of_string "123456789");
  (* The wire trailer is the same checksum, accumulated then emitted
     little-endian. *)
  Alcotest.(check string) "wire trailer of 123456789" "\x26\x39\xf4\xcb"
    (Server.Wire.crc_emit (Server.Wire.crc_string Server.Wire.crc_init "123456789" 0 9))

let test_roundtrip_supersede_compact () =
  with_temp_store (fun path ->
      let canon = Symmetry.canonical (tet `S) in
      let key = Store.key_of_prototile canon in
      let one = Prototile.of_cells [ v2 0 0 ] in
      let kone = Store.key_of_prototile one in
      let store = Store.open_ path in
      Store.put store key Store.No_tiling;
      Store.put store key (found_entry canon) (* supersedes the record above *);
      Store.put store kone Store.No_tiling;
      Alcotest.(check int) "live entries" 2 (Store.length store);
      Store.close store;
      let store = Store.open_ path in
      let r = Store.recovery store in
      Alcotest.(check int) "all three frames replayed" 3 r.Store.records;
      Alcotest.(check int) "two live keys" 2 r.Store.live;
      Alcotest.(check int) "nothing dropped" 0 r.Store.dropped;
      Alcotest.(check int) "nothing truncated" 0 r.Store.truncated_bytes;
      (match Store.find store key with
      | Some (Store.Found { tiling; certificate }) ->
        Alcotest.(check bool)
          "later record supersedes" true
          (Prototile.equal (Tiling.Single.prototile tiling) canon);
        Alcotest.(check bool) "certificate checks" true
          (Core.Certificate.check certificate = Ok ())
      | _ -> Alcotest.fail "expected the superseding Found record");
      (match Store.find store kone with
      | Some Store.No_tiling -> ()
      | _ -> Alcotest.fail "No_tiling record lost across reopen");
      Store.compact store;
      Store.close store;
      let store = Store.open_ path in
      let r = Store.recovery store in
      Alcotest.(check int) "compaction dropped the dead frame" 2 r.Store.records;
      Alcotest.(check int) "live set preserved" 2 r.Store.live;
      let keys = Store.fold store ~init:[] ~f:(fun acc k _ -> k :: acc) in
      Alcotest.(check (list string))
        "fold in ascending key order"
        (List.sort compare [ key; kone ])
        (List.rev keys);
      Store.close store)

let test_put_validation () =
  with_temp_store (fun path ->
      let store = Store.open_ path in
      let canon = Symmetry.canonical (tet `S) in
      let rotated = Prototile.rot90 canon in
      Alcotest.(check bool)
        "rotated S is not canonical" false
        (Prototile.equal rotated (Symmetry.canonical rotated));
      (* A Found entry must be keyed by its own canonical orientation. *)
      (match Store.put store (Store.key_of_prototile rotated) (found_entry rotated) with
      | () -> Alcotest.fail "expected Invalid_argument for a non-canonical tiling"
      | exception Invalid_argument _ -> ());
      (match Store.put store "0,0;9,9" (found_entry canon) with
      | () -> Alcotest.fail "expected Invalid_argument for a mismatched key"
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "nothing stored" 0 (Store.length store);
      Store.close store)

let test_auto_compaction () =
  with_temp_store (fun path ->
      let store = Store.open_ ~auto_compact_ratio:0.5 path in
      let one = Prototile.of_cells [ v2 0 0 ] in
      let key = Store.key_of_prototile one in
      (* Rewrite one key many times: dead records pile up and must
         trigger a snapshot without being asked. *)
      for _ = 1 to 64 do
        Store.put store key Store.No_tiling
      done;
      Alcotest.(check bool) "auto-compacted" true (Store.compactions store > 0);
      Alcotest.(check int) "one live key" 1 (Store.length store);
      Store.close store;
      let store = Store.open_ path in
      Alcotest.(check bool)
        "log shrank to the live set"
        true
        ((Store.recovery store).Store.records < 64);
      Store.close store)

(* ---------- crash recovery ---------- *)

(* A small but representative log: one Found tetromino, one Found
   singleton, one No_tiling. *)
let sample_log_bytes () =
  let path = Filename.temp_file "tilesched-store" ".log" in
  let store = Store.open_ path in
  let put tile entry = Store.put store (Store.key_of_prototile tile) entry in
  let s = Symmetry.canonical (tet `S) in
  let one = Prototile.of_cells [ v2 0 0 ] in
  let bar = Symmetry.canonical (Prototile.of_cells [ v2 0 0; v2 1 0 ]) in
  put s (found_entry s);
  put one (found_entry one);
  put bar Store.No_tiling;
  Store.close store;
  let data = read_file path in
  Sys.remove path;
  data

let test_truncation_every_offset () =
  let data = sample_log_bytes () in
  let n = String.length data in
  with_temp_store (fun path ->
      let last_records = ref (-1) in
      for k = 0 to n do
        write_file path (String.sub data 0 k);
        let store = Store.open_ path (* must never raise *) in
        let r = Store.recovery store in
        Alcotest.(check int) "CRC-valid prefixes never drop records" 0 r.Store.dropped;
        if k = n then
          Alcotest.(check int) "full log replays everything" 3 r.Store.records;
        (* Longest-valid-prefix: the record count is monotone in the
           prefix length. *)
        if r.Store.records < !last_records then
          Alcotest.failf "records went backwards at offset %d" k;
        last_records := max !last_records r.Store.records;
        Store.close store;
        (* The repair truncated the torn tail: a reopen is clean. *)
        let store = Store.open_ path in
        let r2 = Store.recovery store in
        Alcotest.(check int) "reopen after repair is clean" 0 r2.Store.truncated_bytes;
        Alcotest.(check int) "repair kept every valid record" r.Store.records r2.Store.records;
        Store.close store
      done)

let test_bitflip_never_served_invalid () =
  let data = sample_log_bytes () in
  let n = String.length data in
  with_temp_store (fun path ->
      for i = 0 to n - 1 do
        for bit = 0 to 7 do
          let b = Bytes.of_string data in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          write_file path (Bytes.to_string b);
          let store = Store.open_ path (* must never raise *) in
          (* Whatever survived recovery must be trustworthy: every
             Found entry re-checked, no corrupt certificate served. *)
          Store.fold store ~init:() ~f:(fun () key entry ->
              match entry with
              | Store.No_tiling -> ()
              | Store.Found { tiling; certificate } ->
                Alcotest.(check bool)
                  "served key matches tiling" true
                  (String.equal key
                     (Store.key_of_prototile (Tiling.Single.prototile tiling)));
                Alcotest.(check bool)
                  "served certificate checks" true
                  (Core.Certificate.check certificate = Ok ()));
          Store.close store
        done
      done)

(* A frame can pass its CRC and still carry a false proof: here the
   T-tetromino's schedule puts every sensor in slot 0.  Recovery must
   re-prove it, drop it, and keep serving the records on both sides. *)
let test_rejected_certificate_dropped () =
  let frame payload =
    let header = Bytes.create 9 in
    Bytes.set header 0 'R';
    Bytes.set_int32_le header 1 (Int32.of_int (String.length payload));
    Bytes.set_int32_le header 5 (Core.Crc32.of_string payload);
    Bytes.to_string header ^ payload
  in
  let tee = Symmetry.canonical (tet `T) in
  let key = Store.key_of_prototile tee in
  let tiling =
    match found_entry tee with Store.Found { tiling; _ } -> tiling | Store.No_tiling -> assert false
  in
  let cert = Core.Certificate.build tiling in
  let period = Core.Schedule.period cert.schedule in
  let colliding =
    { cert with
      schedule =
        Core.Schedule.of_table ~period ~num_slots:(Core.Schedule.num_slots cert.schedule)
          (Array.make (Sublattice.index period) 0) }
  in
  (match Oracle.Reference.check colliding with
  | Error (Core.Certificate.Not_collision_free _) -> ()
  | _ -> Alcotest.fail "the forged schedule must collide");
  let forged =
    frame
      (String.concat "\n"
         [ Core.Codec.encode_record ~kind:"store" [ ("key", key); ("status", "found") ];
           Core.Codec.tiling_to_string tiling; Core.Certificate.to_string colliding ])
  in
  (* One more valid record after the forged frame. *)
  let ell = Symmetry.canonical (tet `L) in
  let after =
    with_temp_store (fun path ->
        let store = Store.open_ path in
        Store.put store (Store.key_of_prototile ell) (found_entry ell);
        Store.close store;
        let data = read_file path in
        String.sub data 8 (String.length data - 8))
  in
  let others =
    List.map Store.key_of_prototile
      [ Symmetry.canonical (tet `S); Prototile.of_cells [ v2 0 0 ];
        Symmetry.canonical (Prototile.of_cells [ v2 0 0; v2 1 0 ]); ell ]
  in
  with_temp_store (fun path ->
      write_file path (sample_log_bytes () ^ forged ^ after);
      let store = Store.open_ path in
      let r = Store.recovery store in
      Alcotest.(check int) "the forged frame is dropped" 1 r.Store.dropped;
      Alcotest.(check int) "nothing truncated" 0 r.Store.truncated_bytes;
      Alcotest.(check int) "every other frame replayed" 4 r.Store.records;
      Alcotest.(check bool) "the forged key is absent" false (Store.mem store key);
      List.iter
        (fun k ->
          match Store.find store k with
          | Some Store.No_tiling -> ()
          | Some (Store.Found { certificate; _ }) ->
            Alcotest.(check bool) "served certificate checks" true
              (Core.Certificate.check certificate = Ok ())
          | None -> Alcotest.failf "record %s lost next to the forged frame" k)
        others;
      Alcotest.(check int) "live set is the other records" 4 (Store.length store);
      Store.close store)

(* ---------- engine integration ---------- *)

let test_engine_source_tiers () =
  with_temp_store (fun path ->
      let store = Store.open_ path in
      let e = Engine.create ~store () in
      (match Engine.handle e (Protocol.Tile_search (tet `S)) with
      | Protocol.Tiling_r { source = Some Protocol.Fresh; _ } -> ()
      | _ -> Alcotest.fail "first contact must be fresh");
      (match Engine.handle e (Protocol.Tile_search (tet `Z)) with
      | Protocol.Tiling_r { source = Some Protocol.Memory; _ } -> ()
      | _ -> Alcotest.fail "congruent follow-up must hit memory");
      Store.close store;
      (* Restart: the memory tier is gone, the store is not. *)
      let store = Store.open_ path in
      let e2 = Engine.create ~store () in
      (match Engine.handle e2 (Protocol.Tile_search (tet `Z)) with
      | Protocol.Tiling_r { source = Some Protocol.Store; _ } -> ()
      | _ -> Alcotest.fail "after restart the store answers");
      (match Engine.handle e2 (Protocol.Tile_search (tet `S)) with
      | Protocol.Tiling_r { source = Some Protocol.Memory; _ } -> ()
      | _ -> Alcotest.fail "store hit was promoted into memory");
      let s = Engine.stats e2 in
      Alcotest.(check int) "no searches after restart" 0 s.Protocol.searches;
      Alcotest.(check int) "one store hit" 1 s.Protocol.store_hits;
      Store.close store)

let orientations tile =
  let rec rots k t = if k = 0 then [] else t :: rots (k - 1) (Prototile.rot90 t) in
  rots 4 tile @ rots 4 (Prototile.reflect tile)

let test_warm_store_answers_without_search () =
  let classes = List.concat_map Polyomino.enumerate_free [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "canonical classes up to area 4" 9 (List.length classes);
  with_temp_store (fun path ->
      (* Fill the store through the engine's write-through: one fresh
         search per class. *)
      let store = Store.open_ path in
      let e = Engine.create ~store () in
      List.iter (fun tile -> ignore (Engine.handle e (Protocol.Tile_search tile))) classes;
      Alcotest.(check int) "one search per class" 9 (Engine.stats e).Protocol.searches;
      Store.close store;
      (* The acceptance bar: a fresh daemon on the warmed store answers
         every area-<=4 query, in any orientation, without searching. *)
      let store = Store.open_ path in
      let e = Engine.create ~store () in
      List.iter
        (fun tile ->
          List.iter
            (fun o ->
              match Engine.handle e (Protocol.Tile_search o) with
              | Protocol.Tiling_r { source = Some (Protocol.Store | Protocol.Memory); _ }
              | Protocol.No_tiling (Some (Protocol.Store | Protocol.Memory)) ->
                ()
              | Protocol.Tiling_r { source; _ } | Protocol.No_tiling source ->
                Alcotest.failf "unexpected source %s"
                  (match source with
                  | Some s -> Protocol.source_to_string s
                  | None -> "none")
              | _ -> Alcotest.fail "expected a tile verdict")
            (orientations tile))
        classes;
      let s = Engine.stats e in
      Alcotest.(check int) "zero searches on a warm store" 0 s.Protocol.searches;
      Alcotest.(check bool) "store tier was exercised" true (s.Protocol.store_hits > 0);
      Store.close store)

(* Write-through leaves nothing held by the memory tier alone: after
   fresh searches and store hits, every key in the LRU is in the store.
   The LRU holds one entry per class asked about, so the entry count
   plus a [Store.mem] per class covers every LRU key.  An engine without
   a store writes nothing. *)
let test_lru_keys_in_store () =
  let tiles =
    [ tet `S; tet `L; tet `T; Prototile.rect 2 3; Prototile.pentomino `F ]
  in
  let ask e = List.iter (fun t -> ignore (Engine.handle e (Protocol.Tile_search t))) tiles in
  with_temp_store (fun path ->
      let store = Store.open_ path in
      ignore (Engine.handle (Engine.create ~store ()) (Protocol.Tile_search (tet `Z)));
      Store.close store;
      let store = Store.open_ path in
      let e = Engine.create ~store () in
      ask e;
      let s = Engine.stats e in
      Alcotest.(check int) "S answered from the store" 1 s.Protocol.store_hits;
      Alcotest.(check int) "the rest searched" 4 s.Protocol.searches;
      Alcotest.(check int) "one LRU entry per class" 5 s.Protocol.cache_entries;
      List.iter
        (fun t ->
          if not (Store.mem store (Store.key_of_prototile t)) then
            Alcotest.failf "LRU key %s is not in the store" (Store.key_of_prototile t))
        tiles;
      Store.close store);
  with_temp_store (fun path ->
      let store = Store.open_ path in
      ask (Engine.create ());
      Alcotest.(check int) "no store attached, nothing written" 0 (Store.length store);
      Store.close store)

let () =
  Alcotest.run "store"
    [
      ( "enumeration",
        [
          Alcotest.test_case "A000105 counts, n = 1..7" `Slow test_enumerate_counts;
          Alcotest.test_case "canonical, connected, distinct" `Quick
            test_enumerate_canonical_reps;
        ] );
      ( "log",
        [
          Alcotest.test_case "crc32 check value" `Quick test_crc32_vector;
          Alcotest.test_case "roundtrip, supersede, compaction" `Quick
            test_roundtrip_supersede_compact;
          Alcotest.test_case "put rejects non-canonical records" `Quick test_put_validation;
          Alcotest.test_case "dead records trigger auto-compaction" `Quick
            test_auto_compaction;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "truncation at every byte offset" `Slow
            test_truncation_every_offset;
          Alcotest.test_case "bit flips never serve invalid data" `Slow
            test_bitflip_never_served_invalid;
          Alcotest.test_case "CRC-valid frame with a colliding schedule is dropped" `Quick
            test_rejected_certificate_dropped;
        ] );
      ( "engine",
        [
          Alcotest.test_case "memory / store / fresh source tiers" `Quick
            test_engine_source_tiers;
          Alcotest.test_case "warm store answers without searching" `Slow
            test_warm_store_answers_without_search;
          Alcotest.test_case "every LRU key is in the store" `Quick
            test_lru_keys_in_store;
        ] );
    ]
