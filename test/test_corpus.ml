(* Tests for the corpus subsystem: the streaming polyomino iterator, the
   BN-filtered campaign (counts, resume, in-process crash followed by a
   byte-identical rebuild), the mmap snapshot (lookup, zero-copy splice,
   offline verification), the engine's corpus tier (src=corpus with zero
   searches), and the differential oracle pinning the BN decision to the
   exact-cover search ground truth for every class up to area 8. *)

open Lattice
module Protocol = Server.Protocol
module Engine = Server.Engine
module Campaign = Corpus.Campaign
module Snapshot = Corpus.Snapshot
module Layout = Corpus.Layout

let ok_or_fail = function Ok v -> v | Error e -> Alcotest.fail e

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Corpus directories are flat (MANIFEST, *.seg, *.idx). *)
let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_temp_dir f =
  let dir = Filename.temp_file "tilesched-corpus" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---------- streaming enumeration ---------- *)

let test_iter_matches_list () =
  let acc = Array.make 9 [] in
  Polyomino.enumerate_free_iter ~max_area:8 (fun ~area t -> acc.(area) <- t :: acc.(area));
  List.iteri
    (fun i expected ->
      let n = i + 1 in
      Alcotest.(check int) (Printf.sprintf "A000105 count at area %d" n) expected
        (List.length acc.(n)))
    [ 1; 1; 2; 5; 12; 35; 108; 369 ];
  (* The stream visits each band in exactly enumerate_free's order. *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "stream order at area %d" n)
        true
        (List.for_all2 Prototile.equal (List.rev acc.(n)) (Polyomino.enumerate_free n)))
    [ 1; 2; 3; 4; 5; 6 ]

(* ---------- campaign ---------- *)

let check_bands_to_6 bands =
  Alcotest.(check (list (triple int int int)))
    "per-band (classes, exact, non-exact)"
    [ (1, 1, 0); (1, 1, 0); (2, 2, 0); (5, 5, 0); (12, 9, 3); (35, 24, 11) ]
    (List.map (fun b -> (b.Layout.classes, b.Layout.exact, b.Layout.non_exact)) bands)

let test_campaign_counts_and_skip () =
  with_temp_dir (fun dir ->
      let r = ok_or_fail (Campaign.run ~dir ~max_n:6 ()) in
      Alcotest.(check int) "fresh run skips nothing" 0 r.Campaign.skipped_bands;
      check_bands_to_6 r.Campaign.bands;
      (* Second run over a complete corpus: every band checkpointed, no
         tile decided again, same report. *)
      let r2 = ok_or_fail (Campaign.run ~dir ~max_n:6 ()) in
      Alcotest.(check int) "all six bands skipped" 6 r2.Campaign.skipped_bands;
      check_bands_to_6 r2.Campaign.bands)

(* The n <= 6 segments, byte for byte: keys (canonical forms), record
   framing, payload codec and CRC trailers.  The digest was derived
   outside this code from the previous format's segments, whose own
   digest predates the integer canonicalization and slice-by-8 CRC
   kernels: each exact payload cut to its first (tiling) line, the
   magic and every CRC recomputed with zlib's CRC-32.  So a change in
   any key or checksum byte fails here. *)
let golden_segments_to_6 = "2c91705d736422dc4b80fd8c4044ef5a"

let test_segments_golden () =
  with_temp_dir (fun dir ->
      ignore (ok_or_fail (Campaign.run ~dir ~max_n:6 ()));
      let segs =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".seg")
        |> List.sort compare
      in
      Alcotest.(check int) "segment files" 8 (List.length segs);
      let bytes = String.concat "" (List.map (fun f -> read_file (Filename.concat dir f)) segs) in
      Alcotest.(check string) "md5 of the segments, in shard order" golden_segments_to_6
        (Digest.to_hex (Digest.string bytes)))

exception Kaboom

let test_crash_resume_byte_identical () =
  with_temp_dir (fun a ->
      with_temp_dir (fun b ->
          ignore (ok_or_fail (Campaign.run ~dir:a ~max_n:6 ()));
          (* Crash b halfway through band 5's appends: the manifest still
             says band 4, the segments carry torn band-5 bytes. *)
          (match
             Campaign.run ~dir:b ~max_n:6
               ~progress:(fun ~n ~done_ ~total ->
                 if n = 5 && done_ = total / 2 then raise Kaboom)
               ()
           with
          | exception Kaboom -> ()
          | Ok _ -> Alcotest.fail "expected the injected crash"
          | Error e -> Alcotest.fail e);
          let r = ok_or_fail (Campaign.run ~dir:b ~max_n:6 ()) in
          Alcotest.(check int) "resumed past the four checkpointed bands" 4
            r.Campaign.skipped_bands;
          let files dir = List.sort compare (Array.to_list (Sys.readdir dir)) in
          Alcotest.(check (list string)) "same file set" (files a) (files b);
          List.iter
            (fun f ->
              Alcotest.(check bool)
                (Printf.sprintf "%s is byte-identical to the uninterrupted build" f)
                true
                (read_file (Filename.concat a f) = read_file (Filename.concat b f)))
            (files a)))

(* ---------- snapshot ---------- *)

let test_snapshot_lookup_and_verify () =
  with_temp_dir (fun dir ->
      ignore (ok_or_fail (Campaign.run ~dir ~max_n:6 ()));
      let snap = ok_or_fail (Snapshot.open_ dir) in
      Alcotest.(check int) "56 classes resident" 56 (Snapshot.length snap);
      Polyomino.enumerate_free_iter ~max_area:6 (fun ~area t ->
          let key = Corpus.Layout.key_of_prototile t in
          match Snapshot.find snap key with
          | None -> Alcotest.failf "area-%d key not found: %s" area key
          | Some hit -> (
            Alcotest.(check int) "band is the tile's area" area (Snapshot.band snap hit);
            match (Snapshot.verdict snap hit, Tiling.Search.decide t) with
            | `Exact, Tiling.Search.Exact tiling -> (
              match Snapshot.entry snap hit with
              | Ok (Some (tl, cert)) ->
                Alcotest.(check string) "stored tiling is the decided one"
                  (Core.Codec.tiling_to_string tiling)
                  (Core.Codec.tiling_to_string tl);
                (match Core.Certificate.check cert with
                | Ok () -> ()
                | Error f ->
                  Alcotest.failf "stored certificate rejected: %a" Core.Certificate.pp_failure f)
              | Ok None -> Alcotest.fail "exact hit decoded as non-exact"
              | Error e -> Alcotest.fail e)
            | `Non_exact, Tiling.Search.Non_exact _ ->
              Alcotest.(check string) "non-exact payload is empty" ""
                (Snapshot.payload snap hit)
            | _ -> Alcotest.failf "snapshot and decide disagree on %s" key));
      (* A key outside the corpus misses cleanly. *)
      let t7 = List.hd (Polyomino.enumerate_free 7) in
      Alcotest.(check bool) "area-7 key misses" true
        (Option.is_none (Snapshot.find snap (Corpus.Layout.key_of_prototile t7)));
      let r = ok_or_fail (Snapshot.verify ~dir) in
      Alcotest.(check int) "verified records" 56 r.Snapshot.records;
      Alcotest.(check int) "verified exact" 42 r.Snapshot.exact;
      Alcotest.(check int) "verified non-exact" 14 r.Snapshot.non_exact;
      Alcotest.(check int) "verified index entries" 56 r.Snapshot.indexed)

(* The first record [pick] finds in a built corpus's shards, given each
   shard's records [(offset, band, tag, key, payload)] in file order,
   with its segment path. *)
let find_record dir pick =
  let m = ok_or_fail (Layout.manifest_of_string (read_file (Filename.concat dir Layout.manifest_name))) in
  List.find_map
    (fun s ->
      let seg = Filename.concat dir (Layout.segment_name s) in
      match
        Layout.fold_records (read_file seg) ~init:[]
          ~f:(fun acc ~off ~band ~tag ~key ~payload -> (off, band, tag, key, payload) :: acc)
      with
      | Ok records -> Option.map (fun r -> (seg, r)) (pick (List.rev records))
      | Error (_, _, e) -> Alcotest.fail e)
    (List.init m.Layout.shards Fun.id)

(* Put each case's record in place of [record] in [seg]: [verify] must
   reject the corpus, naming [reason]; then the original record,
   re-encoded, must give back the original bytes. *)
let check_verify_rejects ~dir ~seg (off, band, tag, key, payload) cases =
  let original = read_file seg in
  let len = Layout.header_size + String.length key + String.length payload in
  let replace record =
    Out_channel.with_open_bin seg (fun oc ->
        Out_channel.output_string oc
          (String.sub original 0 off ^ record
          ^ String.sub original (off + len) (String.length original - off - len)))
  in
  ignore (ok_or_fail (Snapshot.verify ~dir));
  List.iter
    (fun (what, record, reason) ->
      replace record;
      (match Snapshot.verify ~dir with
      | Ok _ -> Alcotest.failf "verify accepted %s" what
      | Error e ->
        if not (contains e reason) then
          Alcotest.failf "verify rejected %s for another reason: %s" what e);
      replace (Layout.encode_record ~band ~tag ~key ~payload);
      Alcotest.(check string) "the original record is restored" original (read_file seg))
    cases

(* A sealed corpus holds campaign verdicts only: a store's record kinds
   - tag 2 (not found, an exhausted search rather than a proof) or
   band 0 - are rejected by [verify] even when their frame, key and
   index entry are sound.  Each is written in place over a non-exact
   record of the same length, so only the tag or the band differs. *)
let test_verify_rejects_store_records () =
  with_temp_dir (fun dir ->
      ignore (ok_or_fail (Campaign.run ~dir ~max_n:5 ()));
      match find_record dir (List.find_opt (fun (_, _, tag, _, _) -> tag = Layout.tag_non_exact)) with
      | None -> Alcotest.fail "no non-exact record in the corpus"
      | Some (seg, ((_, band, _, key, _) as record)) ->
        check_verify_rejects ~dir ~seg record
          [ ("a tag-2 record", Layout.encode_record ~band ~tag:Layout.tag_not_found ~key ~payload:"",
             "tag 2");
            ("a band-0 record", Layout.encode_record ~band:0 ~tag:Layout.tag_non_exact ~key ~payload:"",
             "band 0") ])

(* An exact payload is the tiling line alone.  [verify] rejects an exact
   record that carries more - the previous format's three certificate
   lines, or one empty trailing line - even with a valid frame and a
   valid first line.  The record rewritten is the last of its shard, so
   the longer payload moves no other record. *)
let test_verify_rejects_trailing_lines () =
  with_temp_dir (fun dir ->
      ignore (ok_or_fail (Campaign.run ~dir ~max_n:5 ()));
      let last_exact records =
        match List.rev records with
        | ((_, _, tag, _, _) as r) :: _ when tag = Layout.tag_exact -> Some r
        | _ -> None
      in
      match find_record dir last_exact with
      | None -> Alcotest.fail "no shard ends with an exact record"
      | Some (seg, ((_, band, _, key, payload) as record)) ->
        let exact payload = Layout.encode_record ~band ~tag:Layout.tag_exact ~key ~payload in
        let tiling = ok_or_fail (Layout.decode_payload payload) in
        check_verify_rejects ~dir ~seg record
          [ ("an exact payload with certificate lines",
             exact (payload ^ "\n" ^ Core.Certificate.to_string (Core.Certificate.build tiling)),
             "more than one line");
            ("an exact payload with an empty trailing line", exact (payload ^ "\n"),
             "more than one line") ])

let test_unsealed_corpus_refused () =
  with_temp_dir (fun dir ->
      ignore (ok_or_fail (Campaign.run ~dir ~max_n:4 ()));
      (* Growing drops the seal first; a crash right after leaves an
         unsealed corpus, which a snapshot must refuse to serve. *)
      (match
         Campaign.run ~dir ~max_n:5
           ~progress:(fun ~n:_ ~done_:_ ~total:_ -> raise Kaboom)
           ()
       with
      | exception Kaboom -> ()
      | _ -> Alcotest.fail "expected the injected crash");
      match Snapshot.open_ dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "an unsealed corpus must not open")

(* ---------- engine corpus tier ---------- *)

let test_engine_corpus_tier () =
  with_temp_dir (fun dir ->
      ignore (ok_or_fail (Campaign.run ~dir ~max_n:5 ()));
      let snap = ok_or_fail (Snapshot.open_ dir) in
      let e = Engine.create ~corpus:snap () in
      let s_canon = Symmetry.canonical (Prototile.tetromino `S) in
      let key = Corpus.Layout.key_of_prototile s_canon in
      (* Canonical orientation: the zero-deserialization splice path.
         The spliced line must be byte-identical to encoding the decoded
         entry through the ordinary Tiling_r arm. *)
      (match Engine.handle e (Protocol.Tile_search s_canon) with
      | Protocol.Tiling_raw_r { source = Some Protocol.Corpus; _ } as resp -> (
        let raw_line = Protocol.response_to_string ~id:7 resp in
        let hit = Option.get (Snapshot.find snap key) in
        let tiling, certificate =
          match Snapshot.entry snap hit with
          | Ok (Some tc) -> tc
          | _ -> Alcotest.fail "expected an exact corpus entry"
        in
        Alcotest.(check string) "splice line = decoded-and-reencoded line"
          (Protocol.response_to_string ~id:7
             (Protocol.Tiling_r { tiling; certificate; source = Some Protocol.Corpus }))
          raw_line;
        match Protocol.response_of_string raw_line with
        | Ok (Some 7, Protocol.Tiling_r { tiling; source = Some Protocol.Corpus; _ }) ->
          Alcotest.(check bool) "decoded prototile is the canonical tile" true
            (Prototile.equal (Tiling.Single.prototile tiling) s_canon)
        | _ -> Alcotest.fail "splice must decode as a corpus tiling reply")
      | _ -> Alcotest.fail "canonical tile-search must take the splice path");
      (* Congruent orientation: decoded, transported, still corpus. *)
      (match Engine.handle e (Protocol.Tile_search (Prototile.tetromino `Z)) with
      | Protocol.Tiling_r { source = Some Protocol.Corpus; tiling; _ } ->
        Alcotest.(check bool) "transported to the client's orientation" true
          (Prototile.equal (Tiling.Single.prototile tiling) (Prototile.tetromino `Z))
      | _ -> Alcotest.fail "congruent orientation must answer from corpus");
      (* Derived shapes ride the same tier. *)
      (match Engine.handle e (Protocol.Schedule s_canon) with
      | Protocol.Schedule_r { source = Some Protocol.Corpus; _ } -> ()
      | _ -> Alcotest.fail "schedule must derive from the corpus entry");
      (* A BN-refuted pentomino answers no-tiling from the corpus. *)
      let non_exact =
        List.find
          (fun t -> match Tiling.Search.decide t with Tiling.Search.Non_exact _ -> true | _ -> false)
          (Polyomino.enumerate_free 5)
      in
      (match Engine.handle e (Protocol.Tile_search non_exact) with
      | Protocol.No_tiling (Some Protocol.Corpus) -> ()
      | _ -> Alcotest.fail "non-exact corpus hit must answer no-tiling");
      let s = Engine.stats e in
      Alcotest.(check int) "zero searches" 0 s.Protocol.searches;
      Alcotest.(check int) "four corpus hits" 4 s.Protocol.corpus_hits;
      Alcotest.(check int) "corpus hits never touch the LRU" 0 s.Protocol.cache_entries;
      (* A key past the corpus bound falls through to the search chain. *)
      (match Engine.handle e (Protocol.Tile_search (Prototile.rect 2 3)) with
      | Protocol.Tiling_r { source = Some Protocol.Fresh; _ } -> ()
      | _ -> Alcotest.fail "corpus miss must fall through to a fresh search");
      Alcotest.(check int) "the miss searched" 1 (Engine.stats e).Protocol.searches)

let test_protocol_corpus_fields () =
  (* src=corpus round-trips. *)
  (match
     Protocol.response_of_string
       (Protocol.response_to_string (Protocol.No_tiling (Some Protocol.Corpus)))
   with
  | Ok (None, Protocol.No_tiling (Some Protocol.Corpus)) -> ()
  | _ -> Alcotest.fail "src=corpus must round-trip");
  let s =
    { Protocol.served = 2; overloaded = 0; errors = 0; searches = 1; coalesced = 0;
      timeouts = 0; cache_hits = 3; cache_misses = 4; cache_evictions = 0; cache_entries = 2;
      store_hits = 5; corpus_hits = 7 }
  in
  let line = Protocol.response_to_string (Protocol.Stats_r s) in
  (match Protocol.response_of_string line with
  | Ok (None, Protocol.Stats_r s') ->
    Alcotest.(check int) "corpus_hits round-trips" 7 s'.Protocol.corpus_hits
  | _ -> Alcotest.fail "stats must round-trip");
  (* A stats line from a server predating the field still decodes. *)
  let old_line =
    String.concat "|"
      (List.filter
         (fun f -> not (String.length f >= 12 && String.sub f 0 12 = "corpus_hits="))
         (String.split_on_char '|' line))
  in
  match Protocol.response_of_string old_line with
  | Ok (None, Protocol.Stats_r s') ->
    Alcotest.(check int) "absent corpus_hits defaults to 0" 0 s'.Protocol.corpus_hits
  | _ -> Alcotest.fail "old-format stats line must decode"

(* ---------- differential oracle ---------- *)

(* [decide] answers a polyomino with a hole check and the BN test, and
   takes its tiling from the lattice stage; [find_tiling] is an
   independent route to the same question that never looks at the
   boundary word.  Every class up to area 8 must get the same answer
   from both - the same tiling for an exact class, none for a
   non-exact one - and the totals pin the committed EXPERIMENTS table. *)
let test_bn_differential_oracle () =
  let pool = Parallel.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      let tiles = ref [] in
      Polyomino.enumerate_free_iter ~max_area:8 (fun ~area:_ t -> tiles := t :: !tiles);
      let show = Option.fold ~none:"none" ~some:Core.Codec.tiling_to_string in
      let results =
        Parallel.map pool
          (fun t ->
            let decided =
              match Tiling.Search.decide t with
              | Tiling.Search.Exact tiling -> Some tiling
              | Tiling.Search.Non_exact _ -> None
              | Tiling.Search.Not_found ->
                Alcotest.failf "%s left undecided" (Corpus.Layout.key_of_prototile t)
            in
            (Corpus.Layout.key_of_prototile t, show decided, show (Tiling.Search.find_tiling t)))
          (List.rev !tiles)
      in
      List.iter
        (fun (key, decided, searched) ->
          if decided <> searched then
            Alcotest.failf "decide disagrees with find_tiling on %s (decide=%s search=%s)" key
              decided searched)
        results;
      Alcotest.(check int) "classes up to area 8" 533 (List.length results);
      Alcotest.(check int) "exact classes up to area 8" 204
        (List.length (List.filter (fun (_, decided, _) -> decided <> "none") results)))

let () =
  Alcotest.run "corpus"
    [
      ( "enumeration",
        [ Alcotest.test_case "streaming iterator matches enumerate_free" `Slow
            test_iter_matches_list ] );
      ( "campaign",
        [
          Alcotest.test_case "band counts; complete corpus skips" `Quick
            test_campaign_counts_and_skip;
          Alcotest.test_case "crash mid-band, resume byte-identical" `Quick
            test_crash_resume_byte_identical;
          Alcotest.test_case "n <= 6 segment bytes (golden)" `Quick test_segments_golden;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "lookup, decode, verify" `Quick test_snapshot_lookup_and_verify;
          Alcotest.test_case "unsealed corpus refused" `Quick test_unsealed_corpus_refused;
          Alcotest.test_case "verify rejects tag-2 and band-0 records" `Quick
            test_verify_rejects_store_records;
          Alcotest.test_case "verify rejects an exact payload with trailing lines" `Quick
            test_verify_rejects_trailing_lines;
        ] );
      ( "engine",
        [
          Alcotest.test_case "corpus tier: splice, transport, no searches" `Quick
            test_engine_corpus_tier;
          Alcotest.test_case "protocol: src=corpus and corpus_hits" `Quick
            test_protocol_corpus_fields;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "BN verdict = search verdict, n <= 8" `Slow
            test_bn_differential_oracle;
        ] );
    ]
