(* Tests for the binary wire protocol and the epoll socket server:
   frame round-trips for every message type, decoder totality under
   truncation and bit flips, protocol sniffing (both dialects through
   one socket), corrupt-frame connection isolation, the
   fd-leak-on-abrupt-disconnect regression, and the reply-path
   differential over a daemon serving a corpus. *)

open Lattice
module Protocol = Server.Protocol
module Wire = Server.Wire
module Engine = Server.Engine
module Frontend = Server.Frontend

let qc = QCheck_alcotest.to_alcotest

let tet c = Prototile.tetromino c
let v2 = Zgeom.Vec.make2

(* ---------- sample frames, one per message type ---------- *)

let sample_requests : (int option * Protocol.request) list =
  [ (Some 0, Protocol.Slot { tile = tet `S; pos = v2 1 2 });
    (None, Protocol.Slot { tile = Prototile.rect 2 2; pos = v2 (-3) 7 });
    (Some 42, Protocol.Schedule (tet `L));
    (Some 7, Protocol.Tile_search (Prototile.rect 2 3));
    (None, Protocol.Tile_search (tet `T));
    (Some 0xFFFFFFFE, Protocol.Stats);
    (None, Protocol.Shutdown) ]

let engine_response req =
  Engine.handle (Engine.create ()) req

let sample_responses : (int option * Protocol.response) list =
  let tiling_r = engine_response (Protocol.Tile_search (tet `L)) in
  let schedule_r = engine_response (Protocol.Schedule (tet `S)) in
  let stats_r = engine_response Protocol.Stats in
  let fragment =
    match tiling_r with
    | Protocol.Tiling_r { tiling; _ } -> Protocol.tiling_fragment tiling
    | _ -> Alcotest.fail "engine did not find a tiling for the L tetromino"
  in
  [ (Some 1, Protocol.Slot_r { slot = 1; num_slots = 4; source = Some Protocol.Memory });
    (None, Protocol.Slot_r { slot = 0; num_slots = 1; source = None });
    (Some 2, schedule_r);
    (Some 3, tiling_r);
    (Some 4, Protocol.Tiling_raw_r { tiling_fields = fragment; source = Some Protocol.Corpus });
    (Some 5, stats_r);
    (Some 6, Protocol.No_tiling (Some Protocol.Store));
    (None, Protocol.No_tiling None);
    (Some 8, Protocol.Overloaded);
    (Some 9, Protocol.Deadline_exceeded);
    (None, Protocol.Shutting_down);
    (Some 10, Protocol.Error_r "boom | with = separators \x00 and bytes") ]

(* Tiling replies share one opcode and decode structurally to
   [Tiling_raw_r]; normalize both sides to raw form for comparison. *)
let normalize_response (r : Protocol.response) : Protocol.response =
  match r with
  | Protocol.Tiling_r { tiling; certificate = _; source } ->
    Protocol.Tiling_raw_r
      { tiling_fields = Protocol.tiling_fragment tiling; source }
  | r -> r

let response_eq a b =
  (* [Stats_r] and friends are plain data; tilings were normalized to
     their canonical fragment strings, so structural equality is exact. *)
  normalize_response a = normalize_response b

let test_request_roundtrip () =
  List.iter
    (fun (id, req) ->
      let frame = Wire.encode_request ?id req in
      match Wire.decode_request frame with
      | Error e -> Alcotest.failf "request frame rejected: %s" e
      | Ok (id', req') ->
        Alcotest.(check (option int)) "id survives" id id';
        Alcotest.(check string) "request survives"
          (Protocol.request_to_string req)
          (Protocol.request_to_string req'))
    sample_requests

let test_response_roundtrip () =
  List.iter
    (fun (id, resp) ->
      let frame = Wire.encode_response ?id resp in
      match Wire.decode_response frame with
      | Error e -> Alcotest.failf "response frame rejected: %s" e
      | Ok (id', resp') ->
        Alcotest.(check (option int)) "id survives" id id';
        Alcotest.(check bool) "response survives" true (response_eq resp resp'))
    sample_responses

let all_frames =
  lazy
    (List.map (fun (id, r) -> Wire.encode_request ?id r) sample_requests
    @ List.map (fun (id, r) -> Wire.encode_response ?id r) sample_responses)

(* Both decoders on arbitrary bytes: any result is fine, raising is
   not. *)
let decode_total s =
  (match Wire.decode_request s with Ok _ | Error _ -> ());
  (match Wire.decode_response s with Ok _ | Error _ -> ())

let test_truncation_every_offset () =
  List.iter
    (fun frame ->
      let n = String.length frame in
      for i = 0 to n - 1 do
        let prefix = String.sub frame 0 i in
        decode_total prefix;
        (match Wire.decode_request prefix with
        | Ok _ -> Alcotest.failf "truncated frame (%d/%d bytes) accepted" i n
        | Error _ -> ());
        match Wire.decode_response prefix with
        | Ok _ -> Alcotest.failf "truncated frame (%d/%d bytes) accepted" i n
        | Error _ -> ()
      done)
    (Lazy.force all_frames)

let test_bitflip_every_bit () =
  (* CRC32 detects every single-bit error, and header flips trip the
     magic/version/length checks, so no flipped frame may decode. *)
  List.iter
    (fun frame ->
      let n = String.length frame in
      for i = 0 to n - 1 do
        for bit = 0 to 7 do
          let b = Bytes.of_string frame in
          Bytes.set b i (Char.chr (Char.code frame.[i] lxor (1 lsl bit)));
          let mutated = Bytes.to_string b in
          decode_total mutated;
          (match Wire.decode_request mutated with
          | Ok _ -> Alcotest.failf "bit flip at byte %d bit %d accepted" i bit
          | Error _ -> ());
          match Wire.decode_response mutated with
          | Ok _ -> Alcotest.failf "bit flip at byte %d bit %d accepted" i bit
          | Error _ -> ()
        done
      done)
    (Lazy.force all_frames)

(* Random mutations (substitutions, deletions, splices across frames)
   on top of the exhaustive single-fault sweeps above. *)
let test_fuzz_mutations =
  let frames = Lazy.force all_frames in
  let gen =
    let open QCheck.Gen in
    let* frame = oneofl frames in
    let n = String.length frame in
    oneof
      [ (let* i = int_bound (n - 1) in
         let* c = char in
         return (String.mapi (fun j x -> if j = i then c else x) frame));
        (let* i = int_bound (n - 1) in
         return (String.sub frame 0 i ^ String.sub frame (i + 1) (n - i - 1)));
        (let* other = oneofl frames in
         let* i = int_bound (n - 1) in
         return (String.sub frame 0 i ^ other));
        (let* len = int_bound 64 in
         string_size (return len)) ]
  in
  QCheck.Test.make ~count:2_000 ~name:"mutated binary frames never raise"
    (QCheck.make gen)
    (fun s ->
      decode_total s;
      let b = Bytes.of_string s in
      (match Wire.frame_total b ~off:0 ~avail:(Bytes.length b) with
      | Wire.Need_more | Wire.Total _ | Wire.Bad_frame _ -> ());
      true)

let test_header_peeks () =
  let frame = Wire.encode_request ~id:11 Protocol.Stats in
  Alcotest.(check bool) "crc ok on valid frame" true (Wire.frame_crc_ok frame);
  Alcotest.(check (option int)) "id peek" (Some 11) (Wire.frame_id frame);
  let anon = Wire.encode_request Protocol.Stats in
  Alcotest.(check (option int)) "anonymous id peek" None (Wire.frame_id anon);
  let b = Bytes.of_string frame in
  Bytes.set b (Bytes.length b - 1)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 1));
  Alcotest.(check bool) "crc catches trailer flip" false
    (Wire.frame_crc_ok (Bytes.to_string b))

(* ---------- socket server ---------- *)

let sock_counter = ref 0

let with_server ?(engine = Engine.create ()) f =
  incr sock_counter;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tilesched-wire-%d-%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let d = Domain.spawn (fun () -> Frontend.serve_unix engine ~path) in
  let rec await n =
    let ready =
      Sys.file_exists path
      &&
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () ->
        Unix.close fd;
        true
      | exception Unix.Unix_error _ ->
        Unix.close fd;
        false
    in
    if ready then ()
    else if n = 0 then Alcotest.fail "server did not come up"
    else begin
      ignore (Unix.select [] [] [] 0.02);
      await (n - 1)
    end
  in
  await 250;
  Fun.protect
    ~finally:(fun () ->
      (try
         Frontend.with_connection ~path (fun send ->
             ignore (send [ Protocol.request_to_string Protocol.Shutdown ]))
       with _ -> ());
      Domain.join d)
    (fun () -> f path)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let really_read fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let n = Unix.read fd buf off len in
      if n = 0 then Alcotest.fail "unexpected EOF mid-frame";
      go (off + n) (len - n)
    end
  in
  go off len

let read_frame fd =
  let hdr = Bytes.create Wire.header_size in
  really_read fd hdr 0 Wire.header_size;
  match Wire.frame_total hdr ~off:0 ~avail:Wire.header_size with
  | Wire.Total total ->
    let rest = Bytes.create (total - Wire.header_size) in
    really_read fd rest 0 (total - Wire.header_size);
    Bytes.to_string hdr ^ Bytes.to_string rest
  | Wire.Need_more | Wire.Bad_frame _ -> Alcotest.fail "bad frame head"

let test_sniff_both_dialects () =
  let req = Protocol.Slot { tile = tet `T; pos = v2 3 1 } in
  (* Reference reply from a fresh engine: the served bytes must match
     it exactly, proving text clients are untouched by the new
     transport. *)
  let expected = Protocol.response_to_string ~id:5 (engine_response req) in
  with_server (fun path ->
      let got =
        Frontend.with_connection ~path (fun send ->
            send [ Protocol.request_to_string ~id:5 req ])
      in
      Alcotest.(check (list string)) "text reply byte-identical" [ expected ] got;
      (match Frontend.with_binary_connection ~path (fun send -> send [ req ]) with
      | [ Ok (Some 0, Protocol.Slot_r { slot; num_slots; _ }) ] -> (
        match engine_response req with
        | Protocol.Slot_r { slot = s; num_slots = n; _ } ->
          Alcotest.(check int) "binary slot" s slot;
          Alcotest.(check int) "binary num_slots" n num_slots
        | _ -> Alcotest.fail "reference engine did not answer Slot_r")
      | _ -> Alcotest.fail "binary dialect through the same socket failed");
      (* Text again, after a binary connection came and went. *)
      match
        Frontend.with_connection ~path (fun send ->
            send [ Protocol.request_to_string ~id:9 Protocol.Stats ])
      with
      | [ line ] -> (
        match Protocol.response_of_string line with
        | Ok (Some 9, Protocol.Stats_r _) -> ()
        | _ -> Alcotest.fail "text after binary must still parse")
      | _ -> Alcotest.fail "expected one reply line")

let test_corrupt_frame_isolation () =
  with_server (fun path ->
      let a = connect path and b = connect path in
      Unix.setsockopt_float a Unix.SO_RCVTIMEO 10.0;
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 10.0;
      write_all a (Wire.encode_request ~id:1 Protocol.Stats);
      (match Wire.decode_response (read_frame a) with
      | Ok (Some 1, Protocol.Stats_r _) -> ()
      | _ -> Alcotest.fail "expected stats reply on connection A");
      (* One flipped CRC bit on B: the server must close B... *)
      let f = Bytes.of_string (Wire.encode_request ~id:2 Protocol.Stats) in
      let last = Bytes.length f - 1 in
      Bytes.set f last (Char.chr (Char.code (Bytes.get f last) lxor 0x01));
      write_all b (Bytes.to_string f);
      let buf = Bytes.create 1 in
      (match Unix.read b buf 0 1 with
      | 0 -> ()
      | _ -> Alcotest.fail "server answered a corrupt frame"
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ());
      Unix.close b;
      (* ...and only B: A keeps working. *)
      write_all a (Wire.encode_request ~id:3 Protocol.Stats);
      (match Wire.decode_response (read_frame a) with
      | Ok (Some 3, Protocol.Stats_r _) -> ()
      | _ -> Alcotest.fail "connection A died with B");
      Unix.close a)

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

let test_fd_leak_regression () =
  (* 100 connect / abrupt-kill cycles, some mid-line, some mid-frame:
     the process fd count must return to its baseline. *)
  with_server (fun path ->
      let cycle i =
        let fd = connect path in
        (match i mod 3 with
        | 0 -> ()  (* connect and vanish before the sniff byte *)
        | 1 -> write_all fd "t"  (* half a text line *)
        | _ ->
          let frame = Wire.encode_request ~id:i Protocol.Stats in
          write_all fd (String.sub frame 0 (String.length frame - 2)));
        Unix.close fd
      in
      cycle 0;
      ignore (Unix.select [] [] [] 0.3);
      let baseline = fd_count () in
      for i = 1 to 100 do
        cycle i
      done;
      let rec wait n =
        if fd_count () > baseline then
          if n = 0 then
            Alcotest.failf "fd count %d stuck above baseline %d" (fd_count ())
              baseline
          else begin
            ignore (Unix.select [] [] [] 0.1);
            wait (n - 1)
          end
      in
      wait 50)

let test_sigpipe_reply_in_flight () =
  (* Pipeline thousands of requests and read none of the replies: they
     overflow the server's socket buffer into its output queue, leaving
     write interest armed.  Closing then makes the connection's next
     event writable+hangup, so [flush_out] writev's into the dead peer
     before any read can observe EOF.  That must surface as EPIPE
     (connection closed), never as SIGPIPE — which, unignored, would
     kill the server domain and this whole test binary with it. *)
  with_server (fun path ->
      let fd = connect path in
      (* 30k pipelined stats: ~600 KB of replies — past the ~208 KB
         socket buffer (so output queues server-side) yet below the
         1 MiB backpressure watermark (so every request is read). *)
      let buf = Buffer.create (1 lsl 19) in
      for i = 1 to 30_000 do
        Buffer.add_string buf (Wire.encode_request ~id:i Protocol.Stats)
      done;
      write_all fd (Buffer.contents buf);
      (* Give the server time to back its reply queue up behind us. *)
      ignore (Unix.select [] [] [] 0.3);
      Unix.close fd;
      ignore (Unix.select [] [] [] 0.2);
      let fd = connect path in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      write_all fd (Wire.encode_request ~id:0 Protocol.Stats);
      (match Wire.decode_response (read_frame fd) with
      | Ok (Some 0, Protocol.Stats_r _) -> ()
      | _ -> Alcotest.fail "server unresponsive after reply-in-flight close");
      Unix.close fd)

(* ---------- reply-path differential ---------- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* A tile reply's source and, when exact, its tiling rebuilt through
   [Single.make] from the decoded fields.  Binary tiling replies decode
   to the raw fragment, text ones to a decoded tiling. *)
let verdict route (resp : Protocol.response) =
  let remake source tiling =
    match
      Tiling.Single.make ~prototile:(Tiling.Single.prototile tiling)
        ~period:(Tiling.Single.period tiling) ~offsets:(Tiling.Single.offsets tiling)
    with
    | Ok t -> (source, Some t)
    | Error e -> Alcotest.failf "%s: tiling fails re-validation: %s" route e
  in
  match resp with
  | Protocol.Tiling_r { tiling; source; _ } -> remake source tiling
  | Protocol.Tiling_raw_r { tiling_fields; source } -> (
    match Protocol.tiling_of_fragment tiling_fields with
    | Ok tiling -> remake source tiling
    | Error e -> Alcotest.failf "%s: undecodable tiling: %s" route e)
  | Protocol.No_tiling source -> (source, None)
  | r -> Alcotest.failf "%s: not a tile verdict: %s" route (Protocol.response_to_string r)

let same_tiling a b =
  Prototile.equal (Tiling.Single.prototile a) (Tiling.Single.prototile b)
  && Sublattice.equal (Tiling.Single.period a) (Tiling.Single.period b)
  && List.equal Zgeom.Vec.equal
       (List.sort Zgeom.Vec.compare (Tiling.Single.offsets a))
       (List.sort Zgeom.Vec.compare (Tiling.Single.offsets b))

(* One daemon over the n <= 6 corpus answers each canonical class
   through every route it has: a binary tile-search (the loop thread
   decodes, probes the snapshot and fills the payload memo), the same
   frame again (answered pre-decode from the memo), and a text line
   (the engine's [Tiling_raw_r] splice); all three must carry the same
   verdict and tiling.  A rotated orientation (the engine transports
   the corpus entry) must give the same tiling in both dialects.  An
   in-process engine without a corpus searches both orientations; it
   may pick a different lattice than the corpus stores, so it is held
   to the verdict. *)
let test_reply_paths_agree () =
  let dir = Filename.temp_file "tilesched-wire-corpus" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (match Corpus.Campaign.run ~dir ~max_n:6 () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let snap =
    match Corpus.Snapshot.open_ dir with Ok s -> s | Error e -> Alcotest.fail e
  in
  let classes = ref [] in
  Polyomino.enumerate_free_iter ~max_area:6 (fun ~area:_ t ->
      classes := Symmetry.canonical t :: !classes);
  Alcotest.(check int) "classes up to area 6" 56 (List.length !classes);
  let fresh = Engine.create () in
  with_server ~engine:(Engine.create ~corpus:snap ()) (fun path ->
      Frontend.with_binary_connection ~path @@ fun bsend ->
      Frontend.with_connection ~path @@ fun tsend ->
      List.iter
        (fun canon ->
          let name = Core.Codec.vecs_to_string (Prototile.cells canon) in
          let binary route tile =
            match bsend [ Protocol.Tile_search tile ] with
            | [ Ok (_, r) ] -> verdict route r
            | [ Error e ] -> Alcotest.failf "%s %s: %s" route name e
            | _ -> Alcotest.failf "%s %s: expected one reply" route name
          in
          let text route tile =
            match tsend [ Protocol.request_to_string ~id:1 (Protocol.Tile_search tile) ] with
            | [ line ] -> (
              match Protocol.response_of_string line with
              | Ok (_, r) -> verdict route r
              | Error e -> Alcotest.failf "%s %s: %s" route name e)
            | _ -> Alcotest.failf "%s %s: expected one reply" route name
          in
          let searched tile =
            match verdict "fresh" (Engine.handle fresh (Protocol.Tile_search tile)) with
            | Some Protocol.Fresh, t | Some Protocol.Memory, t -> t
            | _ -> Alcotest.failf "fresh %s: not answered by a search" name
          in
          let agree route ~reference (source, tiling) =
            if source <> Some Protocol.Corpus then
              Alcotest.failf "%s %s: not answered from the corpus" route name;
            match (reference, tiling) with
            | None, None -> ()
            | Some a, Some b when same_tiling a b -> ()
            | _ -> Alcotest.failf "%s %s: reply differs from the text reply" route name
          in
          let same_verdict route a b =
            if Option.is_some a <> Option.is_some b then
              Alcotest.failf "%s %s: verdict differs from a fresh search" route name
          in
          let first = binary "binary" canon in
          let second = binary "binary pre-decode" canon in
          let _, reference = text "text" canon in
          agree "binary" ~reference first;
          agree "binary pre-decode" ~reference second;
          same_verdict "text" reference (searched canon);
          let rotated = Prototile.rot90 canon in
          let _, rot_reference = text "text rotated" rotated in
          agree "binary rotated" ~reference:rot_reference (binary "binary rotated" rotated);
          same_verdict "text rotated" rot_reference (searched rotated);
          Option.iter
            (fun t ->
              if not (Prototile.equal (Tiling.Single.prototile t) rotated) then
                Alcotest.failf "text rotated %s: tiling not in the asked orientation" name)
            rot_reference)
        (List.rev !classes))

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          Alcotest.test_case "every request type round-trips" `Quick
            test_request_roundtrip;
          Alcotest.test_case "every response type round-trips" `Quick
            test_response_roundtrip;
          Alcotest.test_case "header peeks" `Quick test_header_peeks;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "truncation at every byte offset" `Quick
            test_truncation_every_offset;
          Alcotest.test_case "every single-bit flip is rejected" `Quick
            test_bitflip_every_bit;
          qc test_fuzz_mutations;
        ] );
      ( "socket",
        [
          Alcotest.test_case "sniff: both dialects, one socket" `Quick
            test_sniff_both_dialects;
          Alcotest.test_case "corrupt frame kills only its connection" `Quick
            test_corrupt_frame_isolation;
          Alcotest.test_case "no fd leak after 100 abrupt disconnects" `Quick
            test_fd_leak_regression;
          Alcotest.test_case "reply to a dead peer never raises SIGPIPE"
            `Quick test_sigpipe_reply_in_flight;
          Alcotest.test_case "corpus daemon: every reply path agrees" `Quick
            test_reply_paths_agree;
        ] );
    ]
