(* The traced run: the socket run's request stream replayed in-process
   through the public functions of each layer on the request path,
   mirroring what the daemon does with them:

     decode (Wire | Protocol) -> Symmetry.canonicalize
       -> Snapshot.find / Snapshot.entry | Cache | Store.find
       -> Search.find_tiling, Store.put (misses only)
       -> Single.make (orientation transport) -> Schedule / Certificate
       -> encode (Wire | Protocol)

   Binary tile-search frames whose payload was seen before take the
   frontend's pre-decode route instead: memo probe, CRC check, splice.

   The replay runs twice from a cold state: once untraced (its time per
   request is the in-process cost of the stream) and once with a span
   around every call.  The traced pass also runs a sibling
   [Engine.handle] on an identically configured engine for each request;
   its time minus the engine-side layers' self time is the engine's own
   residual.  Spans are kept in memory and written out at the end. *)

open Lattice
module P = Server.Protocol
module Wire = Server.Wire

let now_ns = Client.now_ns

(* ---------- spans ---------- *)

type tracer = {
  on : bool;
  mutable n : int;
  mutable name : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable rid : int array;
  mutable words : float array;
  mutable cur : int;
  mutable req : int;
}

let tracer on =
  let cap = if on then 1 lsl 16 else 0 in
  { on; n = 0; name = Array.make cap ""; start = Array.make cap 0; stop = Array.make cap 0;
    parent = Array.make cap (-1); rid = Array.make cap (-1); words = Array.make cap 0.0;
    cur = -1; req = -1 }

let grow tr =
  let cap = 2 * Array.length tr.name in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 tr.n;
    b
  in
  tr.name <- ext tr.name "";
  tr.start <- ext tr.start 0;
  tr.stop <- ext tr.stop 0;
  tr.parent <- ext tr.parent (-1);
  tr.rid <- ext tr.rid (-1);
  tr.words <- ext tr.words 0.0

let span tr name f =
  if not tr.on then f ()
  else begin
    if tr.n = Array.length tr.name then grow tr;
    let i = tr.n in
    tr.n <- i + 1;
    tr.name.(i) <- name;
    tr.parent.(i) <- tr.cur;
    tr.rid.(i) <- tr.req;
    tr.cur <- i;
    let w0 = Gc.minor_words () in
    tr.start.(i) <- now_ns ();
    let r = f () in
    tr.stop.(i) <- now_ns ();
    tr.words.(i) <- Gc.minor_words () -. w0;
    tr.cur <- tr.parent.(i);
    r
  end

(* Self time: a span's duration minus the time its children cover
   (children of one span never overlap: the replay is sequential). *)
let self_ns tr =
  let self = Array.init tr.n (fun i -> tr.stop.(i) - tr.start.(i)) in
  for i = 0 to tr.n - 1 do
    let p = tr.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (tr.stop.(i) - tr.start.(i))
  done;
  self

type layer = { calls : int; self_ns : float; words : float }

(* Per span name: calls, total self time and total minor words, over
   the timed stream (request ids >= 0) plus the one-off open spans. *)
let layers tr =
  let self = self_ns tr in
  let tbl = Hashtbl.create 32 in
  for i = 0 to tr.n - 1 do
    if tr.rid.(i) >= 0 || tr.parent.(i) < 0 && tr.rid.(i) = -1 then
    let c, s, w = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl tr.name.(i)) in
    Hashtbl.replace tbl tr.name.(i) (c + 1, s +. float_of_int self.(i), w +. tr.words.(i))
  done;
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some (calls, self_ns, words) -> { calls; self_ns; words }
    | None -> { calls = 0; self_ns = 0.0; words = 0.0 }

let write_spans tr path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "request\tspan\tparent\tname\tstart_ns\tend_ns\tminor_words\n";
      let t0 = if tr.n > 0 then tr.start.(0) else 0 in
      for i = 0 to tr.n - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%.0f\n" tr.rid.(i) i tr.parent.(i) tr.name.(i)
          (tr.start.(i) - t0) (tr.stop.(i) - t0) tr.words.(i)
      done)

(* ---------- the mirrored request path ---------- *)

type entry =
  | Found of Tiling.Single.t * Core.Certificate.t Lazy.t
  | Absent

type state = {
  tr : tracer;
  corpus : Corpus.Snapshot.t;
  cache : entry Server.Cache.t;
  store : Store.t option;
  memo : (string, [ `Exact of Corpus.Snapshot.buf * int * int | `Non_exact | `Miss ]) Hashtbl.t;
}

(* The canonical tiling [offsets + Lambda], carried to the orientation
   the client asked for (the witness [g] maps the request's cells onto
   the canonical ones, up to the translation [a]); [Single.make]
   revalidates the result. *)
let transport ~tile ~g canon_tiling =
  let a = Zgeom.Vec.Set.min_elt (Zgeom.Vec.Set.map (Symmetry.apply g) (Prototile.cell_set tile)) in
  let gi = Symmetry.inverse g in
  let period =
    Sublattice.of_rows
      (List.map (Symmetry.apply gi) (Sublattice.generators (Tiling.Single.period canon_tiling)))
  in
  let offsets =
    List.map (fun o -> Symmetry.apply gi (Zgeom.Vec.sub o a)) (Tiling.Single.offsets canon_tiling)
  in
  Tiling.Single.make ~prototile:tile ~period ~offsets

let answer st (req : P.request) ~tile ~g ~source entry : P.response =
  let tr = st.tr in
  match entry with
  | Absent -> No_tiling (Some source)
  | Found (tiling, cert) -> (
    let oriented =
      if Prototile.equal tile (Tiling.Single.prototile tiling) then Ok (tiling, cert)
      else
        span tr "single.make" (fun () -> transport ~tile ~g tiling)
        |> Result.map (fun tl -> (tl, lazy (Core.Certificate.build tl)))
    in
    match oriented with
    | Error msg -> Error_r msg
    | Ok (tl, cert) -> (
      match req with
      | Slot { pos; _ } ->
        let sched = span tr "schedule.of_tiling" (fun () -> Core.Schedule.of_tiling tl) in
        Slot_r
          { slot = Core.Schedule.slot_at sched pos; num_slots = Core.Schedule.num_slots sched;
            source = Some source }
      | Schedule _ ->
        Schedule_r
          { schedule = span tr "schedule.of_tiling" (fun () -> Core.Schedule.of_tiling tl);
            source = Some source }
      | Tile_search _ ->
        let certificate =
          if Lazy.is_val cert then Lazy.force cert
          else span tr "certificate.build" (fun () -> Lazy.force cert)
        in
        Tiling_r { tiling = tl; certificate; source = Some source }
      | Stats | Shutdown -> Error_r "not a tile request"))

let search st ~canon ~sparse =
  let tr = st.tr in
  let name = if sparse then "search.find_tiling.sparse" else "search.find_tiling.poly" in
  match span tr name (fun () -> Tiling.Search.find_tiling canon) with
  | None -> Absent
  | Some tiling ->
    let cert = span tr "certificate.build" (fun () -> Core.Certificate.build tiling) in
    Found (tiling, Lazy.from_val cert)

let resolve st (req : P.request) tile =
  let tr = st.tr in
  let canon, g = span tr "symmetry.canonicalize" (fun () -> Symmetry.canonicalize tile) in
  let key = Core.Codec.vecs_to_string (Prototile.cells canon) in
  match
    span tr "snapshot.find" (fun () ->
        Option.map
          (fun hit -> (hit, Corpus.Snapshot.verdict st.corpus hit))
          (Corpus.Snapshot.find st.corpus key))
  with
  | Some (_, `Non_exact) -> P.No_tiling (Some Corpus)
  | Some (hit, `Exact) -> (
    match req with
    | Tile_search _ when Prototile.equal tile canon ->
      Tiling_raw_r
        { tiling_fields =
            span tr "snapshot.tiling_fields" (fun () -> Corpus.Snapshot.tiling_fields st.corpus hit);
          source = Some Corpus }
    | _ -> (
      match span tr "snapshot.entry" (fun () -> Corpus.Snapshot.entry st.corpus hit) with
      | Ok (Some (tiling, cert)) ->
        answer st req ~tile ~g ~source:Corpus (Found (tiling, Lazy.from_val cert))
      | Ok None | Error _ -> Error_r "corpus record"))
  | None -> (
    match span tr "cache.find" (fun () -> Server.Cache.find st.cache key) with
    | Some entry -> answer st req ~tile ~g ~source:Memory entry
    | None ->
      let stored =
        match st.store with
        | None -> None
        | Some store -> span tr "store.find" (fun () -> Store.find store key)
      in
      let entry, source =
        match stored with
        | Some Store.No_tiling -> (Absent, P.Store)
        | Some (Store.Found { tiling; certificate }) -> (Found (tiling, Lazy.from_val certificate), P.Store)
        | None ->
          let e = search st ~canon ~sparse:(not (Polyomino.is_connected canon)) in
          Option.iter
            (fun store ->
              let stored =
                match e with
                | Absent -> Store.No_tiling
                | Found (tiling, cert) -> Store.Found { tiling; certificate = Lazy.force cert }
              in
              span tr "store.put" (fun () -> Store.put store key stored))
            st.store;
          (e, P.Fresh)
      in
      span tr "cache.add" (fun () -> Server.Cache.add st.cache key entry);
      answer st req ~tile ~g ~source entry)

let frame_payload frame =
  String.sub frame Wire.header_size (String.length frame - Wire.header_size - Wire.trailer_size)

let splice st id p =
  let tr = st.tr in
  match p with
  | `Miss -> None
  | `Non_exact ->
    Some
      (span tr "wire.encode_response" (fun () ->
           String.length (Wire.encode_response ?id (P.No_tiling (Some Corpus)))))
  | `Exact (seg, pos, len) ->
    Some
      (span tr "wire.splice" (fun () ->
           let head =
             Wire.frame_prefix ?id ~opcode:Wire.op_tiling_r ~payload_len:(len + 1) ()
             ^ String.make 1 (Wire.src_byte (Some Corpus))
           in
           let crc =
             Wire.crc_emit
               (Wire.crc_bigstring (Wire.crc_string Wire.crc_init head 0 (String.length head)) seg pos len)
           in
           String.length head + len + String.length crc))

(* One request as the daemon receives it; returns the decoded request
   (for the sibling engine) when it took the engine road. *)
let handle_bin st frame =
  let tr = st.tr in
  let memo =
    if Wire.frame_opcode frame <> Wire.op_tile_search then None
    else span tr "frontend.memo" (fun () -> Hashtbl.find_opt st.memo (frame_payload frame))
  in
  match memo with
  | Some p when p <> `Miss && span tr "wire.frame_crc_ok" (fun () -> Wire.frame_crc_ok frame) ->
    ignore (splice st (Wire.frame_id frame) p);
    None
  | _ -> (
    match span tr "wire.decode_request" (fun () -> Wire.decode_request frame) with
    | Error _ -> None
    | Ok (id, req) -> (
      let fast =
        match req with
        | Tile_search tile ->
          let key = Core.Codec.vecs_to_string (Prototile.cells tile) in
          let p =
            span tr "snapshot.find" (fun () ->
                match Corpus.Snapshot.find st.corpus key with
                | None -> `Miss
                | Some hit -> (
                  match Corpus.Snapshot.verdict st.corpus hit with
                  | `Non_exact -> `Non_exact
                  | `Exact ->
                    let seg, pos, len = Corpus.Snapshot.tiling_raw st.corpus hit in
                    `Exact (seg, pos, len)))
          in
          Hashtbl.replace st.memo (frame_payload frame) p;
          splice st id p
        | _ -> None
      in
      match (fast, req) with
      | Some _, _ -> None
      | None, (Slot { tile; _ } | Schedule tile | Tile_search tile) ->
        let resp = resolve st req tile in
        ignore (span tr "wire.encode_response" (fun () -> Wire.encode_response ?id resp));
        Some req
      | None, (Stats | Shutdown) -> None))

let handle_text st line =
  let tr = st.tr in
  match span tr "protocol.request_of_string" (fun () -> P.request_of_string line) with
  | Ok (id, ((Slot { tile; _ } | Schedule tile | Tile_search tile) as req)) ->
    let resp = resolve st req tile in
    ignore (span tr "protocol.response_to_string" (fun () -> P.response_to_string ?id resp));
    Some req
  | Ok _ | Error _ -> None

(* ---------- the two passes ---------- *)

type input = Bin_frame of string | Text_line of string

type pass = {
  per_req_us : float;  (* mean time per stream request *)
  tracer : tracer;
  engine_us : float;  (* mean sibling Engine.handle time (traced pass) *)
}

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> output_string oc data)

(* [warm] runs first, untimed; [stream] is timed. *)
let pass ~traced ~corpus_dir ~store_template ~work ~warm ~stream =
  let tr = tracer traced in
  let store_copy tag =
    Option.map
      (fun tpl ->
        let p = Filename.concat work (Printf.sprintf "replay-%s-%b.store" tag traced) in
        copy_file tpl p;
        p)
      store_template
  in
  let open_corpus () =
    match Corpus.Snapshot.open_ corpus_dir with Ok c -> c | Error e -> failwith e
  in
  let corpus = span tr "snapshot.open" open_corpus in
  let store = Option.map (fun p -> span tr "store.open" (fun () -> Store.open_ p)) (store_copy "mirror") in
  let st = { tr; corpus; cache = Server.Cache.create ~capacity:256; store; memo = Hashtbl.create 1024 } in
  let engine_store = if traced then Option.map Store.open_ (store_copy "engine") else None in
  let engine =
    if traced then
      Some (Server.create ~cache_capacity:256 ~corpus:(open_corpus ()) ?store:engine_store ())
    else None
  in
  let engine_ns = ref 0 and engine_calls = ref 0 in
  let one i input =
    tr.req <- i;
    let req =
      span tr "request" (fun () ->
          match input with Bin_frame f -> handle_bin st f | Text_line l -> handle_text st l)
    in
    match (engine, req) with
    | Some e, Some req ->
      let t0 = now_ns () in
      ignore (span tr "engine.handle" (fun () -> Server.handle e req));
      engine_ns := !engine_ns + (now_ns () - t0);
      incr engine_calls
    | _ -> ()
  in
  Array.iteri (fun i x -> one (-2 - i) x) warm;
  engine_ns := 0;
  engine_calls := 0;
  let t0 = now_ns () in
  Array.iteri one stream;
  let elapsed = now_ns () - t0 - !engine_ns in
  Option.iter Store.close store;
  Option.iter (fun _ -> Option.iter Store.close engine_store) engine;
  { per_req_us = float_of_int elapsed /. 1000. /. float_of_int (max 1 (Array.length stream));
    tracer = tr;
    engine_us = float_of_int !engine_ns /. 1000. /. float_of_int (max 1 !engine_calls) }
