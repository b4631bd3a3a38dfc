module Codec = Core.Codec
open Lattice

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* 0xd3 deliberately collides with nothing the text protocol can open
   with: text lines start with the record header "tilesched/v1;..."
   ('t' = 0x74), so the first byte of a fresh connection is the whole
   handshake. *)
let magic0 = '\xd3'
let magic1 = '\x54'
let version = 1
let header_size = 12
let trailer_size = 4
let max_payload = 1 lsl 24

let is_binary c = Char.equal c magic0

(* Request opcodes. *)
let op_slot = 0x01
let op_schedule = 0x02
let op_tile_search = 0x03
let op_stats = 0x04
let op_shutdown = 0x05

(* Response opcodes (request opcode | 0x80 where a pairing exists). *)
let op_slot_r = 0x81
let op_schedule_r = 0x82
let op_tiling_r = 0x83
let op_stats_r = 0x84
let op_no_tiling = 0x85
let op_overloaded = 0x86
let op_deadline = 0x87
let op_shutting_down = 0x88
let op_error_r = 0x89

(* ---------- crc32 ----------

   The trailer must cover spliced frames whose payload lives in the
   corpus mmap, so the accumulator works over both strings and
   bigstrings without assembling the frame first. *)

let crc_init = Core.Crc32.init
let crc_string = Core.Crc32.string
let crc_bigstring = Core.Crc32.bigstring

let crc_emit crc =
  let b = Bytes.create trailer_size in
  Bytes.set_int32_le b 0 (Int32.lognot crc);
  Bytes.unsafe_to_string b

(* ---------- source marker ---------- *)

let src_byte = function
  | None -> '\000'
  | Some Protocol.Memory -> '\001'
  | Some Protocol.Corpus -> '\002'
  | Some Protocol.Store -> '\003'
  | Some Protocol.Fresh -> '\004'

let src_of_byte = function
  | '\000' -> Ok None
  | '\001' -> Ok (Some Protocol.Memory)
  | '\002' -> Ok (Some Protocol.Corpus)
  | '\003' -> Ok (Some Protocol.Store)
  | '\004' -> Ok (Some Protocol.Fresh)
  | c -> Error (Printf.sprintf "unknown source byte 0x%02x" (Char.code c))

(* ---------- framing ---------- *)

let no_id = 0xFFFFFFFF

(* Writes the 12-byte header at the start of [b]. *)
let set_prefix b ?id ~opcode ~payload_len () =
  if payload_len < 0 || payload_len > max_payload then
    invalid_arg "Wire.frame_prefix: payload length";
  let idv =
    match id with
    | None -> no_id
    | Some i when i >= 0 && i < no_id -> i
    | Some _ -> invalid_arg "Wire.frame_prefix: id out of u32 range"
  in
  Bytes.set b 0 magic0;
  Bytes.set b 1 magic1;
  Bytes.set b 2 (Char.chr version);
  Bytes.set b 3 (Char.chr opcode);
  Bytes.set_int32_le b 4 (Int32.of_int idv);
  Bytes.set_int32_le b 8 (Int32.of_int payload_len)

let frame_prefix ?id ~opcode ~payload_len () =
  let b = Bytes.create header_size in
  set_prefix b ?id ~opcode ~payload_len ();
  Bytes.unsafe_to_string b

(* The frame around the payload in [buf], built in one allocation with
   the checksum taken over the frame bytes in place. *)
let finish_frame ?id ~opcode buf =
  let plen = Buffer.length buf in
  let b = Bytes.create (header_size + plen + trailer_size) in
  set_prefix b ?id ~opcode ~payload_len:plen ();
  Buffer.blit buf 0 b header_size plen;
  let crc = crc_string crc_init (Bytes.unsafe_to_string b) 0 (header_size + plen) in
  Bytes.set_int32_le b (header_size + plen) (Int32.lognot crc);
  Bytes.unsafe_to_string b

type need = Need_more | Total of int | Bad_frame of string

let frame_total buf ~off ~avail =
  if avail < header_size then Need_more
  else if Bytes.get buf off <> magic0 || Bytes.get buf (off + 1) <> magic1
  then Bad_frame "bad magic"
  else if Char.code (Bytes.get buf (off + 2)) <> version then
    Bad_frame
      (Printf.sprintf "unsupported version %d" (Char.code (Bytes.get buf (off + 2))))
  else
    let plen = Int32.to_int (Bytes.get_int32_le buf (off + 8)) land no_id in
    if plen > max_payload then
      Bad_frame (Printf.sprintf "payload length %d exceeds cap" plen)
    else Total (header_size + plen + trailer_size)

(* Header peeks for complete frames whose shape [frame_total] already
   vetted - the frontend's pre-decode fast route reads these straight
   off the frame bytes. *)

let frame_opcode_at b ~off = Char.code (Bytes.get b (off + 3))

let frame_id_at b ~off =
  let idv = Int32.to_int (Bytes.get_int32_le b (off + 4)) land no_id in
  if idv = no_id then None else Some idv

let frame_crc_ok_at b ~off ~total =
  total >= header_size + trailer_size
  && Bytes.get_int32_le b (off + total - trailer_size)
     = Int32.lognot (crc_string crc_init (Bytes.unsafe_to_string b) off (total - trailer_size))

let frame_opcode s = frame_opcode_at (Bytes.unsafe_of_string s) ~off:0
let frame_id s = frame_id_at (Bytes.unsafe_of_string s) ~off:0

let frame_crc_ok s =
  frame_crc_ok_at (Bytes.unsafe_of_string s) ~off:0 ~total:(String.length s)

(* Header, source byte and trailer of a spliced tiling reply in one
   string: the first [splice_head_len] bytes go before the fragment,
   the last [trailer_size] after it. *)
let splice_head_len = header_size + 1

let splice_envelope ?id ~source seg pos len =
  let b = Bytes.create (splice_head_len + trailer_size) in
  set_prefix b ?id ~opcode:op_tiling_r ~payload_len:(len + 1) ();
  Bytes.set b header_size (src_byte source);
  let crc =
    crc_bigstring (crc_string crc_init (Bytes.unsafe_to_string b) 0 splice_head_len) seg pos len
  in
  Bytes.set_int32_le b splice_head_len (Int32.lognot crc);
  Bytes.unsafe_to_string b

(* ---------- payload writers ---------- *)

let put_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

let put_vec buf v =
  let coords = Zgeom.Vec.to_list v in
  let dim = List.length coords in
  if dim > 0xff then invalid_arg "Wire: vector dimension out of range";
  Buffer.add_uint8 buf dim;
  List.iter (put_i64 buf) coords

let put_tile buf tile =
  let dim = Prototile.dim tile and n = Prototile.size tile in
  if dim > 0xff then invalid_arg "Wire: tile dimension out of range";
  if n > 0xffff then invalid_arg "Wire: tile cell count out of range";
  Buffer.add_uint8 buf dim;
  Buffer.add_uint16_le buf n;
  Zgeom.Vec.Set.iter
    (fun v ->
      for i = 0 to dim - 1 do
        put_i64 buf (Zgeom.Vec.coord v i)
      done)
    (Prototile.cell_set tile)

let put_src buf source = Buffer.add_char buf (src_byte source)

let encode_request ?id req =
  let buf = Buffer.create 64 in
  let opcode =
    match (req : Protocol.request) with
    | Slot { tile; pos } ->
        put_tile buf tile;
        put_vec buf pos;
        op_slot
    | Schedule tile ->
        put_tile buf tile;
        op_schedule
    | Tile_search tile ->
        put_tile buf tile;
        op_tile_search
    | Stats -> op_stats
    | Shutdown -> op_shutdown
  in
  finish_frame ?id ~opcode buf

let encode_response ?id resp =
  let buf = Buffer.create 64 in
  let opcode =
    match (resp : Protocol.response) with
    | Slot_r { slot; num_slots; source } ->
        put_src buf source;
        put_i64 buf slot;
        put_i64 buf num_slots;
        op_slot_r
    | Schedule_r { schedule; source } ->
        put_src buf source;
        Buffer.add_string buf (Codec.schedule_to_string schedule);
        op_schedule_r
    | Tiling_r { tiling; certificate = _; source } ->
        put_src buf source;
        Buffer.add_string buf (Protocol.tiling_fragment tiling);
        op_tiling_r
    | Tiling_raw_r { tiling_fields; source } ->
        put_src buf source;
        Buffer.add_string buf tiling_fields;
        op_tiling_r
    | Stats_r s ->
        List.iter (put_i64 buf)
          [ s.served; s.overloaded; s.errors; s.searches; s.coalesced;
            s.timeouts; s.cache_hits; s.cache_misses; s.cache_evictions;
            s.cache_entries; s.store_hits; s.corpus_hits ];
        op_stats_r
    | No_tiling source ->
        put_src buf source;
        op_no_tiling
    | Overloaded -> op_overloaded
    | Deadline_exceeded -> op_deadline
    | Shutting_down -> op_shutting_down
    | Error_r msg ->
        Buffer.add_string buf msg;
        op_error_r
  in
  finish_frame ?id ~opcode buf

(* ---------- payload readers ---------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

type cursor = { s : string; mutable pos : int; limit : int }

let need cur n = if cur.pos + n > cur.limit then bad "truncated payload"

let get_u8 cur =
  need cur 1;
  let v = Char.code cur.s.[cur.pos] in
  cur.pos <- cur.pos + 1;
  v

let get_u16 cur =
  need cur 2;
  let v = String.get_uint16_le cur.s cur.pos in
  cur.pos <- cur.pos + 2;
  v

let get_i64 cur =
  need cur 8;
  let v = Int64.to_int (String.get_int64_le cur.s cur.pos) in
  cur.pos <- cur.pos + 8;
  v

let get_rest cur =
  let v = String.sub cur.s cur.pos (cur.limit - cur.pos) in
  cur.pos <- cur.limit;
  v

(* Explicit recursion: the coordinate stream must be consumed
   left-to-right (List.init evaluation order is unspecified). *)
let rec get_i64s cur k acc =
  if k = 0 then List.rev acc else get_i64s cur (k - 1) (get_i64 cur :: acc)

let get_vec cur =
  let dim = get_u8 cur in
  if dim = 0 then bad "zero-dimensional vector";
  Zgeom.Vec.of_list (get_i64s cur dim [])

let get_tile cur =
  let dim = get_u8 cur in
  let n = get_u16 cur in
  if dim = 0 || n = 0 then bad "empty tile";
  let rec cells k acc =
    if k = 0 then List.rev acc
    else cells (k - 1) (Zgeom.Vec.of_list (get_i64s cur dim []) :: acc)
  in
  match Prototile.of_cells (cells n []) with
  | p -> p
  | exception _ -> bad "invalid tile (empty, mixed dims, or origin missing)"

let get_src cur =
  need cur 1;
  let c = cur.s.[cur.pos] in
  cur.pos <- cur.pos + 1;
  match src_of_byte c with Ok s -> s | Error e -> bad "%s" e

let ensure_done cur =
  if cur.pos <> cur.limit then bad "trailing bytes in payload"

(* ---------- frame decode ---------- *)

let decode_frame s =
  let len = String.length s in
  if len < header_size + trailer_size then bad "frame shorter than header";
  if s.[0] <> magic0 || s.[1] <> magic1 then bad "bad magic";
  if Char.code s.[2] <> version then
    bad "unsupported version %d" (Char.code s.[2]);
  let opcode = Char.code s.[3] in
  let idv = Int32.to_int (String.get_int32_le s 4) land no_id in
  let plen = Int32.to_int (String.get_int32_le s 8) land no_id in
  if len <> header_size + plen + trailer_size then
    bad "frame length %d disagrees with payload length %d" len plen;
  let stored = String.get_int32_le s (header_size + plen) in
  let computed = Int32.lognot (crc_string crc_init s 0 (header_size + plen)) in
  if stored <> computed then bad "crc mismatch";
  let id = if idv = no_id then None else Some idv in
  (opcode, id, { s; pos = header_size; limit = header_size + plen })

let decode_request s =
  match
    let opcode, id, cur = decode_frame s in
    let req =
      match opcode with
      | 0x01 ->
          let tile = get_tile cur in
          let pos = get_vec cur in
          Protocol.Slot { tile; pos }
      | 0x02 -> Protocol.Schedule (get_tile cur)
      | 0x03 -> Protocol.Tile_search (get_tile cur)
      | 0x04 -> Protocol.Stats
      | 0x05 -> Protocol.Shutdown
      | op when op land 0x80 <> 0 -> bad "response opcode 0x%02x in request" op
      | op -> bad "unknown request opcode 0x%02x" op
    in
    ensure_done cur;
    (id, req)
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
  | exception e -> Error (Printexc.to_string e)

let decode_response s =
  match
    let opcode, id, cur = decode_frame s in
    let resp =
      match opcode with
      | 0x81 ->
          let source = get_src cur in
          let slot = get_i64 cur in
          let num_slots = get_i64 cur in
          if num_slots < 1 || slot < 0 || slot >= num_slots then
            bad "slot out of range"
          else Protocol.Slot_r { slot; num_slots; source }
      | 0x82 -> (
          let source = get_src cur in
          match Codec.schedule_of_string (get_rest cur) with
          | Ok schedule -> Protocol.Schedule_r { schedule; source }
          | Error e -> bad "%s" e)
      | 0x83 ->
          (* Structural decode only: the fragment rides through verbatim
             and [Protocol.tiling_of_fragment] revalidates on demand.
             Eager validation here would spend a certificate build per
             reply and erase the wire format's latency advantage. *)
          let source = get_src cur in
          Protocol.Tiling_raw_r { tiling_fields = get_rest cur; source }
      | 0x84 ->
          let g () = get_i64 cur in
          let served = g () in
          let overloaded = g () in
          let errors = g () in
          let searches = g () in
          let coalesced = g () in
          let timeouts = g () in
          let cache_hits = g () in
          let cache_misses = g () in
          let cache_evictions = g () in
          let cache_entries = g () in
          let store_hits = g () in
          let corpus_hits = g () in
          Protocol.Stats_r
            { served; overloaded; errors; searches; coalesced; timeouts;
              cache_hits; cache_misses; cache_evictions; cache_entries;
              store_hits; corpus_hits }
      | 0x85 -> Protocol.No_tiling (get_src cur)
      | 0x86 -> Protocol.Overloaded
      | 0x87 -> Protocol.Deadline_exceeded
      | 0x88 -> Protocol.Shutting_down
      | 0x89 -> Protocol.Error_r (get_rest cur)
      | op when op land 0x80 = 0 -> bad "request opcode 0x%02x in response" op
      | op -> bad "unknown response opcode 0x%02x" op
    in
    ensure_done cur;
    (id, resp)
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
  | exception e -> Error (Printexc.to_string e)
