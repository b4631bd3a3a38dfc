(** Versioned length-prefixed binary framing for {!Protocol} messages.

    Frame layout (all multi-byte integers little-endian):

    {v
      offset  size  field
      0       2     magic 0xd3 0x54
      2       1     version (currently 1)
      3       1     opcode
      4       4     request id (u32; 0xffffffff = no id)
      8       4     payload length (u32, <= max_payload)
      12      n     payload (opcode-specific)
      12+n    4     CRC32 (IEEE) over header + payload
    v}

    The first magic byte (0xd3) can never open a text-protocol line
    (those start with the record header, ['t']), so the first byte of a
    connection is the whole protocol handshake.

    Scalars ride as i64; tiles as [u8 dim, u16 ncells, ncells*dim i64
    coords]; vectors as [u8 dim, dim i64 coords]; the reply [src]
    provenance marker as one byte (0 none, 1 memory, 2 corpus, 3 store,
    4 fresh).  Tiling replies carry the same ['|']-separated field
    fragment the text protocol splices from the corpus mmap, which is
    what makes the zero-copy path possible: header and payload need not
    be contiguous, so the CRC accumulator works over both strings and
    mmap-backed bigstrings.

    Like the text codec, the decoders are total: any malformed,
    truncated or mutated frame yields [Error _], never an exception. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val magic0 : char
(** First byte of every binary frame — the handshake sniff byte. *)

val is_binary : char -> bool
(** [is_binary c] is true iff a connection opening with byte [c] speaks
    the binary protocol. *)

val version : int

val header_size : int
(** 12: magic + version + opcode + id + payload length. *)

val trailer_size : int
(** 4: the CRC32. *)

val max_payload : int
(** Upper bound on the payload-length field; a frame claiming more is
    rejected before any allocation. *)

(** {2 Whole-frame codec} *)

val encode_request : ?id:int -> Protocol.request -> string

val encode_response : ?id:int -> Protocol.response -> string
(** [Tiling_raw_r] and [Tiling_r] share one opcode and are
    indistinguishable on the wire (mirroring the text codec). *)

val decode_request : string -> (int option * Protocol.request, string) result

val decode_response : string -> (int option * Protocol.response, string) result
(** Tiling replies decode structurally to [Tiling_raw_r]: framing,
    CRC and field shape are checked, but the tiling fragment rides
    through verbatim.  Callers that need the validated tiling and its
    certificate pass the fragment to {!Protocol.tiling_of_fragment}
    (plus {!Core.Certificate.build}) - deferring that work is what
    keeps a binary reply O(payload bytes) to consume, unlike the text
    codec's always-validating {!Protocol.response_of_string}. *)

(** {2 Streaming} *)

type need =
  | Need_more  (** fewer than {!header_size} bytes buffered *)
  | Total of int  (** full frame length, trailer included *)
  | Bad_frame of string  (** bad magic/version or absurd length *)

val frame_total : bytes -> off:int -> avail:int -> need
(** Inspect a buffered frame head without copying: how many bytes the
    frame at [off] occupies once complete. *)

(** {2 Header peeks}

    For complete frames already sized by {!frame_total}; the frontend's
    pre-decode fast route reads these straight off the frame bytes. *)

val op_tile_search : int
(** The tile-search request opcode. *)

val frame_opcode : string -> int

val frame_id : string -> int option

val frame_crc_ok : string -> bool
(** Whether the frame's CRC trailer matches its header + payload. *)

val frame_opcode_at : bytes -> off:int -> int
val frame_id_at : bytes -> off:int -> int option

val frame_crc_ok_at : bytes -> off:int -> total:int -> bool
(** The three peeks above on a [total]-byte frame at [off] of a
    receive buffer, read in place. *)

(** {2 Zero-copy framing}

    A spliced reply is sent as [prefix ^ src ^ mmap-slice ^ crc] via
    iovecs; these are the pieces, and {!splice_envelope} builds all of
    them but the slice in one string. *)

val frame_prefix : ?id:int -> opcode:int -> payload_len:int -> unit -> string
(** The {!header_size}-byte frame header. *)

val op_tiling_r : int
(** The tiling-reply opcode, for building spliced frames. *)

val src_byte : Protocol.source option -> char

val crc_init : int32
val crc_string : int32 -> string -> int -> int -> int32
val crc_bigstring : int32 -> bigstring -> int -> int -> int32

val crc_emit : int32 -> string
(** Finalize the accumulator into the 4-byte LE trailer. *)

val splice_head_len : int

val splice_envelope :
  ?id:int -> source:Protocol.source option -> bigstring -> int -> int -> string
(** [splice_envelope ?id ~source seg pos len] is everything of a
    tiling reply but its fragment [seg.[pos .. pos + len - 1]], in one
    string: its first {!splice_head_len} bytes (header and source byte)
    go before the fragment and its last {!trailer_size} bytes (the CRC
    over head and fragment) after it.  Send as three iovecs. *)
