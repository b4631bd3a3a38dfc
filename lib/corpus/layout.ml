(* On-disk grammar shared by the campaign writer (Campaign) and the mmap
   reader (Snapshot).  Everything here is deterministic: a corpus built
   twice from the same parameters is byte-identical, which is what makes
   the kill-and-resume acceptance test a plain [cmp]. *)

let seg_magic = "TCORPS1\n"
let idx_magic = "TCORPI1\n"
let magic_len = 8
let version = 1

(* A record payload is a handful of text lines (a tiling line plus a
   certificate); anything bigger is a corrupt length field. *)
let max_payload = 1 lsl 24
let max_key = 1 lsl 16

let header_size = 12 (* crc32 | tag | band | key len (u16) | payload len (u32) *)
let idx_entry_size = 16 (* key hash (u64) | segment record offset (u64) *)

let tag_non_exact = 0
let tag_exact = 1

let manifest_name = "MANIFEST"
let segment_name shard = Printf.sprintf "shard-%03d.seg" shard
let index_name shard = Printf.sprintf "shard-%03d.idx" shard

(* ---------- key hashing / sharding ---------- *)

(* FNV-1a over the key bytes, folded into OCaml's native int (so the
   multiply wraps mod 2^63 rather than 2^64 - fine, the hash only ever
   meets hashes computed by this same function) and masked to 62 bits so
   the stored u64 round-trips through non-negative OCaml ints. *)
let hash_mask = 0x3FFF_FFFF_FFFF_FFFF

let hash_key key =
  (* The 64-bit FNV offset basis, already masked to 62 bits. *)
  let h = ref 0x0BF2_9CE4_8422_2325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x1000_0000_01B3)
    key;
  !h land hash_mask

let shard_of_key ~shards key = hash_key key mod shards

(* ---------- record codec ---------- *)

let put_u16 b off v =
  Bytes.set_uint16_le b off v

let put_u32 b off v =
  Bytes.set_int32_le b off (Int32.of_int v)

let put_u64 b off v =
  Bytes.set_int64_le b off (Int64.of_int v)

let get_u16 s off = String.get_uint16_le s off
let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFF_FFFF
let get_u64 s off = Int64.to_int (String.get_int64_le s off)

let encode_record ~band ~tag ~key ~payload =
  let klen = String.length key and plen = String.length payload in
  if klen = 0 || klen >= max_key then invalid_arg "Corpus.Layout.encode_record: bad key length";
  if plen > max_payload then invalid_arg "Corpus.Layout.encode_record: payload too large";
  if band < 1 || band > 255 then invalid_arg "Corpus.Layout.encode_record: band must be 1..255";
  let b = Bytes.create (header_size + klen + plen) in
  Bytes.set b 4 (Char.chr tag);
  Bytes.set b 5 (Char.chr band);
  put_u16 b 6 klen;
  put_u32 b 8 plen;
  Bytes.blit_string key 0 b header_size klen;
  Bytes.blit_string payload 0 b (header_size + klen) plen;
  let body = Bytes.sub_string b 4 (header_size - 4 + klen + plen) in
  Bytes.set_int32_le b 0 (Core.Crc32.of_string body);
  Bytes.unsafe_to_string b

(* Walk every record of a raw segment image (magic included), calling
   [f] with the record's byte offset and decoded fields.  Unlike the
   store's longest-valid-prefix scan this is strict: the campaign only
   publishes fsynced, manifest-covered bytes, so any framing or CRC
   violation here is corruption, not a torn tail. *)
let fold_records data ~init ~f =
  let n = String.length data in
  if n < magic_len || String.sub data 0 magic_len <> seg_magic then
    Error "bad segment magic"
  else begin
    let acc = ref init in
    let pos = ref magic_len in
    let err = ref None in
    while !err = None && !pos < n do
      let off = !pos in
      if n - off < header_size then err := Some (Printf.sprintf "torn record header at byte %d" off)
      else begin
        let crc = String.get_int32_le data off in
        let tag = Char.code data.[off + 4] in
        let band = Char.code data.[off + 5] in
        let klen = get_u16 data (off + 6) in
        let plen = get_u32 data (off + 8) in
        if klen = 0 || klen >= max_key || plen > max_payload || off + header_size + klen + plen > n
        then err := Some (Printf.sprintf "impossible record lengths at byte %d" off)
        else if
          Core.Crc32.of_string (String.sub data (off + 4) (header_size - 4 + klen + plen)) <> crc
        then err := Some (Printf.sprintf "CRC mismatch at byte %d" off)
        else if tag <> tag_non_exact && tag <> tag_exact then
          err := Some (Printf.sprintf "unknown verdict tag %d at byte %d" tag off)
        else begin
          let key = String.sub data (off + header_size) klen in
          let payload = String.sub data (off + header_size + klen) plen in
          acc := f !acc ~off ~band ~tag ~key ~payload;
          pos := off + header_size + klen + plen
        end
      end
    done;
    match !err with Some e -> Error e | None -> Ok !acc
  end

(* ---------- manifest codec ---------- *)

type band = {
  n : int;
  classes : int;
  exact : int;
  non_exact : int;
  lens : int array;  (** cumulative per-shard segment length after this band, bytes *)
}

type manifest = {
  shards : int;
  sealed : bool;
  bands : band list;  (** contiguous, ascending [n] starting at 1 *)
}

let ints_to_string a =
  String.concat "," (List.map string_of_int (Array.to_list a))

let ints_of_string s =
  try Ok (Array.of_list (List.map int_of_string (String.split_on_char ',' s)))
  with Failure _ -> Error ("bad integer list: " ^ s)

let manifest_to_string m =
  let header =
    Core.Codec.encode_record ~kind:"corpus-manifest"
      [ ("version", string_of_int version); ("shards", string_of_int m.shards);
        ("sealed", if m.sealed then "true" else "false") ]
  in
  let band b =
    Core.Codec.encode_record ~kind:"corpus-band"
      [ ("n", string_of_int b.n); ("classes", string_of_int b.classes);
        ("exact", string_of_int b.exact); ("nonexact", string_of_int b.non_exact);
        ("lens", ints_to_string b.lens) ]
  in
  String.concat "\n" (header :: List.map band m.bands) ^ "\n"

let manifest_of_string s =
  let ( let* ) = Result.bind in
  let int_field kvs k =
    let* v = Core.Codec.field kvs k in
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error ("bad integer in field " ^ k ^ ": " ^ v)
  in
  match String.split_on_char '\n' (String.trim s) with
  | [] -> Error "empty manifest"
  | header :: rest ->
    let* kvs = Core.Codec.decode_record ~kind:"corpus-manifest" header in
    let* v = int_field kvs "version" in
    let* () = if v = version then Ok () else Error (Printf.sprintf "unsupported corpus version %d" v) in
    let* shards = int_field kvs "shards" in
    let* () = if shards >= 1 then Ok () else Error "shards must be >= 1" in
    let* sealed =
      let* s = Core.Codec.field kvs "sealed" in
      match s with
      | "true" -> Ok true
      | "false" -> Ok false
      | s -> Error ("bad sealed flag: " ^ s)
    in
    let* bands =
      List.fold_left
        (fun acc line ->
          let* acc = acc in
          let* kvs = Core.Codec.decode_record ~kind:"corpus-band" line in
          let* n = int_field kvs "n" in
          let* classes = int_field kvs "classes" in
          let* exact = int_field kvs "exact" in
          let* non_exact = int_field kvs "nonexact" in
          let* lens_s = Core.Codec.field kvs "lens" in
          let* lens = ints_of_string lens_s in
          if Array.length lens <> shards then Error "band lens arity differs from shard count"
          else Ok ({ n; classes; exact; non_exact; lens } :: acc))
        (Ok []) rest
    in
    let bands = List.rev bands in
    let rec contiguous k = function
      | [] -> Ok ()
      | b :: tl -> if b.n = k then contiguous (k + 1) tl else Error "bands are not contiguous from 1"
    in
    let* () = contiguous 1 bands in
    Ok { shards; sealed; bands }

let completed m = match List.rev m.bands with [] -> 0 | b :: _ -> b.n

let shard_lengths m =
  match List.rev m.bands with
  | [] -> Array.make m.shards magic_len
  | b :: _ -> Array.copy b.lens
