(* On-disk grammar of every verdict file: the campaign's corpus segments
   (Campaign), the mmap reader (Snapshot) and the certificate store
   (Store) write and read the same records, with the same payload codec
   and the same proof.  Everything here is deterministic: a corpus built
   twice from the same parameters is byte-identical, which is what makes
   the kill-and-resume acceptance test a plain [cmp]. *)

open Lattice

let seg_magic = "TCORPS2\n"
let idx_magic = "TCORPI1\n"
let magic_len = 8
let version = 2

let header_size = 14 (* crc32 | tag | band | key len (u32) | payload len (u32) *)
let idx_entry_size = 16 (* key hash (u64) | segment record offset (u64) *)

let tag_non_exact = 0
let tag_exact = 1
let tag_not_found = 2

let manifest_name = "MANIFEST"
let segment_name shard = Printf.sprintf "shard-%03d.seg" shard
let index_name shard = Printf.sprintf "shard-%03d.idx" shard

(* ---------- keys ---------- *)

let key_of_cells p = Core.Codec.vecs_to_string (Prototile.cells p)
let key_of_prototile p = key_of_cells (Symmetry.canonical p)

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

(* ---------- exact payload: codec and proof ---------- *)

let encode_payload tiling certificate =
  Core.Codec.tiling_to_string tiling ^ "\n" ^ Core.Certificate.to_string certificate

(* The tiling is revalidated by [Codec.tiling_of_string], which goes
   through [Single.make]; the certificate is only parsed. *)
let decode_payload payload =
  let ( let* ) = Result.bind in
  match String.split_on_char '\n' payload with
  | tiling_line :: (_ :: _ :: _ :: [] as cert_lines) ->
    let* tiling =
      Result.map_error (( ^ ) "bad tiling: ") (Core.Codec.tiling_of_string tiling_line)
    in
    let* certificate =
      Result.map_error (( ^ ) "bad certificate: ")
        (Core.Certificate.of_string (String.concat "\n" cert_lines))
    in
    Ok (tiling, certificate)
  | _ -> Error "malformed exact payload"

(* The keying rule: an exact record is keyed by the canonical key of its
   tiling's prototile, which also forces the stored orientation to be
   the canonical one the server's transport step assumes. *)
let check_key ~key tiling (certificate : Core.Certificate.t) =
  let proto = Tiling.Single.prototile tiling in
  if not (Prototile.equal proto certificate.prototile) then
    Error "certificate prototile differs from tiling prototile"
  else if key_of_cells proto <> key || key_of_prototile proto <> key then
    Error "key is not the canonical key of the tiling"
  else Ok ()

let prove ~key tiling certificate =
  Result.bind (check_key ~key tiling certificate) (fun () ->
      Result.map_error
        (Format.asprintf "certificate rejected: %a" Core.Certificate.pp_failure)
        (Core.Certificate.check certificate))

(* ---------- record codec ---------- *)

let max_len = 0xFFFF_FFFF

let put_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let put_u64 b off v = Bytes.set_int64_le b off (Int64.of_int v)
let get_u32 s off = Int32.to_int (String.get_int32_le s off) land max_len

let encode_record ~band ~tag ~key ~payload =
  let klen = String.length key and plen = String.length payload in
  if klen = 0 || klen > max_len then invalid_arg "Corpus.Layout.encode_record: bad key length";
  if plen > max_len then invalid_arg "Corpus.Layout.encode_record: payload too large";
  if band < 0 || band > 255 then invalid_arg "Corpus.Layout.encode_record: band must be 0..255";
  if tag < 0 || tag > tag_not_found then invalid_arg "Corpus.Layout.encode_record: unknown tag";
  let b = Bytes.create (header_size + klen + plen) in
  Bytes.set b 4 (Char.chr tag);
  Bytes.set b 5 (Char.chr band);
  put_u32 b 6 klen;
  put_u32 b 10 plen;
  Bytes.blit_string key 0 b header_size klen;
  Bytes.blit_string payload 0 b (header_size + klen) plen;
  let body = Bytes.sub_string b 4 (header_size - 4 + klen + plen) in
  Bytes.set_int32_le b 0 (Core.Crc32.of_string body);
  Bytes.unsafe_to_string b

(* Walk the records of a raw segment image (magic included), calling
   [f] with each record's byte offset and decoded fields.  The first
   framing violation stops the walk and is reported with the
   accumulator and the byte length of the valid prefix before it: the
   store cuts its torn tail there, while the campaign and [verify],
   which only read fsynced, manifest-covered bytes, call it
   corruption. *)
let fold_records data ~init ~f =
  let n = String.length data in
  let stop acc off fmt = Printf.ksprintf (fun e -> Error (acc, off, e)) fmt in
  let rec go acc off =
    if off = n then Ok acc
    else if n - off < header_size then stop acc off "torn record header at byte %d" off
    else
      let tag = Char.code data.[off + 4] and band = Char.code data.[off + 5] in
      let klen = get_u32 data (off + 6) and plen = get_u32 data (off + 10) in
      let len = header_size + klen + plen in
      if klen = 0 || len > n - off then stop acc off "impossible record lengths at byte %d" off
      else if
        Int32.lognot (Core.Crc32.string Core.Crc32.init data (off + 4) (len - 4))
        <> String.get_int32_le data off
      then stop acc off "CRC mismatch at byte %d" off
      else if tag > tag_not_found then stop acc off "unknown verdict tag %d at byte %d" tag off
      else
        let key = String.sub data (off + header_size) klen in
        let payload = String.sub data (off + header_size + klen) plen in
        go (f acc ~off ~band ~tag ~key ~payload) (off + len)
  in
  if String.starts_with ~prefix:seg_magic data then go init magic_len
  else Error (init, 0, "bad segment magic")

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
