type bigstring = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Slice-by-8: [table.(k * 256 + b)] is the CRC of byte [b] followed by
   [k] zero bytes, so one step folds eight input bytes with eight
   independent lookups.  Row 0 is the classic bytewise table. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let init = Int32.minus_one

let unbox crc = Int32.to_int crc land 0xFFFFFFFF

let[@inline] byte c b = (c lsr 8) lxor Array.unsafe_get table ((c lxor b) land 0xff)

(* [lo] and [hi] are the next eight bytes as two little-endian u32s. *)
let[@inline] step c lo hi =
  let lo = c lxor lo in
  Array.unsafe_get table (0x700 + (lo land 0xff))
  lxor Array.unsafe_get table (0x600 + ((lo lsr 8) land 0xff))
  lxor Array.unsafe_get table (0x500 + ((lo lsr 16) land 0xff))
  lxor Array.unsafe_get table (0x400 + (lo lsr 24))
  lxor Array.unsafe_get table (0x300 + (hi land 0xff))
  lxor Array.unsafe_get table (0x200 + ((hi lsr 8) land 0xff))
  lxor Array.unsafe_get table (0x100 + ((hi lsr 16) land 0xff))
  lxor Array.unsafe_get table (hi lsr 24)

let u32 x = Int32.to_int x land 0xFFFFFFFF

let string crc s pos len =
  let c = ref (unbox crc) and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    c := step !c (u32 (String.get_int32_le s !i)) (u32 (String.get_int32_le s (!i + 4)));
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := byte !c (Char.code (String.unsafe_get s j))
  done;
  Int32.of_int !c

external bs_get32 : bigstring -> int -> int32 = "%caml_bigstring_get32"
external bswap32 : int32 -> int32 = "%bswap_int32"

let bs_get32_le b i = if Sys.big_endian then bswap32 (bs_get32 b i) else bs_get32 b i

let bigstring crc (b : bigstring) pos len =
  let c = ref (unbox crc) and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    c := step !c (u32 (bs_get32_le b !i)) (u32 (bs_get32_le b (!i + 4)));
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := byte !c (Char.code (Bigarray.Array1.unsafe_get b j))
  done;
  Int32.of_int !c

let of_string s = Int32.lognot (string init s 0 (String.length s))
