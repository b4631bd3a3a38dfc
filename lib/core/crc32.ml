type bigstring = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let init = Int32.minus_one

let unbox crc = Int32.to_int crc land 0xFFFFFFFF

let string crc s pos len =
  let t = Lazy.force table in
  let c = ref (unbox crc) in
  for i = pos to pos + len - 1 do
    c := (!c lsr 8) lxor Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
  done;
  Int32.of_int !c

let bigstring crc (b : bigstring) pos len =
  let t = Lazy.force table in
  let c = ref (unbox crc) in
  for i = pos to pos + len - 1 do
    c :=
      (!c lsr 8)
      lxor Array.unsafe_get t ((!c lxor Char.code (Bigarray.Array1.unsafe_get b i)) land 0xff)
  done;
  Int32.of_int !c

let of_string s = Int32.lognot (string init s 0 (String.length s))
