(* Reference oracle for [Core.Crc32]: the textbook bit-at-a-time
   reflected CRC-32 (polynomial 0xEDB88320), one byte per step and no
   table, so it shares nothing with the library's slice-by-8 kernel. *)

let byte crc c =
  let c = ref (crc lxor Char.code c) in
  for _ = 0 to 7 do
    c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
  done;
  !c

let unbox crc = Int32.to_int crc land 0xFFFFFFFF

let string crc s pos len =
  let c = ref (unbox crc) in
  for i = pos to pos + len - 1 do
    c := byte !c s.[i]
  done;
  Int32.of_int !c

let bigstring crc (b : Core.Crc32.bigstring) pos len =
  let c = ref (unbox crc) in
  for i = pos to pos + len - 1 do
    c := byte !c (Bigarray.Array1.get b i)
  done;
  Int32.of_int !c
