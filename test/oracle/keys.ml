(* Reference oracle for [Core.Codec.vec_to_string] and
   [vecs_to_string]: the per-coordinate [string_of_int] joined with
   [String.concat] that the one-buffer encoder replaces.  Cache keys,
   corpus keys and every record line are built by that encoder, so the
   differential property in [test_core.ml] holds it to these bytes. *)

open Zgeom

let vec_to_string v = String.concat "," (List.map string_of_int (Vec.to_list v))

let vecs_to_string vs = String.concat ";" (List.map vec_to_string vs)
