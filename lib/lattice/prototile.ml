open Zgeom

type t = { dim : int; cells : Vec.Set.t }

let of_set dim cells =
  assert (Vec.Set.mem (Vec.zero dim) cells);
  { dim; cells }

let of_cells = function
  | [] -> invalid_arg "Prototile.of_cells: empty"
  | c :: _ as cs ->
    let dim = Vec.dim c in
    assert (List.for_all (fun v -> Vec.dim v = dim) cs);
    of_set dim (Vec.Set.of_list cs)

let of_cells_anchored = function
  | [] -> invalid_arg "Prototile.of_cells_anchored: empty"
  | c :: _ as cs ->
    let anchor = List.fold_left (fun m v -> if Vec.compare v m < 0 then v else m) c cs in
    of_cells (List.map (fun v -> Vec.sub v anchor) cs)

(* All integer points of the box [-r, r]^d satisfying [keep]. *)
let ball_of ~dim r keep =
  assert (dim > 0 && r >= 0);
  let rec go i acc prefix =
    if i = dim then
      let v = Vec.of_list (List.rev prefix) in
      if keep v then v :: acc else acc
    else
      List.fold_left (fun acc x -> go (i + 1) acc (x :: prefix)) acc
        (List.init ((2 * r) + 1) (fun k -> k - r))
  in
  of_cells (go 0 [] [])

let chebyshev_ball ~dim r = ball_of ~dim r (fun _ -> true)
let euclidean_ball_sq ~dim r2 =
  (* Largest integer radius reaching r2, robust to float rounding. *)
  let r0 = int_of_float (sqrt (float_of_int r2)) in
  let r = if (r0 + 1) * (r0 + 1) <= r2 then r0 + 1 else r0 in
  ball_of ~dim r (fun v -> Vec.norm2_sq v <= r2)
let euclidean_ball ~dim r = euclidean_ball_sq ~dim (r * r)
let manhattan_ball ~dim r = ball_of ~dim r (fun v -> Vec.norm1 v <= r)

let rect w h =
  assert (w > 0 && h > 0);
  of_cells
    (List.concat_map (fun x -> List.init h (fun y -> Vec.make2 x y)) (List.init w Fun.id))

let directional = rect 2 4

let of_ascii picture =
  let lines = String.split_on_char '\n' picture |> List.filter (fun l -> String.trim l <> "") in
  if lines = [] then invalid_arg "Prototile.of_ascii: empty picture";
  let height = List.length lines in
  let cells = ref [] in
  let origin = ref None in
  List.iteri
    (fun row line ->
      String.iteri
        (fun col ch ->
          let v = Vec.make2 col (height - 1 - row) in
          match ch with
          | '#' -> cells := v :: !cells
          | 'O' | 'o' ->
            if !origin <> None then invalid_arg "Prototile.of_ascii: two origins";
            origin := Some v;
            cells := v :: !cells
          | '.' | ' ' -> ()
          | c -> invalid_arg (Printf.sprintf "Prototile.of_ascii: bad character %c" c))
        line)
    lines;
  match !origin with
  | None -> invalid_arg "Prototile.of_ascii: no origin ('O') cell"
  | Some o -> of_cells (List.map (fun v -> Vec.sub v o) !cells)

let shape2 coords = of_cells_anchored (List.map (fun (x, y) -> Vec.make2 x y) coords)

let tetromino = function
  | `I -> shape2 [ (0, 0); (1, 0); (2, 0); (3, 0) ]
  | `O -> shape2 [ (0, 0); (1, 0); (0, 1); (1, 1) ]
  | `T -> shape2 [ (0, 0); (1, 0); (2, 0); (1, 1) ]
  | `S -> shape2 [ (0, 0); (1, 0); (1, 1); (2, 1) ]
  | `Z -> shape2 [ (0, 1); (1, 1); (1, 0); (2, 0) ]
  | `L -> shape2 [ (0, 0); (0, 1); (0, 2); (1, 0) ]
  | `J -> shape2 [ (1, 0); (1, 1); (1, 2); (0, 0) ]

let pentomino = function
  | `F -> shape2 [ (1, 0); (0, 1); (1, 1); (1, 2); (2, 2) ]
  | `I -> shape2 [ (0, 0); (1, 0); (2, 0); (3, 0); (4, 0) ]
  | `L -> shape2 [ (0, 0); (0, 1); (0, 2); (0, 3); (1, 0) ]
  | `N -> shape2 [ (0, 0); (0, 1); (1, 1); (1, 2); (1, 3) ]
  | `P -> shape2 [ (0, 0); (0, 1); (0, 2); (1, 1); (1, 2) ]
  | `T -> shape2 [ (0, 2); (1, 2); (2, 2); (1, 1); (1, 0) ]
  | `U -> shape2 [ (0, 0); (0, 1); (1, 0); (2, 0); (2, 1) ]
  | `V -> shape2 [ (0, 0); (0, 1); (0, 2); (1, 0); (2, 0) ]
  | `W -> shape2 [ (0, 0); (0, 1); (1, 1); (1, 2); (2, 2) ]
  | `X -> shape2 [ (1, 0); (0, 1); (1, 1); (2, 1); (1, 2) ]
  | `Y -> shape2 [ (0, 1); (1, 0); (1, 1); (1, 2); (1, 3) ]
  | `Z -> shape2 [ (0, 2); (1, 2); (1, 1); (1, 0); (2, 0) ]

(* The command-line tile syntax; every malformed name is an [Error]. *)
let of_name s =
  let prefix p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
  let suffix_int p = int_of_string (String.sub s (String.length p) (String.length s - String.length p)) in
  try
    if s = "dir" then Ok directional
    else if prefix "cheb" then Ok (chebyshev_ball ~dim:2 (suffix_int "cheb"))
    else if prefix "euclid" then Ok (euclidean_ball ~dim:2 (suffix_int "euclid"))
    else if prefix "manhattan" then Ok (manhattan_ball ~dim:2 (suffix_int "manhattan"))
    else if prefix "rect" then begin
      match String.split_on_char 'x' (String.sub s 4 (String.length s - 4)) with
      | [ w; h ] -> Ok (rect (int_of_string w) (int_of_string h))
      | _ -> Error "rect needs the form rect<W>x<H>"
    end
    else if prefix "tet-" then begin
      match String.sub s 4 1 with
      | "I" -> Ok (tetromino `I)
      | "O" -> Ok (tetromino `O)
      | "T" -> Ok (tetromino `T)
      | "S" -> Ok (tetromino `S)
      | "Z" -> Ok (tetromino `Z)
      | "L" -> Ok (tetromino `L)
      | "J" -> Ok (tetromino `J)
      | c -> Error ("unknown tetromino " ^ c)
    end
    else if prefix "pent-" then begin
      match String.sub s 5 1 with
      | "F" -> Ok (pentomino `F)
      | "I" -> Ok (pentomino `I)
      | "L" -> Ok (pentomino `L)
      | "N" -> Ok (pentomino `N)
      | "P" -> Ok (pentomino `P)
      | "T" -> Ok (pentomino `T)
      | "U" -> Ok (pentomino `U)
      | "V" -> Ok (pentomino `V)
      | "W" -> Ok (pentomino `W)
      | "X" -> Ok (pentomino `X)
      | "Y" -> Ok (pentomino `Y)
      | "Z" -> Ok (pentomino `Z)
      | c -> Error ("unknown pentomino " ^ c)
    end
    else if prefix "cells:" then begin
      let body = String.sub s 6 (String.length s - 6) in
      let cells =
        String.split_on_char ';' body
        |> List.map (fun pair ->
               match String.split_on_char ',' pair with
               | [ x; y ] -> Vec.make2 (int_of_string x) (int_of_string y)
               | _ -> failwith "cells need the form x,y;x,y;...")
      in
      Ok (of_cells cells)
    end
    else Error ("unknown prototile: " ^ s)
  with
  | Failure msg -> Error msg
  | Assert_failure _ -> Error "invalid prototile (did you include the origin 0,0?)"

let dim t = t.dim
let size t = Vec.Set.cardinal t.cells
let cells t = Vec.Set.elements t.cells
let cell_set t = t.cells
let mem t v = Vec.Set.mem v t.cells

let bounding_box t =
  let cs = cells t in
  let fold f init = List.fold_left f init cs in
  let lo =
    fold
      (fun acc v -> Vec.of_array (Array.init t.dim (fun i -> min (Vec.coord acc i) (Vec.coord v i))))
      (List.hd cs)
  in
  let hi =
    fold
      (fun acc v -> Vec.of_array (Array.init t.dim (fun i -> max (Vec.coord acc i) (Vec.coord v i))))
      (List.hd cs)
  in
  (lo, hi)

let difference_set t =
  Vec.Set.fold
    (fun a acc -> Vec.Set.fold (fun b acc -> Vec.Set.add (Vec.sub a b) acc) t.cells acc)
    t.cells Vec.Set.empty

let minkowski_sum a b =
  Vec.Set.fold
    (fun x acc -> Vec.Set.fold (fun y acc -> Vec.Set.add (Vec.add x y) acc) b.cells acc)
    a.cells Vec.Set.empty

let translate v t = Vec.Set.map (Vec.add v) t.cells

let subset a b = Vec.Set.subset a.cells b.cells
let equal a b = a.dim = b.dim && Vec.Set.equal a.cells b.cells
let compare a b = Stdlib.compare (a.dim, cells a) (b.dim, cells b)

let rot90 t =
  assert (t.dim = 2);
  { t with cells = Vec.Set.map Vec.rot90 t.cells }

let reflect t =
  assert (t.dim = 2);
  { t with cells = Vec.Set.map Vec.reflect_x t.cells }

let rotations t =
  let r1 = rot90 t in
  let r2 = rot90 r1 in
  let r3 = rot90 r2 in
  List.fold_left (fun acc r -> if List.exists (equal r) acc then acc else r :: acc) [ t ]
    [ r1; r2; r3 ]
  |> List.rev

let pp fmt t =
  assert (t.dim = 2);
  let lo, hi = bounding_box t in
  Format.fprintf fmt "@[<v>";
  for y = Vec.y hi downto Vec.y lo do
    for x = Vec.x lo to Vec.x hi do
      let v = Vec.make2 x y in
      let ch = if Vec.is_zero v && mem t v then 'O' else if mem t v then '#' else '.' in
      Format.pp_print_char fmt ch
    done;
    if y > Vec.y lo then Format.pp_print_cut fmt ()
  done;
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
