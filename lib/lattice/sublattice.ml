open Zgeom

type t = { dim : int; hnf : Zmat.t; diag : int array }

let of_basis b =
  let r, c = Zmat.dims b in
  assert (r = c && r > 0);
  assert (Zmat.det b <> 0);
  let h = Zmat.hnf b in
  { dim = r; hnf = h; diag = Array.init r (fun i -> h.(i).(i)) }

let of_rows rows =
  match rows with
  | [] -> invalid_arg "Sublattice.of_rows: empty basis"
  | v :: _ ->
    let d = Vec.dim v in
    of_basis (Array.of_list (List.map (fun r -> Vec.to_array r) rows))
    |> fun t ->
    assert (t.dim = d);
    t

let scaled d m =
  assert (m > 0 && d > 0);
  let b = Array.init d (fun i -> Array.init d (fun j -> if i = j then m else 0)) in
  of_basis b

let full d = scaled d 1

let dim t = t.dim
let basis t = Zmat.copy t.hnf
let generators t = Array.to_list (Array.map Vec.of_array t.hnf)
let index t = Array.fold_left ( * ) 1 t.diag

let fdiv a b = if a mod b <> 0 && a < 0 <> (b < 0) then (a / b) - 1 else a / b

let reduce t v =
  let x = Vec.to_array v in
  assert (Array.length x = t.dim);
  (* Successive reduction against the triangular basis: row [i] is the only
     remaining row with a non-zero entry in column [i]. *)
  for i = 0 to t.dim - 1 do
    let q = fdiv x.(i) t.diag.(i) in
    if q <> 0 then
      for j = i to t.dim - 1 do
        x.(j) <- x.(j) - (q * t.hnf.(i).(j))
      done
  done;
  Vec.of_array x

let mem t v = Vec.is_zero (reduce t v)
let congruent t a b = Vec.equal (reduce t a) (reduce t b)

let coset_id t v =
  let r = Vec.to_array (reduce t v) in
  let id = ref 0 in
  for i = 0 to t.dim - 1 do
    id := (!id * t.diag.(i)) + r.(i)
  done;
  !id

(* Integer coset arithmetic.  A coset id is the mixed-radix rank of the
   reduced representative (last coordinate least significant). *)
let coset_of_id t id =
  assert (0 <= id && id < index t);
  let x = Array.make t.dim 0 in
  let r = ref id in
  for i = t.dim - 1 downto 0 do
    x.(i) <- !r mod t.diag.(i);
    r := !r / t.diag.(i)
  done;
  Vec.of_array x

(* Walk the box with an odometer [r] (coset [k]'s coordinates), add [d]
   and run [reduce]'s triangular sweep on the sum, encoding the id as
   each coordinate settles. *)
let translate_ids t d =
  let d = Vec.to_array d in
  assert (Array.length d = t.dim);
  let n = index t in
  let r = Array.make t.dim 0 in
  let x = Array.make t.dim 0 in
  let out = Array.make n 0 in
  for k = 0 to n - 1 do
    for i = 0 to t.dim - 1 do
      x.(i) <- r.(i) + d.(i)
    done;
    let id = ref 0 in
    for i = 0 to t.dim - 1 do
      let q = fdiv x.(i) t.diag.(i) in
      if q <> 0 then
        for j = i to t.dim - 1 do
          x.(j) <- x.(j) - (q * t.hnf.(i).(j))
        done;
      id := (!id * t.diag.(i)) + x.(i)
    done;
    out.(k) <- !id;
    (* Next coset: increment the last coordinate, carrying leftwards. *)
    let i = ref (t.dim - 1) in
    while !i >= 0 && r.(!i) = t.diag.(!i) - 1 do
      r.(!i) <- 0;
      decr i
    done;
    if !i >= 0 then r.(!i) <- r.(!i) + 1
  done;
  out

let cosets t =
  (* Mixed-radix counting over the HNF box, lexicographic. *)
  let rec go i prefix =
    if i = t.dim then [ Vec.of_list (List.rev prefix) ]
    else
      List.concat_map (fun v -> go (i + 1) (v :: prefix)) (List.init t.diag.(i) Fun.id)
  in
  go 0 []

let snf_divisors t =
  let s = Zmat.snf t.hnf in
  List.init t.dim (fun i -> s.(i).(i))

let equal a b = a.dim = b.dim && Zmat.equal a.hnf b.hnf
let compare a b = Stdlib.compare (a.dim, a.hnf) (b.dim, b.hnf)

(* Enumerate HNF matrices: positive diagonal (d_0, ..., d_{d-1}) with
   product [n]; in column [i], the entries above the diagonal range over
   [0, d_i).  The enumeration is split by diagonal so callers can farm the
   per-diagonal families out to worker domains: concatenating
   [all_with_diagonal] over [hnf_diagonals] in order reproduces
   [all_of_index] exactly. *)
let hnf_diagonals ~dim:d n =
  assert (d > 0 && n > 0);
  let rec divisor_tuples d n =
    if d = 1 then [ [ n ] ]
    else
      List.concat_map
        (fun d0 ->
          if n mod d0 = 0 then List.map (fun rest -> d0 :: rest) (divisor_tuples (d - 1) (n / d0))
          else [])
        (List.init n (fun i -> i + 1))
  in
  divisor_tuples d n

let all_with_diagonal ~dim:d diag =
  assert (d > 0 && List.length diag = d && List.for_all (fun x -> x > 0) diag);
  let matrices_for diag =
    let diag = Array.of_list diag in
    let m0 = Array.init d (fun i -> Array.init d (fun j -> if i = j then diag.(i) else 0)) in
    (* Free positions: (k, i) with k < i, value in [0, diag.(i)). *)
    let free = ref [] in
    for i = d - 1 downto 1 do
      for k = i - 1 downto 0 do
        free := (k, i) :: !free
      done
    done;
    let rec fill m = function
      | [] -> [ Zmat.copy m ]
      | (k, i) :: rest ->
        List.concat_map
          (fun v ->
            m.(k).(i) <- v;
            let out = fill m rest in
            m.(k).(i) <- 0;
            out)
          (List.init diag.(i) Fun.id)
    in
    fill m0 !free
  in
  matrices_for diag |> List.map of_basis

let all_of_index ~dim:d n =
  List.concat_map (all_with_diagonal ~dim:d) (hnf_diagonals ~dim:d n)

let pp fmt t = Zmat.pp fmt t.hnf
let to_string t = Format.asprintf "%a" pp t
