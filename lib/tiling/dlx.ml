type problem = {
  universe : int;
  num_nodes : int;
  left : int array;
  right : int array;
  up : int array;
  down : int array;
  col : int array;  (* node -> column header index *)
  size : int array;  (* column header -> rows in the column *)
  row_of : int array;  (* node -> subset index, -1 for headers/root *)
  root : int;
}

(* Layout: node 0 is the root, nodes 1..universe are column headers
   (element e has header e + 1), then one node per (subset, element). *)
let create ~universe subsets =
  assert (universe >= 0);
  let total = 1 + universe + List.fold_left (fun acc s -> acc + List.length s) 0 subsets in
  let left = Array.init total Fun.id in
  let right = Array.init total Fun.id in
  let up = Array.init total Fun.id in
  let down = Array.init total Fun.id in
  let col = Array.make total 0 in
  let size = Array.make (universe + 1) 0 in
  let row_of = Array.make total (-1) in
  let root = 0 in
  (* Circular header list root <-> 1 <-> ... <-> universe. *)
  for h = 0 to universe do
    left.(h) <- (if h = 0 then universe else h - 1);
    right.(h) <- (if h = universe then 0 else h + 1)
  done;
  let next = ref (universe + 1) in
  List.iteri
    (fun row subset ->
      let seen = Hashtbl.create 8 in
      let first = ref (-1) in
      List.iter
        (fun e ->
          if not (0 <= e && e < universe) then invalid_arg "Dlx.create: element out of range";
          if Hashtbl.mem seen e then invalid_arg "Dlx.create: duplicate element in subset";
          Hashtbl.add seen e ();
          let node = !next in
          incr next;
          row_of.(node) <- row;
          let header = e + 1 in
          col.(node) <- header;
          (* Insert at the bottom of the column (above the header). *)
          up.(node) <- up.(header);
          down.(node) <- header;
          down.(up.(header)) <- node;
          up.(header) <- node;
          size.(header) <- size.(header) + 1;
          (* Link into the row's circular list. *)
          if !first < 0 then first := node
          else begin
            left.(node) <- left.(!first);
            right.(node) <- !first;
            right.(left.(!first)) <- node;
            left.(!first) <- node
          end)
        subset)
    subsets;
  { universe; num_nodes = total; left; right; up; down; col; size; row_of; root }

let cover p c =
  p.right.(p.left.(c)) <- p.right.(c);
  p.left.(p.right.(c)) <- p.left.(c);
  let i = ref p.down.(c) in
  while !i <> c do
    let j = ref p.right.(!i) in
    while !j <> !i do
      p.down.(p.up.(!j)) <- p.down.(!j);
      p.up.(p.down.(!j)) <- p.up.(!j);
      p.size.(p.col.(!j)) <- p.size.(p.col.(!j)) - 1;
      j := p.right.(!j)
    done;
    i := p.down.(!i)
  done

let uncover p c =
  let i = ref p.up.(c) in
  while !i <> c do
    let j = ref p.left.(!i) in
    while !j <> !i do
      p.size.(p.col.(!j)) <- p.size.(p.col.(!j)) + 1;
      p.down.(p.up.(!j)) <- !j;
      p.up.(p.down.(!j)) <- !j;
      j := p.left.(!j)
    done;
    i := p.up.(!i)
  done;
  p.right.(p.left.(c)) <- c;
  p.left.(p.right.(c)) <- c

let solve ?(max_solutions = max_int) ?(keep = fun _ -> true) p =
  let solutions = ref [] in
  let count = ref 0 in
  let chosen = ref [] in
  let rec search () =
    if !count >= max_solutions then ()
    else if p.right.(p.root) = p.root then begin
      (* Only kept solutions are recorded or counted, so a filtered
         search early-stops at [max_solutions] kept ones. *)
      let sol = List.sort Stdlib.compare !chosen in
      if keep sol then begin
        solutions := sol :: !solutions;
        incr count
      end
    end
    else begin
      (* Smallest column (Knuth's S heuristic). *)
      let c = ref p.right.(p.root) in
      let best = ref !c in
      while !c <> p.root do
        if p.size.(!c) < p.size.(!best) then best := !c;
        c := p.right.(!c)
      done;
      let c = !best in
      if p.size.(c) > 0 then begin
        cover p c;
        let r = ref p.down.(c) in
        while !r <> c && !count < max_solutions do
          chosen := p.row_of.(!r) :: !chosen;
          let j = ref p.right.(!r) in
          while !j <> !r do
            cover p p.col.(!j);
            j := p.right.(!j)
          done;
          search ();
          let j = ref p.left.(!r) in
          while !j <> !r do
            uncover p p.col.(!j);
            j := p.left.(!j)
          done;
          chosen := List.tl !chosen;
          r := p.down.(!r)
        done;
        uncover p c
      end
    end
  in
  search ();
  List.rev !solutions

let count ?(limit = max_int) p = List.length (solve ~max_solutions:limit p)
