open Zgeom
open Lattice

(* [lam] has index [|cells|]; the cells tile by it iff they are pairwise
   non-congruent, i.e. hit every coset once. *)
let complete_residues cells lam =
  let seen = Array.make (Sublattice.index lam) false in
  List.for_all
    (fun n ->
      let id = Sublattice.coset_id lam n in
      if seen.(id) then false
      else begin
        seen.(id) <- true;
        true
      end)
    cells

let lattice_tilings ?pool p =
  let pool = match pool with Some pl -> pl | None -> Parallel.default () in
  let d = Prototile.dim p in
  let cells = Prototile.cells p in
  (* One task per HNF diagonal family; concatenating in diagonal order is
     exactly the sequential [all_of_index] enumeration.  Families differ
     wildly in size, which the stealing scheduler balances. *)
  Parallel.concat_map pool
    (fun diag -> List.filter (complete_residues cells) (Sublattice.all_with_diagonal ~dim:d diag))
    (Sublattice.hnf_diagonals ~dim:d (Prototile.size p))

(* The head of [lattice_tilings], found sequentially: families are
   generated one at a time in [all_of_index] order and the walk stops at
   the first lattice the cells tile. *)
let find_lattice_tiling p =
  let d = Prototile.dim p in
  let cells = Prototile.cells p in
  List.to_seq (Sublattice.hnf_diagonals ~dim:d (Prototile.size p))
  |> Seq.concat_map (fun diag -> List.to_seq (Sublattice.all_with_diagonal ~dim:d diag))
  |> Seq.find (complete_residues cells)
  |> Option.map (fun lam ->
         match Single.lattice_tiling p lam with Ok t -> t | Error _ -> assert false)

type placement = { piece : int; anchor : Vec.t; covers : int list }

let rec take n = function [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

(* Mutable search state of the exact-cover kernel; one per task, created
   inside the task, so the Parallel closures stay pure (lint R3).
   Invariants between calls:
   - [live] = placements compatible with everything placed so far, i.e.
     those covering no covered cell;
   - [counts.(c)] = number of live placements covering cell [c];
   - [cell_next]/[cell_prev] = doubly-linked list of the uncovered
     cells in ascending cell order, with sentinel node [idx], so cell
     selection walks only uncovered cells.  Unlinking keeps the
     relative order of the remaining cells, and [unplace] relinks in
     reverse unlink order, so the list is restored exactly (the classic
     dancing-links discipline);
   - [undo.(sp_at.(d) .. sp_at.(d+1) - 1)] = the placements killed by the
     [place] at depth [d], in kill order, so [unplace] restores
     [live]/[counts] exactly (a placement conflicting with two placed
     ones is recorded by the first kill only).  Each placement dies at
     most once per root-to-leaf path, so [n_pl] undo slots suffice;
   - [chosen.(0 .. depth-1)] = the placements placed so far, in
     chronological order (callers write [chosen.(depth)] just before
     each [place]), so recording a solution is one [Array.sub]. *)
type mask_state = {
  live : Bitset.t;
  counts : int array;
  cell_next : int array;
  cell_prev : int array;
  undo : int array;
  sp_at : int array;
  chosen : int array;
  mutable sp : int;
  mutable depth : int;
}

(* Shared implementation of [cover_torus] (collect = true: materialize
   [Multi.t] solutions, truncated to [max_solutions]) and
   [count_torus_covers] (collect = false: traverse the same tree, same
   order, but only count - no per-solution allocation at all when [keep]
   is absent).  The solver returns [(raw solutions, count)]; in
   counting mode the list stays empty. *)
let torus_run ~period ~prototiles ~max_solutions ~keep ~pool ~collect =
  let idx = Sublattice.index period in
  let anchors = Sublattice.cosets period in
  let placements =
    List.concat
      (List.mapi
         (fun k p ->
           let cells = Prototile.cells p in
           List.filter_map
             (fun o ->
               let ids = List.map (fun n -> Sublattice.coset_id period (Vec.add o n)) cells in
               let sorted = List.sort_uniq Stdlib.compare ids in
               (* Self-overlap on the torus = T2 violation in Z^d. *)
               if List.length sorted <> List.length ids then None
               else Some { piece = k; anchor = o; covers = ids })
             anchors)
         prototiles)
  in
  let placement_arr = Array.of_list placements in
  let n_pl = Array.length placement_arr in
  (* Raw solutions are arrays of placement indices in traversal
     (chronological) order - one contiguous allocation per solution,
     where cons-list recording cost as much as the whole search on
     solution-dense workloads (EXP-P2).  The solver guarantees an exact
     cover and has each placement's coset ids at hand, so conversion
     goes through [Multi.of_search_cover] - coverage is re-checked with
     array writes, but no coset arithmetic is redone.  [pl_pair] holds
     each placement's [(anchor, covers)] pair preallocated, so building
     the constructor's input just conses existing pairs. *)
  let pl_pair = Array.map (fun pl -> (pl.anchor, pl.covers)) placement_arr in
  let pl_piece = Array.map (fun pl -> pl.piece) placement_arr in
  let to_multi sol =
    let n = Array.length sol in
    let rec mine k i =
      if i >= n then []
      else
        let q = Array.unsafe_get sol i in
        if Array.unsafe_get pl_piece q = k then Array.unsafe_get pl_pair q :: mine k (i + 1)
        else mine k (i + 1)
    in
    let rec per_piece k = function
      | [] -> []
      | p :: ps -> (
        match mine k 0 with
        | [] -> per_piece (k + 1) ps
        | placements -> (p, placements) :: per_piece (k + 1) ps)
    in
    Multi.of_search_cover ~period (per_piece 0 prototiles)
  in
  (* Only solutions passing [keep] are recorded or counted against the
     budget, in every stolen subtree - so filtered searches keep the
     same prefix/identity guarantees. *)
  let keep_raw = match keep with None -> fun _ -> true | Some f -> fun sol -> f (to_multi sol) in
  (* Merge of the stealing scheduler's output: [Steal.run] returns the
     per-subtree chunks already sorted by canonical path key, i.e. in
     sequential enumeration order, so concatenating and truncating is
     identical to the sequential list. *)
  let merge_chunks chunks =
    if collect then begin
      let sols = take max_solutions (List.concat_map (fun (_, (s, _)) -> s) chunks) in
      (sols, List.length sols)
    end
    else ([], List.fold_left (fun acc (_, (_, c)) -> acc + c) 0 chunks)
  in
  (* Empty universe: the empty placement set is the one exact cover. *)
  let trivial_root () =
    if not (keep_raw [||]) then ([], 0) else if collect then ([ [||] ], 1) else ([], 1)
  in
  (* by_cell.(c) = placements covering cell c, in placement order: the
     candidates a branch on cell c tries, in the order it tries them. *)
  let by_cell = Array.make idx [] in
  Array.iteri
    (fun q pl -> List.iter (fun c -> by_cell.(c) <- q :: by_cell.(c)) pl.covers)
    placement_arr;
  let by_cell = Array.map (fun l -> Array.of_list (List.rev l)) by_cell in
  (* Static tables, precomputed once and shared read-only across tasks:
     [conflict_list.(q)] = every placement overlapping q, q itself
     included, as a plain index array; [covers_start]/[covers_flat] =
     placement footprints flattened CSR-style; [pl_word]/[pl_bit] and
     [cell_word]/[cell_bit] = each index's position in the live /
     uncovered word arrays, so the hot loops test and flip single bits
     with two table reads instead of div/mod or bit scans. *)
  let bm_run () =
    let bpw = Sys.int_size in
    let conflict_list =
      Array.map
        (fun pl ->
          let m = Bitset.create n_pl in
          List.iter (fun c -> Array.iter (fun q -> Bitset.set m q) by_cell.(c)) pl.covers;
          Array.of_list (Bitset.to_list m))
        placement_arr
    in
    let covers_start = Array.make (n_pl + 1) 0 in
    Array.iteri
      (fun q pl -> covers_start.(q + 1) <- covers_start.(q) + List.length pl.covers)
      placement_arr;
    let covers_flat = Array.make (max 1 covers_start.(n_pl)) 0 in
    Array.iteri
      (fun q pl -> List.iteri (fun i c -> covers_flat.(covers_start.(q) + i) <- c) pl.covers)
      placement_arr;
    let pl_word = Array.init n_pl (fun q -> q / bpw) in
    let pl_bit = Array.init n_pl (fun q -> 1 lsl (q mod bpw)) in
    let counts0 = Array.map Array.length by_cell in
    let new_state () =
      { live = Bitset.full n_pl;
        counts = Array.copy counts0;
        cell_next = Array.init (idx + 1) (fun c -> if c = idx then 0 else c + 1);
        cell_prev = Array.init (idx + 1) (fun c -> if c = 0 then idx else c - 1);
        undo = Array.make (max 1 n_pl) 0;
        sp_at = Array.make (idx + 1) 0;
        chosen = Array.make (max 1 idx) 0;
        sp = 0;
        depth = 0 }
    in
    (* [place] walks the placed piece's static conflict list, kills the
       entries still live (one bit test + clear each), pushes them on the
       undo stack and decrements the counts over their footprints;
       [unplace] pops its stack frame and reverses both updates.  No bit
       scanning anywhere - newly-dead placements come out of the static
       table, not out of the mask.  All index arithmetic is bounds-safe
       by construction ([r < n_pl], cells in [covers_flat] are [< idx]),
       so the loops use unsafe accessors - this is the hottest code in
       the engine. *)
    let place st q =
      let nxt = st.cell_next and prv = st.cell_prev in
      for j = Array.unsafe_get covers_start q to Array.unsafe_get covers_start (q + 1) - 1 do
        let c = Array.unsafe_get covers_flat j in
        let p = Array.unsafe_get prv c and n = Array.unsafe_get nxt c in
        Array.unsafe_set nxt p n;
        Array.unsafe_set prv n p
      done;
      Array.unsafe_set st.sp_at st.depth st.sp;
      st.depth <- st.depth + 1;
      let lw = Bitset.unsafe_words st.live in
      let counts = st.counts in
      let undo = st.undo in
      let cl = Array.unsafe_get conflict_list q in
      let sp = ref st.sp in
      for i = 0 to Array.length cl - 1 do
        let r = Array.unsafe_get cl i in
        let wi = Array.unsafe_get pl_word r in
        let b = Array.unsafe_get pl_bit r in
        let w = Array.unsafe_get lw wi in
        if w land b <> 0 then begin
          Array.unsafe_set lw wi (w land lnot b);
          Array.unsafe_set undo !sp r;
          incr sp;
          for j = Array.unsafe_get covers_start r to Array.unsafe_get covers_start (r + 1) - 1
          do
            let c = Array.unsafe_get covers_flat j in
            Array.unsafe_set counts c (Array.unsafe_get counts c - 1)
          done
        end
      done;
      st.sp <- !sp
    in
    let unplace st q =
      st.depth <- st.depth - 1;
      let sp0 = Array.unsafe_get st.sp_at st.depth in
      let lw = Bitset.unsafe_words st.live in
      let counts = st.counts in
      let undo = st.undo in
      for t = st.sp - 1 downto sp0 do
        let r = Array.unsafe_get undo t in
        let wi = Array.unsafe_get pl_word r in
        Array.unsafe_set lw wi (Array.unsafe_get lw wi lor Array.unsafe_get pl_bit r);
        for j = Array.unsafe_get covers_start r to Array.unsafe_get covers_start (r + 1) - 1 do
          let c = Array.unsafe_get covers_flat j in
          Array.unsafe_set counts c (Array.unsafe_get counts c + 1)
        done
      done;
      st.sp <- sp0;
      let nxt = st.cell_next and prv = st.cell_prev in
      (* Relink in reverse unlink order, so the neighbours recorded in
         each cell's own [prev]/[next] slots are valid again. *)
      for j = Array.unsafe_get covers_start (q + 1) - 1 downto Array.unsafe_get covers_start q
      do
        let c = Array.unsafe_get covers_flat j in
        let p = Array.unsafe_get prv c and n = Array.unsafe_get nxt c in
        Array.unsafe_set nxt p c;
        Array.unsafe_set prv n c
      done
    in
    (* The branching rule - the first strict minimum of the candidate
       count over uncovered cells, in cell order - read straight from
       the incremental [counts].  The scan may stop at a
       count <= 1: a later cell can displace a 1 only with a 0, and both
       choices enumerate nothing (a 0-candidate cell can never be
       covered again, since counts only decrease along a branch), so the
       emitted solution sequence is unchanged - only wasted descent is
       skipped. *)
    let exception Found_forced in
    let select st =
      let nxt = st.cell_next in
      let counts = st.counts in
      let best = ref (-1) in
      let best_n = ref max_int in
      (try
         let c = ref (Array.unsafe_get nxt idx) in
         while !c <> idx do
           let n = Array.unsafe_get counts !c in
           if n < !best_n then begin
             best := !c;
             best_n := n;
             if n <= 1 then raise_notrace Found_forced
           end;
           c := Array.unsafe_get nxt !c
         done
       with Found_forced -> ());
      !best
    in
    (* Record the choice and place it - the entry point for seeding a
       task's chosen prefix. *)
    let choose st q =
      st.chosen.(st.depth) <- q;
      place st q
    in
    let bm_solve () =
      let st = new_state () in
      let budget = max_solutions in
      let solutions = ref [] in
      let count = ref 0 in
      let chosen = st.chosen in
      let rec solve () =
        if !count >= budget then ()
        else begin
          let best = select st in
          if best < 0 then begin
            if collect then begin
              let sol = Array.sub chosen 0 st.depth in
              if keep_raw sol then begin
                solutions := sol :: !solutions;
                incr count
              end
            end
            else (
              match keep with
              | None -> incr count
              | Some _ -> if keep_raw (Array.sub chosen 0 st.depth) then incr count)
          end
          else begin
            (* Branch on the cell's static candidate row, re-testing
               liveness at visit time: [live] is restored between
               siblings, so the test equals a freeness test (no cell of
               the candidate covered) - same candidates, same ascending
               order as a plain list backtracker. *)
            let cands = Array.unsafe_get by_cell best in
            let lw = Bitset.unsafe_words st.live in
            for i = 0 to Array.length cands - 1 do
              let q = Array.unsafe_get cands i in
              if
                !count < budget
                && Array.unsafe_get lw (Array.unsafe_get pl_word q)
                   land Array.unsafe_get pl_bit q
                   <> 0
              then begin
                Array.unsafe_set chosen st.depth q;
                place st q;
                solve ();
                unplace st q
              end
            done
          end
        end
      in
      solve ();
      (List.rev !solutions, !count)
    in
    (* ---- the lazy-splitting steal path ------------------------------ *)
    (* A task owns the subtree reached by replaying [replay] and then
       placing [cand]; [key] is its canonical path (branch positions
       from the root).  The task re-solves with an explicit frame stack
       mirroring the recursion of [bm_solve] - same selection rule, same
       candidate order, same liveness test at visit time - so its
       enumeration order is exactly the sequential engine's within the
       subtree.  When a thief starves ([should_split]), the task gives
       away the untried candidate positions of its SHALLOWEST open frame
       (the biggest remaining pieces of its subtree) as fresh tasks,
       closes its current result chunk, and continues; the chunk keys
       are built so that sorting all chunks by key reproduces the
       sequential solution order (see DESIGN 12).

       Budget safety: each task caps its own output at [max_solutions].
       That never loses a needed solution - a task's stream is a
       subsequence of the global enumeration, and any member of the
       global first-[m] prefix is within the first [m] of every
       subsequence containing it. *)
    let rec bm_task ctx ~replay ~cand ~key =
      let st = new_state () in
      Array.iter (fun p -> choose st p) replay;
      (* Liveness in the REPLAYED context (parent placements only) is
         exactly the sequential visit-time test for this branch. *)
      if not (Bitset.mem st.live cand) then []
      else begin
        choose st cand;
        bm_solve_steal st ctx ~key
      end
    and bm_solve_steal st ctx ~key =
      let budget = max_solutions in
      let base_depth = st.depth in
      (* Frame [f] mirrors recursion level [base_depth + f]: the static
         candidate row it branches on, the position currently placed
         ([pos], >= 0 whenever a deeper node is active), and the
         exclusive upper bound [limit] (lowered when a give-away hands
         the rest of the row to other tasks). *)
      let frame_cands = Array.make (max 1 idx) [||] in
      let frame_pos = Array.make (max 1 idx) (-1) in
      let frame_limit = Array.make (max 1 idx) 0 in
      let nf = ref 0 in
      let chunks_rev = ref [] in
      let cur_key = ref key in
      let cur_sols = ref [] in
      let cur_count = ref 0 in
      let total = ref 0 in
      let close_chunk () =
        chunks_rev := (!cur_key, (List.rev !cur_sols, !cur_count)) :: !chunks_rev;
        cur_sols := [];
        cur_count := 0
      in
      let record () =
        if collect then begin
          let sol = Array.sub st.chosen 0 st.depth in
          if keep_raw sol then begin
            cur_sols := sol :: !cur_sols;
            incr cur_count;
            incr total
          end
        end
        else
          match keep with
          | None ->
            incr cur_count;
            incr total
          | Some _ ->
            if keep_raw (Array.sub st.chosen 0 st.depth) then begin
              incr cur_count;
              incr total
            end
      in
      let give_away () =
        (* The shallowest frame with untried candidates; every open
           frame has [pos >= 0] here (frames are advanced before the
           next descent), so [st.chosen] holds one placement per frame. *)
        let fi = ref (-1) in
        (try
           for f = 0 to !nf - 1 do
             if frame_pos.(f) + 1 < frame_limit.(f) then begin
               fi := f;
               raise_notrace Exit
             end
           done
         with Exit -> ());
        if !fi >= 0 then begin
          let f = !fi in
          let cands = frame_cands.(f) in
          let replay = Array.sub st.chosen 0 (base_depth + f) in
          let prefix = ref [] in
          for j = f - 1 downto 0 do
            prefix := frame_pos.(j) :: !prefix
          done;
          let prefix = !prefix in
          for t = frame_pos.(f) + 1 to frame_limit.(f) - 1 do
            let q = cands.(t) in
            let k = key @ prefix @ [ t ] in
            Parallel.Steal.spawn ctx ~key:k (fun ctx -> bm_task ctx ~replay ~cand:q ~key:k)
          done;
          frame_limit.(f) <- frame_pos.(f) + 1;
          (* Everything this task still enumerates lives under the
             branch at position [pos f]; start a chunk keyed there, so
             it sorts after the closed chunk (its key extends the old
             one) and before every spawned sibling ([pos f] < [t]). *)
          close_chunk ();
          cur_key := key @ prefix @ [ frame_pos.(f) ]
        end
      in
      let descend = ref true in
      let running = ref true in
      while !running do
        if !total >= budget then running := false
        else if !descend then begin
          if Parallel.Steal.should_split ctx then give_away ();
          let best = select st in
          if best < 0 then begin
            record ();
            descend := false
          end
          else begin
            let f = !nf in
            frame_cands.(f) <- Array.unsafe_get by_cell best;
            frame_pos.(f) <- -1;
            frame_limit.(f) <- Array.length frame_cands.(f);
            nf := f + 1;
            descend := false
          end
        end
        else if !nf = 0 then running := false
        else begin
          (* Retreat: unplace the top frame's placement (if any) and
             advance it to its next live candidate, or pop it. *)
          let f = !nf - 1 in
          if frame_pos.(f) >= 0 then unplace st frame_cands.(f).(frame_pos.(f));
          let cands = frame_cands.(f) in
          let limit = frame_limit.(f) in
          let lw = Bitset.unsafe_words st.live in
          let p = ref (frame_pos.(f) + 1) in
          let found = ref false in
          while (not !found) && !p < limit do
            let q = Array.unsafe_get cands !p in
            if
              Array.unsafe_get lw (Array.unsafe_get pl_word q)
              land Array.unsafe_get pl_bit q
              <> 0
            then found := true
            else incr p
          done;
          if !found then begin
            frame_pos.(f) <- !p;
            choose st cands.(!p);
            descend := true
          end
          else nf := f
        end
      done;
      close_chunk ();
      List.rev !chunks_rev
    in
    let bm_steal () =
      let st0 = new_state () in
      let root = select st0 in
      if root < 0 then trivial_root ()
      else begin
        let cands = by_cell.(root) in
        (* Cost model for LPT seeding: placements left alive after each
           root choice, read off the incrementally maintained live set -
           a one-place/one-unplace probe per candidate. *)
        let weights =
          Array.map
            (fun q ->
              place st0 q;
              let w = float_of_int (Bitset.popcount st0.live) in
              unplace st0 q;
              w)
            cands
        in
        let tasks =
          Array.mapi
            (fun i q -> ([ i ], fun ctx -> bm_task ctx ~replay:[||] ~cand:q ~key:[ i ]))
            cands
        in
        merge_chunks (Parallel.Steal.run pool ~weights tasks)
      end
    in
    if Parallel.jobs pool <= 1 then bm_solve () else bm_steal ()
  in
  let raw_solutions, total = bm_run () in
  if collect then `Sols (List.map to_multi raw_solutions) else `Count total

let cover_torus ~period ~prototiles ?(max_solutions = 64) ?keep ?pool () =
  let pool = match pool with Some pl -> pl | None -> Parallel.default () in
  match torus_run ~period ~prototiles ~max_solutions ~keep ~pool ~collect:true with
  | `Sols sols -> sols
  | `Count _ -> assert false

let count_torus_covers ~period ~prototiles ?pool () =
  let pool = match pool with Some pl -> pl | None -> Parallel.default () in
  match torus_run ~period ~prototiles ~max_solutions:max_int ~keep:None ~pool ~collect:false with
  | `Count n -> n
  | `Sols _ -> assert false

let default_factors = [ 1; 2; 3; 4 ]

(* One torus stage: the first cover of [Z^d / lam], as a single-prototile
   tiling. *)
let torus_stage p lam () =
  match cover_torus ~period:lam ~prototiles:[ p ] ~max_solutions:1 () with
  | [ mt ] -> (
    match Multi.pieces mt with
    | [ pc ] ->
      Result.to_option (Single.make ~prototile:p ~period:lam ~offsets:pc.Multi.piece_offsets)
    | _ -> None)
  | _ -> None

let stages_with ~torus_factors p =
  let d = Prototile.dim p in
  let m = Prototile.size p in
  Seq.cons
    (fun () -> find_lattice_tiling p)
    (Seq.flat_map
       (fun f -> Seq.map (torus_stage p) (List.to_seq (Sublattice.all_of_index ~dim:d (f * m))))
       (List.to_seq torus_factors))

let stages p = stages_with ~torus_factors:default_factors p

let find_tiling ?(torus_factors = default_factors) p =
  Seq.find_map (fun stage -> stage ()) (stages_with ~torus_factors p)

let find_respectable ?(torus_factors = default_factors) prototiles ?(max_solutions = 16) () =
  match prototiles with
  | [] -> invalid_arg "Search.find_respectable: no prototiles"
  | n1 :: rest ->
    if not (List.for_all (fun nk -> Prototile.subset nk n1) rest) then
      invalid_arg "Search.find_respectable: first prototile must contain the others";
    let d = Prototile.dim n1 in
    let m1 = Prototile.size n1 in
    let uses_all mt = List.length (Multi.pieces mt) = List.length prototiles in
    let keep mt = uses_all mt && Multi.is_respectable mt in
    (* [keep] makes each torus search early-stopping: only respectable
       covers using every prototile count against its budget, so we ask
       each period for exactly the solutions still wanted and stop as
       soon as [max_solutions] have been found - no over-sampling. *)
    let acc = ref [] in
    let remaining = ref max_solutions in
    List.iter
      (fun f ->
        List.iter
          (fun lam ->
            if !remaining > 0 then begin
              let sols = cover_torus ~period:lam ~prototiles ~max_solutions:!remaining ~keep () in
              remaining := !remaining - List.length sols;
              acc := List.rev_append sols !acc
            end)
          (Sublattice.all_of_index ~dim:d (f * m1)))
      torus_factors;
    List.rev !acc

(* --- Translation-congruence classes of torus covers --------------------- *)

(* Two covers of the same torus are congruent when some translation [u]
   maps one onto the other (piece-wise, offsets mod the period).  The
   canonical key of a cover is the lexicographically least of its |Z^d /
   Lambda| translated serializations, so congruent covers collide on the
   key and the first representative in enumeration order survives. *)
let cover_key ~period ~shift mt =
  Multi.pieces mt
  |> List.map (fun pc ->
         ( List.map Vec.to_list (Prototile.cells pc.Multi.tile),
           pc.Multi.piece_offsets
           |> List.map (fun o -> Vec.to_list (Sublattice.reduce period (Vec.add o shift)))
           |> List.sort compare ))
  |> List.sort compare

let canonical_cover_key ~period mt =
  match Sublattice.cosets period with
  | [] -> assert false
  | u0 :: us ->
    List.fold_left
      (fun best u ->
        let k = cover_key ~period ~shift:u mt in
        if compare k best < 0 then k else best)
      (cover_key ~period ~shift:u0 mt)
      us

let distinct_torus_covers ~period ~prototiles ?max_classes ?pool () =
  let budget = match max_classes with Some k -> k | None -> max_int in
  let covers = cover_torus ~period ~prototiles ~max_solutions:max_int ?pool () in
  let seen = Hashtbl.create 64 in
  let reps = ref [] in
  let kept = ref 0 in
  List.iter
    (fun mt ->
      if !kept < budget then begin
        let k = canonical_cover_key ~period mt in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.replace seen k ();
          incr kept;
          reps := mt :: !reps
        end
      end)
    covers;
  List.rev !reps

(* --- Exact cover of a finite region -------------------------------------- *)

(* The repair kernel of [lib/lifetime]: cover a finite damaged window by
   whole prototile translates.  Same branching rule as the torus kernel
   (first strict-minimum uncovered cell, candidates in ascending
   translation order) on the same Bitset representation, but sequential -
   repair windows are a few tiles, never a search tree worth splitting.

   Plane mode has a striking rigidity: an exact cover of a finite region
   by translates of one prototile is unique when it exists, because the
   lexicographically least uncovered cell can only be covered by the
   translate placing the tile's least cell there (any other placement
   would put a lexicographically smaller tile cell inside the region,
   still uncovered), and induction does the rest.  [torus] mode - all
   arithmetic mod a deployment sublattice - breaks the induction (no
   global order survives the wrap), and wrapped regions genuinely admit
   several covers; that wrap freedom is exactly what schedule repair
   uses. *)
let cover_region ~region ~prototile ?torus ?(max_solutions = 64) ?keep () =
  let norm = match torus with Some lam -> Sublattice.reduce lam | None -> fun v -> v in
  let cells = List.sort_uniq Vec.compare region in
  let n = List.length cells in
  if n = 0 then invalid_arg "Search.cover_region: empty region";
  let cell_arr = Array.of_list cells in
  let id_of = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i v ->
      let key = norm v in
      if Hashtbl.mem id_of key then
        invalid_arg "Search.cover_region: region cells congruent mod the torus";
      Hashtbl.replace id_of key i)
    cell_arr;
  let tile_cells = Prototile.cells prototile in
  let m = List.length tile_cells in
  let tile_ids t =
    let ids = List.filter_map (fun n0 -> Hashtbl.find_opt id_of (norm (Vec.add t n0))) tile_cells in
    (* Inside the region, with all [m] cells distinct (a self-overlapping
       placement on the torus covers fewer than [m] distinct cells). *)
    if List.length ids = m && List.length (List.sort_uniq compare ids) = m then Some ids
    else None
  in
  let anchors =
    List.concat_map (fun c -> List.map (fun n0 -> norm (Vec.sub c n0)) tile_cells) cells
    |> List.sort_uniq Vec.compare
    |> List.filter (fun t -> tile_ids t <> None)
    |> Array.of_list
  in
  let npl = Array.length anchors in
  let mask =
    Array.map
      (fun t ->
        let b = Bitset.create n in
        (match tile_ids t with
        | Some ids -> List.iter (Bitset.set b) ids
        | None -> assert false);
        b)
      anchors
  in
  (* cand.(c): placements covering cell c; conf.(p): placements whose
     masks intersect p's (p included), killed when p is placed. *)
  let cand = Array.init n (fun _ -> Bitset.create npl) in
  Array.iteri (fun p m -> Bitset.iter (fun c -> Bitset.set cand.(c) p) m) mask;
  let conf =
    Array.init npl (fun p ->
        let b = Bitset.create npl in
        for q = 0 to npl - 1 do
          if not (Bitset.disjoint mask.(p) mask.(q)) then Bitset.set b q
        done;
        b)
  in
  let keep = match keep with Some f -> f | None -> fun _ -> true in
  let sols = ref [] in
  let found = ref 0 in
  let rec go covered live chosen =
    if !found >= max_solutions then ()
    else if Bitset.popcount covered = n then begin
      let ts = List.sort Vec.compare (List.map (fun p -> anchors.(p)) chosen) in
      if keep ts then begin
        incr found;
        sols := ts :: !sols
      end
    end
    else begin
      let best = ref (-1) in
      let best_count = ref max_int in
      for c = 0 to n - 1 do
        if not (Bitset.mem covered c) then begin
          let k = Bitset.inter_popcount cand.(c) live in
          if k < !best_count then begin
            best_count := k;
            best := c
          end
        end
      done;
      if !best_count > 0 then
        Bitset.iter
          (fun p ->
            if !found < max_solutions && Bitset.mem live p then begin
              let covered' = Bitset.copy covered in
              Bitset.union covered' mask.(p);
              let live' = Bitset.copy live in
              Bitset.diff live' conf.(p);
              go covered' live' (p :: chosen)
            end)
          cand.(!best)
    end
  in
  go (Bitset.create n) (Bitset.full npl) [];
  List.rev !sols

type verdict =
  | Exact of Single.t
  | Non_exact of [ `Hole | `No_bn_factorization ]
  | Not_found

(* A connected tile with a hole never tiles by translations: a translate
   covering a hole cell is disjoint from the enclosing tile, so it lies
   inside the hole - but the tile's bounding box strictly contains its
   own hole's.  Hole-free polyominoes are settled by BN; an exact one
   has a lattice tiling (Wijshoff-van Leeuwen), which is [find_tiling]'s
   first stage, so the answer is [find_tiling]'s by construction. *)
let decide p =
  if Prototile.dim p = 2 && Polyomino.is_connected p then
    if Polyomino.has_holes p then Non_exact `Hole
    else if not (Boundary_word.is_exact_polyomino p) then Non_exact `No_bn_factorization
    else
      match find_lattice_tiling p with
      | Some t -> Exact t
      | None ->
        invalid_arg ("Search.decide: BN-exact polyomino without a lattice tiling: "
                     ^ Prototile.to_string p)
  else match find_tiling p with Some t -> Exact t | None -> Not_found

let exactness p =
  match decide p with Exact _ -> `Exact | Non_exact _ -> `NotExact | Not_found -> `Unknown
