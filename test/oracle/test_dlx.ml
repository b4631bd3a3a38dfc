(* Unit tests for the dancing-links oracle: Knuth's example, edge cases
   and input validation.  Its agreement with brute-force enumeration is
   checked in test_tiling.ml, next to the kernel differentials. *)

let test_dlx_basic () =
  (* Knuth's classic example: universe {0..6}, 6 subsets, one solution
     {B, D, F} = indices {1, 3, 5}. *)
  let problem =
    Oracle.Dlx.create ~universe:7
      [ [ 2; 4; 5 ]; [ 0; 3; 6 ]; [ 1; 2; 5 ]; [ 0; 3 ]; [ 1; 6 ]; [ 3; 4; 6 ] ]
  in
  Alcotest.(check (list (list int))) "unique solution" [ [ 0; 3; 4 ] ]
    (Oracle.Dlx.solve problem)

let test_dlx_no_solution () =
  let problem = Oracle.Dlx.create ~universe:3 [ [ 0; 1 ]; [ 1; 2 ] ] in
  Alcotest.(check (list (list int))) "no cover" [] (Oracle.Dlx.solve problem)

let test_dlx_counts () =
  (* Universe {0,1} with subsets {0},{1},{0,1}: two covers. *)
  let problem = Oracle.Dlx.create ~universe:2 [ [ 0 ]; [ 1 ]; [ 0; 1 ] ] in
  Alcotest.(check int) "two covers" 2 (Oracle.Dlx.count problem);
  Alcotest.(check int) "limit respected" 1 (Oracle.Dlx.count ~limit:1 problem)

let test_dlx_empty_universe () =
  let problem = Oracle.Dlx.create ~universe:0 [] in
  Alcotest.(check (list (list int))) "empty cover of nothing" [ [] ] (Oracle.Dlx.solve problem)

let test_dlx_reusable () =
  (* Solving twice gives identical results (links fully restored). *)
  let problem = Oracle.Dlx.create ~universe:2 [ [ 0 ]; [ 1 ]; [ 0; 1 ] ] in
  let a = Oracle.Dlx.solve problem in
  let b = Oracle.Dlx.solve problem in
  Alcotest.(check (list (list int))) "idempotent" a b

let test_dlx_rejects_bad_input () =
  let bad f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "out of range" true
    (bad (fun () -> Oracle.Dlx.create ~universe:2 [ [ 5 ] ]));
  Alcotest.(check bool) "duplicate in subset" true
    (bad (fun () -> Oracle.Dlx.create ~universe:3 [ [ 1; 1 ] ]))

let () =
  Alcotest.run "oracle"
    [
      ( "dlx",
        [
          Alcotest.test_case "knuth example" `Quick test_dlx_basic;
          Alcotest.test_case "no solution" `Quick test_dlx_no_solution;
          Alcotest.test_case "counts" `Quick test_dlx_counts;
          Alcotest.test_case "empty universe" `Quick test_dlx_empty_universe;
          Alcotest.test_case "reusable" `Quick test_dlx_reusable;
          Alcotest.test_case "rejects bad input" `Quick test_dlx_rejects_bad_input;
        ] );
    ]
