(* Tests for the static analyzer: one violating and one clean fixture
   per rule (R1 determinism, R2 forbidden constructs, R3 task purity,
   R4 fsync-before-rename, R5 interface coverage, R6 lock discipline,
   R7 resource lifetime), the interprocedural taint layer (R1 through
   call chains), the call graph itself, unused-allowlist (A0) and
   stale-baseline (B0) findings, parse-failure handling, a property
   test round-tripping the JSON and SARIF emitters, and an end-to-end
   assertion that the real repo tree produces zero findings from both
   layers. *)

let mkdir_p path =
  let rec go acc = function
    | [] -> ()
    | part :: rest ->
      let acc =
        if acc = "" then (if part = "" then "/" else part) else Filename.concat acc part
      in
      (if acc <> "/" && acc <> "" && not (Sys.file_exists acc) then
         try Unix.mkdir acc 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      go acc rest
  in
  go "" (String.split_on_char '/' path)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* Build a throwaway source tree from (relative path, contents) pairs
   and run the analyzer over it. *)
let with_tree files f =
  let root = Filename.temp_dir "tilesched-lint" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      List.iter
        (fun (rel, contents) ->
          mkdir_p (Filename.concat root (Filename.dirname rel));
          Out_channel.with_open_bin (Filename.concat root rel) (fun oc ->
              Out_channel.output_string oc contents))
        files;
      f root)

let scan files = with_tree files (fun root -> Lint.run ~root ())

let by_rule rule (report : Lint.report) =
  List.filter (fun f -> f.Lint.Finding.rule = rule) report.Lint.findings

let check_rule_count msg rule expected report =
  Alcotest.(check int) msg expected (List.length (by_rule rule report))

let contains ~needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ---------- R1: determinism ---------- *)

let test_r1_violations () =
  let report =
    scan
      [
        ( "lib/tiling/clock.ml",
          "let now () = Unix.gettimeofday ()\n\
           let later () = Sys.time ()\n\
           let seed () = Random.self_init ()\n\
           let order t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n\
           let visit t = Hashtbl.iter (fun _ _ -> ()) t\n" );
        ("lib/tiling/clock.mli", "val now : unit -> float\n");
      ]
  in
  check_rule_count "five R1 findings" "R1" 5 report;
  let lines = List.map (fun f -> f.Lint.Finding.line) (by_rule "R1" report) in
  Alcotest.(check (list int)) "source order" [ 1; 2; 3; 4; 5 ] lines

let test_r1_sorted_fold_clean () =
  let report =
    scan
      [
        ( "lib/tiling/sorted.ml",
          "let order t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])\n" );
        ("lib/tiling/sorted.mli", "val order : ('a, 'b) Hashtbl.t -> 'a list\n");
      ]
  in
  check_rule_count "sorted fold is ordered output" "R1" 0 report

let test_r1_allowlist () =
  (* Same constructs, but in the search engine where the staged
     deadline is a real wall-clock budget: the allowlist exempts them,
     and using the exemption keeps A0 quiet. *)
  let report =
    scan
      [
        ("lib/server/engine.ml", "let now () = Unix.gettimeofday ()\n");
        ("lib/server/engine.mli", "val now : unit -> float\n");
      ]
  in
  check_rule_count "allowlisted file" "R1" 0 report;
  check_rule_count "used entry is not stale" "A0" 0 report

(* ---------- R1': interprocedural determinism taint ---------- *)

let taint_tree seed_body =
  [
    ("lib/tiling/stamp.ml", seed_body);
    ("lib/tiling/stamp.mli", "val now : unit -> float\n");
    ("lib/tiling/mid.ml", "let elapsed t0 = Stamp.now () -. t0\n");
    ("lib/tiling/mid.mli", "val elapsed : float -> float\n");
    ("lib/tiling/top.ml", "let budget_left t0 b = b -. Mid.elapsed t0\n");
    ("lib/tiling/top.mli", "val budget_left : float -> float -> float\n");
  ]

let test_r1_taint_two_deep () =
  (* The seed is two helpers away from [budget_left]; only the typed
     layer can see that. *)
  let report = scan (taint_tree "let now () = Unix.gettimeofday ()\n") in
  check_rule_count "one direct + two transitive" "R1" 3 report;
  let via = List.filter (fun f -> contains ~needle:"call path" f.Lint.Finding.message) (by_rule "R1" report) in
  Alcotest.(check (list string))
    "tainted callers, at their call sites"
    [ "lib/tiling/mid.ml"; "lib/tiling/top.ml" ]
    (List.sort compare (List.map (fun f -> f.Lint.Finding.file) via));
  List.iter
    (fun f ->
      Alcotest.(check bool) "chain cites the seed" true
        (contains ~needle:"Unix.gettimeofday (seeded at lib/tiling/stamp.ml:1)" f.Lint.Finding.message))
    via

let test_r1_taint_clean_root () =
  (* Same call chain, but the root is deterministic: nothing to taint. *)
  let report =
    scan (taint_tree "let now () = float_of_int (int_of_string (Sys.getenv \"EPOCH\"))\n")
  in
  check_rule_count "no taint from a deterministic root" "R1" 0 report

let test_r1_taint_allowlisted_root () =
  (* A seed inside an allowlisted file never starts taint: sanctioned
     wall-clock use does not indict its callers. *)
  let report =
    scan
      [
        ("lib/server/engine.ml", "let now () = Unix.gettimeofday ()\n");
        ("lib/server/engine.mli", "val now : unit -> float\n");
        ("lib/tiling/user.ml", "let stale t0 = Engine.now () -. t0 > 1.0\n");
        ("lib/tiling/user.mli", "val stale : float -> bool\n");
      ]
  in
  check_rule_count "allowlisted root starts no taint" "R1" 0 report;
  check_rule_count "suppression counts as a use" "A0" 0 report

(* ---------- the call graph ---------- *)

let test_callgraph_three_modules () =
  with_tree
    [
      ("lib/m/alpha.ml", "let base x = x + 1\n");
      ("lib/m/beta.ml", "let mid x = Alpha.base (x * 2)\n");
      ("lib/m/gamma.ml", "let top x = Beta.mid (Alpha.base x)\nlet self y = if y = 0 then 1 else top y\n");
    ]
    (fun root ->
      let files = [ "lib/m/alpha.ml"; "lib/m/beta.ml"; "lib/m/gamma.ml" ] in
      let loaded = Lint.Typed_load.load ~root ~files in
      Alcotest.(check int) "all three typed" 3 (List.length loaded.Lint.Typed_load.typed);
      let g = Lint.Callgraph.build loaded.Lint.Typed_load.typed in
      let keys =
        List.sort compare
          (Array.to_list (Array.map (fun d -> d.Lint.Callgraph.def_key) g.Lint.Callgraph.defs))
      in
      Alcotest.(check (list string))
        "one node per top-level let"
        [ "Alpha.base"; "Beta.mid"; "Gamma.self"; "Gamma.top" ]
        keys;
      let def key =
        match Hashtbl.find_opt g.Lint.Callgraph.by_key key with
        | Some i -> g.Lint.Callgraph.defs.(i)
        | None -> Alcotest.failf "no def %s" key
      in
      let calls_of key =
        List.sort_uniq compare (List.map fst (Lint.Callgraph.calls g (def key)))
      in
      Alcotest.(check (list string)) "cross-module edge" [ "Alpha.base" ] (calls_of "Beta.mid");
      Alcotest.(check (list string))
        "two edges, qualified and nested"
        [ "Alpha.base"; "Beta.mid" ]
        (calls_of "Gamma.top");
      (* [self] calls [top] by bare ident within the same file. *)
      Alcotest.(check (list string)) "bare-ident edge" [ "Gamma.top" ] (calls_of "Gamma.self"))

(* ---------- R2: forbidden constructs ---------- *)

let test_r2_violations () =
  let report =
    scan
      [
        ( "lib/zgeom/evil.ml",
          "let f x = Obj.magic x\n\
           let g x = Marshal.to_string x []\n\
           let h () = exit 1\n" );
        ("lib/zgeom/evil.mli", "val h : unit -> unit\n");
        (* Marshal is forbidden in test/ too; exit is fine in bin/. *)
        ("test/test_evil.ml", "let s x = Marshal.to_string x []\n");
        ("bin/main.ml", "let () = exit 0\n");
      ]
  in
  check_rule_count "three lib + one test hit" "R2" 4 report

let test_r2_clean () =
  let report =
    scan
      [
        ("lib/zgeom/fine.ml", "let f x = x + 1\n");
        ("lib/zgeom/fine.mli", "val f : int -> int\n");
      ]
  in
  check_rule_count "no R2" "R2" 0 report

(* ---------- R3: task purity ---------- *)

let test_r3_violations () =
  let report =
    scan
      [
        ( "lib/core/fanout.ml",
          "let total pool xs =\n\
          \  let sum = ref 0 in\n\
          \  Parallel.parallel_for pool ~n:10 (fun i -> sum := !sum + i);\n\
          \  let tbl = Hashtbl.create 4 in\n\
          \  Parallel.map pool (fun x -> Hashtbl.replace tbl x x) xs\n" );
        ("lib/core/fanout.mli", "val total : int -> int list -> unit list\n");
      ]
  in
  check_rule_count "captured ref and captured table" "R3" 2 report

let test_r3_task_local_clean () =
  let report =
    scan
      [
        ( "lib/core/local.ml",
          "let squares pool xs =\n\
          \  Parallel.map pool\n\
          \    (fun x ->\n\
          \      let acc = ref 0 in\n\
          \      for i = 1 to x do acc := !acc + i done;\n\
          \      let seen = Hashtbl.create 4 in\n\
          \      Hashtbl.replace seen x !acc;\n\
          \      !acc)\n\
          \    xs\n" );
        ("lib/core/local.mli", "val squares : int -> int list -> int list\n");
      ]
  in
  check_rule_count "task-local mutation is fine" "R3" 0 report

let test_r3_steal_violations () =
  (* The stealing entry points hide their worker-run closures inside
     task tuples; the scan must find them there, and inside a direct
     [spawn] body. *)
  let report =
    scan
      [
        ( "lib/core/stealbad.ml",
          "let bad_run pool =\n\
          \  let hits = ref 0 in\n\
          \  Parallel.Steal.run pool [| ([ 0 ], (fun _ctx -> incr hits; [ ([ 0 ], !hits) ])) |]\n\
           let bad_spawn ctx =\n\
          \  let seen = Hashtbl.create 4 in\n\
          \  Parallel.Steal.spawn ctx ~key:[ 1 ] (fun _ctx -> Hashtbl.replace seen 1 1; [])\n" );
        ( "lib/core/stealbad.mli",
          "val bad_run : Parallel.pool -> (int list * int) list\n\
           val bad_spawn : int Parallel.Steal.ctx -> unit\n" );
      ]
  in
  check_rule_count "captured ref in a task tuple, captured table in a spawn body" "R3" 2 report

let test_r3_steal_task_local_clean () =
  (* Same shape, but every mutation targets state created inside the
     task body - and the tasks array is built by a nested [Array.map],
     which the scan must descend through without flagging the builder
     closure itself. *)
  let report =
    scan
      [
        ( "lib/core/stealok.ml",
          "let clean_run pool xs =\n\
          \  Parallel.Steal.run pool\n\
          \    (Array.map\n\
          \       (fun x ->\n\
          \         ( [ x ],\n\
          \           (fun _ctx ->\n\
          \             let acc = ref 0 in\n\
          \             for i = 1 to x do acc := !acc + i done;\n\
          \             [ ([ x ], !acc) ]) ))\n\
          \       xs)\n" );
        ("lib/core/stealok.mli", "val clean_run : Parallel.pool -> int array -> (int list * int) list\n");
      ]
  in
  check_rule_count "task-local mutation under Steal.run is fine" "R3" 0 report

(* ---------- R4: crash safety ---------- *)

let test_r4_violation () =
  let report =
    scan
      [
        ("lib/store/publish.ml", "let publish tmp path = Sys.rename tmp path\n");
        ("lib/store/publish.mli", "val publish : string -> string -> unit\n");
        (* lib/corpus is in scope too: its manifest checkpoint uses the
           same atomic-replace protocol. *)
        ("lib/corpus/publish.ml", "let publish tmp path = Unix.rename tmp path\n");
        ("lib/corpus/publish.mli", "val publish : string -> string -> unit\n");
      ]
  in
  check_rule_count "rename without fsync (store and corpus)" "R4" 2 report

let test_r4_clean () =
  let report =
    scan
      [
        ( "lib/store/atomic.ml",
          "let publish oc tmp path =\n\
          \  Unix.fsync (Unix.descr_of_out_channel oc);\n\
          \  Sys.rename tmp path\n" );
        ("lib/store/atomic.mli", "val publish : out_channel -> string -> string -> unit\n");
        ( "lib/corpus/atomic.ml",
          "let publish fd tmp path =\n\
          \  Unix.fsync fd;\n\
          \  Unix.close fd;\n\
          \  Sys.rename tmp path\n" );
        ("lib/corpus/atomic.mli", "val publish : Unix.file_descr -> string -> string -> unit\n");
        (* Outside lib/store and lib/corpus the rule does not apply. *)
        ("lib/render/swap.ml", "let swap tmp path = Sys.rename tmp path\n");
        ("lib/render/swap.mli", "val swap : string -> string -> unit\n");
      ]
  in
  check_rule_count "fsync-then-rename, and out-of-scope rename" "R4" 0 report

(* ---------- R6: lock discipline ---------- *)

(* Each body is checked as written and again behind an optional
   argument: [fun ?(spare = 0) ...] is typed as [fun *opt* -> let spare
   = ... in fun ...], so the walkers must look through that binding. *)
let with_optional ~name ~params body =
  [ ("plain", Printf.sprintf "let %s %s =\n%s" name params body);
    ( "optional argument",
      Printf.sprintf "let %s ?(spare = 0) %s =\n  ignore spare;\n%s" name params body ) ]

let test_r6_lock_leak_on_raise () =
  (* The callee between lock and unlock can raise; the Parsetree layer
     cannot see that, the typed walker must. *)
  List.iter
    (fun (variant, src) ->
      let report =
        scan
          [
            ("lib/parallel/guard.ml", src);
            ( "lib/parallel/guard.mli",
              if variant = "plain" then "val with_lock : Mutex.t -> (unit -> 'a) -> 'a\n"
              else "val with_lock : ?spare:int -> Mutex.t -> (unit -> 'a) -> 'a\n" );
          ]
      in
      check_rule_count (variant ^ ": unprotected raise window") "R6" 1 report;
      match by_rule "R6" report with
      | [ f ] ->
        Alcotest.(check bool) (variant ^ ": names the raising call and the lock") true
          (contains ~needle:"f can raise while m is held" f.Lint.Finding.message)
      | _ -> Alcotest.fail "expected one R6 finding")
    (with_optional ~name:"with_lock" ~params:"m f"
       "  Mutex.lock m;\n\
       \  let r = f () in\n\
       \  Mutex.unlock m;\n\
       \  r\n")

let test_r6_fun_protect_clean () =
  let report =
    scan
      [
        ( "lib/parallel/guard.ml",
          "let with_lock m f =\n\
          \  Mutex.lock m;\n\
          \  Fun.protect ~finally:(fun () -> Mutex.unlock m) f\n" );
        ("lib/parallel/guard.mli", "val with_lock : Mutex.t -> (unit -> 'a) -> 'a\n");
      ]
  in
  check_rule_count "finalizer covers the raise" "R6" 0 report

let test_r6_double_lock () =
  let report =
    scan
      [
        ( "lib/parallel/twice.ml",
          "let twice m =\n  Mutex.lock m;\n  Mutex.lock m;\n  Mutex.unlock m\n" );
        ("lib/parallel/twice.mli", "val twice : Mutex.t -> unit\n");
      ]
  in
  check_rule_count "relocking a held mutex" "R6" 1 report;
  match by_rule "R6" report with
  | [ f ] ->
    Alcotest.(check int) "at the second lock" 3 f.Lint.Finding.line;
    Alcotest.(check bool) "calls it a double lock" true
      (contains ~needle:"already held" f.Lint.Finding.message
      || contains ~needle:"double" f.Lint.Finding.message)
  | _ -> Alcotest.fail "expected one R6 finding"

let test_r6_out_of_scope () =
  (* R6 is scoped to lib/parallel: the same shape elsewhere is the
     caller's business. *)
  let report =
    scan
      [
        ( "lib/tiling/guard.ml",
          "let with_lock m f =\n\
          \  Mutex.lock m;\n\
          \  let r = f () in\n\
          \  Mutex.unlock m;\n\
          \  r\n" );
        ("lib/tiling/guard.mli", "val with_lock : Mutex.t -> (unit -> 'a) -> 'a\n");
      ]
  in
  check_rule_count "out of scope" "R6" 0 report

(* ---------- R7: resource lifetime ---------- *)

let peek_mli variant =
  if variant = "plain" then "val peek : string -> string\n"
  else "val peek : ?spare:int -> string -> string\n"

let test_r7_fd_leak_on_raise () =
  List.iter
    (fun (variant, src) ->
      let report = scan [ ("lib/store/peek.ml", src); ("lib/store/peek.mli", peek_mli variant) ] in
      check_rule_count (variant ^ ": read can raise before the close") "R7" 1 report;
      match by_rule "R7" report with
      | [ f ] ->
        Alcotest.(check int) (variant ^ ": anchored at the open")
          (if variant = "plain" then 2 else 3) f.Lint.Finding.line;
        Alcotest.(check bool) (variant ^ ": cites the raising call") true
          (contains ~needle:"really_input_string" f.Lint.Finding.message)
      | _ -> Alcotest.fail "expected one R7 finding")
    (with_optional ~name:"peek" ~params:"path"
       "  let ic = open_in_bin path in\n\
       \  let s = really_input_string ic 4 in\n\
       \  close_in ic;\n\
       \  s\n")

let test_r7_fun_protect_clean () =
  List.iter
    (fun (variant, src) ->
      let report = scan [ ("lib/store/peek.ml", src); ("lib/store/peek.mli", peek_mli variant) ] in
      check_rule_count (variant ^ ": protected read is clean") "R7" 0 report)
    (with_optional ~name:"peek" ~params:"path"
       "  let ic = open_in_bin path in\n\
       \  Fun.protect\n\
       \    ~finally:(fun () -> close_in_noerr ic)\n\
       \    (fun () -> really_input_string ic 4)\n")

let test_r7_mmap_without_close () =
  let report =
    scan
      [
        ( "lib/corpus/view.ml",
          "let view path n =\n\
          \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
          \  Bigarray.array1_of_genarray\n\
          \    (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| n |])\n" );
        ( "lib/corpus/view.mli",
          "val view :\n\
          \  string -> int -> (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) \
           Bigarray.Array1.t\n" );
      ]
  in
  check_rule_count "mapped fd never closed" "R7" 1 report

let test_r7_mmap_protected_clean () =
  let report =
    scan
      [
        ( "lib/corpus/view.ml",
          "let view path n =\n\
          \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
          \  Fun.protect\n\
          \    ~finally:(fun () -> Unix.close fd)\n\
          \    (fun () ->\n\
          \      Bigarray.array1_of_genarray\n\
          \        (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| n |]))\n" );
        ( "lib/corpus/view.mli",
          "val view :\n\
          \  string -> int -> (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) \
           Bigarray.Array1.t\n" );
      ]
  in
  check_rule_count "mapping then closing is clean" "R7" 0 report

let test_r7_socket_leak_on_raise () =
  let report =
    scan
      [
        ( "lib/server/probe.ml",
          "let probe path =\n\
          \  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in\n\
          \  Unix.connect fd (Unix.ADDR_UNIX path);\n\
          \  Unix.close fd\n" );
        ("lib/server/probe.mli", "val probe : string -> unit\n");
      ]
  in
  check_rule_count "connect can raise before the close" "R7" 1 report;
  match by_rule "R7" report with
  | [ f ] ->
    Alcotest.(check bool) "names the socket kind" true
      (contains ~needle:"socket" f.Lint.Finding.message);
    Alcotest.(check bool) "cites the raising call" true
      (contains ~needle:"Unix.connect" f.Lint.Finding.message)
  | _ -> Alcotest.fail "expected one R7 finding"

let test_r7_socket_protected_clean () =
  let report =
    scan
      [
        ( "lib/server/probe.ml",
          "let probe path =\n\
          \  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in\n\
          \  Fun.protect\n\
          \    ~finally:(fun () -> Unix.close fd)\n\
          \    (fun () -> Unix.connect fd (Unix.ADDR_UNIX path))\n" );
        ("lib/server/probe.mli", "val probe : string -> unit\n");
      ]
  in
  check_rule_count "protected connect is clean" "R7" 0 report

let test_r7_accept_leak_on_raise () =
  let report =
    scan
      [
        ( "lib/server/greet.ml",
          "let greet listen =\n\
          \  let fd, _addr = Unix.accept listen in\n\
          \  let b = Bytes.create 1 in\n\
          \  ignore (Unix.read fd b 0 1);\n\
          \  Unix.close fd\n" );
        ("lib/server/greet.mli", "val greet : Unix.file_descr -> unit\n");
      ]
  in
  check_rule_count "read can raise before the accepted close" "R7" 1 report;
  match by_rule "R7" report with
  | [ f ] ->
    Alcotest.(check bool) "names the accepted socket" true
      (contains ~needle:"accepted socket" f.Lint.Finding.message)
  | _ -> Alcotest.fail "expected one R7 finding"

let test_r7_accept_protected_clean () =
  let report =
    scan
      [
        ( "lib/server/greet.ml",
          "let greet listen =\n\
          \  let b = Bytes.create 1 in\n\
          \  let fd, _addr = Unix.accept listen in\n\
          \  Fun.protect\n\
          \    ~finally:(fun () -> Unix.close fd)\n\
          \    (fun () -> ignore (Unix.read fd b 0 1))\n" );
        ("lib/server/greet.mli", "val greet : Unix.file_descr -> unit\n");
      ]
  in
  check_rule_count "protected accepted socket is clean" "R7" 0 report

(* ---------- R5: interface coverage ---------- *)

let test_r5 () =
  let report =
    scan
      [
        ("lib/prng/naked.ml", "let x = 1\n");
        ("lib/prng/dressed.ml", "let x = 1\n");
        ("lib/prng/dressed.mli", "val x : int\n");
        (* bin/ and test/ modules need no interfaces. *)
        ("bin/main.ml", "let () = print_newline ()\n");
        ("test/test_x.ml", "let () = print_newline ()\n");
      ]
  in
  check_rule_count "exactly the naked module" "R5" 1 report;
  match by_rule "R5" report with
  | [ f ] -> Alcotest.(check string) "file" "lib/prng/naked.ml" f.Lint.Finding.file
  | _ -> Alcotest.fail "expected one R5 finding"

(* ---------- parse failures ---------- *)

let test_parse_failure () =
  let report = scan [ ("lib/prng/broken.ml", "let = in +++\n") ] in
  check_rule_count "one P0 finding" "P0" 1 report

(* ---------- baseline ---------- *)

let test_baseline_suppression () =
  let files =
    [
      ("lib/tiling/clock.ml", "let now () = Unix.gettimeofday ()\n");
      ("lib/tiling/clock.mli", "val now : unit -> float\n");
    ]
  in
  let report = scan files in
  check_rule_count "violation present without baseline" "R1" 1 report;
  let baseline = List.map Lint.Baseline.entry_of_finding report.Lint.findings in
  let suppressed = with_tree files (fun root -> Lint.run ~baseline ~root ()) in
  Alcotest.(check int) "no findings survive" 0 (List.length suppressed.Lint.findings);
  Alcotest.(check int) "suppression is counted" 1 suppressed.Lint.suppressed

let test_baseline_file_roundtrip () =
  let entry = { Lint.Baseline.rule = "R1"; file = "lib/a.ml"; message = "msg with spaces" } in
  let path = Filename.temp_file "tilesched-baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "# justification: the measurement is the point\n\n";
          Out_channel.output_string oc (Lint.Baseline.to_string [ entry ]));
      match Lint.Baseline.load path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok loaded ->
        Alcotest.(check int) "one entry" 1 (Lint.Baseline.size loaded);
        Alcotest.(check bool) "roundtrips" true (loaded = [ entry ]))

let test_baseline_rejects_garbage () =
  let path = Filename.temp_file "tilesched-baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "not a baseline\n");
      match Lint.Baseline.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected a parse error")

(* ---------- A0: unused allowlist entries ---------- *)

let test_a0_unused_allowlist () =
  (* The engine allowlist entry exists for wall-clock deadlines; an
     engine.ml that never needs it makes the entry stale. *)
  let report =
    scan
      [
        ("lib/server/engine.ml", "let version = 3\n");
        ("lib/server/engine.mli", "val version : int\n");
      ]
  in
  check_rule_count "unused entry flagged" "A0" 1 report;
  (match by_rule "A0" report with
  | [ f ] -> Alcotest.(check string) "names the entry" "lib/server/engine.ml" f.Lint.Finding.file
  | _ -> Alcotest.fail "expected one A0 finding");
  (* Entries whose prefix matches no scanned file are not judged: this
     fixture tree contains no loadgen.ml, and says nothing about it. *)
  Alcotest.(check bool) "absent files are out of jurisdiction" false
    (List.exists (fun f -> f.Lint.Finding.file = "lib/server/loadgen.ml") report.Lint.findings)

(* ---------- B0: stale baseline entries ---------- *)

let test_b0_stale_baseline () =
  let files =
    [ ("lib/tiling/fine.ml", "let f x = x + 1\n"); ("lib/tiling/fine.mli", "val f : int -> int\n") ]
  in
  let baseline =
    [ { Lint.Baseline.rule = "R1"; file = "lib/tiling/gone.ml"; message = "long since fixed" } ]
  in
  let report = with_tree files (fun root -> Lint.run ~baseline ~root ()) in
  check_rule_count "paid-off debt is flagged" "B0" 1 report;
  let relaxed = with_tree files (fun root -> Lint.run ~baseline ~allow_stale:true ~root ()) in
  Alcotest.(check int) "--allow-stale silences B0" 0 (List.length relaxed.Lint.findings)

(* ---------- a minimal JSON reader for the emitter tests ---------- *)

(* Just enough JSON to validate the emitters' output end-to-end:
   objects, arrays, strings with every escape the emitters produce,
   numbers, and the three literals.  Raises [Bad_json] on anything
   else, so a property failure points at the emitter. *)
type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws () | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance (); Buffer.contents b
      | '\\' ->
        advance ();
        (if !pos >= n then fail "truncated escape");
        (match s.[!pos] with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | '/' -> Buffer.add_char b '/'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 'b' -> Buffer.add_char b '\b'; advance ()
        | 'f' -> Buffer.add_char b '\012'; advance ()
        | 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let v = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if v < 0x80 then Buffer.add_char b (Char.chr v)
          else fail "\\u escape above ASCII (the emitters never produce one)"
        | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
        go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstr (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Jobj [] end
      else
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((key, v) :: acc)
          | Some '}' -> advance (); Jobj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Jarr [] end
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); Jarr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ ->
      let start = !pos in
      let num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
      while !pos < n && num_char s.[!pos] do advance () done;
      if !pos = start then fail "unexpected character";
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> Jnum v
      | None -> fail "bad number")
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes after the document";
  v

let member key = function
  | Jobj kvs -> (
    match List.assoc_opt key kvs with
    | Some v -> v
    | None -> raise (Bad_json ("missing member " ^ key)))
  | _ -> raise (Bad_json ("not an object while looking for " ^ key))

let as_string = function Jstr s -> s | _ -> raise (Bad_json "not a string")
let as_array = function Jarr l -> l | _ -> raise (Bad_json "not an array")

let first = function
  | [] -> raise (Bad_json "empty array")
  | x :: _ -> x

(* Render one finding through both emitters and read it back. *)
let roundtrips rule file message =
  let f =
    { Lint.Finding.rule; severity = Lint.Finding.Error; file; line = 1; col = 0; message }
  in
  let report = { Lint.findings = [ f ]; files_scanned = 1; files_typed = 1; suppressed = 0 } in
  let jf = first (as_array (member "findings" (parse_json (Lint.render_json report)))) in
  let result =
    first
      (as_array
         (member "results" (first (as_array (member "runs" (parse_json (Lint.render_sarif report)))))))
  in
  as_string (member "rule" jf) = rule
  && as_string (member "file" jf) = file
  && as_string (member "message" jf) = message
  && as_string (member "ruleId" result) = rule
  && as_string (member "text" (member "message" result)) = message
  && as_string
       (member "uri"
          (member "artifactLocation"
             (member "physicalLocation" (first (as_array (member "locations" result))))))
     = file

let test_render_escaping_cases () =
  List.iter
    (fun message ->
      Alcotest.(check bool) (String.escaped message) true (roundtrips "R1" "lib/a.ml" message))
    [
      "";
      "quote \" and backslash \\ in one";
      "newline\nand\ttab\rand\bbell\007";
      "non-ASCII: h\xc3\xa9llo \xe2\x80\x94 \xf0\x9f\x90\xab";
      "a JSON injection attempt: \"},{\"rule\":\"X\"";
    ]

let render_roundtrip_prop =
  let gnarly =
    QCheck.make
      ~print:(fun s -> String.escaped s)
      QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 40))
  in
  QCheck.Test.make ~name:"json and sarif emitters round-trip arbitrary bytes" ~count:500
    QCheck.(triple gnarly gnarly gnarly)
    (fun (rule, file, message) -> roundtrips rule file message)

(* ---------- rendering ---------- *)

let test_render_formats () =
  let report =
    scan
      [
        ("lib/tiling/clock.ml", "let now () = Unix.gettimeofday ()\n");
        ("lib/tiling/clock.mli", "val now : unit -> float\n");
      ]
  in
  let human = Lint.render_human report in
  let contains ~needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "human cites file:line and rule" true
    (contains ~needle:"lib/tiling/clock.ml:1:" human && contains ~needle:"[R1]" human);
  let json = Lint.render_json report in
  Alcotest.(check bool) "json carries the rule id" true (contains ~needle:{|"rule":"R1"|} json)

(* ---------- the rule book ---------- *)

let test_rule_book () =
  Alcotest.(check (list string)) "stable rule ids"
    [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7" ]
    (List.map (fun m -> m.Lint.Rules.id) Lint.Rules.all);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Lint.Rules.id ^ " has a rationale")
        true
        (String.length m.Lint.Rules.rationale > 0))
    Lint.Rules.all

(* ---------- end-to-end: the repo tree is clean ---------- *)

let test_repo_tree_clean () =
  (* Under `dune runtest` the cwd is _build/default/test and the parent
     holds the full copied source tree; under `dune exec` from the
     workspace root the cwd is the tree itself. *)
  let cwd = Sys.getcwd () in
  let root =
    if Sys.file_exists (Filename.concat cwd "lib") then cwd else Filename.dirname cwd
  in
  let report = Lint.run ~root () in
  Alcotest.(check int)
    (String.concat "\n" ("repo tree lints clean" :: List.map Lint.Finding.to_human report.Lint.findings))
    0
    (List.length report.Lint.findings);
  Alcotest.(check bool) "scanned a real tree" true (report.Lint.files_scanned > 50);
  (* The semantic layer must actually have run: most library sources
     acquire a typedtree (via cmt artifacts or in-process typing). *)
  Alcotest.(check bool)
    (Printf.sprintf "typed pipeline covered the library (%d typed)" report.Lint.files_typed)
    true
    (report.Lint.files_typed > 40)

let () =
  Alcotest.run "lint"
    [
      ( "r1-determinism",
        [
          Alcotest.test_case "wall-clock and unordered iteration flagged" `Quick test_r1_violations;
          Alcotest.test_case "sorted fold is clean" `Quick test_r1_sorted_fold_clean;
          Alcotest.test_case "engine allowlist" `Quick test_r1_allowlist;
        ] );
      ( "r1-taint",
        [
          Alcotest.test_case "seed two helpers deep taints callers" `Quick test_r1_taint_two_deep;
          Alcotest.test_case "deterministic root taints nothing" `Quick test_r1_taint_clean_root;
          Alcotest.test_case "allowlisted root starts no taint" `Quick test_r1_taint_allowlisted_root;
        ] );
      ( "callgraph",
        [ Alcotest.test_case "three modules, all edge spellings" `Quick test_callgraph_three_modules ] );
      ( "r2-forbidden",
        [
          Alcotest.test_case "Obj.magic, Marshal, library exit" `Quick test_r2_violations;
          Alcotest.test_case "clean module" `Quick test_r2_clean;
        ] );
      ( "r3-task-purity",
        [
          Alcotest.test_case "captured mutation flagged" `Quick test_r3_violations;
          Alcotest.test_case "task-local mutation clean" `Quick test_r3_task_local_clean;
          Alcotest.test_case "steal task capture flagged" `Quick test_r3_steal_violations;
          Alcotest.test_case "steal task-local clean" `Quick test_r3_steal_task_local_clean;
        ] );
      ( "r4-crash-safety",
        [
          Alcotest.test_case "rename without fsync" `Quick test_r4_violation;
          Alcotest.test_case "fsync-then-rename clean" `Quick test_r4_clean;
        ] );
      ( "r6-lock-discipline",
        [
          Alcotest.test_case "raise window between lock and unlock" `Quick test_r6_lock_leak_on_raise;
          Alcotest.test_case "Fun.protect release is clean" `Quick test_r6_fun_protect_clean;
          Alcotest.test_case "double lock" `Quick test_r6_double_lock;
          Alcotest.test_case "scoped to lib/parallel" `Quick test_r6_out_of_scope;
        ] );
      ( "r7-resource-lifetime",
        [
          Alcotest.test_case "fd leak on raise" `Quick test_r7_fd_leak_on_raise;
          Alcotest.test_case "Fun.protect close is clean" `Quick test_r7_fun_protect_clean;
          Alcotest.test_case "mmap without close" `Quick test_r7_mmap_without_close;
          Alcotest.test_case "mmap with protected close is clean" `Quick test_r7_mmap_protected_clean;
          Alcotest.test_case "socket leaks when connect raises" `Quick
            test_r7_socket_leak_on_raise;
          Alcotest.test_case "protected socket connect is clean" `Quick
            test_r7_socket_protected_clean;
          Alcotest.test_case "accepted socket leaks when read raises" `Quick
            test_r7_accept_leak_on_raise;
          Alcotest.test_case "protected accepted socket is clean" `Quick
            test_r7_accept_protected_clean;
        ] );
      ( "r5-interfaces",
        [ Alcotest.test_case "missing .mli flagged, bin/test exempt" `Quick test_r5 ] );
      ( "driver",
        [
          Alcotest.test_case "parse failure becomes P0" `Quick test_parse_failure;
          Alcotest.test_case "baseline suppresses and counts" `Quick test_baseline_suppression;
          Alcotest.test_case "baseline file roundtrip" `Quick test_baseline_file_roundtrip;
          Alcotest.test_case "baseline rejects garbage" `Quick test_baseline_rejects_garbage;
          Alcotest.test_case "unused allowlist entry becomes A0" `Quick test_a0_unused_allowlist;
          Alcotest.test_case "stale baseline entry becomes B0" `Quick test_b0_stale_baseline;
          Alcotest.test_case "human and json rendering" `Quick test_render_formats;
          Alcotest.test_case "emitters survive hostile messages" `Quick test_render_escaping_cases;
          QCheck_alcotest.to_alcotest render_roundtrip_prop;
          Alcotest.test_case "rule book is complete" `Quick test_rule_book;
        ] );
      ("end-to-end", [ Alcotest.test_case "repo tree lints clean" `Quick test_repo_tree_clean ]);
    ]
