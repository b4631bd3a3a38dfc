open Lattice

type unit_ = Ns | Us | Per_s | Ratio | Slots | Count

let unit_names =
  [ (Ns, "ns"); (Us, "us"); (Per_s, "1/s"); (Ratio, "ratio"); (Slots, "slots"); (Count, "count") ]

let unit_to_string u = List.assoc u unit_names

type row = { name : string; value : float; unit : unit_ }

type cmp = Le | Ge | Eq

type bound = Row of string | Const of float

type gate = { row : string; cmp : cmp; bound : bound }

type suite = {
  name : string;
  doc : string;
  required : (string * unit_) list;
  gates : gate list;
  run : quota:float -> row list;
}

let staircase k =
  (* Exact staircase polyomino with ~4k+2 boundary letters. *)
  let cells =
    List.concat_map
      (fun i -> [ Zgeom.Vec.make2 i i; Zgeom.Vec.make2 i (i + 1) ])
      (List.init k Fun.id)
    @ [ Zgeom.Vec.make2 k k ]
  in
  Prototile.of_cells_anchored cells

let cross n =
  if n < 2 then invalid_arg "Microbench.cross: n must be at least 2";
  let cells =
    List.init n (fun j -> Zgeom.Vec.make2 0 j) @ List.init (n - 1) (fun i -> Zgeom.Vec.make2 (i + 1) 0)
  in
  Prototile.of_cells cells

(* Any two torus translates of the cross intersect (their row and column
   arms cannot both miss), so a cover uses at most one cross; with the
   monomino alongside there are exactly 1 + n^2 covers, and all but
   2n - 1 of them put a monomino on cell 0.  Cell selection is
   symmetric, so the branch share is exactly that cover share. *)
let skew_instance ~n =
  let period = Sublattice.of_basis [| [| n; 0 |]; [| 0; n |] |] in
  let mono = Prototile.of_cells [ Zgeom.Vec.zero 2 ] in
  (period, [ cross n; mono ])

let skew_root_share ~n =
  let period, prototiles = skew_instance ~n in
  let pool = Parallel.create ~jobs:1 in
  let zero = Zgeom.Vec.zero 2 in
  let mono_at_zero mt =
    List.exists
      (fun pc ->
        Prototile.size pc.Tiling.Multi.tile = 1
        && List.exists
             (fun o -> Zgeom.Vec.equal (Sublattice.reduce period o) zero)
             pc.Tiling.Multi.piece_offsets)
      (Tiling.Multi.pieces mt)
  in
  let total = Tiling.Search.count_torus_covers ~period ~prototiles ~pool () in
  let fat =
    List.length
      (Tiling.Search.cover_torus ~period ~prototiles ~max_solutions:max_int ~keep:mono_at_zero
         ~pool ())
  in
  float fat /. float total

let run_tests ~quota tests =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    List.sort Stdlib.compare (Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [])
  in
  List.filter_map
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some (est :: _) -> Some { name; value = est; unit = Ns }
      | _ -> None)
    rows

(* The EXP-P3 scheduler benchmark: {!Tiling.Search.count_torus_covers}
   on [skew_instance ~n:28] at jobs = 1 and jobs = 4.  A single-core
   host shows no speedup, so the suite declares no gate. *)
let run_skew ~quota =
  let open Bechamel in
  (* n = 28: 785 covers, 93% of them under the single monomino-at-zero
     root branch (EXP-P3), at a sequential count cost small enough for
     the CI smoke run. *)
  let period, prototiles = skew_instance ~n:28 in
  let pool1 = Parallel.create ~jobs:1 in
  let pool4 = Parallel.create ~jobs:4 in
  let count pool () = Tiling.Search.count_torus_covers ~period ~prototiles ~pool () in
  let tests =
    Test.make_grouped ~name:"skew"
      [
        Test.make ~name:"skew-seq-j1" (Staged.stage (count pool1));
        Test.make ~name:"skew-steal-j4" (Staged.stage (count pool4));
      ]
  in
  Fun.protect
    ~finally:(fun () ->
      Parallel.shutdown pool1;
      Parallel.shutdown pool4)
    (fun () -> run_tests ~quota tests)

(* The EXP-L1 instance: I-tetromino rows on an 8x8 grid, leaders paying a
   +1.0/slot surcharge against a 30-unit battery.  Deterministic, so the
   lifetime-* rows are exact slot counts, not estimates. *)
let lifetime_instance ~classes ~epochs ~policy =
  let period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 4 |] |] in
  let covers =
    Tiling.Search.distinct_torus_covers ~period ~prototiles:[ Prototile.tetromino `I ]
      ~max_classes:classes ()
  in
  match
    Lifetime.Rotation.make ~covers:(Lifetime.Rotation.balance covers) ~epoch:4 ~epochs ~policy
  with
  | Ok rot -> rot
  | Error e -> invalid_arg ("Microbench.lifetime_instance: " ^ e)

let lifetime_first_death rot =
  let duration = 1200 in
  let cfg =
    { (Netsim.Sim.default_config ~mac:(Lifetime.Rotation.mac rot)) with
      width = 8;
      height = 8;
      prototile = Prototile.tetromino `I;
      duration;
      workload = Netsim.Workload.Periodic { interval = 40 };
      faults =
        {
          Netsim.Faults.none with
          Netsim.Faults.battery = Some 30.0;
          extra_cost = Some (Lifetime.Rotation.extra_cost rot ~leader_cost:1.0);
        };
    }
  in
  match Netsim.Sim.first_death (Netsim.Sim.run cfg) with
  | Some t -> float_of_int t
  | None -> float_of_int duration

(* The lifetime suite (EXP-L1).  The [lifetime-*-first-death-slots]
   rows are exact slot counts of the first battery death under the
   static schedule vs a balanced 4-cover least-depleted rotation (their
   ratio is the lifetime-extension factor; the quota does not apply to
   them); the [repair-solve-*] rows time {!Lifetime.Repair.repair} on
   the minimal wrapped-row window (I-tet, 8 cells) and on a
   one-ring-grown window (S-tet, 56 cells). *)
let run_lifetime ~quota =
  let open Bechamel in
  let static = lifetime_instance ~classes:1 ~epochs:1 ~policy:Lifetime.Rotation.Round_robin in
  let rotate =
    lifetime_instance ~classes:4 ~epochs:12 ~policy:Lifetime.Rotation.Least_depleted_first
  in
  let slot_rows =
    [
      { name = "lifetime-static-first-death-slots"; value = lifetime_first_death static;
        unit = Slots };
      { name = "lifetime-rotate-4-first-death-slots"; value = lifetime_first_death rotate;
        unit = Slots };
    ]
  in
  let deployment = Sublattice.of_basis [| [| 8; 0 |]; [| 0; 8 |] |] in
  let repair tile =
    let base = Option.get (Tiling.Search.find_tiling tile) in
    let dead = List.hd (Tiling.Single.offsets base) in
    fun () ->
      match Lifetime.Repair.repair ~deployment base ~dead with
      | Ok r -> r
      | Error e -> invalid_arg ("Microbench.run_lifetime: repair failed: " ^ e)
  in
  let tests =
    Test.make_grouped ~name:"lifetime"
      [
        (* Minimal window (one wrapped row, 8 cells) vs one-ring growth
           (56 cells): the repair-latency-vs-window-size comparison of
           EXP-L1. *)
        Test.make ~name:"repair-solve-itet-row8" (Staged.stage (repair (Prototile.tetromino `I)));
        Test.make ~name:"repair-solve-stet-ring1" (Staged.stage (repair (Prototile.tetromino `S)));
      ]
  in
  List.sort Stdlib.compare (run_tests ~quota tests @ slot_rows)

(* The EXP-CORPUS instance: the full n <= 7 corpus (164 canonical classes)
   built fresh in a temp directory, next to a certificate store holding
   the same verdicts (written straight from the BN decisions, no
   search).  The warm rows compare one [find] against each resident
   tier; the coldstart rows open the tier, find one key, and close it -
   the store replays and re-validates its whole log before the first
   answer, the snapshot just mmaps, which is the asymmetry the corpus
   subsystem exists to exploit. *)
let corpus_bench_max_n = 7

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let run_corpus ~quota =
  let open Bechamel in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tilesched-corpus-bench-%d" (Unix.getpid ()))
  in
  let corpus_dir = Filename.concat root "corpus" in
  let store_path = Filename.concat root "store.log" in
  let clean () =
    rm_rf corpus_dir;
    rm_rf root
  in
  clean ();
  Unix.mkdir root 0o755;
  Fun.protect ~finally:clean (fun () ->
      (match Corpus.Campaign.run ~dir:corpus_dir ~max_n:corpus_bench_max_n () with
      | Ok _ -> ()
      | Error e -> invalid_arg ("Microbench.run_corpus: " ^ e));
      let keys = ref [] in
      let store = Store.open_ store_path in
      Polyomino.enumerate_free_iter ~max_area:corpus_bench_max_n (fun ~area:_ tile ->
          let key = Corpus.Layout.key_of_prototile tile in
          keys := key :: !keys;
          Store.put store key
            (match Tiling.Search.decide tile with
            | Tiling.Search.Exact tiling ->
              Store.Found { tiling; certificate = Core.Certificate.build tiling }
            | Tiling.Search.Non_exact _ | Tiling.Search.Not_found -> Store.No_tiling));
      Store.close store;
      let keys = Array.of_list (List.rev !keys) in
      let snap =
        match Corpus.Snapshot.open_ corpus_dir with
        | Ok s -> s
        | Error e -> invalid_arg ("Microbench.run_corpus: " ^ e)
      in
      let store = Store.open_ store_path in
      let i = ref 0 in
      let next () =
        let k = keys.(!i) in
        i := (!i + 1) mod Array.length keys;
        k
      in
      let probe = keys.(Array.length keys / 2) in
      let tests =
        Test.make_grouped ~name:"corpus"
          [
            Test.make ~name:"corpus-mmap-find-warm"
              (Staged.stage (fun () -> Corpus.Snapshot.find snap (next ())));
            Test.make ~name:"corpus-store-find-warm"
              (Staged.stage (fun () -> Store.find store (next ())));
            Test.make ~name:"corpus-mmap-coldstart-find"
              (Staged.stage (fun () ->
                   match Corpus.Snapshot.open_ corpus_dir with
                   | Ok s -> Corpus.Snapshot.find s probe
                   | Error e -> invalid_arg e));
            Test.make ~name:"corpus-store-coldstart-find"
              (Staged.stage (fun () ->
                   let s = Store.open_ store_path in
                   let r = Store.find s probe in
                   Store.close s;
                   r));
          ]
      in
      let rows = run_tests ~quota tests in
      Store.close store;
      rows)

(* Every tile has area <= 5, so each canonical class is resident in the
   n <= 5 corpus the suite builds: every tile-search is a warm mmap
   hit, the workload the zero-copy splice path exists for.  The tiles
   are pre-canonicalized so both dialects take their splice road (the
   text engine's [Tiling_raw_r] and the loop-thread iovec path both
   require the request orientation to be the stored canonical one). *)
let server_small_tiles =
  List.map
    (fun (name, tile) -> (name, Symmetry.canonical tile))
    [ ("tet-S", Prototile.tetromino `S);
      ("tet-Z", Prototile.tetromino `Z);
      ("tet-L", Prototile.tetromino `L);
      ("tet-J", Prototile.tetromino `J);
      ("tet-T", Prototile.tetromino `T);
      ("tet-I", Prototile.tetromino `I);
      ("tet-O", Prototile.tetromino `O);
      ("rect2x2", Prototile.rect 2 2);
      ("pent-P", Prototile.pentomino `P);
      ("pent-L", Prototile.pentomino `L);
      ("pent-I", Prototile.pentomino `I);
      ("pent-X", Prototile.pentomino `X) ]

(* The daemon the server suite spawns: [bin/tilesched.exe] in the same
   build tree as the running benchmark executable ([bench/main.exe]). *)
let daemon_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "tilesched.exe")

(* The wire-protocol suite (EXP-SRV2): closed-loop warm tile-search
   throughput under each dialect, the daemon CPU each dialect costs per
   request and the ratios of both, then the per-request latency
   percentiles and the undecodable-reply count of a 10,000-connection
   binary open-loop run.  Each dialect is sampled [server_pairs] times,
   text and binary interleaved; the throughput and CPU rows are the
   medians of the samples and the ratio rows are the medians of the
   per-pair ratios, so one slow sample cannot decide the gate.
   The gate is on the CPU ratio: the load generator and the daemon
   share the host's cores, and the text client decodes and re-validates
   every reply, so a wall-clock ratio falls whenever a layer both
   dialects share gets faster, even when neither dialect's own code
   changed.  The daemon's CPU time is read around each sample from
   [/proc/<pid>/task/*/schedstat], which counts only the daemon.
   Every sample starts after a full major collection, so the garbage
   of one sample is not collected on the next one's clock (a binary
   sample would otherwise last only a few milliseconds).
   Each sample's request count scales with [quota] ([quota * 10_000]),
   but is at least [server_min_requests], so that at the smoke quota a
   binary sample lasts tens of milliseconds rather than a few and the
   ratio measures the dialects more than the scheduler; the open-loop
   run is fixed-size.  The spawned daemon is shut down at the end, and
   killed if anything raises first. *)
let server_pairs = 9

let server_min_requests = 5_000

(* Nanoseconds the daemon's threads have spent on a CPU: the first
   field of each thread's [schedstat], summed.  A thread that exits
   between the directory listing and the read is skipped. *)
let daemon_cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match
        In_channel.with_open_bin (Filename.concat (Filename.concat dir tid) "schedstat")
          In_channel.input_all
      with
      | s -> acc + int_of_string (List.hd (String.split_on_char ' ' s))
      | exception Sys_error _ -> acc)
    0 (Sys.readdir dir)

(* The middle sample ([server_pairs] is odd). *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let run_server ~quota =
  let exe = daemon_exe () in
  if not (Sys.file_exists exe) then
    failwith
      (Printf.sprintf "the server suite needs the daemon at %s; build it with 'dune build'" exe);
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tilesched-server-bench-%d" (Unix.getpid ()))
  in
  let corpus_dir = Filename.concat root "corpus" in
  let sock = Filename.concat root "server.sock" in
  let clean () =
    rm_rf corpus_dir;
    rm_rf root
  in
  clean ();
  Unix.mkdir root 0o755;
  Fun.protect ~finally:clean (fun () ->
      (match Corpus.Campaign.run ~dir:corpus_dir ~max_n:5 () with
      | Ok _ -> ()
      | Error e -> invalid_arg ("Microbench.run_server: " ^ e));
      let pid =
        let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close null)
          (fun () ->
            Unix.create_process exe
              [| exe; "serve"; "-s"; sock; "--corpus"; corpus_dir; "--cache"; "1024" |]
              null null Unix.stderr)
      in
      (* The socket file appearing means bind has happened; a successful
         probe connect means listen has too. *)
      let rec await n =
        let ready =
          Sys.file_exists sock
          &&
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect fd (Unix.ADDR_UNIX sock) with
          | () ->
            Unix.close fd;
            true
          | exception Unix.Unix_error _ ->
            Unix.close fd;
            false
        in
        if ready then ()
        else if n = 0 then invalid_arg "Microbench.run_server: server did not come up"
        else begin
          ignore (Unix.select [] [] [] 0.05);
          await (n - 1)
        end
      in
      await 200;
      let reaped = ref false in
      Fun.protect
        ~finally:(fun () ->
          if not !reaped then begin
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
          end)
        (fun () ->
          let n = max server_min_requests (int_of_float (quota *. 10_000.)) in
          let config =
            { Server.Loadgen.default with
              requests = n;
              clients = 32;
              tiles = server_small_tiles;
              ops = `Search_only }
          in
          (* Untimed warmup: fault in the corpus mmap, fill the
             server's payload memo and settle allocator state, so the
             measured runs compare steady states rather than cold
             starts. *)
          let warmup = { config with requests = 1_000 } in
          let (_ : Server.Loadgen.report) =
            Server.Frontend.with_connection ~path:sock (fun send ->
                Server.Loadgen.run_with ~send warmup)
          in
          let (_ : Server.Loadgen.report) =
            Server.Frontend.with_binary_connection ~path:sock (fun send ->
                Server.Loadgen.run_binary ~send warmup)
          in
          (* One sample: its throughput and the daemon's CPU per
             request, in microseconds. *)
          let sample run =
            Gc.full_major ();
            let cpu0 = daemon_cpu_ns pid in
            let (r : Server.Loadgen.report) = run () in
            let cpu = daemon_cpu_ns pid - cpu0 in
            (r.throughput, float_of_int cpu /. 1_000. /. float_of_int n)
          in
          let pairs =
            List.init server_pairs (fun _ ->
                let text =
                  sample (fun () ->
                      Server.Frontend.with_connection ~path:sock (fun send ->
                          Server.Loadgen.run_with ~send config))
                in
                let binary =
                  sample (fun () ->
                      Server.Frontend.with_binary_connection ~path:sock (fun send ->
                          Server.Loadgen.run_binary ~send config))
                in
                (text, binary))
          in
          let ratio a b = if a > 0.0 then b /. a else 0.0 in
          let open_cfg =
            { Server.Loadgen.open_default with
              connections = 10_000;
              total = 20_000;
              binary = true;
              tiles = server_small_tiles;
              ops = `Search_only;
              send_shutdown = true }
          in
          let open_r = Server.Loadgen.run_open ~path:sock open_cfg in
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          reaped := true;
          let lat = open_r.Server.Loadgen.latency in
          List.sort Stdlib.compare
            [
              { name = "server-text-warm-rps";
                value = median (List.map (fun ((rps, _), _) -> rps) pairs); unit = Per_s };
              { name = "server-binary-warm-rps";
                value = median (List.map (fun (_, (rps, _)) -> rps) pairs); unit = Per_s };
              { name = "server-binary-vs-text-speedup";
                value = median (List.map (fun ((text, _), (binary, _)) -> ratio text binary) pairs);
                unit = Ratio };
              { name = "server-text-daemon-cpu-us";
                value = median (List.map (fun ((_, cpu), _) -> cpu) pairs); unit = Us };
              { name = "server-binary-daemon-cpu-us";
                value = median (List.map (fun (_, (_, cpu)) -> cpu) pairs); unit = Us };
              { name = "server-binary-vs-text-cpu-ratio";
                value = median (List.map (fun ((_, text), (_, binary)) -> ratio binary text) pairs);
                unit = Ratio };
              { name = "server-open-10k-p50-us"; value = lat.Netsim.Stats.p50_latency;
                unit = Us };
              { name = "server-open-10k-p95-us"; value = lat.Netsim.Stats.p95_latency;
                unit = Us };
              { name = "server-open-10k-p99-us"; value = lat.Netsim.Stats.p99_latency;
                unit = Us };
              { name = "server-open-10k-dropped";
                value = float_of_int open_r.Server.Loadgen.dropped; unit = Count };
            ]))

(* A hole-free area-12 polyomino without a BN factorization: every
   torus stage of {!Tiling.Search.stages} (303 of them) comes up empty,
   which is what the daemon pays for such a tile on a fresh search. *)
let nonexact_poly12 =
  Prototile.of_cells
    (List.map
       (fun (x, y) -> Zgeom.Vec.make2 x y)
       [ (0, 0); (0, 1); (0, 2); (0, 3); (0, 4); (0, 5); (0, 6); (0, 7); (1, 1); (1, 3); (1, 4);
         (1, 5) ])

let exhaust_stages p () =
  Seq.iter
    (fun stage ->
      if stage () <> None then invalid_arg "Microbench.exhaust_stages: a stage found a tiling")
    (Tiling.Search.stages p)

let run_core ~quota =
  let open Bechamel in
  let cheb2 = Prototile.chebyshev_ball ~dim:2 2 in
  let cheb2_tiling = Option.get (Tiling.Search.find_tiling cheb2) in
  let cheb2_sched = Core.Schedule.of_tiling cheb2_tiling in
  let cheb1 = Prototile.chebyshev_ball ~dim:2 1 in
  let cheb1_tiling = Option.get (Tiling.Search.find_tiling cheb1) in
  let staircase_word = Polyomino.boundary_word (staircase 20) in
  let period = Tiling.Single.period cheb2_tiling in
  let probe = Zgeom.Vec.make2 123 (-456) in
  let sz_period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 4 |] |] in
  let s_tet = Prototile.tetromino `S and z_tet = Prototile.tetromino `Z in
  (* EXP-P2 workload: S/Z tetrominoes on the 4x8 torus, all 1024
     solutions, sequentially (jobs = 1): the bitmask kernel of
     {!Tiling.Search} against the two oracles of [Oracle.Torus].
     [torus-all-*] is pure enumeration ({!Tiling.Search.count_torus_covers},
     [Oracle.Torus.count]) - the engine comparison proper;
     [torus-mat-*] is the end-to-end materializing search, which adds
     the [Multi.t] construction and retention cost (the Amdahl floor
     EXP-P2 documents). *)
  (* The per-request kernels of a warm daemon: the cache key of an
     area-12 polyomino met a quarter turn away from its canonical
     orientation, and the CRC-32 trailer of a 256-byte frame. *)
  let poly12_turned =
    Prototile.of_cells
      (List.map (Symmetry.apply { Symmetry.rotation = 1; reflected = false })
         (Prototile.cells nonexact_poly12))
  in
  let frame256 = String.init 256 (fun i -> Char.chr ((i * 31) land 0xff)) in
  let sz48_period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 8 |] |] in
  let sz = [ s_tet; z_tet ] in
  let seq_pool = Parallel.create ~jobs:1 in
  let torus_all = function
    | `Bitmask ->
      fun () -> Tiling.Search.count_torus_covers ~period:sz48_period ~prototiles:sz ~pool:seq_pool ()
    | (`Backtracking | `Dlx) as engine ->
      fun () -> Oracle.Torus.count ~engine ~period:sz48_period ~prototiles:sz
  in
  let torus_mat = function
    | `Bitmask ->
      fun () ->
        Tiling.Search.cover_torus ~period:sz48_period ~prototiles:sz ~max_solutions:max_int
          ~pool:seq_pool ()
    | (`Backtracking | `Dlx) as engine ->
      fun () ->
        Oracle.Torus.covers ~engine ~period:sz48_period ~prototiles:sz ~max_solutions:max_int ()
  in
  let g8, _ = Coloring.Graph.lattice_window ~prototile:cheb1 ~width:8 ~height:8 in
  let sim_cfg =
    { (Netsim.Sim.default_config
         ~mac:(Netsim.Mac.lattice_tdma (Core.Schedule.of_tiling cheb1_tiling)))
      with width = 10; height = 10; prototile = cheb1; duration = 100 }
  in
  let tests =
    Test.make_grouped ~name:"tilesched"
      [
        Test.make ~name:"bn-exactness-staircase20"
          (Staged.stage (fun () -> Boundary_word.find_factorization staircase_word));
        Test.make ~name:"boundary-word-cheb2"
          (Staged.stage (fun () -> Polyomino.boundary_word cheb2));
        Test.make ~name:"lattice-tilings-cheb2"
          (Staged.stage (fun () -> Tiling.Search.lattice_tilings cheb2));
        Test.make ~name:"schedule-of-tiling-cheb2"
          (Staged.stage (fun () -> Core.Schedule.of_tiling cheb2_tiling));
        Test.make ~name:"slot-at" (Staged.stage (fun () -> Core.Schedule.slot_at cheb2_sched probe));
        Test.make ~name:"coset-reduce" (Staged.stage (fun () -> Sublattice.reduce period probe));
        Test.make ~name:"collision-check-cheb1"
          (Staged.stage (fun () ->
               Core.Collision.is_collision_free_theorem1 cheb1_tiling
                 (Core.Schedule.of_tiling cheb1_tiling)));
        Test.make ~name:"torus-search-SZ-first"
          (Staged.stage (fun () ->
               Tiling.Search.cover_torus ~period:sz_period ~prototiles:[ s_tet; z_tet ]
                 ~max_solutions:1 ()));
        Test.make ~name:"torus-all-backtracking" (Staged.stage (torus_all `Backtracking));
        Test.make ~name:"torus-all-dlx" (Staged.stage (torus_all `Dlx));
        Test.make ~name:"torus-all-bitmask" (Staged.stage (torus_all `Bitmask));
        Test.make ~name:"torus-mat-backtracking" (Staged.stage (torus_mat `Backtracking));
        Test.make ~name:"torus-mat-dlx" (Staged.stage (torus_mat `Dlx));
        Test.make ~name:"torus-mat-bitmask" (Staged.stage (torus_mat `Bitmask));
        Test.make ~name:"torus-stages-nonexact-poly12"
          (Staged.stage (exhaust_stages nonexact_poly12));
        Test.make ~name:"symmetry-canonicalize-poly12"
          (Staged.stage (fun () -> Symmetry.canonicalize poly12_turned));
        Test.make ~name:"crc32-frame-256"
          (Staged.stage (fun () -> Core.Crc32.string Core.Crc32.init frame256 0 256));
        Test.make ~name:"certificate-check-cheb1"
          (Staged.stage
             (let cert = Core.Certificate.build cheb1_tiling in
              fun () -> Core.Certificate.check cert));
        Test.make ~name:"certificate-check-bar2000"
          (Staged.stage
             (let bar = Prototile.of_cells (List.init 2_000 (fun i -> Zgeom.Vec.make2 i 0)) in
              let cert = Core.Certificate.build (Option.get (Tiling.Search.find_tiling bar)) in
              fun () -> Core.Certificate.check cert));
        Test.make ~name:"dsatur-8x8" (Staged.stage (fun () -> Coloring.Dsatur.color g8));
        Test.make ~name:"sim-100-slots-10x10" (Staged.stage (fun () -> Netsim.Sim.run sim_cfg));
      ]
  in
  run_tests ~quota tests


(* ------------------------------------------------------------------ *)
(* Suite registry                                                      *)
(* ------------------------------------------------------------------ *)

let ns names = List.map (fun n -> (n, Ns)) names

let suites =
  [
    { name = "core";
      doc =
        "Core machinery, one workload per hot subsystem, including the three torus \
         exact-cover engines on the EXP-P2 workload, every torus stage of a non-exact \
         polyomino, the two per-request kernels of a warm daemon (canonicalization and \
         CRC-32), and the certificate re-proof of a 1 x 2000 bar";
      required =
        ns
          [ "torus-all-backtracking"; "torus-all-dlx"; "torus-all-bitmask";
            "torus-mat-backtracking"; "torus-mat-dlx"; "torus-mat-bitmask";
            "torus-stages-nonexact-poly12"; "symmetry-canonicalize-poly12"; "crc32-frame-256";
            "certificate-check-bar2000" ];
      gates = [];
      run = run_core };
    { name = "skew";
      doc = "EXP-P3: the adversarial skewed instance counted sequentially and at jobs=4";
      required = ns [ "skew-seq-j1"; "skew-steal-j4" ];
      gates = [];
      run = run_skew };
    { name = "lifetime";
      doc =
        "EXP-L1: static vs rotating first-battery-death slots and the repair-solver \
         timings (committed as BENCH_7.json)";
      required =
        [ ("lifetime-static-first-death-slots", Slots);
          ("lifetime-rotate-4-first-death-slots", Slots);
          ("repair-solve-itet-row8", Ns);
          ("repair-solve-stet-ring1", Ns) ];
      gates = [];
      run = run_lifetime };
    { name = "corpus";
      doc =
        "EXP-CORPUS: mmap-snapshot vs store lookup latency, warm and cold-start \
         (committed as BENCH_8.json)";
      required =
        ns
          [ "corpus-mmap-find-warm"; "corpus-store-find-warm"; "corpus-mmap-coldstart-find";
            "corpus-store-coldstart-find" ];
      (* A warm store lookup parses the record's payload, so it is not
         gated against the snapshot's binary search; the cold-start gap is
         the snapshot tier's reason to exist. *)
      gates =
        [ { row = "corpus-mmap-coldstart-find"; cmp = Le;
            bound = Row "corpus-store-coldstart-find" } ];
      run = run_corpus };
    { name = "server";
      doc =
        "EXP-SRV2: text vs binary warm tile-search throughput and daemon CPU per request \
         through a spawned daemon, and a 10k-connection open-loop run (committed as \
         BENCH_10.json)";
      required =
        [ ("server-text-warm-rps", Per_s);
          ("server-binary-warm-rps", Per_s);
          ("server-binary-vs-text-speedup", Ratio);
          ("server-text-daemon-cpu-us", Us);
          ("server-binary-daemon-cpu-us", Us);
          ("server-binary-vs-text-cpu-ratio", Ratio);
          ("server-open-10k-p50-us", Us);
          ("server-open-10k-p95-us", Us);
          ("server-open-10k-p99-us", Us);
          ("server-open-10k-dropped", Count) ];
      gates =
        [ { row = "server-binary-vs-text-cpu-ratio"; cmp = Ge; bound = Const 5.0 };
          { row = "server-open-10k-dropped"; cmp = Eq; bound = Const 0.0 } ];
      run = run_server };
  ]

let find_suite name = List.find_opt (fun (s : suite) -> s.name = name) suites

(* Bechamel prefixes grouped test names ("corpus/corpus-mmap-find-warm");
   a declared name matches the row with or without that group. *)
let row_matches key (r : row) =
  let n = String.length r.name and k = String.length key in
  r.name = key || (n > k && String.sub r.name (n - k - 1) (k + 1) = "/" ^ key)

let find_row rows key = List.find_opt (row_matches key) rows

(* The shortest decimal that reads back as the same float, so an
   artifact round-trips exactly. *)
let number v =
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || float_of_string s = v then s else go (p + 1)
  in
  go 15

let gate_to_string g =
  Printf.sprintf "%s %s %s" g.row
    (match g.cmp with Le -> "<=" | Ge -> ">=" | Eq -> "==")
    (match g.bound with Row r -> r | Const c -> number c)

let check (suite : suite) rows =
  let problems = ref [] in
  let problem msg = problems := msg :: !problems in
  let missing = List.filter (fun (k, _) -> find_row rows k = None) suite.required in
  if missing <> [] then
    problem ("missing required benchmark rows: " ^ String.concat ", " (List.map fst missing));
  List.iter
    (fun (k, u) ->
      match find_row rows k with
      | Some r when r.unit <> u ->
        problem
          (Printf.sprintf "row %s has unit %s, expected %s" r.name (unit_to_string r.unit)
             (unit_to_string u))
      | _ -> ())
    suite.required;
  (* Gate rows are required rows, so a missing one is reported above. *)
  List.iter
    (fun g ->
      let value key = Option.map (fun r -> r.value) (find_row rows key) in
      let rhs = match g.bound with Row r -> value r | Const c -> Some c in
      match (value g.row, rhs) with
      | Some l, Some r ->
        let holds = match g.cmp with Le -> l <= r | Ge -> l >= r | Eq -> l = r in
        if not holds then
          problem
            (Printf.sprintf "gate failed: %s (%s vs %s)" (gate_to_string g) (number l) (number r))
      | _ -> ())
    suite.gates;
  match List.rev !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)

(* ------------------------------------------------------------------ *)
(* JSON artifact                                                       *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json (suite : suite) rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"suite\": \"%s\",\n  \"rows\": [" (escape suite.name));
  List.iteri
    (fun i (r : row) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    {\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\"}" (escape r.name)
           (number r.value) (unit_to_string r.unit)))
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* A strict recursive-descent parser for exactly the shape [to_json]
   emits (plus whitespace, key order and every JSON string escape),
   hand-rolled because the dependency budget has no JSON library.
   Strictness is the point: the artifact is machine-diffed, so anything
   unexpected is an error, not something to skip over. *)
exception Bad of string

let of_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let hex4 () =
    let hex = if !pos + 4 <= n then String.sub s !pos 4 else fail "truncated \\u escape" in
    if not (String.for_all (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) hex)
    then fail "malformed \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ hex)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
        incr pos;
        Buffer.contents buf
      | '\\' ->
        incr pos;
        if !pos >= n then fail "truncated escape";
        let c = s.[!pos] in
        incr pos;
        (match c with
        | '"' | '\\' | '/' -> Buffer.add_char buf c
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = hex4 () in
          if not (Uchar.is_valid cp) then fail "surrogate \\u escape";
          Buffer.add_utf_8_uchar buf (Uchar.of_int cp)
        | _ -> fail "unsupported escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ()
  in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    let numeric = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
    while !pos < n && numeric s.[!pos] do
      incr pos
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  (* An object with exactly the given keys, in any order; each field
     parser stores its own result. *)
  let parse_object fields =
    expect '{';
    let seen = ref [] in
    let rec field () =
      skip_ws ();
      let key = parse_string () in
      if List.mem key !seen then fail (Printf.sprintf "duplicate %S key" key);
      (match List.assoc_opt key fields with
      | Some parse ->
        expect ':';
        seen := key :: !seen;
        parse ()
      | None -> fail (Printf.sprintf "unexpected key %S" key));
      skip_ws ();
      match peek () with
      | Some ',' ->
        incr pos;
        field ()
      | _ -> expect '}'
    in
    field ();
    List.iter
      (fun (k, _) -> if not (List.mem k !seen) then fail (Printf.sprintf "missing %S key" k))
      fields
  in
  let parse_row () =
    let name = ref "" and value = ref 0.0 and unit = ref Ns in
    parse_object
      [ ("name", fun () -> name := parse_string ());
        ( "value",
          fun () ->
            let v = parse_number () in
            if not (v >= 0.0 && Float.is_finite v) then fail "value must be a non-negative number";
            value := v );
        ( "unit",
          fun () ->
            let u = parse_string () in
            match List.find_opt (fun (_, s) -> s = u) unit_names with
            | Some (u, _) -> unit := u
            | None -> fail (Printf.sprintf "unknown unit %S" u) ) ];
    { name = !name; value = !value; unit = !unit }
  in
  let parse_rows () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      []
    end
    else begin
      let rec more acc =
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          more (parse_row () :: acc)
        | _ ->
          expect ']';
          List.rev acc
      in
      more [ parse_row () ]
    end
  in
  try
    skip_ws ();
    if peek () = Some '[' then
      fail
        "v1 artifact (a bare array of two-key rows); expected {\"suite\": S, \
         \"rows\": [{name, value, unit}, ...]}";
    let suite = ref "" and rows = ref [] in
    parse_object
      [ ("suite", fun () -> suite := parse_string ()); ("rows", fun () -> rows := parse_rows ()) ];
    skip_ws ();
    if !pos <> n then fail "trailing garbage after object";
    Ok (!suite, !rows)
  with Bad msg -> Error msg

let validate_json s =
  match of_json s with
  | Error e -> Error e
  | Ok (name, rows) -> (
    match find_suite name with
    | None ->
      Error
        (Printf.sprintf "unknown suite %S (known: %s)" name
           (String.concat ", " (List.map (fun (s : suite) -> s.name) suites)))
    | Some suite -> Result.map (fun () -> (suite, rows)) (check suite rows))
