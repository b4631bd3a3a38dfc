(* Benchmark driver for `tilesched serve`.  See README.md for the
   workloads, the metrics and the noise findings behind each design
   choice.

   driver.exe --exe TILESCHED --work DIR --workload W --seed N
              --seconds S --trace 0|1

   Prints a human-readable report, then, as the last line, one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. *)

module P = Server.Protocol

let now_ns = Client.now_ns

let exe = ref ""
let work = ref ""
let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0

let () =
  Arg.parse
    [ ("--exe", Arg.Set_string exe, "PATH tilesched binary");
      ("--work", Arg.Set_string work, "DIR scratch directory (fixtures, sockets, logs)");
      ("--workload", Arg.Set_string workload, "NAME warm-splice | warm-mix | fresh-search");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "driver.exe --exe PATH --work DIR --workload NAME --seed N --seconds S --trace 0|1"

let say fmt = Printf.printf (fmt ^^ "\n%!")

let quantile = Client.quantile
let median a = quantile a 0.5

(* ---------- host reference ---------- *)

(* A fixed in-process kernel that touches no project code: when its
   time moves between two sets of runs, the host moved, not the
   program. *)
let host_ref_ms () =
  let a = Array.init 65536 (fun i -> (i * 7919) land 0xffff) in
  let t0 = now_ns () in
  let x = ref 0 in
  for r = 1 to 60 do
    for i = 0 to 65535 do
      x := (!x * 31) + a.((i * r) land 0xffff);
      a.(i) <- !x land 0xffff
    done
  done;
  ignore (Sys.opaque_identity !x);
  float_of_int (now_ns () - t0) /. 1e6

(* ---------- fixtures ---------- *)

let run_cli args =
  let log = Filename.concat !work "cli.log" in
  match Unix.waitpid [] (Daemon.exec ~exe:!exe ~log args) with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("tilesched " ^ String.concat " " args ^ " failed; see " ^ log)

let store_records path =
  let tmp = path ^ ".count" in
  Replay.copy_file path tmp;
  let s = Store.open_ tmp in
  let n = (Store.recovery s).Store.records in
  Store.close s;
  Sys.remove tmp;
  n

(* ---------- workloads ---------- *)

type spec = {
  reqs : Gen.req array;  (* distinct requests *)
  stream : int array;  (* distinct request per stream position *)
  dialect : int -> Client.dialect;  (* connection kind per stream position *)
  warm : int array;  (* distinct requests sent once before the window *)
  conns : Client.dialect array;
  nominal_rate : float;  (* open-loop requests/s; 0 = closed loop only *)
  max_load : float;  (* cap on the open-loop rate, as a share of the closed-loop capacity *)
  window : int;  (* closed-loop in-flight requests *)
  window_s : float;  (* length of one measurement window *)
  probe : Gen.req;  (* first request after start-up: setup_s ends at its verified reply *)
  fill : Gen.req array;  (* written to the store through the daemon before the run *)
}

let stream_len = 1 lsl 20
let replay_len = 20000

let spec ~corpus =
  let rng = Gen.rng_of_seed !seed in
  let exact, non_exact = Gen.corpus_classes corpus ~max_area:10 in
  let probe = { Gen.request = P.Tile_search exact.(0); tile = exact.(0); origin = Corpus_exact } in
  match !workload with
  | "warm-splice" ->
    let reqs = Gen.warm_splice ~exact ~non_exact in
    let stream = Gen.zipf_stream (rng 1) ~n:(Array.length reqs) ~len:stream_len in
    { reqs; stream; dialect = (fun _ -> Bin); warm = Array.init (Array.length reqs) Fun.id;
      conns = [| Bin; Bin |]; nominal_rate = 60000.0; max_load = 0.25; window = 128; window_s = 0.005; probe; fill = [||] }
  | "warm-mix" ->
    let r = rng 2 in
    let hot = Gen.hot_set r in
    let reqs = Gen.warm_mix r ~exact ~non_exact ~hot ~hot_share:(Gen.hot_share corpus) ~n:4096 in
    let stream = Gen.zipf_stream ~permute:false r ~n:(Array.length reqs) ~len:stream_len in
    let dial = Array.init stream_len (fun _ -> Prng.Xoshiro.bool r) in
    { reqs; stream; dialect = (fun i -> if dial.(i) then Text else Bin);
      warm = Array.init (Array.length reqs) Fun.id; conns = [| Bin; Text |];
      nominal_rate = 6000.0; max_load = 0.4; window = 64; window_s = 0.05; probe; fill = [||] }
  | "fresh-search" ->
    (* About 3x the blocks a run gets through at today's speed. *)
    let blocks = 10 + int_of_float (8.0 *. !seconds) in
    let f = Gen.fresh (rng 3) ~blocks ~fill_sparse:400 ~fill_exact:200 in
    { reqs = f.stream; stream = Array.init (Array.length f.stream) Fun.id;
      dialect = (fun _ -> Bin); warm = [||]; conns = [| Bin |]; nominal_rate = 0.0; max_load = 0.0; window = 1; window_s = 0.0;
      probe = f.fill.(0); fill = f.fill }
  | w -> failwith ("unknown workload " ^ w)

(* ---------- one daemon start ---------- *)

let verify_one (r : Gen.req) resp ~source =
  match resp with
  | Error e -> Error e
  | Ok resp -> (
    match Check.response_ok ~source r resp with
    | Ok () when P.source_of_response resp = Some source -> Ok ()
    | Ok () -> Error "probe answered without a tier"
    | Error e -> Error e)

(* Spawn, connect, and time exec -> first verified reply.  [name] names
   the socket and the log, so that a second daemon can start while the
   measured one runs. *)
let start ?(name = "serve") ~corpus_dir ~store ~probe ~probe_source () =
  let sock = Filename.concat !work (name ^ ".sock") in
  let log = Filename.concat !work (name ^ ".log") in
  let t0 = now_ns () in
  let d = Daemon.spawn ~exe:!exe ~log ~sock ~corpus:corpus_dir ?store () in
  match Daemon.connect d Bin ~timeout_s:60.0 with
  | exception e ->
    Daemon.kill d;
    raise e
  | c -> (
    match verify_one probe (Client.call c probe.Gen.request) ~source:probe_source with
    | Ok () -> (d, c, float_of_int (now_ns () - t0) /. 1e9)
    | Error e ->
      Daemon.shutdown d c;
      failwith ("start-up probe: " ^ e))

(* ---------- the socket run ---------- *)

type socket_run = {
  rate : float;  (* the median cycle's open-loop rate, requests/s; 0 on fresh-search *)
  lat : float array;  (* us, every request at the nominal rate; fresh-search: the closed loop's, in order *)
  half_lat : float array;  (* us, every request at half the nominal rate *)
  all_lat : float array;  (* us, as [lat] but late windows included *)
  lag : float array;  (* us, send lateness of every request at the nominal rate *)
  windows : int;  (* open-loop window pairs *)
  valid_windows : int;  (* those whose latencies count *)
  tputs : float array;  (* closed-loop windows, requests/s *)
  attempted : int;
  failed : int;
  first_error : string option;
  closed_completions : int;
  proc : Daemon.counters;  (* over the closed-loop (saturated) phases *)
  whole : Daemon.counters;  (* over the whole measured window *)
  stats_before : P.server_stats;
  stats_after : P.server_stats;
  rss_mb : float;
}

let mean a = if Array.length a = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* [gap ()] runs between measured windows: one cycle and the next, or
   two fresh-search windows. *)
let socket_run sp ~fresh ~daemon ~c0 ~gap =
  let conns =
    Array.mapi
      (fun i dial -> if i = 0 then c0 else Daemon.connect daemon dial ~timeout_s:10.0)
      sp.conns
  in
  let conn_of dial = Option.get (Array.find_opt (fun c -> c.Client.dialect = dial) conns) in
  let s = Client.session conns (Array.map (fun r -> Client.template r.Gen.request) sp.reqs) in
  let rr = ref 0 in
  let pick dial =
    if Array.length conns = 2 && conns.(0).dialect = conns.(1).dialect then begin
      incr rr;
      conns.(!rr land 1)
    end
    else conn_of dial
  in
  (* Warm-up: every distinct request once (first-touch searches fill the
     LRU, first probes fill the frontend memo). *)
  let warm_items = Array.mapi (fun i d -> (d, pick (sp.dialect i))) sp.warm in
  let dropped = Client.run_list s ~items:warm_items ~window:sp.window in
  if dropped > 0 || s.bad > 0 then failwith "warm-up replies missing or malformed";
  (* About a second of load before the window, so the host settles too
     (wake-up paths, frequency) after the idle start-up.  Its closed-loop
     part measures the capacity that caps the first cycle's rate (see the
     cycles below). *)
  let rate0 =
    if fresh then 0.0
    else begin
      let cursor = ref 0 in
      let next () =
        let i = !cursor mod Array.length sp.stream in
        incr cursor;
        (sp.stream.(i), pick (sp.dialect i))
      in
      let closed () = Client.run_phase s ~next ~mode:(`Closed sp.window) ~seconds:sp.window_s in
      for _ = 1 to int_of_float (Float.round (0.2 /. sp.window_s)) do ignore (closed ()) done;
      let caps =
        Array.init (int_of_float (Float.round (0.5 /. sp.window_s))) (fun _ ->
            let r = closed () in
            float_of_int r.completions /. r.elapsed_s)
      in
      let rate = Float.min sp.nominal_rate (sp.max_load *. median caps) in
      ignore (Client.run_phase s ~next ~mode:(`Open rate) ~seconds:0.3);
      rate
    end
  in
  Client.reset s;
  let stats_before = Client.stats c0 in
  let proc_before = Daemon.counters daemon in
  let cursor = ref 0 in
  (* Warm streams wrap around; fresh-search tiles must stay distinct. *)
  let next () =
    if fresh && !cursor >= Array.length sp.stream then raise Exit;
    let i = !cursor mod Array.length sp.stream in
    incr cursor;
    (sp.stream.(i), pick (sp.dialect i))
  in
  let attempted = ref 0 and dropped = ref 0 in
  let proc = ref Daemon.zero and closed_completions = ref 0 in
  let closed ?limit ~secs () =
    let a = Daemon.counters daemon in
    let before = s.next_id in
    let r = Client.run_phase ?limit s ~next ~mode:(`Closed sp.window) ~seconds:secs in
    let b = Daemon.counters daemon in
    proc := Daemon.add !proc (Daemon.sub b a);
    closed_completions := !closed_completions + r.completions;
    attempted := !attempted + (s.next_id - before);
    dropped := !dropped + r.dropped;
    r
  in
  let opened ~rate ~secs =
    let before = s.next_id in
    let r = Client.run_phase s ~next ~mode:(`Open rate) ~seconds:secs in
    attempted := !attempted + (s.next_id - before);
    dropped := !dropped + r.dropped;
    r
  in
  let rate, lat, half_lat, all_lat, lag, windows, valid_windows, tputs =
    if fresh then begin
      (* fresh-search: the closed loop in windows of two blocks (40
         requests), until the windows took the run's time; a cut last
         window only counts as attempted. *)
      let rec go acc spent =
        let left = !seconds -. spent in
        if left <= 0.0 then List.rev acc
        else
          let r =
            try closed ~limit:40 ~secs:left () with Exit -> failwith "fresh-search pool exhausted"
          in
          if r.completions < 40 then List.rev acc
          else begin
            gap ();
            go (r :: acc) (spent +. r.elapsed_s)
          end
      in
      let rs = go [] 0.0 in
      let lat = Array.concat (List.map (fun (r : Client.phase_result) -> r.lat) rs) in
      ( 0.0, lat, [||], lat, [||], 0, 0,
        Array.of_list (List.map (fun (r : Client.phase_result) -> float_of_int r.completions /. r.elapsed_s) rs) )
    end
    else begin
      (* One-second cycles: open-loop window pairs (nominal rate, then
         half of it) for 0.7 s, closed-loop windows for 0.3 s.  Every
         figure samples the whole run, and with it every state the host
         went through.  A window right behind a saturated one is slower,
         so each cycle opens with one unmeasured window at the nominal
         rate.  That rate is the workload's nominal rate, capped at a
         share ([sp.max_load]) of the capacity just measured, the
         previous cycle's median closed-loop window: the host runs two to
         four times slower than usual at times, and the nominal rate
         alone then overloads the daemon and starves the generator. *)
      let cycles = max 1 (int_of_float (Float.round !seconds)) in
      let pairs = max 1 (int_of_float (Float.round (0.35 /. sp.window_s))) in
      let closes = max 1 (int_of_float (Float.round (0.3 /. sp.window_s))) in
      let rate = ref rate0 in
      let windows =
        List.init cycles (fun _ ->
            let r = !rate in
            gap ();
            ignore (opened ~rate:r ~secs:sp.window_s);
            let opens =
              List.init pairs (fun _ ->
                  let nom = opened ~rate:r ~secs:sp.window_s in
                  let half = opened ~rate:(r /. 2.0) ~secs:sp.window_s in
                  (r, nom, half))
            in
            let tputs =
              Array.init closes (fun _ ->
                  let cl = closed ~secs:sp.window_s () in
                  float_of_int cl.completions /. cl.elapsed_s)
            in
            rate := Float.min sp.nominal_rate (sp.max_load *. median tputs);
            (r, opens, tputs))
      in
      let opens = List.concat_map (fun (_, o, _) -> o) windows in
      let tputs = Array.concat (List.map (fun (_, _, t) -> t) windows) in
      (* A window pair counts only if the generator kept its schedule in
         both halves: a p95 send lag below one inter-arrival period.  A
         late generator means the host took the driver's CPU; the
         daemon then saw bunched sends, not the nominal load. *)
      let on_time (r : Client.phase_result) rate = quantile r.lag 0.95 < 1e6 /. rate in
      let valid = List.filter (fun (r, n, h) -> on_time n r && on_time h (r /. 2.0)) opens in
      (* With no pair on time there is nothing better than all of them;
         the report flags the run. *)
      let scored = if valid = [] then opens else valid in
      let pool l f = Array.concat (List.map f l) in
      ( median (Array.of_list (List.map (fun (r, _, _) -> r) windows)),
        pool scored (fun (_, (n : Client.phase_result), _) -> n.lat),
        pool scored (fun (_, _, (h : Client.phase_result)) -> h.lat),
        pool opens (fun (_, (n : Client.phase_result), _) -> n.lat),
        pool opens (fun (_, (n : Client.phase_result), _) -> n.lag),
        List.length opens, List.length valid, tputs )
    end
  in
  let whole = Daemon.sub (Daemon.counters daemon) proc_before in
  let stats_after = Client.stats c0 in
  let rss_mb = Daemon.vm_hwm_mb daemon in
  Array.iteri (fun i c -> if i > 0 then Client.close c) conns;
  let check_failed, first_error = Check.session s sp.reqs in
  { rate; lat; half_lat; all_lat; lag; windows; valid_windows; tputs; attempted = !attempted; failed = !dropped + s.bad + s.mismatched + check_failed;
    first_error; closed_completions = !closed_completions; proc = !proc; whole; stats_before;
    stats_after; rss_mb }

(* ---------- main ---------- *)

let json_metric (name, unit, v) =
  let v = if Float.is_finite v then v else 0.0 in
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit

let () =
  (* A larger minor heap (8 MiB): fewer driver collections stalling
     the generator and the reply reader. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 20 };
  let refs = [ host_ref_ms (); host_ref_ms (); host_ref_ms () ] in
  let corpus_dir = Filename.concat !work "corpus" in
  run_cli [ "corpus"; "build"; "-d"; corpus_dir; "-n"; "10"; "-j"; "1" ];
  let corpus =
    match Corpus.Snapshot.open_ corpus_dir with Ok c -> c | Error e -> failwith e
  in
  let sp = spec ~corpus in
  let fresh = !workload = "fresh-search" in
  let setups = ref [] in
  (* fresh-search: fill a store through the daemon's own write-through,
     then give every start a byte-identical copy of it. *)
  let store_template =
    if not fresh then None
    else begin
      let tpl = Filename.concat !work "fill.store" in
      let d, c, _ =
        start ~corpus_dir ~store:(Some tpl) ~probe:sp.probe ~probe_source:P.Fresh ()
      in
      (* The start-up probe was the first fill tile. *)
      let s = Client.session [| c |] (Array.map (fun r -> Client.template r.Gen.request) sp.fill) in
      let items = Array.init (Array.length sp.fill - 1) (fun i -> (i + 1, c)) in
      let dropped, searches =
        match Client.run_list s ~items ~window:1 with
        | dropped -> (dropped, (Client.stats c).P.searches)
        | exception e ->
          Daemon.kill d;
          raise e
      in
      Daemon.shutdown d c;
      let failed, err = Check.session s sp.fill in
      if dropped > 0 || failed > 0 || s.bad > 0 then
        failwith ("store fill: " ^ Option.value ~default:"replies missing" err);
      if searches <> Array.length sp.fill then failwith "store fill: not one search per tile";
      Some tpl
    end
  in
  let timed_start name =
    let store =
      Option.map
        (fun tpl ->
          let p = Filename.concat !work (name ^ ".store") in
          Replay.copy_file tpl p;
          p)
        store_template
    in
    let probe_source = if fresh then P.Store else P.Corpus in
    let d, c, t = start ~name ~corpus_dir ~store ~probe:sp.probe ~probe_source () in
    setups := t :: !setups;
    (d, c)
  in
  (* setup_s: the median of many starts, spread over the whole run (see
     [socket_run]'s [gap]) so that they sample the same host states as
     the other figures; a burst of starts before the window caught
     whatever state the host was in for that half second.  The first
     daemon is the measured one. *)
  let gap () =
    for _ = 1 to if fresh then 1 else 2 do
      let d, c = timed_start "probe" in
      Daemon.shutdown d c
    done
  in
  let daemon, c0 = timed_start "serve" in
  let records_before = Option.fold ~none:0 ~some:store_records store_template in
  let run =
    match socket_run sp ~fresh ~daemon ~c0 ~gap with
    | r ->
      Daemon.shutdown daemon c0;
      r
    | exception e ->
      Daemon.kill daemon;
      raise e
  in
  let records_added =
    if fresh then store_records (Filename.concat !work "serve.store") - records_before else 0
  in
  let setup_s = median (Array.of_list !setups) in
  let starts = List.length !setups in
  (* Latency over every request of the run at the nominal rate; the
     throughput of the median closed-loop window (see README). *)
  let p50 = quantile run.lat 0.5 and p95 = quantile run.lat 0.95 in
  let p50_half = quantile run.half_lat 0.5 and lat_mean = mean run.lat in
  let lag95 = quantile run.lag 0.95 in
  let tput = median run.tputs in
  let d_stats f = f run.stats_after - f run.stats_before in
  let searches = d_stats (fun s -> s.P.searches) in
  let served = d_stats (fun s -> s.P.served) - 1 (* the Stats request itself *) in
  let corpus_hits = d_stats (fun s -> s.P.corpus_hits) in
  let cache_hits = d_stats (fun s -> s.P.cache_hits) and cache_misses = d_stats (fun s -> s.P.cache_misses) in
  (* Layer isolation, by count. *)
  let completed = run.attempted - run.failed in
  (* CPU time of every daemon thread but the event loop's, per reply:
     the engine domain's share.  Answered on the pre-decode fast route,
     a warm-splice request never reaches the engine, which then only
     takes part in the loop's garbage collections (about 40 ns a
     request); one engine round trip per request costs microseconds. *)
  let off_loop_ns = float_of_int run.whole.off_loop_cpu_ns /. float_of_int (max 1 completed) in
  let isolation =
    match !workload with
    | "warm-splice" ->
      if searches <> 0 then Error "searches ran"
      else if corpus_hits <> completed then Error "a reply was not a corpus hit"
      else if off_loop_ns > 250.0 then Error "the engine domain served requests (fast path bypassed)"
      else if cache_hits + cache_misses <> 0 then Error "the LRU was consulted"
      else Ok ()
    | "warm-mix" -> if searches <> 0 then Error "searches ran" else Ok ()
    | _ ->
      if searches <> run.attempted then Error "not exactly one search per request"
      else if records_added <> searches then Error "store did not grow by one record per search"
      else Ok ()
  in
  let host_ref = median (Array.of_list (refs @ [ host_ref_ms (); host_ref_ms (); host_ref_ms () ])) in
  (* Latencies come from the window pairs in which the generator kept
     its schedule.  A late generator is the host's doing, not the
     daemon's, so it does not make the run incorrect: the report flags
     it, and the traced run reports the on-time share. *)
  let valid = fresh || 2 * run.valid_windows > run.windows in
  say "workload %s seed %d: %d requests attempted, %d failed" !workload !seed run.attempted
    run.failed;
  Option.iter (fun e -> say "first failure: %s" e) run.first_error;
  say "setup_s %.6f (median of %d starts)" setup_s starts;
  say "p50_us %.3f p95_us %.3f mean_us %.3f at %s" p50 p95 lat_mean
    (if fresh then "closed loop, 1 in flight"
     else Printf.sprintf "%.0f req/s (nominal %.0f, capped at %.2f of the closed-loop capacity)" run.rate
         sp.nominal_rate sp.max_load);
  if not fresh then
    say "all windows, late ones included: p50_us %.3f p95_us %.3f" (quantile run.all_lat 0.5)
      (quantile run.all_lat 0.95);
  if not fresh then
    say "p50_us at half rate %.3f (%s p50 at nominal)" p50_half
      (if p50_half <= p50 then "not above" else "ABOVE");
  say "throughput_per_s %.1f (closed loop, window %d)" tput sp.window;
  say "peak_rss_mb %.3f" run.rss_mb;
  say "daemon: searches %d, served %d, corpus_hits %d, cache hits/misses %d/%d, store records +%d, off-loop CPU %.1f ns/reply"
    searches served corpus_hits cache_hits cache_misses records_added off_loop_ns;
  say "isolation: %s" (match isolation with Ok () -> "ok" | Error e -> "FAILED: " ^ e);
  say "driver lag p95 %.2f us; generator on time in %d of %d window pairs%s: run %s; host.ref_ms %.3f"
    lag95 run.valid_windows run.windows
    (if run.valid_windows = 0 && not fresh then " (latencies over all pairs)" else "")
    (if valid then "valid" else "INVALID (generator ran late)")
    host_ref;
  let correct = run.failed = 0 && isolation = Ok () in
  let per_req x n = if n = 0 then 0.0 else float_of_int x /. float_of_int n in
  let metrics =
    if !trace = 0 then
      [ ("setup_s", "s", setup_s); ("p50_us", "us", p50); ("p95_us", "us", p95);
        ("throughput_per_s", "1/s", tput); ("peak_rss_mb", "MiB", run.rss_mb) ]
    else begin
      (* The traced run: replay the socket run's stream in-process. *)
      let inputs idx =
        Array.mapi
          (fun i (pos, d) ->
            let tpl = Client.template sp.reqs.(d).Gen.request in
            match sp.dialect pos with
            | Bin -> Replay.Bin_frame (Client.frame_with_id tpl i)
            | Text ->
              Replay.Text_line (tpl.text_pre ^ string_of_int i ^ String.sub tpl.text_post 0 (String.length tpl.text_post - 1)))
          idx
      in
      let warm = inputs (Array.mapi (fun i d -> (i, d)) sp.warm) in
      let n = if fresh then min run.attempted 200 else replay_len in
      let stream = inputs (Array.init n (fun i -> (i, sp.stream.(i)))) in
      let pass traced =
        Replay.pass ~traced ~corpus_dir ~store_template ~work:!work ~warm ~stream
      in
      let plain = pass false in
      let traced = pass true in
      let spans = Filename.concat (Filename.dirname !work) ("spans-" ^ !workload ^ ".tsv") in
      Replay.write_spans traced.tracer spans;
      say "spans written to %s (%d spans)" spans traced.tracer.n;
      let l = Replay.layers traced.tracer in
      let per_call name scale =
        let x = l name in
        if x.calls = 0 then 0.0 else x.self_ns /. float_of_int x.calls /. scale
      in
      let words name =
        let x = l name in
        if x.calls = 0 then 0.0 else x.words /. float_of_int x.calls
      in
      let merged names scale =
        let calls, ns = List.fold_left (fun (c, s) nm -> let x = l nm in (c + x.calls, s +. x.self_ns)) (0, 0.0) names in
        if calls = 0 then 0.0 else ns /. float_of_int calls /. scale
      in
      let engine_layers =
        [ "symmetry.canonicalize"; "snapshot.find"; "snapshot.entry"; "snapshot.tiling_fields";
          "cache.find"; "cache.add"; "store.find"; "store.put"; "search.find_tiling.poly";
          "search.find_tiling.sparse"; "single.make"; "schedule.of_tiling"; "certificate.build" ]
      in
      let engine_calls = (l "engine.handle").calls in
      let engine_self_in_mirror =
        List.fold_left (fun acc nm -> acc +. (l nm).self_ns) 0.0 engine_layers
      in
      let engine_residual =
        if engine_calls = 0 then 0.0
        else traced.engine_us -. (engine_self_in_mirror /. 1000. /. float_of_int engine_calls)
      in
      let traced_req_us =
        let tr = traced.tracer in
        let tot = ref 0 and k = ref 0 in
        for i = 0 to tr.n - 1 do
          if tr.rid.(i) >= 0 && tr.name.(i) = "request" then begin
            tot := !tot + (tr.stop.(i) - tr.start.(i));
            incr k
          end
        done;
        if !k = 0 then 0.0 else float_of_int !tot /. 1000. /. float_of_int !k
      in
      (* The socket figure the replay is compared with: the mean at the
         nominal rate, or on fresh-search the mean over the very requests
         replayed (the run's first). *)
      let socket_us = if fresh then mean (Array.sub run.lat 0 (min n (Array.length run.lat))) else lat_mean in
      let cpu_us = float_of_int run.proc.cpu_ns /. 1e3 in
      let nreq = run.closed_completions in
      say "replay: %d requests, %.3f us/request untraced, %.3f traced; engine.handle %.3f us"
        (Array.length stream) plain.per_req_us traced_req_us traced.engine_us;
      [ ("daemon.cpu_us_per_req", "us", if nreq = 0 then 0.0 else cpu_us /. float_of_int nreq);
        ("daemon.syscalls_per_req", "count", per_req run.proc.syscalls nreq);
        ("daemon.ctx_switches_per_req", "count", per_req run.proc.ctx_switches nreq);
        ("evloop.residual_us", "us", socket_us -. plain.per_req_us);
        ("frontend.memo_ns", "ns", per_call "frontend.memo" 1.0);
        ("wire.decode_request_ns", "ns", per_call "wire.decode_request" 1.0);
        ("wire.encode_response_ns", "ns", per_call "wire.encode_response" 1.0);
        ("wire.frame_crc_ok_ns", "ns", per_call "wire.frame_crc_ok" 1.0);
        ("wire.splice_ns", "ns", per_call "wire.splice" 1.0);
        ("protocol.request_of_string_ns", "ns", per_call "protocol.request_of_string" 1.0);
        ("protocol.response_to_string_ns", "ns", per_call "protocol.response_to_string" 1.0);
        ("symmetry.canonicalize_ns", "ns", per_call "symmetry.canonicalize" 1.0);
        ("snapshot.find_ns", "ns", per_call "snapshot.find" 1.0);
        ("snapshot.entry_us", "us", per_call "snapshot.entry" 1e3);
        ("snapshot.open_us", "us", per_call "snapshot.open" 1e3);
        ("corpus.hit_ratio", "ratio", per_req corpus_hits served);
        ("cache.find_ns", "ns", per_call "cache.find" 1.0);
        ("cache.hit_ratio", "ratio", per_req cache_hits (cache_hits + cache_misses));
        ("single.make_us", "us", per_call "single.make" 1e3);
        ("schedule.of_tiling_us", "us", per_call "schedule.of_tiling" 1e3);
        ("certificate.build_us", "us", per_call "certificate.build" 1e3);
        ("engine.handle_us", "us", traced.engine_us);
        ("engine.residual_us", "us", engine_residual);
        ("engine.searches", "count", float_of_int searches);
        ("search.find_tiling_ms", "ms", merged [ "search.find_tiling.poly"; "search.find_tiling.sparse" ] 1e6);
        ("search.find_tiling_poly_ms", "ms", per_call "search.find_tiling.poly" 1e6);
        ("search.find_tiling_sparse_ms", "ms", per_call "search.find_tiling.sparse" 1e6);
        ("store.put_us", "us", per_call "store.put" 1e3);
        ("store.open_ms", "ms", per_call "store.open" 1e6);
        ("store.records", "count", float_of_int records_added);
        ("wire.decode_request.minor_words", "words", words "wire.decode_request");
        ("wire.encode_response.minor_words", "words", words "wire.encode_response");
        ("protocol.request_of_string.minor_words", "words", words "protocol.request_of_string");
        ("protocol.response_to_string.minor_words", "words", words "protocol.response_to_string");
        ("symmetry.canonicalize.minor_words", "words", words "symmetry.canonicalize");
        ("snapshot.entry.minor_words", "words", words "snapshot.entry");
        ("single.make.minor_words", "words", words "single.make");
        ("schedule.of_tiling.minor_words", "words", words "schedule.of_tiling");
        ("certificate.build.minor_words", "words", words "certificate.build");
        ("search.find_tiling.minor_words", "words",
          (let a = l "search.find_tiling.poly" and b = l "search.find_tiling.sparse" in
           if a.calls + b.calls = 0 then 0.0 else (a.words +. b.words) /. float_of_int (a.calls + b.calls)));
        ("engine.handle.minor_words", "words", words "engine.handle");
        ("replay.request_us", "us", plain.per_req_us);
        ("trace.overhead_us", "us", traced_req_us -. plain.per_req_us);
        ("p50_half_rate_us", "us", p50_half);
        ("driver.lag_p95_us", "us", lag95);
        ("driver.on_time_share", "ratio", per_req run.valid_windows run.windows);
        ("driver.rate_per_s", "1/s", run.rate);
        ("host.ref_ms", "ms", host_ref) ]
    end
  in
  say "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    run.attempted run.failed
    (String.concat ", " (List.map json_metric metrics))
