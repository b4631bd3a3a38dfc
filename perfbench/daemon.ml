(* The daemon under test, driven strictly from outside: spawned through
   the CLI, reached over its socket, observed through /proc. *)

type t = { pid : int; sock : string; mutable reaped : bool }

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

(* Start [exe args] with stdin and stdout on /dev/null and stderr
   appended to [log]; returns the pid. *)
let exec ~exe ~log args =
  let null = devnull () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close null;
      Unix.close err)
    (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) null null err)

let spawn ~exe ~log ~sock ~corpus ?store () =
  if Sys.file_exists sock then Sys.remove sock;
  let args =
    [ "serve"; "-j"; "1"; "-s"; sock; "--corpus"; corpus ]
    @ match store with None -> [] | Some p -> [ "--store"; p ]
  in
  { pid = exec ~exe ~log args; sock; reaped = false }

(* Connect as soon as the socket accepts, retrying every 50 us. *)
let connect t dialect ~timeout_s =
  let limit = Client.now_ns () + int_of_float (timeout_s *. 1e9) in
  let rec go () =
    match Client.connect ~path:t.sock dialect with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Client.now_ns () < limit ->
      (match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ -> ()
      | _ ->
        t.reaped <- true;
        failwith "daemon exited during start-up");
      Unix.sleepf 5e-5;
      go ()
  in
  go ()

let kill t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] t.pid);
    t.reaped <- true
  end

(* Ask for a clean shutdown on [c] and wait for the process to exit. *)
let shutdown t c =
  (match Client.call c Server.Protocol.Shutdown with
  | Ok Server.Protocol.Shutting_down -> ()
  | _ -> kill t);
  Client.close c;
  if not t.reaped then begin
    let limit = Client.now_ns () + 30_000_000_000 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ ->
        if Client.now_ns () > limit then kill t
        else begin
          Unix.sleepf 0.001;
          wait ()
        end
      | _ -> t.reaped <- true
    in
    wait ()
  end

(* ---------- /proc ---------- *)

type counters = {
  cpu_ns : int;  (* time on a CPU, all threads *)
  off_loop_cpu_ns : int;  (* the same, every thread but the event loop's *)
  syscalls : int;  (* read-class + write-class syscalls *)
  ctx_switches : int;  (* voluntary + involuntary, all threads *)
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The first field of schedstat: nanoseconds on a CPU. *)
let schedstat_ns path = int_of_string (List.hd (String.split_on_char ' ' (read_file path)))

let status_field s name =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = name ->
        let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        Some (int_of_string (List.hd (String.split_on_char ' ' v)))
      | _ -> None)
    (String.split_on_char '\n' s)

(* The event loop runs on the daemon's main thread (tid = pid); the
   engine domain and the runtime's helper threads are the others. *)
let counters t =
  let base = Printf.sprintf "/proc/%d" t.pid in
  let tasks = Sys.readdir (base ^ "/task") in
  let cpu = ref 0 and off_loop = ref 0 and ctx = ref 0 in
  Array.iter
    (fun tid ->
      let dir = Printf.sprintf "%s/task/%s" base tid in
      match (schedstat_ns (dir ^ "/schedstat"), read_file (dir ^ "/status")) with
      | ns, st ->
        cpu := !cpu + ns;
        if tid <> string_of_int t.pid then off_loop := !off_loop + ns;
        ctx :=
          !ctx
          + Option.value ~default:0 (status_field st "voluntary_ctxt_switches")
          + Option.value ~default:0 (status_field st "nonvoluntary_ctxt_switches")
      | exception Sys_error _ -> () (* thread exited between readdir and read *))
    tasks;
  let io = read_file (base ^ "/io") in
  { cpu_ns = !cpu;
    off_loop_cpu_ns = !off_loop;
    syscalls =
      Option.value ~default:0 (status_field io "syscr")
      + Option.value ~default:0 (status_field io "syscw");
    ctx_switches = !ctx }

let sub a b =
  { cpu_ns = a.cpu_ns - b.cpu_ns; off_loop_cpu_ns = a.off_loop_cpu_ns - b.off_loop_cpu_ns;
    syscalls = a.syscalls - b.syscalls; ctx_switches = a.ctx_switches - b.ctx_switches }

let add a b =
  { cpu_ns = a.cpu_ns + b.cpu_ns; off_loop_cpu_ns = a.off_loop_cpu_ns + b.off_loop_cpu_ns;
    syscalls = a.syscalls + b.syscalls; ctx_switches = a.ctx_switches + b.ctx_switches }

let zero = { cpu_ns = 0; off_loop_cpu_ns = 0; syscalls = 0; ctx_switches = 0 }

(* Peak resident set, MiB. *)
let vm_hwm_mb t =
  let kb =
    Option.value ~default:0 (status_field (read_file (Printf.sprintf "/proc/%d/status" t.pid)) "VmHWM")
  in
  float_of_int kb /. 1024.0
