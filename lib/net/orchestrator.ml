open Simkit.Types
module Fault = Simkit.Fault
module Kernel = Simkit.Kernel
module Metrics = Simkit.Metrics
module Obs = Simkit.Obs
module Trace = Simkit.Trace

type config = {
  node_exe : string;
  addr : Transport.addr;
  protocol : string;
  n : int;
  t : int;
  fault : Fault.t;
  ckpt_dir : string;
  log_dir : string option;
  rejoin_rounds : int;
  watchdog_s : float;
  io_timeout_s : float;
  max_rounds : int;
  trace_dir : string option;
  seed : int64;  (* drives the nodes' connect-retry jitter *)
}

let config ?(fault = Fault.none) ?(max_rounds = 10_000) ?(rejoin_rounds = 3)
    ?(watchdog_s = 60.) ?(io_timeout_s = 10.) ?log_dir ?trace_dir
    ?(seed = 1L) ~node_exe ~addr ~protocol ~n ~t ~ckpt_dir () =
  {
    node_exe;
    addr;
    protocol;
    n;
    t;
    fault;
    ckpt_dir;
    log_dir;
    rejoin_rounds;
    watchdog_s;
    io_timeout_s;
    max_rounds;
    trace_dir;
    seed;
  }

type stop =
  | Completed
  | Stalled of round
  | Round_limit of round
  | Watchdog of round
  | Node_failure of round * string

let stop_to_string = function
  | Completed -> "completed"
  | Stalled r -> Printf.sprintf "stalled@%d" r
  | Round_limit r -> Printf.sprintf "round-limit@%d" r
  | Watchdog r -> Printf.sprintf "watchdog@%d" r
  | Node_failure (r, msg) -> Printf.sprintf "node-failure@%d: %s" r msg

let to_run_outcome = function
  | Completed -> Simkit.Kernel.Completed
  | Stalled r -> Simkit.Kernel.Stalled r
  | Round_limit r -> Simkit.Kernel.Round_limit r
  | Watchdog r -> Simkit.Kernel.Round_limit r
  | Node_failure (r, _) -> Simkit.Kernel.Stalled r

type result = {
  metrics : Metrics.t;
  statuses : status array;
  stop : stop;
  trace : Trace.t;
  transport : Transport.stats;
  spawns : int;
  kills : int;
  respawns : int;
  heartbeats : int;
  wall_s : float;
}

let transport_json cfg res =
  let s = res.transport in
  [
    ( "transport",
      Dhw_util.Jsonw.Obj
        [
          ("connects", Dhw_util.Jsonw.Int s.Transport.connects);
          ("retries", Dhw_util.Jsonw.Int s.Transport.retries);
          ("timeouts", Dhw_util.Jsonw.Int s.Transport.timeouts);
          ("frames_sent", Dhw_util.Jsonw.Int s.Transport.frames_sent);
          ("frames_received", Dhw_util.Jsonw.Int s.Transport.frames_received);
          ("bytes_sent", Dhw_util.Jsonw.Int s.Transport.bytes_sent);
          ("bytes_received", Dhw_util.Jsonw.Int s.Transport.bytes_received);
          ("spawns", Dhw_util.Jsonw.Int res.spawns);
          ("kills", Dhw_util.Jsonw.Int res.kills);
          ("respawns", Dhw_util.Jsonw.Int res.respawns);
          ("io_timeout_s", Dhw_util.Jsonw.Float cfg.io_timeout_s);
          ("watchdog_s", Dhw_util.Jsonw.Float cfg.watchdog_s);
          ("wall_s", Dhw_util.Jsonw.Float res.wall_s);
        ] );
  ]

(* One participant process, across its incarnations. *)
type node = {
  npid : pid;
  mutable os_pid : int;  (* -1 when no live child *)
  mutable fd : Unix.file_descr option;
  mutable incarnation : int;
}

exception Bad_node of string
exception Out_of_time

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_node msg)) fmt

let known_protocols = [ "a"; "b"; "a+rec"; "b+rec" ]

(* The fleet is a step backend for [Kernel.run]: the kernel owns the round
   loop, the fault plan, restarts, delivery and every metric but persists;
   this module only turns a step into a Round_start/Step_result RPC, a
   revival into a respawn, and the kernel's crash and termination events
   into a SIGKILL and a graceful shutdown. *)
let run cfg =
  if cfg.t <= 0 then invalid_arg "Orchestrator.run: need at least one process";
  if not (List.mem cfg.protocol known_protocols) then
    invalid_arg (Printf.sprintf "Orchestrator.run: unknown protocol %S" cfg.protocol);
  let started = Unix.gettimeofday () in
  let deadline = started +. cfg.watchdog_s in
  let stats = Transport.stats () in
  let trace = Trace.create () in
  let metrics = Metrics.create ~n_processes:cfg.t ~n_units:cfg.n in
  (* Mirrors the kernel's statuses from its events, so a run cut short by
     an exception still reports who was up. *)
  let statuses = Array.make cfg.t Running in
  let hello_wakeups : round option array = Array.make cfg.t None in
  let spawns = ref 0 and kills = ref 0 and respawns = ref 0 in
  let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755 in
  ensure_dir cfg.ckpt_dir;
  Option.iter ensure_dir cfg.log_dir;
  Option.iter ensure_dir cfg.trace_dir;
  (* Control-plane spans: the kernel's round/step/deliver spans plus
     spawn/kill/respawn marks, merged with the nodes' per-pid trace files
     after the run. Inert without a trace_dir. *)
  let tracing = cfg.trace_dir <> None in
  let span_sink, kernel_spans = Obs.span_collector ~src:"ctl" () in
  let marks = ref [] in
  let ctl_mark ~name ~pid ~inc ~round =
    if tracing then
      marks :=
        { Dhw_util.Spanfile.name; src = "ctl"; pid; inc; round;
          ts_us = Dhw_util.Clock.now_us (); dur_us = 0.0; args = [] }
        :: !marks
  in
  let listen_fd = Transport.listen cfg.addr in
  let bound = Transport.bound_addr cfg.addr listen_fd in
  (* A write to a node that died must surface as [Transport.Closed], not
     kill the control plane. *)
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let nodes =
    Array.init cfg.t (fun pid -> { npid = pid; os_pid = -1; fd = None; incarnation = 0 })
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let io_left () =
    (* An RPC may not sleep past the watchdog. *)
    Float.max 0.05 (Float.min cfg.io_timeout_s (deadline -. Unix.gettimeofday ()))
  in
  let node_log nd =
    match cfg.log_dir with
    | None -> (Unix.stdout, Unix.stderr, fun () -> ())
    | Some d ->
        let f =
          Unix.openfile
            (Filename.concat d (Printf.sprintf "node-%d.log" nd.npid))
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
            0o644
        in
        (f, f, fun () -> Transport.close_noerr f)
  in
  let spawn nd ~recover_at =
    let argv =
      [
        cfg.node_exe;
        "--addr"; Transport.addr_to_string bound;
        "--pid"; string_of_int nd.npid;
        "--protocol"; cfg.protocol;
        "-n"; string_of_int cfg.n;
        "-t"; string_of_int cfg.t;
        "--ckpt-dir"; cfg.ckpt_dir;
        "--rejoin-rounds"; string_of_int cfg.rejoin_rounds;
        "--incarnation"; string_of_int nd.incarnation;
        "--seed"; Int64.to_string cfg.seed;
        (* A node hears from the control plane only when it is stepped, so
           it may wait out the whole run between two frames. *)
        "--io-timeout"; string_of_float (cfg.watchdog_s +. cfg.io_timeout_s);
      ]
      @ (match cfg.trace_dir with Some d -> [ "--trace-dir"; d ] | None -> [])
      @
      match recover_at with
      | Some r -> [ "--recover"; "--recover-at"; string_of_int r ]
      | None -> []
    in
    let out, err, close_log = node_log nd in
    let os_pid =
      Fun.protect ~finally:close_log (fun () ->
          Unix.create_process cfg.node_exe (Array.of_list argv) devnull out err)
    in
    nd.os_pid <- os_pid;
    ctl_mark ~name:"spawn" ~pid:nd.npid ~inc:nd.incarnation
      ~round:(Option.value ~default:0 recover_at);
    incr spawns
  in
  let close_conn nd =
    match nd.fd with
    | Some fd ->
        Transport.close_noerr fd;
        nd.fd <- None
    | None -> ()
  in
  let kill nd =
    if nd.os_pid > 0 then begin
      (try Unix.kill nd.os_pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] nd.os_pid) with Unix.Unix_error _ -> ());
      nd.os_pid <- -1
    end;
    close_conn nd
  in
  (* Reaps the node's process if it has exited. *)
  let exited nd =
    nd.os_pid > 0
    &&
    match Unix.waitpid [ Unix.WNOHANG ] nd.os_pid with
    | 0, _ -> false
    | _ | (exception Unix.Unix_error _) ->
        nd.os_pid <- -1;
        true
  in
  (* Retries [f] every 20 ms, up to [tries] more times, until it finds
     something. *)
  let rec poll tries f =
    match f () with
    | None when tries > 0 ->
        ignore (Unix.select [] [] [] 0.02);
        poll (tries - 1) f
    | found -> found
  in
  (* Graceful: ask the node to exit, give it a moment, then make sure. *)
  let shutdown nd =
    (match nd.fd with
    | Some fd -> (
        try Transport.send_frame ~stats ~timeout_s:1.0 fd Frame.Shutdown
        with Transport.Timeout _ | Transport.Closed _ | Unix.Unix_error _ -> ())
    | None -> ());
    close_conn nd;
    if poll 100 (fun () -> if nd.os_pid <= 0 || exited nd then Some () else None) = None
    then kill nd
  in
  let cleanup () =
    Array.iter kill nodes;
    Transport.close_noerr listen_fd;
    Transport.close_noerr devnull;
    (match cfg.addr with
    | Transport.Unix_sock p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Transport.Tcp _ -> ());
    Sys.set_signal Sys.sigpipe prev_sigpipe
  in
  (* Accept one connection, bind it to the node its Hello names, and return
     that pid with the wakeup it announced. *)
  let accept_hello ~expect ~welcome_round =
    let conn = Transport.accept ~timeout_s:(io_left ()) ~stats listen_fd in
    let reject fmt =
      Printf.ksprintf (fun msg -> Transport.close_noerr conn; raise (Bad_node msg)) fmt
    in
    match Transport.recv_frame ~stats ~timeout_s:(io_left ()) conn with
    | Frame.Hello h ->
        if h.pid < 0 || h.pid >= cfg.t then reject "hello from out-of-range pid %d" h.pid;
        let nd = nodes.(h.pid) in
        (match expect with
        | Some p when p <> h.pid -> reject "expected hello from pid %d, got %d" p h.pid
        | _ -> ());
        if nd.fd <> None then reject "duplicate hello from pid %d" h.pid;
        if h.protocol <> cfg.protocol || h.n <> cfg.n || h.t <> cfg.t then
          reject "pid %d hello mismatch: %s n=%d t=%d (want %s n=%d t=%d)" h.pid
            h.protocol h.n h.t cfg.protocol cfg.n cfg.t;
        if h.incarnation <> nd.incarnation then
          reject "pid %d hello incarnation %d, expected %d" h.pid h.incarnation
            nd.incarnation;
        (match h.wakeup with
        | Some w when w < 0 -> reject "pid %d negative wakeup" h.pid
        | _ -> ());
        nd.fd <- Some conn;
        Transport.send_frame ~stats ~timeout_s:(io_left ()) conn
          (Frame.Welcome { round = welcome_round });
        (h.pid, h.wakeup)
    | f -> reject "expected hello, got %s" (Fmt.str "%a" Frame.pp f)
  in
  let cur = ref 0 in
  let enter r =
    cur := r;
    if Unix.gettimeofday () > deadline then raise Out_of_time
  in
  (* The kernel's message type is the node's own send record, so a trace
     shows the node's [show] string and the payload bytes pass through
     untouched. *)
  let step pid r () (inbox : Frame.send envelope list) =
    enter r;
    let fd =
      match nodes.(pid).fd with
      | Some fd -> fd
      | None -> bad "pid %d has no connection" pid
    in
    let inbox =
      List.map
        (fun (e : Frame.send envelope) ->
          { Frame.src = e.src; sent_at = e.sent_at; payload = e.payload.Frame.payload })
        inbox
    in
    Transport.send_frame ~stats ~timeout_s:(io_left ()) fd
      (Frame.Round_start { round = r; inbox });
    match Transport.recv_frame ~stats ~timeout_s:(io_left ()) fd with
    | Frame.Step_result { round = rr; sends; work; terminate; wakeup; persists } ->
        if rr <> r then bad "pid %d replied for round %d at round %d" pid rr r;
        (match wakeup with
        | Some w when w <= r && not terminate ->
            bad "pid %d at round %d asked for non-future wakeup %d" pid r w
        | _ -> ());
        (* Stable-storage writes happened inside the node's step, before the
           kernel's crash decision — write-ahead, as in the simulator. *)
        for _ = 1 to persists do
          Metrics.record_persist metrics pid r
        done;
        {
          state = ();
          sends = List.map (fun (s : Frame.send) -> { dst = s.dst; payload = s }) sends;
          work;
          terminate;
          wakeup;
        }
    | f -> bad "pid %d: expected step result, got %s" pid (Fmt.str "%a" Frame.pp f)
  in
  let recover pid r =
    enter r;
    let nd = nodes.(pid) in
    nd.incarnation <- nd.incarnation + 1;
    spawn nd ~recover_at:(Some r);
    incr respawns;
    ctl_mark ~name:"respawn" ~pid ~inc:nd.incarnation ~round:r;
    let _, wakeup = accept_hello ~expect:(Some pid) ~welcome_round:r in
    ((), wakeup)
  in
  (* Observes the run, never changes it: the kernel has already committed
     each event when it reaches this sink. *)
  let lifecycle = function
    | Obs.Crash { pid; at } ->
        statuses.(pid) <- Crashed at;
        kill nodes.(pid);
        incr kills;
        ctl_mark ~name:"kill" ~pid ~inc:nodes.(pid).incarnation ~round:at
    | Obs.Terminate { pid; at } ->
        statuses.(pid) <- Terminated at;
        shutdown nodes.(pid)
    | Obs.Restart { pid; _ } -> statuses.(pid) <- Running
    | _ -> ()
  in
  (* A node that exited outside the fault plan while nobody had mail for it
     leaves the kernel with nothing to do. Before calling the run stalled,
     look for such a node, polling briefly in case it is still on its way
     out. *)
  let exited_outside_plan r stop =
    match
      poll 10 (fun () ->
          Array.find_opt (fun nd -> statuses.(nd.npid) = Running && exited nd) nodes)
    with
    | Some nd -> Node_failure (r, Printf.sprintf "pid %d exited outside the fault plan" nd.npid)
    | None -> stop
  in
  let run_fleet () =
    Array.iter (fun nd -> spawn nd ~recover_at:None) nodes;
    for _ = 1 to cfg.t do
      let pid, wakeup = accept_hello ~expect:None ~welcome_round:0 in
      hello_wakeups.(pid) <- wakeup
    done;
    let kcfg =
      Kernel.config ~fault:cfg.fault ~max_rounds:cfg.max_rounds ~trace ~obs:lifecycle
        ~show:(fun (s : Frame.send) -> s.show)
        ?spans:(if tracing then Some span_sink else None)
        ~n_processes:cfg.t ~n_units:cfg.n ()
    in
    let res =
      Kernel.run ~recover ~metrics kcfg
        { init = (fun pid -> ((), hello_wakeups.(pid))); step }
    in
    match res.outcome with
    | Kernel.Completed -> Completed
    | Kernel.Stalled r -> exited_outside_plan r (Stalled r)
    | Kernel.Round_limit r -> exited_outside_plan r (Round_limit r)
  in
  let stop =
    match run_fleet () with
    | stop -> stop
    | exception Out_of_time -> Watchdog !cur
    | exception Bad_node msg -> Node_failure (!cur, msg)
    | exception Transport.Timeout msg ->
        if Unix.gettimeofday () > deadline then Watchdog !cur
        else Node_failure (!cur, "io timeout: " ^ msg)
    | exception Transport.Closed msg -> Node_failure (!cur, "connection lost: " ^ msg)
    | exception Failure msg -> Node_failure (!cur, msg)
    | exception Unix.Unix_error (e, fn, arg) ->
        Node_failure (!cur, Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))
  in
  cleanup ();
  (* Collect the trace: control-plane spans to trace-ctl.jsonl, then merge
     every per-source file (including partial ones from SIGKILLed nodes —
     the reader skips the torn final line) into one causally-ordered
     dhw-trace/v1 stream. Runs after cleanup so every node file is final. *)
  (match cfg.trace_dir with
  | None -> ()
  | Some dir ->
      let module Sf = Dhw_util.Spanfile in
      let meta =
        [
          ("protocol", Dhw_util.Jsonw.Str cfg.protocol);
          ("n", Dhw_util.Jsonw.Int cfg.n);
          ("t", Dhw_util.Jsonw.Int cfg.t);
        ]
      in
      Sf.write_file ~meta ~source:"ctl"
        (Filename.concat dir "trace-ctl.jsonl")
        (Sf.merge [ List.rev !marks; kernel_spans () ]);
      let parts =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               f <> "trace.jsonl"
               && String.starts_with ~prefix:"trace-" f
               && Filename.check_suffix f ".jsonl")
        |> List.sort compare
      in
      let streams =
        List.filter_map
          (fun f -> Result.to_option (Sf.read_file (Filename.concat dir f)))
          parts
      in
      Sf.write_file ~meta ~source:"merged"
        (Filename.concat dir "trace.jsonl")
        (Sf.merge (List.map (fun (f : Sf.file) -> f.spans) streams)));
  {
    metrics;
    statuses;
    stop;
    trace;
    transport = stats;
    spawns = !spawns;
    kills = !kills;
    respawns = !respawns;
    heartbeats = 0;
    wall_s = Unix.gettimeofday () -. started;
  }
