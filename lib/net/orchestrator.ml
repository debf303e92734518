open Simkit.Types
module Fault = Simkit.Fault
module Metrics = Simkit.Metrics
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
          ("heartbeats", Dhw_util.Jsonw.Int res.heartbeats);
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

let known_protocols = [ "a"; "b"; "a+rec"; "b+rec" ]

let run cfg =
  if cfg.t <= 0 then invalid_arg "Orchestrator.run: need at least one process";
  if not (List.mem cfg.protocol known_protocols) then
    invalid_arg (Printf.sprintf "Orchestrator.run: unknown protocol %S" cfg.protocol);
  let started = Unix.gettimeofday () in
  let deadline = started +. cfg.watchdog_s in
  let stats = Transport.stats () in
  let trace = Trace.create () in
  let metrics = Metrics.create ~n_processes:cfg.t ~n_units:cfg.n in
  let statuses = Array.make cfg.t Running in
  let wakeups : round option array = Array.make cfg.t None in
  let spawns = ref 0 and kills = ref 0 and respawns = ref 0 in
  let heartbeats = ref 0 in
  if not (Sys.file_exists cfg.ckpt_dir) then Unix.mkdir cfg.ckpt_dir 0o755;
  (match cfg.log_dir with
  | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
  | _ -> ());
  (match cfg.trace_dir with
  | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
  | _ -> ());
  (* Control-plane spans, collected in memory and merged with the nodes'
     per-pid trace files after the run. Inert without a trace_dir. *)
  let ctl_spans = ref [] in
  let tracing = cfg.trace_dir <> None in
  let ctl_mark ?(args = []) ~name ~pid ~inc ~round () =
    if tracing then
      ctl_spans :=
        { Dhw_util.Spanfile.name; src = "ctl"; pid; inc; round;
          ts_us = Dhw_util.Clock.now_us (); dur_us = 0.0; args }
        :: !ctl_spans
  in
  let ctl_timed ~name ~pid ~inc ~round f =
    if not tracing then f ()
    else begin
      let ts0 = Dhw_util.Clock.now_us () in
      let res = f () in
      ctl_spans :=
        { Dhw_util.Spanfile.name; src = "ctl"; pid; inc; round; ts_us = ts0;
          dur_us = Dhw_util.Clock.now_us () -. ts0; args = [] }
        :: !ctl_spans;
      res
    end
  in
  let listen_fd = Transport.listen cfg.addr in
  let bound = Transport.bound_addr cfg.addr listen_fd in
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
    let base =
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
      ]
    in
    let base =
      match cfg.trace_dir with
      | Some d -> base @ [ "--trace-dir"; d ]
      | None -> base
    in
    let argv =
      match recover_at with
      | None -> base
      | Some r -> base @ [ "--recover"; "--recover-at"; string_of_int r ]
    in
    let out, err, close_log = node_log nd in
    let os_pid =
      Fun.protect ~finally:close_log (fun () ->
          Unix.create_process cfg.node_exe (Array.of_list argv) devnull out err)
    in
    nd.os_pid <- os_pid;
    ctl_mark ~name:"spawn" ~pid:nd.npid ~inc:nd.incarnation
      ~round:(Option.value ~default:0 recover_at) ();
    incr spawns
  in
  let reap nd =
    if nd.os_pid > 0 then begin
      (try ignore (Unix.waitpid [] nd.os_pid) with Unix.Unix_error _ -> ());
      nd.os_pid <- -1
    end
  in
  let close_conn nd =
    match nd.fd with
    | Some fd ->
        Transport.close_noerr fd;
        nd.fd <- None
    | None -> ()
  in
  let kill nd =
    if nd.os_pid > 0 then (
      (try Unix.kill nd.os_pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap nd);
    close_conn nd
  in
  (* Graceful: ask the node to exit, give it a moment, then make sure. *)
  let shutdown nd =
    (match nd.fd with
    | Some fd -> (
        try Transport.send_frame ~stats ~timeout_s:1.0 fd Frame.Shutdown
        with Transport.Timeout _ | Transport.Closed _ | Unix.Unix_error _ -> ())
    | None -> ());
    close_conn nd;
    if nd.os_pid > 0 then begin
      let rec wait tries =
        match Unix.waitpid [ Unix.WNOHANG ] nd.os_pid with
        | 0, _ ->
            if tries <= 0 then (
              (try Unix.kill nd.os_pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] nd.os_pid))
            else begin
              ignore (Unix.select [] [] [] 0.02);
              wait (tries - 1)
            end
        | _ -> ()
        | exception Unix.Unix_error _ -> ()
      in
      wait 100;
      nd.os_pid <- -1
    end
  in
  let cleanup () =
    Array.iter kill nodes;
    Transport.close_noerr listen_fd;
    Transport.close_noerr devnull;
    match cfg.addr with
    | Transport.Unix_sock p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Transport.Tcp _ -> ()
  in
  (* Accept one connection and bind it to the node its Hello names. *)
  let accept_hello ~expect ~welcome_round =
    let conn = Transport.accept ~timeout_s:(io_left ()) ~stats listen_fd in
    match Transport.recv_frame ~stats ~timeout_s:(io_left ()) conn with
    | Frame.Hello h ->
        if h.pid < 0 || h.pid >= cfg.t then (
          Transport.close_noerr conn;
          raise (Bad_node (Printf.sprintf "hello from out-of-range pid %d" h.pid)));
        let nd = nodes.(h.pid) in
        (match expect with
        | Some p when p <> h.pid ->
            Transport.close_noerr conn;
            raise (Bad_node (Printf.sprintf "expected hello from pid %d, got %d" p h.pid))
        | _ -> ());
        if nd.fd <> None then (
          Transport.close_noerr conn;
          raise (Bad_node (Printf.sprintf "duplicate hello from pid %d" h.pid)));
        if h.protocol <> cfg.protocol || h.n <> cfg.n || h.t <> cfg.t then
          raise
            (Bad_node
               (Printf.sprintf "pid %d hello mismatch: %s n=%d t=%d (want %s n=%d t=%d)"
                  h.pid h.protocol h.n h.t cfg.protocol cfg.n cfg.t));
        if h.incarnation <> nd.incarnation then
          raise
            (Bad_node
               (Printf.sprintf "pid %d hello incarnation %d, expected %d" h.pid
                  h.incarnation nd.incarnation));
        (match h.wakeup with
        | Some w when w < 0 -> raise (Bad_node (Printf.sprintf "pid %d negative wakeup" h.pid))
        | _ -> ());
        nd.fd <- Some conn;
        wakeups.(h.pid) <- h.wakeup;
        Transport.send_frame ~stats ~timeout_s:(io_left ()) conn
          (Frame.Welcome { round = welcome_round });
        h.pid
    | f ->
        Transport.close_noerr conn;
        raise (Bad_node (Fmt.str "expected hello, got %a" Frame.pp f))
  in
  let conn_of nd =
    match nd.fd with
    | Some fd -> fd
    | None -> raise (Bad_node (Printf.sprintf "pid %d has no connection" nd.npid))
  in
  let alive pid = statuses.(pid) = Running in
  (* Without a tamper model a Byzantine entry degrades to a silent crash at
     its activation round — the kernel's rule, and there is no tamper model
     over real sockets. *)
  let byz_degraded pid r =
    match Fault.byzantine_from cfg.fault pid with Some b0 -> b0 <= r | None -> false
  in
  let restart_queue =
    ref (List.sort compare (List.map (fun (p, r) -> (r, p)) (Fault.restarts cfg.fault)))
  in
  let applicable (rr, pid) =
    pid >= 0 && pid < cfg.t
    && match statuses.(pid) with Crashed rc -> rr > rc | _ -> false
  in
  let pending_restart () = List.exists applicable !restart_queue in
  let pending : (round * Frame.envelope list array) option ref = ref None in
  let next_round () =
    let candidate = ref None in
    let consider r =
      match !candidate with Some c when c <= r -> () | _ -> candidate := Some r
    in
    (match !pending with Some (sent_at, _) -> consider (sent_at + 1) | None -> ());
    Array.iteri
      (fun pid w -> match w with Some r when alive pid -> consider r | _ -> ())
      wakeups;
    List.iter (fun (rr, pid) -> if applicable (rr, pid) then consider rr) !restart_queue;
    !candidate
  in
  let deliveries_for r =
    match !pending with
    | Some (sent_at, boxes) when sent_at + 1 = r ->
        pending := None;
        Some boxes
    | _ -> None
  in
  let apply_restarts r =
    let rec go () =
      match !restart_queue with
      | (rr, pid) :: rest when rr <= r ->
          restart_queue := rest;
          if applicable (rr, pid) then begin
            let nd = nodes.(pid) in
            nd.incarnation <- nd.incarnation + 1;
            spawn nd ~recover_at:(Some r);
            incr respawns;
            ctl_mark ~name:"respawn" ~pid ~inc:nd.incarnation ~round:r ();
            ignore (accept_hello ~expect:(Some pid) ~welcome_round:r);
            statuses.(pid) <- Running;
            Fault.note_restart cfg.fault pid r;
            Metrics.record_restart metrics pid r;
            Trace.record trace (Trace.Restarted_ev { pid; round = r })
          end;
          go ()
      | _ -> ()
    in
    go ()
  in
  let commit_crash pid r ~signal =
    if signal then begin
      kill nodes.(pid);
      incr kills;
      ctl_mark ~name:"kill" ~pid ~inc:nodes.(pid).incarnation ~round:r ()
    end;
    statuses.(pid) <- Crashed r;
    wakeups.(pid) <- None;
    Metrics.record_crash metrics pid r;
    Trace.record trace (Trace.Crashed_ev { pid; round = r })
  in
  let cur = ref 0 in
  let run_loop () =
    (* Launch the fleet and collect the handshakes. *)
    Array.iter (fun nd -> spawn nd ~recover_at:None) nodes;
    for _ = 1 to cfg.t do
      ignore (accept_hello ~expect:None ~welcome_round:0)
    done;
    let rec loop r =
      cur := r;
      if r > cfg.max_rounds then Round_limit r
      else if Unix.gettimeofday () > deadline then Watchdog r
      else begin
        ctl_timed ~name:"round" ~pid:(-1) ~inc:0 ~round:r (fun () ->
        apply_restarts r;
        let boxes = deliveries_for r in
        let inbox pid = match boxes with Some b -> b.(pid) | None -> [] in
        let out = Array.make cfg.t ([] : Frame.envelope list) in
        let any_sent = ref false in
        for pid = 0 to cfg.t - 1 do
          if alive pid then begin
            if Fault.crashed_by cfg.fault pid r || byz_degraded pid r then
              commit_crash pid r ~signal:true
            else begin
              let nd = nodes.(pid) in
              let mail = inbox pid in
              let due = match wakeups.(pid) with Some w -> w <= r | None -> false in
              if mail <> [] || due then begin
                Trace.record trace (Trace.Stepped { pid; round = r });
                let fd = conn_of nd in
                let sends, work, terminate, wakeup, persists =
                  ctl_timed ~name:"rpc" ~pid ~inc:nd.incarnation ~round:r
                    (fun () ->
                      Transport.send_frame ~stats ~timeout_s:(io_left ()) fd
                        (Frame.Round_start { round = r; inbox = mail });
                      match
                        Transport.recv_frame ~stats ~timeout_s:(io_left ()) fd
                      with
                      | Frame.Step_result
                          { round = rr; sends; work; terminate; wakeup; persists }
                        ->
                          if rr <> r then
                            raise
                              (Bad_node
                                 (Printf.sprintf
                                    "pid %d replied for round %d at round %d"
                                    pid rr r));
                          (sends, work, terminate, wakeup, persists)
                      | f ->
                          raise
                            (Bad_node
                               (Fmt.str "pid %d: expected step result, got %a"
                                  pid Frame.pp f)))
                in
                (* Stable-storage writes happened inside the node's step,
                   before any crash decision — write-ahead, as in the sim. *)
                for _ = 1 to persists do
                  Metrics.record_persist metrics pid r
                done;
                let view =
                  {
                    Fault.sv_pid = pid;
                    sv_round = r;
                    sv_sends = List.length sends;
                    sv_works = List.length work;
                    sv_terminating = terminate;
                    sv_works_done_before = Metrics.work_by metrics pid;
                  }
                in
                let decision = Fault.on_step cfg.fault view in
                let commit_sends sends =
                  List.iter
                    (fun s ->
                      Metrics.record_send metrics pid;
                      Trace.record trace
                        (Trace.Sent { src = pid; dst = s.Frame.dst; round = r; what = s.Frame.show });
                      if s.Frame.dst >= 0 && s.Frame.dst < cfg.t then begin
                        out.(s.Frame.dst) <-
                          { Frame.src = pid; sent_at = r; payload = s.Frame.payload }
                          :: out.(s.Frame.dst);
                        any_sent := true
                      end)
                    sends
                in
                let commit_work () =
                  List.iter
                    (fun u ->
                      Metrics.record_work metrics pid u;
                      Trace.record trace (Trace.Worked { pid; round = r; unit_id = u }))
                    work
                in
                match decision with
                | Fault.Survive ->
                    commit_work ();
                    commit_sends sends;
                    Metrics.record_round metrics r;
                    if terminate then begin
                      statuses.(pid) <- Terminated r;
                      wakeups.(pid) <- None;
                      Metrics.record_terminate metrics pid r;
                      Trace.record trace (Trace.Terminated_ev { pid; round = r });
                      shutdown nd
                    end
                    else begin
                      (match wakeup with
                      | Some w when w <= r ->
                          raise
                            (Bad_node
                               (Printf.sprintf
                                  "pid %d at round %d asked for non-future wakeup %d" pid
                                  r w))
                      | _ -> ());
                      wakeups.(pid) <- wakeup
                    end
                | Fault.Crash { keep_work; delivery } ->
                    let delivered, dropped = Fault.apply_delivery delivery sends in
                    let keep_work = keep_work || delivered <> [] in
                    if keep_work then commit_work ();
                    commit_sends delivered;
                    List.iter
                      (fun s ->
                        Trace.record trace
                          (Trace.Dropped
                             { src = pid; dst = s.Frame.dst; round = r; what = s.Frame.show }))
                      dropped;
                    commit_crash pid r ~signal:true;
                    Metrics.record_round metrics r
              end
              else begin
                (* Sleeping this round: probe liveness so a node that died
                   outside the fault plan surfaces as a failure, not a hang
                   at its next wakeup. *)
                let fd = conn_of nd in
                incr heartbeats;
                ctl_timed ~name:"hb" ~pid ~inc:nd.incarnation ~round:r
                  (fun () ->
                    Transport.send_frame ~stats ~timeout_s:(io_left ()) fd
                      (Frame.Heartbeat { tick = r });
                    match
                      Transport.recv_frame ~stats ~timeout_s:(io_left ()) fd
                    with
                    | Frame.Heartbeat { tick } when tick = r -> ()
                    | f ->
                        raise
                          (Bad_node
                             (Fmt.str "pid %d: expected heartbeat echo, got %a"
                                pid Frame.pp f)))
              end
            end
          end
        done;
        if !any_sent then begin
          Array.iteri
            (fun dst msgs ->
              out.(dst) <-
                List.sort (fun a b -> compare a.Frame.src b.Frame.src) msgs)
            out;
          pending := Some (r, out)
        end);
        let all_retired =
          let rec go pid = pid >= cfg.t || (is_retired statuses.(pid) && go (pid + 1)) in
          go 0
        in
        if all_retired && not (pending_restart ()) then Completed
        else
          match next_round () with
          | Some r' ->
              assert (r' > r);
              loop r'
          | None -> Stalled r
      end
    in
    match next_round () with
    | Some r0 -> loop r0
    | None -> if Array.for_all is_retired statuses then Completed else Stalled 0
  in
  let stop =
    match run_loop () with
    | stop -> stop
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
        (List.rev !ctl_spans);
      let parts =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               f <> "trace.jsonl"
               && String.length f > 6
               && String.sub f 0 6 = "trace-"
               && Filename.check_suffix f ".jsonl")
        |> List.sort compare
      in
      let streams =
        List.filter_map
          (fun f ->
            match Sf.read_file (Filename.concat dir f) with
            | Ok { Sf.spans; _ } -> Some spans
            | Error _ -> None)
          parts
      in
      Sf.write_file ~meta ~source:"merged"
        (Filename.concat dir "trace.jsonl")
        (Sf.merge streams));
  {
    metrics;
    statuses;
    stop;
    trace;
    transport = stats;
    spawns = !spawns;
    kills = !kills;
    respawns = !respawns;
    heartbeats = !heartbeats;
    wall_s = Unix.gettimeofday () -. started;
  }
