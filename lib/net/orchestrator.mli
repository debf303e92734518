(** Control-plane orchestrator for the real-process deployment mode.

    Runs the round-synchronous Do-All execution through [Simkit.Kernel.run]
    itself, with each participant living in its own OS process ([dhw_node])
    reached over a socket: the nodes hold the protocol state, and the
    kernel's step is a [Round_start]/[Step_result] RPC. The round loop, the
    fault plan, restarts and message delivery are the kernel's, so a
    schedule replayed here and in the simulator yields the same metrics,
    statuses and trace whenever the real run is fault-free at the OS level.
    What the orchestrator adds is process management: a crash the kernel
    commits is enforced with a real [SIGKILL], a revival with a real [exec]
    of a fresh incarnation that must recover from its on-disk checkpoint,
    and a termination with a graceful shutdown. A node is sent frames only
    while it is being stepped, spawned or shut down; one that dies outside
    the fault plan is found when its next RPC hits a closed socket, or, if
    nobody has anything to send it, when the kernel runs out of work. *)

type config = {
  node_exe : string;  (** path to the [dhw_node] binary *)
  addr : Transport.addr;
      (** listen address; [Tcp (h, 0)] picks an ephemeral port *)
  protocol : string;  (** "a" | "b" | "a+rec" | "b+rec" *)
  n : int;  (** work units *)
  t : int;  (** processes *)
  fault : Simkit.Fault.t;
      (** handed to the kernel; [Corrupt]/[Byzantine] entries must be
          rejected by the caller — there is no tamper model over real
          sockets, so a Byzantine entry degrades to a silent crash *)
  ckpt_dir : string;  (** per-pid checkpoint files live here *)
  log_dir : string option;
      (** node stdout/stderr go to [node-<pid>.log] here; inherit if [None] *)
  rejoin_rounds : int;
  watchdog_s : float;  (** wall-clock budget for the whole run *)
  io_timeout_s : float;  (** per-RPC deadline (spawn-to-hello, step, shutdown) *)
  max_rounds : int;
  trace_dir : string option;
      (** when set, nodes are launched with [--trace-dir] and write per-pid
          [trace-<pid>.jsonl] span files there; the orchestrator adds its
          control-plane spans as [trace-ctl.jsonl] (the kernel's [round],
          [step] and [deliver] spans, as in a simulator trace, plus
          spawn/kill/respawn marks) and, after the run,
          merges everything — including partial files from SIGKILLed nodes
          — into one causally-ordered [dhw-trace/v1] stream at
          [trace.jsonl]. [None] (the default) traces nothing. *)
  seed : int64;
      (** run seed; nodes derive their connect-retry jitter from
          [Prng.stream seed pid], so respawn reconnect timing replays
          deterministically (default [1L]) *)
}

val config :
  ?fault:Simkit.Fault.t ->
  ?max_rounds:int ->
  ?rejoin_rounds:int ->
  ?watchdog_s:float ->
  ?io_timeout_s:float ->
  ?log_dir:string ->
  ?trace_dir:string ->
  ?seed:int64 ->
  node_exe:string ->
  addr:Transport.addr ->
  protocol:string ->
  n:int ->
  t:int ->
  ckpt_dir:string ->
  unit ->
  config

type stop =
  | Completed
  | Stalled of Simkit.Types.round
  | Round_limit of Simkit.Types.round
  | Watchdog of Simkit.Types.round
      (** wall-clock budget exhausted at the given round *)
  | Node_failure of Simkit.Types.round * string
      (** a node died or misbehaved outside the fault plan (its process
          exited, unexpected EOF, RPC timeout, malformed frame, protocol
          violation) *)

val stop_to_string : stop -> string

val to_run_outcome : stop -> Simkit.Kernel.run_outcome
(** Projection for the shared oracle stack: [Watchdog] is a time-budget
    exhaustion, so it maps to [Round_limit]; [Node_failure] means the
    execution wedged for a non-adversarial reason, so it maps to [Stalled].
    The true cause stays in the {!stop} (and the report's transport
    section). *)

type result = {
  metrics : Simkit.Metrics.t;
  statuses : Simkit.Types.status array;
  stop : stop;
  trace : Simkit.Trace.t;
      (** built from orchestrator-observed events with node-supplied [show]
          strings, so the audit oracles read it exactly like a simulator
          trace *)
  transport : Transport.stats;
  spawns : int;  (** total node processes launched (initial + respawns) *)
  kills : int;  (** SIGKILLs delivered by the fault plan *)
  respawns : int;  (** restart entries committed with a fresh incarnation *)
  heartbeats : int;
      (** always [0]: sleeping nodes are no longer probed. Kept so readers
          of earlier results still build. *)
  wall_s : float;
}

val transport_json : config -> result -> (string * Dhw_util.Jsonw.t) list
(** The report's [transport] extra section: socket counters (connects,
    bounded-backoff retries, deadline timeouts, frame/byte totals) plus
    spawn/kill/respawn totals, the configured
    [io_timeout_s]/[watchdog_s] deadlines, and wall-clock time. *)

val run : config -> result
(** Execute. Never leaks child processes: every spawned node is killed and
    reaped before returning, whatever the stop cause. Raises
    [Invalid_argument] on a config that cannot be started (unknown
    protocol, [t <= 0]). *)
