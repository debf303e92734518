(* Outside-in performance benchmark of the Do-All library.

   One binary runs each named workload, checks the program's outputs and
   prints every metric by name and unit; the last line of stdout is one JSON
   object {correct, attempted, failed, metrics}. It drives the library only
   through public entry points: [Protocol.t.make], [Kernel.config] /
   [Kernel.run ~metrics], [Fault.*], [Campaign.sample] / [run_parallel],
   [Fuzz.stamp] / [run_schedule] / [oracles] and [Orchestrator.run].

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--node-exe PATH]
     perfbench.exe --self-test [--node-exe PATH] [--benchmark-json FILE]
     perfbench.exe --print-benchmark-json

   [--trace 0] is the timed run: untraced calls, end-to-end metrics.
   [--trace 1] is the traced run: one untraced and one traced operation; the
   traced one wraps [proc.step] (clock and [Gc.minor_words] reads), the
   fault plan (through [Fault.custom], queries counted, not clocked), each
   oracle's [check] and [run_schedule], and reads the orchestrator's
   transport counters. Its simulated statistics must equal the untraced
   operation's, so the wrappers provably measure the same program.

   See README.md beside this file for the layer -> metric -> workload map. *)

module Spec = Doall.Spec
module Protocol = Doall.Protocol
module Fuzz = Doall.Fuzz
module Fault = Simkit.Fault
module Kernel = Simkit.Kernel
module Metrics = Simkit.Metrics
module Types = Simkit.Types
module Campaign = Simkit.Campaign
module Schedule = Simkit.Campaign.Schedule
module Orch = Dhw_net.Orchestrator
module Transport = Dhw_net.Transport
module Prng = Dhw_util.Prng
module Jsonw = Dhw_util.Jsonw

(* ------------------------------------------------------------------ *)
(* Clock and statistics *)

(* clock_gettime(CLOCK_MONOTONIC) in ns; unboxed and allocation-free, so the
   per-step probe does not perturb the allocation it measures. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())
let secs_of_ns ns = float_of_int ns *. 1e-9
let secs_since t0 = secs_of_ns (now_ns () - t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let k = Array.length a in
  if k = 0 then nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let percentile a p =
  let k = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int k)) in
  a.(max 0 (min (k - 1) (rank - 1)))

(* The highest of a few standard percentiles that still has at least ten
   samples beyond it, if any. *)
let tail_percentile xs =
  let a = sorted xs in
  let k = Array.length a in
  List.fold_left
    (fun acc p ->
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int k)) in
      if k - rank >= 10 then Some (p, percentile a p) else acc)
    None [ 50.; 90.; 99.; 99.9 ]

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Metric definitions: the single source of BENCHMARK.json *)

type better = Lower | Higher

type metric_def = {
  m_name : string;
  m_unit : string;
  m_better : better;
  m_bound : float option;  (** end-to-end metrics only *)
}

let e2e name unit better bound =
  { m_name = name; m_unit = unit; m_better = better; m_bound = Some bound }

let layer name unit better =
  { m_name = name; m_unit = unit; m_better = better; m_bound = None }

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "units_per_s" "1/s" Higher 0.25;
    e2e "op_p50_ms" "ms" Lower 0.25;
    e2e "alloc_words_per_round" "words" Lower 0.25;
    e2e "top_heap_mb" "MB" Lower 0.25;
    e2e "work" "count" Lower 0.05;
    e2e "msgs" "count" Lower 0.05;
    e2e "sim_rounds" "count" Lower 0.15;
  ]

(* Protocol D's oracle stack, as [Fuzz.oracles] names it. *)
let oracle_names =
  List.map
    (fun (o : _ Campaign.oracle) -> o.Campaign.name)
    (Fuzz.oracles (Spec.make ~n:4 ~t:2) ~protocol:"d")

let per_layer =
  [
    layer "kernel.self_s" "s" Lower;
    layer "kernel.ns_per_round" "ns" Lower;
    layer "kernel.visited_rounds" "count" Lower;
    layer "kernel.steps" "count" Lower;
    layer "fault.crashed_by_calls" "count" Lower;
    layer "fault.on_step_calls" "count" Lower;
    layer "fault.queries_per_step" "ratio" Lower;
    layer "protocol.step_s" "s" Lower;
    layer "protocol.ns_per_step" "ns" Lower;
    layer "protocol.envelopes_in" "count" Lower;
    layer "protocol.sends_out" "count" Lower;
    layer "protocol.alloc_words_per_step" "words" Lower;
    layer "metrics.create_s" "s" Lower;
    layer "campaign.sample_s" "s" Lower;
    layer "campaign.executions_per_schedule" "ratio" Lower;
    layer "fuzz.run_schedule_s" "s" Lower;
    layer "fuzz.schedule_p99_ms" "ms" Lower;
    layer "trace.events_per_schedule" "count" Lower;
  ]
  @ List.map (fun o -> layer ("oracle." ^ o ^ ".check_s") "s" Lower) oracle_names
  @ [
      layer "pool.busy_ratio" "ratio" Higher;
      layer "transport.frames_per_round" "ratio" Lower;
      layer "transport.bytes_per_round" "bytes" Lower;
      layer "orchestrator.heartbeats_per_round" "ratio" Lower;
      layer "transport.timeouts" "count" Lower;
      layer "transport.retries" "count" Lower;
      layer "orchestrator.respawns" "count" Lower;
      layer "ckpt.persists" "count" Lower;
      layer "bench.trace_overhead_s" "s" Lower;
    ]

(* ------------------------------------------------------------------ *)
(* Workload parameters *)

type size = Full | Tiny

type workload = {
  w_name : string;
  w_why : string;
}

let workloads =
  [
    {
      w_name = "sim-ff";
      w_why =
        "Protocol A, n=2*10^7, t=10^3, Fault.none: kernel fast path and A's \
         step do all the work, Fault is bypassed; does not depend on the seed";
    };
    {
      w_name = "sim-crash";
      w_why =
        "Protocol A, n=10^5, t=10^3, 10 seeded kill-active crashes: same \
         kernel through its O(t) sweep path, where fault-plan queries dominate";
    };
    {
      w_name = "campaign-d";
      w_why =
        "1000 seeded crash schedules on Protocol D, n=1000, t=32, judged by \
         Fuzz.oracles over run_parallel ~jobs:2: per-run set-up, Trace, oracles, Pool";
    };
    {
      w_name = "fleet-lockstep";
      w_why =
        "Orchestrator.run of a+rec, n=40000, t=2, one seeded SIGKILL and \
         respawn: real dhw_node processes, transport, heartbeats, checkpoints";
    };
  ]

let run_seconds = 30

(* ------------------------------------------------------------------ *)
(* Per-operation observation *)

type stats = {
  work : int;
  msgs : int;
  rounds : int;
  crashes : int;
  restarts : int;
  persists : int;
  digest : int;  (** outcome and final statuses, hashed *)
}

let pp_stats s =
  Printf.sprintf "work=%d msgs=%d rounds=%d crashes=%d restarts=%d persists=%d"
    s.work s.msgs s.rounds s.crashes s.restarts s.persists

let stats_of_metrics m ~outcome ~statuses =
  {
    work = Metrics.work m;
    msgs = Metrics.messages m;
    rounds = Metrics.rounds m;
    crashes = Metrics.crashes m;
    restarts = Metrics.restarts m;
    persists = Metrics.persists m;
    digest = Hashtbl.hash_param 1000 1000 (outcome, statuses);
  }

(* One operation's latency and costs: a sim run, a campaign schedule or a
   fleet run. *)
type cost = {
  lat_ms : float;
  c_work : int;
  c_msgs : int;
  c_rounds : int;
  c_words : float;  (** minor words allocated by the operation *)
}

let cost_of_metrics ~lat_ms ~words m =
  {
    lat_ms;
    c_work = Metrics.work m;
    c_msgs = Metrics.messages m;
    c_rounds = Metrics.rounds m;
    c_words = words;
  }

type obs = {
  wall_s : float;  (** host seconds of the measured call *)
  costs : cost list;  (** one per operation inside the call *)
  attempted : int;  (** operations: sim runs, schedules or fleet runs *)
  failed : int;
  problems : string list;  (** failed output checks, human-readable *)
  stats : stats;
  layers : (string * float) list;  (** traced calls only *)
}

(* A prepared operation: inputs built (that is the set-up), call pending. *)
type prepared = { call : unit -> obs; discard : unit -> unit }

let no_discard () = ()

(* ------------------------------------------------------------------ *)
(* Probes: the traced run's wrappers *)

type probe = {
  mutable steps : int;
  mutable step_ns : int;
  mutable step_words : int;
  mutable envelopes_in : int;
  mutable sends_out : int;
  mutable visited_rounds : int;
  mutable last_round : int;
  mutable crashed_by_calls : int;
  mutable on_step_calls : int;
}

let new_probe () =
  {
    steps = 0;
    step_ns = 0;
    step_words = 0;
    envelopes_in = 0;
    sends_out = 0;
    visited_rounds = 0;
    last_round = -1;
    crashed_by_calls = 0;
    on_step_calls = 0;
  }

let probe_proc p (proc : ('s, 'm) Types.process) : ('s, 'm) Types.process =
  {
    proc with
    step =
      (fun pid r s inbox ->
        if r <> p.last_round then begin
          p.last_round <- r;
          p.visited_rounds <- p.visited_rounds + 1
        end;
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        let o = proc.step pid r s inbox in
        let t1 = now_ns () in
        let w1 = Gc.minor_words () in
        p.steps <- p.steps + 1;
        p.step_ns <- p.step_ns + (t1 - t0);
        p.step_words <- p.step_words + int_of_float (w1 -. w0);
        p.envelopes_in <- p.envelopes_in + List.length inbox;
        p.sends_out <- p.sends_out + List.length o.Types.sends;
        o);
  }

let probe_protocol p (base : Protocol.t) : Protocol.t =
  {
    base with
    make =
      (fun spec ->
        let (Protocol.Packed { proc; show }) = base.make spec in
        Protocol.Packed { proc = probe_proc p proc; show });
  }

(* Delegates every kernel query to [base], counting them. The wrapper keeps
   its own committed-crash record, which mirrors the one [base] would have
   kept, and forwards revivals so [base]'s cycle bookkeeping advances. *)
let probe_fault p base =
  Fault.custom ~restarts:(Fault.restarts base)
    ~on_restart:(fun pid r -> Fault.note_restart base pid r)
    ~corrupts:(Fault.corrupts base)
    ~byzantine_from:(Fault.byzantine_from base)
    ~crashed_by:(fun pid r ->
      p.crashed_by_calls <- p.crashed_by_calls + 1;
      Fault.crashed_by base pid r)
    ~on_step:(fun v ->
      p.on_step_calls <- p.on_step_calls + 1;
      Fault.on_step base v)
    ()

let probe_layers p ~call_ns =
  let self_ns = call_ns - p.step_ns in
  [
    ("kernel.self_s", secs_of_ns self_ns);
    ("kernel.ns_per_round", ratio (fi self_ns) (fi p.visited_rounds));
    ("kernel.visited_rounds", fi p.visited_rounds);
    ("kernel.steps", fi p.steps);
    ("fault.crashed_by_calls", fi p.crashed_by_calls);
    ("fault.on_step_calls", fi p.on_step_calls);
    ( "fault.queries_per_step",
      ratio (fi (p.crashed_by_calls + p.on_step_calls)) (fi p.steps) );
    ("protocol.step_s", secs_of_ns p.step_ns);
    ("protocol.ns_per_step", ratio (fi p.step_ns) (fi p.steps));
    ("protocol.envelopes_in", fi p.envelopes_in);
    ("protocol.sends_out", fi p.sends_out);
    ("protocol.alloc_words_per_step", ratio (fi p.step_words) (fi p.steps));
  ]

(* ------------------------------------------------------------------ *)
(* Output checks shared by the simulator workloads *)

(* [Runner.correct], plus the theorem bounds of Protocol A. *)
let check_a_run spec (r : _ Kernel.result) =
  let report =
    {
      Doall.Runner.spec;
      protocol = "A";
      metrics = r.Kernel.metrics;
      statuses = r.Kernel.statuses;
      outcome = r.Kernel.outcome;
    }
  in
  let m = r.Kernel.metrics in
  let g = Doall.Grid.make spec in
  (if Doall.Runner.correct report then []
   else [ Format.asprintf "incorrect run: %a" Doall.Runner.pp report ])
  @ List.filter_map
      (fun (name, v, b) ->
        if v > b then Some (Printf.sprintf "%s = %d exceeds bound %d" name v b)
        else None)
      [
        ("work", Metrics.work m, Doall.Bounds.a_work g);
        ("msgs", Metrics.messages m, Doall.Bounds.a_msgs g);
        ("rounds", Metrics.rounds m, Doall.Bounds.a_rounds g);
      ]

(* ------------------------------------------------------------------ *)
(* Workloads: sim-ff and sim-crash *)

let sim_prepare ~traced ~spec ~(proto : Protocol.t) ~fault_of =
  let n = Spec.n spec and t = Spec.processes spec in
  let probe = new_probe () in
  let (Protocol.Packed { proc; show }) = proto.make spec in
  let base = fault_of () in
  (* Fault.none stays unwrapped: wrapping makes the plan non-trivial and
     switches the kernel off its fast path. *)
  let fault =
    if traced && not (Fault.is_trivial base) then probe_fault probe base
    else base
  in
  let cfg = Kernel.config ~fault ~show ~n_processes:t ~n_units:n () in
  let c0 = now_ns () in
  let metrics = Metrics.create ~n_processes:t ~n_units:n in
  let create_ns = now_ns () - c0 in
  let proc = if traced then probe_proc probe proc else proc in
  let call () =
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let r = Kernel.run ~metrics cfg proc in
    let call_ns = now_ns () - t0 in
    let words = Gc.minor_words () -. w0 in
    let problems = check_a_run spec r in
    {
      wall_s = secs_of_ns call_ns;
      costs =
        [
          cost_of_metrics ~lat_ms:(secs_of_ns call_ns *. 1000.) ~words
            r.Kernel.metrics;
        ];
      attempted = 1;
      failed = (if problems = [] then 0 else 1);
      problems;
      stats =
        stats_of_metrics r.Kernel.metrics ~outcome:r.Kernel.outcome
          ~statuses:r.Kernel.statuses;
      layers =
        (if traced then
           probe_layers probe ~call_ns
           @ [ ("metrics.create_s", secs_of_ns create_ns) ]
         else []);
    }
  in
  { call; discard = no_discard }

(* Reference (work, msgs, rounds) pinned when the benchmark was defined.
   Other seeds have no pinned values; their calls must still agree with
   each other, with the traced call and with the theorem bounds. *)
let sim_ff_expected = (20_000_000, 92_728, 20_002_983)
let sim_crash_expected = [ (7, (100_548, 80_104, 1_066_951)) ]

let sim_ff size =
  (* n=2*10^7, not E25's 10^7: a 5-second call averages out more of the
     machine's speed swings; 2.5-second calls varied up to 1.7x within one
     run. *)
  let n, t = match size with Full -> (20_000_000, 1000) | Tiny -> (3000, 30) in
  let spec = Spec.make ~n ~t in
  let prepare ~traced =
    sim_prepare ~traced ~spec ~proto:Doall.Protocol_a.protocol
      ~fault_of:(fun () -> Fault.none)
  in
  let expected = match size with Full -> Some sim_ff_expected | Tiny -> None in
  (n, prepare, expected)

let sim_crash size ~seed =
  let n, t, lo, hi, k =
    match size with
    | Full -> (100_000, 1000, 5000, 9000, 10)
    | Tiny -> (3000, 30, 100, 300, 5)
  in
  let spec = Spec.make ~n ~t in
  let prepare ~traced =
    sim_prepare ~traced ~spec ~proto:Doall.Protocol_a.protocol
      ~fault_of:(fun () ->
        Fault.crash_active_after_random_work ~seed:(Int64.of_int seed)
          ~min_units:lo ~max_units:hi ~max_crashes:k)
  in
  let expected =
    match size with
    | Full -> List.assoc_opt seed sim_crash_expected
    | Tiny -> None
  in
  (n, prepare, expected)

(* ------------------------------------------------------------------ *)
(* Workload: campaign-d *)

let campaign_d size ~seed =
  let n, t, count = match size with Full -> (1000, 32, 1000) | Tiny -> (60, 8, 24) in
  let jobs = 2 in
  let spec = Spec.make ~n ~t in
  let proto = Doall.Protocol_d.protocol in
  let prepare ~traced =
    (* The CLI's default window: twice the failure-free running time. *)
    let (Protocol.Packed { proc; show }) = proto.make spec in
    let ff =
      Kernel.run (Kernel.config ~show ~n_processes:t ~n_units:n ()) proc
    in
    let window = (2 * Metrics.rounds ff.Kernel.metrics) + 2 in
    let s0 = now_ns () in
    let g = Prng.create (Int64.of_int seed) in
    let schedules =
      List.init count (fun _ -> Fuzz.stamp spec proto (Campaign.sample g ~t ~window))
    in
    let sample_ns = now_ns () - s0 in
    let oracles = Fuzz.oracles spec ~protocol:proto.Protocol.name in
    let call () =
      (* Schedules run on worker domains: per-schedule figures are taken
         inside the task and summed through atomics. *)
      let nslots = 2 * count in
      let no_cost =
        { lat_ms = 0.; c_work = 0; c_msgs = 0; c_rounds = 0; c_words = 0. }
      in
      let slots = Array.make nslots no_cost in
      let next_slot = Atomic.make 0 in
      let sum () = Atomic.make 0 in
      let work = sum () and msgs = sum () and rounds = sum () in
      let crashes = sum () and digest = sum () in
      let run_ns = sum () and step_ns = sum () and steps = sum () in
      let step_words = sum () and env_in = sum () and sends = sum () in
      let visited = sum () and events = sum () in
      let oracle_ns = List.map (fun _ -> sum ()) oracles in
      let add a v = ignore (Atomic.fetch_and_add a v) in
      let run sched =
        let probe = new_probe () in
        let p = if traced then probe_protocol probe proto else proto in
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        let s = Fuzz.run_schedule spec p sched in
        let dt = now_ns () - t0 in
        let dw = Gc.minor_words () -. w0 in
        let m = s.Fuzz.report.Doall.Runner.metrics in
        let i = Atomic.fetch_and_add next_slot 1 in
        if i < nslots then
          slots.(i) <- cost_of_metrics ~lat_ms:(secs_of_ns dt *. 1000.) ~words:dw m;
        add work (Metrics.work m);
        add msgs (Metrics.messages m);
        add rounds (Metrics.rounds m);
        add crashes (Metrics.crashes m);
        add digest
          (Hashtbl.hash_param 1000 1000
             ( Metrics.work m, Metrics.messages m, Metrics.rounds m,
               s.Fuzz.report.Doall.Runner.outcome,
               s.Fuzz.report.Doall.Runner.statuses ));
        if traced then begin
          add run_ns dt;
          add step_ns probe.step_ns;
          add steps probe.steps;
          add step_words probe.step_words;
          add env_in probe.envelopes_in;
          add sends probe.sends_out;
          add visited probe.visited_rounds;
          add events (Simkit.Trace.length s.Fuzz.trace)
        end;
        s
      in
      let oracles =
        if not traced then oracles
        else
          List.map2
            (fun (o : _ Campaign.oracle) acc ->
              {
                o with
                Campaign.check =
                  (fun s ->
                    let t0 = now_ns () in
                    let v = o.Campaign.check s in
                    add acc (now_ns () - t0);
                    v);
              })
            oracles oracle_ns
      in
      let t0 = now_ns () in
      let st =
        Campaign.run_parallel ~jobs ~run ~oracles
          ~candidates:Campaign.schedule_candidates ~shrink_budget:1
          (List.to_seq schedules)
      in
      let wall_ns = now_ns () - t0 in
      let nfail = List.length st.Campaign.failures in
      let problems =
        (if st.Campaign.schedules <> count then
           [ Printf.sprintf "judged %d of %d schedules" st.Campaign.schedules count ]
         else [])
        @ List.map
            (fun (f : _ Campaign.failure) ->
              Printf.sprintf "oracle %s: %s" f.Campaign.oracle f.Campaign.detail)
            st.Campaign.failures
      in
      let costs =
        Array.to_list (Array.sub slots 0 (min nslots (Atomic.get next_slot)))
      in
      let lat = List.map (fun c -> c.lat_ms) costs in
      let g = Atomic.get in
      let layers =
        if not traced then []
        else
          let call_ns = g run_ns in
          let self_ns = call_ns - g step_ns in
          let check_ns = List.fold_left (fun acc a -> acc + g a) 0 oracle_ns in
          [
            ("kernel.self_s", secs_of_ns self_ns);
            ("kernel.ns_per_round", ratio (fi self_ns) (fi (g visited)));
            ("kernel.visited_rounds", fi (g visited));
            ("kernel.steps", fi (g steps));
            ("protocol.step_s", secs_of_ns (g step_ns));
            ("protocol.ns_per_step", ratio (fi (g step_ns)) (fi (g steps)));
            ("protocol.envelopes_in", fi (g env_in));
            ("protocol.sends_out", fi (g sends));
            ("protocol.alloc_words_per_step", ratio (fi (g step_words)) (fi (g steps)));
            ("campaign.sample_s", secs_of_ns sample_ns);
            ( "campaign.executions_per_schedule",
              ratio (fi st.Campaign.executions) (fi st.Campaign.schedules) );
            ("fuzz.run_schedule_s", secs_of_ns call_ns);
            ( "fuzz.schedule_p99_ms",
              if lat = [] then 0. else percentile (sorted lat) 99. );
            ("trace.events_per_schedule", ratio (fi (g events)) (fi count));
            ( "pool.busy_ratio",
              ratio (fi (call_ns + check_ns)) (fi jobs *. fi wall_ns) );
          ]
          @ List.map2
              (fun (o : _ Campaign.oracle) a ->
                ("oracle." ^ o.Campaign.name ^ ".check_s", secs_of_ns (g a)))
              oracles oracle_ns
      in
      {
        wall_s = secs_of_ns wall_ns;
        costs;
        attempted = count;
        failed = (if problems = [] then 0 else max 1 nfail);
        problems;
        stats =
          {
            work = g work;
            msgs = g msgs;
            rounds = g rounds;
            crashes = g crashes;
            restarts = 0;
            persists = 0;
            digest = g digest;
          };
        layers;
      }
    in
    { call; discard = no_discard }
  in
  (n * count, prepare, None)

(* ------------------------------------------------------------------ *)
(* Workload: fleet-lockstep *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Run directories live under the working directory, with a relative path:
   a unix-socket path must stay short, whatever the checkout's location. *)
let run_root = ".bench_run"
let run_counter = ref 0

let fresh_run_dir () =
  (try Unix.mkdir run_root 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr run_counter;
  let d =
    Filename.concat run_root
      (Printf.sprintf "%d-%d" (Unix.getpid ()) !run_counter)
  in
  rm_rf d;
  Unix.mkdir d 0o700;
  d

let cleanup_run_root () = try Unix.rmdir run_root with Unix.Unix_error _ -> ()

let fleet_protocol = "a+rec"
let fleet_rejoin = 3

(* One SIGKILL of the working pid 0 and its respawn, both drawn from the
   seed. *)
let fleet_schedule size ~seed =
  let n, t, (klo, khi), (glo, ghi) =
    match size with
    | Full -> (40_000, 2, (9000, 11_000), (20, 80))
    | Tiny -> (300, 2, (60, 120), (10, 30))
  in
  let g = Prng.create (Int64.of_int seed) in
  let kill = Prng.int_in g klo khi in
  let gap = Prng.int_in g glo ghi in
  let sched =
    Schedule.make
      ~meta:
        [ ("protocol", fleet_protocol); ("n", string_of_int n); ("t", string_of_int t) ]
      [
        { Schedule.victim = 0; at = kill; mode = Schedule.Silent };
        { Schedule.victim = 0; at = kill + gap; mode = Schedule.Restart };
      ]
  in
  (n, t, sched)

let fleet size ~seed ~node_exe =
  let n, t, sched0 = fleet_schedule size ~seed in
  let spec = Spec.make ~n ~t in
  let max_rounds = 20 * n in
  let horizon =
    List.fold_left (fun acc (e : Schedule.entry) -> max acc e.at) 0
      sched0.Schedule.entries
  in
  (* The simulator's run of the same schedule: the real fleet must spend
     exactly the same effort. *)
  let sim =
    Fuzz.run_recovery_schedule ~max_rounds ~rejoin_rounds:fleet_rejoin spec
      Doall.Recovery.A sched0
  in
  let sim_m = sim.Fuzz.report.Doall.Runner.metrics in
  let prepare ~traced =
    let _, _, sched = fleet_schedule size ~seed in
    let dir = fresh_run_dir () in
    let probe = new_probe () in
    let base = Schedule.to_fault sched in
    let fault = if traced then probe_fault probe base else base in
    let cfg =
      Orch.config ~fault ~max_rounds ~rejoin_rounds:fleet_rejoin ~watchdog_s:60.
        ~io_timeout_s:10. ~log_dir:dir ~seed:(Int64.of_int seed) ~node_exe
        ~addr:(Transport.Unix_sock (Filename.concat dir "ctl.sock"))
        ~protocol:fleet_protocol ~n ~t
        ~ckpt_dir:(Filename.concat dir "ckpt") ()
    in
    let call () =
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      let res = Orch.run cfg in
      let call_ns = now_ns () - t0 in
      let words = Gc.minor_words () -. w0 in
      rm_rf dir;
      let m = res.Orch.metrics in
      let report =
        {
          Doall.Runner.spec;
          protocol = fleet_protocol;
          metrics = m;
          statuses = res.Orch.statuses;
          outcome = Orch.to_run_outcome res.Orch.stop;
        }
      in
      let problems = ref [] in
      let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
      (match res.Orch.stop with
      | Orch.Completed -> ()
      | stop -> fail "fleet stopped: %s" (Orch.stop_to_string stop));
      (match
         Campaign.first_failure
           (Fuzz.recovery_oracles spec Doall.Recovery.A ~horizon)
           { Fuzz.report; trace = res.Orch.trace }
       with
      | None -> ()
      | Some (o, d) -> fail "oracle %s: %s" o d);
      List.iter
        (fun (name, f) ->
          if f m <> f sim_m then fail "%s: sim=%d real=%d" name (f sim_m) (f m))
        [
          ("work", Metrics.work);
          ("messages", Metrics.messages);
          ("rounds", Metrics.rounds);
          ("persists", Metrics.persists);
          ("restarts", Metrics.restarts);
          ("crashes", Metrics.crashes);
        ];
      let problems = List.rev !problems in
      let ts = res.Orch.transport in
      let rounds = fi (max 1 (Metrics.rounds m)) in
      let layers =
        if not traced then []
        else
          [
            ("fault.crashed_by_calls", fi probe.crashed_by_calls);
            ("fault.on_step_calls", fi probe.on_step_calls);
            ( "transport.frames_per_round",
              fi (ts.Transport.frames_sent + ts.Transport.frames_received) /. rounds );
            ( "transport.bytes_per_round",
              fi (ts.Transport.bytes_sent + ts.Transport.bytes_received) /. rounds );
            ("orchestrator.heartbeats_per_round", fi res.Orch.heartbeats /. rounds);
            ("transport.timeouts", fi ts.Transport.timeouts);
            ("transport.retries", fi ts.Transport.retries);
            ("orchestrator.respawns", fi res.Orch.respawns);
            ("ckpt.persists", fi (Metrics.persists m));
          ]
      in
      {
        wall_s = secs_of_ns call_ns;
        costs = [ cost_of_metrics ~lat_ms:(secs_of_ns call_ns *. 1000.) ~words m ];
        attempted = 1;
        failed = (if problems = [] then 0 else 1);
        problems;
        stats =
          stats_of_metrics m ~outcome:report.Doall.Runner.outcome
            ~statuses:res.Orch.statuses;
        layers;
      }
    in
    { call; discard = (fun () -> rm_rf dir) }
  in
  (n, prepare, None)

(* ------------------------------------------------------------------ *)
(* Timed and traced runs *)

type instance = {
  units : int;  (** Do-All units completed by one measured call *)
  prepare : traced:bool -> prepared;
  expected : (int * int * int) option;  (** pinned (work, msgs, rounds) *)
}

let instance name size ~seed ~node_exe =
  let units, prepare, expected =
    match name with
    | "sim-ff" -> sim_ff size
    | "sim-crash" -> sim_crash size ~seed
    | "campaign-d" -> campaign_d size ~seed
    | "fleet-lockstep" -> fleet size ~seed ~node_exe
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  { units; prepare; expected }

(* Set up and call one operation. The call starts from a compacted heap, so
   garbage left by earlier calls does not set the pace of its major
   collections. *)
let run_op inst ~traced =
  let p = inst.prepare ~traced in
  Gc.compact ();
  p.call ()

(* Set-up time is sampled before the calls, each sample from a compacted
   heap: a set-up timed after a call pays for page faults the call's
   garbage caused, and varied up to fivefold with it. Set-ups of a few
   microseconds are timed in batches lasting about [setup_batch_s], divided
   by the batch size. Batches stay small: holding many inputs at once makes
   the sample depend on page faults again, and must stay below the calls'
   peak heap. *)
let setup_samples = 21
let setup_batch_s = 0.0005

let setup_times inst =
  let batch k =
    Gc.compact ();
    let t0 = now_ns () in
    let ps = List.init k (fun _ -> inst.prepare ~traced:false) in
    let s = secs_since t0 /. fi k in
    List.iter (fun p -> p.discard ()) ps;
    s
  in
  ignore (batch 1);
  let k = max 1 (min 100 (int_of_float (setup_batch_s /. batch 1))) in
  List.init setup_samples (fun _ -> batch k)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

(* Cross-operation checks: every call of one seed reproduces the same
   statistics, and the pinned reference where there is one. *)
let consistency inst (obs : obs list) =
  match obs with
  | [] -> [ "no operation ran" ]
  | first :: rest ->
      List.filter_map
        (fun o ->
          if o.stats = first.stats then None
          else
            Some
              (Printf.sprintf "statistics differ between calls: %s vs %s"
                 (pp_stats first.stats) (pp_stats o.stats)))
        rest
      @
      match inst.expected with
      | Some (w, m, r)
        when (first.stats.work, first.stats.msgs, first.stats.rounds) <> (w, m, r) ->
          [
            Printf.sprintf "expected work=%d msgs=%d rounds=%d, got %s" w m r
              (pp_stats first.stats);
          ]
      | _ -> []

let min_ops = 3

let timed inst ~seconds =
  let setups = setup_times inst in
  let start = now_ns () in
  let ops = ref [] and op_secs = ref [] in
  let continue () =
    List.length !ops < min_ops
    || secs_since start +. median !op_secs <= float_of_int seconds
  in
  while continue () do
    let t0 = now_ns () in
    let op = run_op inst ~traced:false in
    ops := op :: !ops;
    op_secs := secs_since t0 :: !op_secs
  done;
  let obs = List.rev !ops in
  let top_heap_mb =
    fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let first = List.hd obs in
  let costs = List.concat_map (fun o -> o.costs) obs in
  let lat = List.map (fun c -> c.lat_ms) costs in
  let med f = median (List.map f costs) in
  let walls = List.map (fun o -> o.wall_s) obs in
  let problems = List.concat_map (fun o -> o.problems) obs @ consistency inst obs in
  let attempted = List.fold_left (fun a (o : obs) -> a + o.attempted) 0 obs in
  let failed = List.fold_left (fun a (o : obs) -> a + o.failed) 0 obs in
  let metrics =
    [
      ("setup_s", median setups);
      ("units_per_s", fi inst.units /. median walls);
      ("op_p50_ms", median lat);
      ("alloc_words_per_round", med (fun c -> c.c_words /. fi (max 1 c.c_rounds)));
      ("top_heap_mb", top_heap_mb);
      ("work", med (fun c -> fi c.c_work));
      ("msgs", med (fun c -> fi c.c_msgs));
      ("sim_rounds", med (fun c -> fi c.c_rounds));
    ]
  in
  let tail =
    match tail_percentile lat with
    | Some (p, v) -> Printf.sprintf "p%g %.3f ms" p v
    | None -> "no percentile has >= 10 samples beyond it"
  in
  let notes =
    [
      Printf.sprintf "measured %d calls in %.1f s; %s" (List.length obs)
        (secs_since start) (pp_stats first.stats);
      Printf.sprintf "operation latency: p50 %.3f ms, %s (n=%d)" (median lat) tail
        (List.length lat);
      Printf.sprintf "call wall: median %.3f s of [%s]; setup: median %.6f s (n=%d)"
        (median walls)
        (String.concat " " (List.map (Printf.sprintf "%.3f") walls))
        (median setups) (List.length setups);
      Printf.sprintf "fail_ratio %g (%d/%d)" (ratio (fi failed) (fi attempted))
        failed attempted;
    ]
    @ List.map (fun p -> "CHECK FAILED: " ^ p) problems
  in
  { correct = problems = [] && failed = 0; attempted; failed; metrics; notes }

(* Names not produced by a workload's traced call are layers it does not
   exercise: they read 0. *)
let fill_layers measured =
  List.map
    (fun d ->
      (d.m_name, Option.value ~default:0. (List.assoc_opt d.m_name measured)))
    per_layer

let traced_run inst =
  let u = run_op inst ~traced:false in
  let tr = run_op inst ~traced:true in
  let problems =
    u.problems @ tr.problems
    @ consistency inst [ u ]
    @
    if tr.stats = u.stats then []
    else
      [
        Printf.sprintf "traced statistics differ: untraced %s, traced %s"
          (pp_stats u.stats) (pp_stats tr.stats);
      ]
  in
  let overhead = tr.wall_s -. u.wall_s in
  let metrics = fill_layers (("bench.trace_overhead_s", overhead) :: tr.layers) in
  let attempted = u.attempted + tr.attempted in
  let failed = u.failed + tr.failed in
  let notes =
    [
      Printf.sprintf "untraced call %.3f s, traced call %.3f s: overhead %.3f s"
        u.wall_s tr.wall_s overhead;
      "traced " ^ pp_stats tr.stats;
    ]
    @ List.map (fun p -> "CHECK FAILED: " ^ p) problems
  in
  { correct = problems = [] && failed = 0; attempted; failed; metrics; notes }

let unit_of name =
  match List.find_opt (fun d -> d.m_name = name) (end_to_end @ per_layer) with
  | Some d -> d.m_unit
  | None -> "?"

let result_json r =
  Jsonw.Obj
    [
      ("correct", Jsonw.Bool r.correct);
      ("attempted", Jsonw.Int r.attempted);
      ("failed", Jsonw.Int r.failed);
      ( "metrics",
        Jsonw.Obj
          (List.map
             (fun (name, v) ->
               ( name,
                 Jsonw.Obj
                   [ ("value", Jsonw.Float v); ("unit", Jsonw.Str (unit_of name)) ]
               ))
             r.metrics) );
    ]

let print_result ~workload r =
  Printf.printf "workload %s\n" workload;
  List.iter (fun l -> Printf.printf "  %s\n" l) r.notes;
  List.iter
    (fun (name, v) -> Printf.printf "  %-34s %16.6g %s\n" name v (unit_of name))
    r.metrics;
  print_endline (Jsonw.to_string (result_json r))

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json *)

let benchmark_json () =
  let metric d =
    Jsonw.Obj
      ([
         ("name", Jsonw.Str d.m_name);
         ("unit", Jsonw.Str d.m_unit);
         ("better", Jsonw.Str (match d.m_better with Lower -> "lower" | Higher -> "higher"));
       ]
      @ match d.m_bound with Some b -> [ ("bound", Jsonw.Float b) ] | None -> [])
  in
  Jsonw.pretty
    (Jsonw.Obj
       [
         ("command", Jsonw.Arr [ Jsonw.Str "bash"; Jsonw.Str "perfbench/run.sh" ]);
         ("paths", Jsonw.Arr [ Jsonw.Str "perfbench" ]);
         ("run_seconds", Jsonw.Int run_seconds);
         ( "workloads",
           Jsonw.Arr
             (List.map
                (fun w ->
                  Jsonw.Obj [ ("name", Jsonw.Str w.w_name); ("why", Jsonw.Str w.w_why) ])
                workloads) );
         ("end_to_end", Jsonw.Arr (List.map metric end_to_end));
         ("per_layer", Jsonw.Arr (List.map metric per_layer));
       ])
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Self-test: every workload's code path at a tiny size *)

let self_test ~node_exe ~benchmark_file =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (match benchmark_file with
  | None -> ()
  | Some f ->
      let ic = open_in_bin f in
      let committed = really_input_string ic (in_channel_length ic) in
      close_in ic;
      if committed <> benchmark_json () then
        fail "%s differs from --print-benchmark-json" f);
  let names ds = List.map (fun d -> d.m_name) ds in
  List.iter
    (fun w ->
      List.iter
        (fun seed ->
          let inst = instance w.w_name Tiny ~seed ~node_exe in
          let t = timed inst ~seconds:0 in
          let tr = traced_run inst in
          let tag = Printf.sprintf "%s seed %d" w.w_name seed in
          List.iter (fun n -> fail "%s: %s" tag n)
            (List.filter
               (fun l -> String.length l > 5 && String.sub l 0 5 = "CHECK")
               (t.notes @ tr.notes));
          if not (t.correct && tr.correct) then fail "%s: incorrect" tag;
          if List.map fst t.metrics <> names end_to_end then
            fail "%s: timed run does not emit every end-to-end metric" tag;
          if List.map fst tr.metrics <> names per_layer then
            fail "%s: traced run does not emit every per-layer metric" tag;
          List.iter
            (fun (n, v) ->
              if not (Float.is_finite v && v > 0.) then
                fail "%s: end-to-end metric %s = %g" tag n v)
            t.metrics;
          let layer n = List.assoc n tr.metrics in
          (match w.w_name with
          | "sim-ff" ->
              if layer "fault.crashed_by_calls" <> 0. then
                fail "%s: Fault.none was queried" tag;
              if layer "kernel.steps" = 0. then fail "%s: no steps seen" tag
          | "sim-crash" ->
              if layer "fault.queries_per_step" = 0. then
                fail "%s: fault queries not counted" tag
          | "campaign-d" ->
              if layer "trace.events_per_schedule" = 0. then
                fail "%s: no trace events" tag
          | _ ->
              if layer "transport.frames_per_round" = 0. then
                fail "%s: no frames counted" tag);
          Printf.printf "self-test %s: ok=%b\n%!" tag (t.correct && tr.correct))
        [ 1; 2 ])
    workloads;
  cleanup_run_root ();
  match List.rev !failures with
  | [] -> print_endline "self-test: all workloads pass"; 0
  | fs -> List.iter (fun f -> prerr_endline ("self-test: " ^ f)) fs; 1

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref run_seconds in
  let trace = ref 0 and node_exe = ref "" and self = ref false in
  let bench_file = ref "" and print_bench = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed every input is derived from");
      ("--seconds", Arg.Set_int seconds, "S how long the timed run measures");
      ("--trace", Arg.Set_int trace, "0|1 timed run (0) or traced run (1)");
      ("--node-exe", Arg.Set_string node_exe, "PATH dhw_node binary for the fleet");
      ("--self-test", Arg.Set self, " run every workload at a tiny size");
      ("--benchmark-json", Arg.Set_string bench_file, "FILE check it in --self-test");
      ("--print-benchmark-json", Arg.Set print_bench, " print BENCHMARK.json");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let node_exe =
    if !node_exe <> "" then !node_exe
    else
      Filename.concat (Filename.dirname Sys.executable_name) "../bin/dhw_node.exe"
  in
  if !print_bench then print_string (benchmark_json ())
  else if !self then
    exit
      (self_test ~node_exe
         ~benchmark_file:(if !bench_file = "" then None else Some !bench_file))
  else begin
    if not (List.exists (fun w -> w.w_name = !workload) workloads) then begin
      prerr_endline ("perfbench: unknown workload '" ^ !workload ^ "'");
      Arg.usage spec usage;
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "perfbench: --trace must be 0 or 1";
      exit 2
    end;
    if (!workload = "fleet-lockstep") && not (Sys.file_exists node_exe) then begin
      prerr_endline ("perfbench: no dhw_node binary at " ^ node_exe);
      exit 2
    end;
    let inst = instance !workload Full ~seed:!seed ~node_exe in
    let r =
      if !trace = 1 then traced_run inst else timed inst ~seconds:!seconds
    in
    cleanup_run_root ();
    print_result ~workload:!workload r
  end
