(* Command-line front-end: run any protocol of the paper on any instance
   under a configurable fault schedule and print the cost measures; fuzz
   it with any adversary and replay what the fuzzer finds.

     dune exec bin/doall_cli.exe -- run -p A -n 100 -t 16 --crash 0@5 --trace 40
     dune exec bin/doall_cli.exe -- run -p D -n 1000 -t 32 --random 31 --window 40
     dune exec bin/doall_cli.exe -- ba -n 64 -t 8 --value 7 --protocol C
     dune exec bin/doall_cli.exe -- async -n 100 -t 16 --crash 3@9
     dune exec bin/doall_cli.exe -- fuzz -p a+rec -n 40 -t 8 --executions 500
     dune exec bin/doall_cli.exe -- fuzz -p a --byz 3 -n 60 -t 12
     dune exec bin/doall_cli.exe -- replay corpus/a-seed1-0.sched
     dune exec bin/doall_cli.exe -- replay --real test/corpus/net-seed.sched

   fuzz -p picks the adversary: crash (a, b, c, ..., checkpoint[:k]),
   crash-recovery (a+rec, b+rec), Byzantine (a+val, or a with --byz),
   async link (async-a) or async Byzantine (async-a+val, or async-a with
   --byz). replay picks it from the schedule file. *)

open Cmdliner
module D = Doall
module J = Dhw_util.Jsonw

(* The names [protocol_of_name] takes. A command that also takes others
   passes the full list as [accepted], so its error lists what it accepts. *)
let crash_protocol_names =
  "A, B, C, C-chunked, C-naive, D, D-coord, trivial, checkpoint[:k]"

let protocol_of_name ?(accepted = crash_protocol_names) name =
  match String.lowercase_ascii name with
  | "a" -> Ok D.Protocol_a.protocol
  | "b" -> Ok D.Protocol_b.protocol
  | "c" -> Ok D.Protocol_c.protocol
  | "c-chunked" | "cchunked" -> Ok D.Protocol_c.protocol_chunked
  | "c-naive" | "cnaive" -> Ok D.Protocol_c_naive.protocol
  | "d" -> Ok D.Protocol_d.protocol
  | "d-coord" | "dcoord" -> Ok D.Protocol_d_coord.protocol
  | "trivial" -> Ok D.Baseline_trivial.protocol
  (* checkpoint/k is the protocol's own name, which schedule files carry *)
  | s
    when String.length s > 11
         && List.mem (String.sub s 0 11) [ "checkpoint:"; "checkpoint/" ] ->
      (try Ok (D.Baseline_checkpoint.protocol ~period:(int_of_string (String.sub s 11 (String.length s - 11))))
       with _ -> Error (`Msg "checkpoint:<period> needs an integer period"))
  | "checkpoint" -> Ok (D.Baseline_checkpoint.protocol ~period:1)
  | _ -> Error (`Msg ("unknown protocol: " ^ name ^ " (" ^ accepted ^ ")"))

let crash_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ p; r ] -> (
        try Ok (int_of_string p, int_of_string r)
        with _ -> Error (`Msg "expected pid@round"))
    | _ -> Error (`Msg "expected pid@round")
  in
  let print ppf (p, r) = Format.fprintf ppf "%d@%d" p r in
  Arg.conv (parse, print)

let n_arg = Arg.(value & opt int 100 & info [ "n"; "units" ] ~doc:"Units of work.")
let t_arg = Arg.(value & opt int 16 & info [ "t"; "processes" ] ~doc:"Processes.")

let crashes_arg =
  Arg.(value & opt_all crash_conv [] & info [ "crash" ] ~docv:"PID@ROUND"
       ~doc:"Silently crash $(i,PID) at $(i,ROUND) (repeatable).")

let random_arg =
  Arg.(value & opt (some int) None & info [ "random" ] ~docv:"VICTIMS"
       ~doc:"Crash $(i,VICTIMS) random processes at random rounds.")

let window_arg =
  Arg.(value & opt int 200 & info [ "window" ] ~doc:"Random crash-round window.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Adversary seed.")

let adversary_arg =
  Arg.(value & opt (some int) None & info [ "kill-active-every" ] ~docv:"UNITS"
       ~doc:"Crash whichever process is working after every $(i,UNITS) units (keeps the work, drops the messages).")

let trace_arg =
  Arg.(value & opt (some int) None & info [ "trace" ] ~docv:"N"
       ~doc:"Print the first $(i,N) trace events.")

let crash_desc = function
  | [] -> "none"
  | cs ->
      "crash "
      ^ String.concat ", "
          (List.map (fun (p, r) -> Printf.sprintf "%d@%d" p r) cs)

(* Returns the fault plan plus a stable human-readable summary of it — the
   latter is embedded in JSON reports so a report identifies its run. *)
let build_fault ~t ~crashes ~random ~window ~seed ~adversary =
  match (crashes, random, adversary) with
  | [], None, None -> (Simkit.Fault.none, "none")
  | cs, None, None -> (Simkit.Fault.crash_silently_at cs, crash_desc cs)
  | [], Some v, None ->
      ( Simkit.Fault.random ~seed:(Int64.of_int seed) ~t ~victims:v ~window,
        Printf.sprintf "random victims=%d seed=%d window=%d" v seed window )
  | [], None, Some k ->
      ( Simkit.Fault.crash_active_after_work ~units_between_crashes:k
          ~max_crashes:(t - 1),
        Printf.sprintf "kill-active-every %d units" k )
  | _ -> failwith "combine at most one of --crash/--random/--kill-active-every"

let report_arg =
  Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "report" ] ~docv:"FMT"
       ~doc:"Output format: $(b,text) (default) or $(b,json) (one dhw-report/v4 document on stdout).")

(* Distinct exit codes so scripts can tell failure classes apart (2 is
   cmdliner's usage-error code): 0 = completed and correct, 1 = completed
   but incorrect, 3 = stalled, 4 = round/tick limit hit. *)
let exit_run ~ok outcome_class =
  let code =
    match outcome_class with
    | `Completed -> if ok then 0 else 1
    | `Stalled -> 3
    | `Limit -> 4
  in
  if code <> 0 then exit code

let events_arg =
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"PATH"
       ~doc:"Stream every execution event to $(i,PATH) as JSON Lines.")

let with_events events f =
  match events with
  | None -> f None
  | Some path ->
      let oc = open_out path in
      let r = f (Some (Simkit.Obs.jsonl oc)) in
      close_out oc;
      r

let count_status statuses pred =
  Array.fold_left (fun acc s -> if pred s then acc + 1 else acc) 0 statuses

let status_survivors statuses =
  count_status statuses (function Simkit.Types.Terminated _ -> true | _ -> false)

let status_crashed statuses =
  count_status statuses (function Simkit.Types.Crashed _ -> true | _ -> false)

let restarts_arg =
  Arg.(value & opt_all crash_conv [] & info [ "restarts"; "restart" ]
       ~docv:"PID@ROUND"
       ~doc:"Revive $(i,PID) at $(i,ROUND) after a --crash (repeatable). Switches to the recovery-hardened protocol variant, so only A and B qualify.")

let restart_desc rs =
  "restart "
  ^ String.concat ", "
      (List.map (fun (p, r) -> Printf.sprintf "%d@%d" p r) rs)

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"PATH"
       ~doc:"Write a dhw-trace/v1 span file (wall-clock round/step/deliver/persist timings) to $(i,PATH); render it with the $(b,trace) subcommand.")

let horizon_arg =
  Arg.(value & opt int 32 & info [ "horizon" ] ~docv:"ROUNDS"
       ~doc:"D-online only: work units arrive at seeded random rounds in [0, $(i,ROUNDS)).")

let idle_block_arg =
  Arg.(value & opt int 4 & info [ "idle-block" ] ~docv:"ROUNDS"
       ~doc:"D-online only: idle-round block size between arrival sweeps.")

let run_cmd =
  let proto_arg =
    Arg.(value & opt string "A" & info [ "p"; "protocol" ] ~doc:"Protocol (A, B, C, C-chunked, C-naive, D, D-online, trivial, checkpoint[:k]).")
  in
  let run proto n t crashes restarts random window seed adversary trace_n
      report_fmt events trace_out horizon idle_block =
    let spec = D.Spec.make ~n ~t in
    let trace = Option.map (fun _ -> Simkit.Trace.create ()) trace_n in
    (* Wall-clock span collection is a separate sink from --events so the
       deterministic event stream stays byte-stable across machines. *)
    let spans, flush_spans =
      match trace_out with
      | None -> (None, fun _proto -> ())
      | Some path ->
          let sink, collected = Simkit.Obs.span_collector ~src:"sim" () in
          ( Some sink,
            fun proto_name ->
              Dhw_util.Spanfile.write_file
                ~meta:
                  [ ("protocol", J.Str proto_name); ("n", J.Int n);
                    ("t", J.Int t) ]
                ~source:"sim" path (collected ()) )
    in
    let finish ?latency fault_desc (report : D.Runner.report) =
      flush_spans report.D.Runner.protocol;
      (match report_fmt with
      | `Json ->
          print_endline
            (D.Report.to_string
               (D.Report.of_run ~fault:fault_desc ?latency report))
      | `Text ->
          Format.printf "%a@." D.Runner.pp report;
          (match latency with
          | Some l -> Format.printf "latency: %s@." (J.to_string l)
          | None -> ());
          Format.printf "verdict: %s@."
            (if D.Runner.correct report then "CORRECT" else "INCORRECT");
          (match (trace, trace_n) with
          | Some tr, Some limit ->
              Simkit.Trace.pp ~limit Format.std_formatter tr
          | _ -> ()));
      exit_run
        ~ok:(D.Runner.correct report)
        (match report.D.Runner.outcome with
        | Simkit.Kernel.Completed -> `Completed
        | Simkit.Kernel.Stalled _ -> `Stalled
        | Simkit.Kernel.Round_limit _ -> `Limit)
    in
    if restarts <> [] then begin
      match D.Fuzz.recovery_which_of_name proto with
      | None ->
          prerr_endline
            ("--restarts needs a protocol with a recovery hook (A or B), got "
            ^ proto);
          exit 2
      | Some which ->
          if random <> None || adversary <> None then begin
            prerr_endline
              "--restarts combines only with --crash, not \
               --random/--kill-active-every";
            exit 2
          end;
          let entry mode (victim, at) =
            { Simkit.Campaign.Schedule.victim; at; mode }
          in
          let sched =
            Simkit.Campaign.Schedule.make
              (List.map (entry Simkit.Campaign.Schedule.Silent) crashes
              @ List.map (entry Simkit.Campaign.Schedule.Restart) restarts)
          in
          let fault = Simkit.Campaign.Schedule.to_fault sched in
          let fault_desc =
            match crashes with
            | [] -> restart_desc restarts
            | cs -> crash_desc cs ^ "; " ^ restart_desc restarts
          in
          finish fault_desc
            (with_events events (fun obs ->
                 D.Recovery.run ~fault ?trace ?obs ?spans spec which))
    end
    else if
      String.lowercase_ascii proto = "d-online"
      || String.lowercase_ascii proto = "donline"
    then begin
      (* Online Do-All: units arrive over time (seeded by --seed), and the
         report gains a latency section with arrival-to-completion
         percentiles over the surviving units. *)
      let arrivals =
        D.Latency.gen_arrivals ~seed:(Int64.of_int seed) ~n_units:n ~sites:t
          ~horizon
      in
      let cfg = { D.Protocol_d_online.arrivals; horizon; idle_block } in
      let p = D.Protocol_d_online.protocol cfg in
      let lat = D.Latency.create ~arrivals in
      let fault, fault_desc =
        build_fault ~t ~crashes ~random ~window ~seed ~adversary
      in
      let report =
        with_events events (fun obs ->
            let obs =
              match obs with
              | None -> Some (D.Latency.sink lat)
              | Some o -> Some (Simkit.Obs.tee [ o; D.Latency.sink lat ])
            in
            D.Runner.run ~fault ?trace ?obs ?spans spec p)
      in
      finish ~latency:(D.Latency.to_json lat) fault_desc report
    end
    else
      match
        protocol_of_name ~accepted:(crash_protocol_names ^ ", D-online") proto
      with
      | Error (`Msg m) -> prerr_endline m; exit 2
      | Ok p ->
          let fault, fault_desc =
            build_fault ~t ~crashes ~random ~window ~seed ~adversary
          in
          finish fault_desc
            (with_events events (fun obs ->
                 D.Runner.run ~fault ?trace ?obs ?spans spec p))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a Do-All protocol under a fault schedule")
    Term.(
      const run $ proto_arg $ n_arg $ t_arg $ crashes_arg $ restarts_arg
      $ random_arg $ window_arg $ seed_arg $ adversary_arg $ trace_arg
      $ report_arg $ events_arg $ trace_out_arg $ horizon_arg
      $ idle_block_arg)

let timeline_cmd =
  let proto_arg =
    Arg.(value & opt string "A" & info [ "p"; "protocol" ] ~doc:"Protocol (A, B, C, C-chunked, C-naive, D, trivial, checkpoint[:k]).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the timeline as JSON (schema dhw-timeline/v3) instead of ASCII sparklines.")
  in
  let width_arg =
    Arg.(value & opt int 64 & info [ "width" ] ~docv:"COLS"
         ~doc:"Maximum sparkline width; longer runs are bucketed down to it.")
  in
  let run proto n t crashes random window seed adversary json width =
    match protocol_of_name proto with
    | Error (`Msg m) -> prerr_endline m; exit 2
    | Ok p ->
        let spec = D.Spec.make ~n ~t in
        let fault, fault_desc =
          build_fault ~t ~crashes ~random ~window ~seed ~adversary
        in
        let tl = Simkit.Obs.Timeline.create ~n_processes:t ~n_units:n in
        let report =
          D.Runner.run ~fault ~obs:(Simkit.Obs.Timeline.sink tl) spec p
        in
        if json then
          print_endline (J.pretty (Simkit.Obs.Timeline.to_json tl))
        else begin
          Format.printf "%s on %a  fault: %s@." report.D.Runner.protocol
            D.Spec.pp spec fault_desc;
          Simkit.Obs.Timeline.pp ~width Format.std_formatter tl
        end;
        if not (D.Runner.correct report) then exit 1
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Run a protocol and render its per-round timeline (ASCII sparklines or JSON)")
    Term.(
      const run $ proto_arg $ n_arg $ t_arg $ crashes_arg $ random_arg
      $ window_arg $ seed_arg $ adversary_arg $ json_arg $ width_arg)

let ba_cmd =
  let value_arg = Arg.(value & opt int 1 & info [ "value" ] ~doc:"General's value.") in
  let tb_arg = Arg.(value & opt int 8 & info [ "t" ] ~doc:"Failure bound (senders = t+1).") in
  let proto_arg =
    Arg.(value & opt string "A" & info [ "p"; "protocol" ] ~doc:"Sender protocol (A, B, C, C-chunked).")
  in
  let cut_arg =
    Arg.(value & opt (some int) None & info [ "general-cut" ] ~docv:"K"
         ~doc:"General crashes mid-broadcast after informing $(i,K) senders.")
  in
  let run n t_bound value proto crashes cut =
    let wp =
      match String.lowercase_ascii proto with
      | "a" -> Agreement.Crash_ba.A
      | "b" -> Agreement.Crash_ba.B
      | "c" -> Agreement.Crash_ba.C
      | "c-chunked" | "cchunked" -> Agreement.Crash_ba.C_chunked
      | other -> prerr_endline ("unknown sender protocol: " ^ other); exit 2
    in
    let o = Agreement.Crash_ba.run ~n ~t_bound ~value ~crash_at:crashes ?general_cut:cut wp in
    Format.printf
      "agreement=%b validity=%b messages=%d (work-protocol %d) rounds=%d sender-work=%d@."
      o.agreement o.validity o.messages o.work_messages o.rounds o.sender_work;
    if not (o.agreement && o.validity) then exit 1
  in
  Cmd.v
    (Cmd.info "ba" ~doc:"Byzantine agreement (crash model) via a work protocol (Section 5)")
    Term.(const run $ n_arg $ tb_arg $ value_arg $ proto_arg $ crashes_arg $ cut_arg)

let async_cmd =
  let delay_arg = Arg.(value & opt int 5 & info [ "max-delay" ] ~doc:"Max message delay.") in
  let lag_arg = Arg.(value & opt int 8 & info [ "max-lag" ] ~doc:"Max failure-detector lag.") in
  let drop_arg =
    Arg.(value & opt int 0 & info [ "drop" ] ~docv:"BP"
         ~doc:"Per-message loss probability in basis points (2500 = 25%); pair with --hardened.")
  in
  let dup_arg =
    Arg.(value & opt int 0 & info [ "dup" ] ~docv:"BP"
         ~doc:"Per-message duplication probability in basis points.")
  in
  let slow_arg =
    Arg.(value & opt_all int [] & info [ "slow" ] ~docv:"PID"
         ~doc:"Add $(i,PID) to the slow set (repeatable).")
  in
  let slow_factor_arg =
    Arg.(value & opt int 1 & info [ "slow-factor" ] ~docv:"K"
         ~doc:"Delay bound multiplier for the slow set.")
  in
  let hardened_arg =
    Arg.(value & flag & info [ "hardened" ]
         ~doc:"Run over ack/retransmit links with organic heartbeat detection instead of the oracle detector. Required for completion under --drop.")
  in
  let run n t crashes seed max_delay max_lag drop dup slow slow_factor hardened
      report_fmt events =
    let spec = D.Spec.make ~n ~t in
    let link =
      { Asim.Event_sim.drop_bp = drop; dup_bp = dup; corrupt_bp = 0;
        slow_set = slow; slow_factor; severs = [] }
    in
    let seed = Int64.of_int seed in
    let stats = if hardened then Some (Asim.Link.stats ()) else None in
    let r =
      with_events events (fun obs ->
          if hardened then
            Asim.Async_protocol_a.run_hardened ~crash_at:crashes ~max_delay
              ~max_lag ~seed ~link ?stats ?obs spec
          else
            Asim.Async_protocol_a.run ~crash_at:crashes ~max_delay ~max_lag
              ~seed ~link ?obs spec)
    in
    let ok =
      Asim.Event_sim.completed r && Simkit.Metrics.all_units_done r.metrics
    in
    (match report_fmt with
    | `Json ->
        let outcome =
          match r.Asim.Event_sim.outcome with
          | Asim.Event_sim.Completed -> "completed"
          | Asim.Event_sim.Stalled t -> Printf.sprintf "stalled@%d" t
          | Asim.Event_sim.Tick_limit t -> Printf.sprintf "tick-limit@%d" t
        in
        let extra =
          [ ( "net",
              J.Obj
                [
                  ("sent", J.Int r.Asim.Event_sim.net.sent);
                  ("dropped", J.Int r.Asim.Event_sim.net.dropped);
                  ("duplicated", J.Int r.Asim.Event_sim.net.duplicated);
                ] ) ]
          @
          match stats with
          | Some s ->
              [ ( "link",
                  J.Obj
                    [
                      ("retransmits", J.Int s.Asim.Link.retransmits);
                      ("dups_suppressed", J.Int s.Asim.Link.dups_suppressed);
                      ("suspicions_retracted", J.Int s.Asim.Link.recoveries);
                    ] );
                ( "detector",
                  J.Obj
                    [
                      ("suspicions", J.Int s.Asim.Link.suspicions);
                      ("false_suspicions", J.Int s.Asim.Link.false_suspicions);
                      ("unsuspects", J.Int s.Asim.Link.unsuspects);
                    ] ) ]
          | None -> []
        in
        let rep =
          D.Report.make ~kind:"async"
            ~protocol:(if hardened then "async-a-hardened" else "async-a")
            ~spec ~fault:(crash_desc crashes) ~metrics:r.metrics ~outcome
            ~correct:ok ~survivors:(status_survivors r.statuses)
            ~crashed:(status_crashed r.statuses) ~extra ()
        in
        print_endline (D.Report.to_string rep)
    | `Text ->
        (match stats with
        | Some stats ->
            Format.printf
              "link: sent=%d dropped=%d duplicated=%d retransmits=%d \
               dups-suppressed=%d suspicions-retracted=%d@."
              r.Asim.Event_sim.net.sent r.Asim.Event_sim.net.dropped
              r.Asim.Event_sim.net.duplicated stats.Asim.Link.retransmits
              stats.Asim.Link.dups_suppressed stats.Asim.Link.recoveries;
            Format.printf
              "detector: suspicions=%d false-suspicions=%d unsuspects=%d@."
              stats.Asim.Link.suspicions stats.Asim.Link.false_suspicions
              stats.Asim.Link.unsuspects
        | None -> ());
        Format.printf "%a outcome=%a@." Simkit.Metrics.pp_summary r.metrics
          Asim.Event_sim.pp_outcome r.outcome;
        Format.printf "verdict: %s@." (if ok then "CORRECT" else "INCORRECT"));
    exit_run ~ok
      (match r.Asim.Event_sim.outcome with
      | Asim.Event_sim.Completed -> `Completed
      | Asim.Event_sim.Stalled _ -> `Stalled
      | Asim.Event_sim.Tick_limit _ -> `Limit)
  in
  Cmd.v
    (Cmd.info "async" ~doc:"Asynchronous Protocol A with a failure detector (Section 2.1)")
    Term.(
      const run $ n_arg $ t_arg $ crashes_arg $ seed_arg $ delay_arg $ lag_arg
      $ drop_arg $ dup_arg $ slow_arg $ slow_factor_arg $ hardened_arg
      $ report_arg $ events_arg)

let shmem_cmd =
  let algo_arg =
    Arg.(value & opt string "checkpointed" & info [ "a"; "algorithm" ]
         ~doc:"Shared-memory algorithm (checkpointed, parallel-scan).")
  in
  let run n t algo crashes report_fmt =
    let name, go =
      match String.lowercase_ascii algo with
      | "checkpointed" | "seq" ->
          ("checkpointed", Shmem.Writeall.checkpointed ~crash_at:crashes)
      | "parallel-scan" | "scan" ->
          ("parallel-scan", Shmem.Writeall.parallel_scan ~crash_at:crashes)
      | other -> prerr_endline ("unknown algorithm: " ^ other); exit 2
    in
    let o = go ~n ~t () in
    let ok =
      Shmem.Writeall.work_complete o && Shmem.Skernel.completed o.result
    in
    (match report_fmt with
    | `Json ->
        let outcome =
          match o.result.outcome with
          | Shmem.Skernel.Completed -> "completed"
          | Shmem.Skernel.Stalled r -> Printf.sprintf "stalled@%d" r
          | Shmem.Skernel.Round_limit r -> Printf.sprintf "round-limit@%d" r
        in
        let extra =
          [ ( "shmem",
              J.Obj
                [
                  ("reads", J.Int o.result.reads);
                  ("writes", J.Int o.result.writes);
                  ("aps", J.Int o.result.aps);
                  ("effort", J.Int o.effort);
                ] ) ]
        in
        let rep =
          D.Report.make ~kind:"shmem" ~protocol:name ~spec:(D.Spec.make ~n ~t)
            ~fault:(crash_desc crashes) ~metrics:o.result.metrics ~outcome
            ~correct:ok ~survivors:(status_survivors o.result.statuses)
            ~crashed:(status_crashed o.result.statuses) ~extra ()
        in
        print_endline (D.Report.to_string rep)
    | `Text ->
        Format.printf
          "work=%d reads=%d writes=%d effort=%d rounds=%d aps=%d all-done=%b %s@."
          (Simkit.Metrics.work o.result.metrics)
          o.result.reads o.result.writes o.effort
          (Simkit.Metrics.rounds o.result.metrics)
          o.result.aps
          (Shmem.Writeall.work_complete o)
          (match o.result.outcome with
          | Shmem.Skernel.Completed -> "completed"
          | Shmem.Skernel.Stalled r -> Printf.sprintf "STALLED@%d" r
          | Shmem.Skernel.Round_limit r -> Printf.sprintf "ROUND-LIMIT@%d" r));
    exit_run ~ok
      (match o.result.outcome with
      | Shmem.Skernel.Completed -> `Completed
      | Shmem.Skernel.Stalled _ -> `Stalled
      | Shmem.Skernel.Round_limit _ -> `Limit)
  in
  Cmd.v
    (Cmd.info "shmem" ~doc:"Shared-memory Write-All (Section 1.1 comparison)")
    Term.(const run $ n_arg $ t_arg $ algo_arg $ crashes_arg $ report_arg)

let bootstrap_cmd =
  let proto_arg =
    Arg.(value & opt string "A" & info [ "p"; "protocol" ] ~doc:"Work protocol (A, B, C, C-chunked).")
  in
  let run n t proto crashes =
    let wp =
      match String.lowercase_ascii proto with
      | "a" -> Agreement.Crash_ba.A
      | "b" -> Agreement.Crash_ba.B
      | "c" -> Agreement.Crash_ba.C
      | "c-chunked" | "cchunked" -> Agreement.Crash_ba.C_chunked
      | other -> prerr_endline ("unknown protocol: " ^ other); exit 2
    in
    let o = Agreement.Bootstrap.run ~n ~t ~crash_at:crashes wp in
    Format.printf
      "ok=%b  stage1: msgs=%d rounds=%d  stage2: %a  totals: msgs=%d work=%d rounds=%d@."
      o.ok o.ba.messages o.ba.rounds Doall.Runner.pp o.work o.total_messages
      o.total_work o.total_rounds;
    if not o.ok then exit 1
  in
  Cmd.v
    (Cmd.info "bootstrap"
       ~doc:"Section 1 bootstrap: agree on the pool, then perform it")
    Term.(const run $ n_arg $ t_arg $ proto_arg $ crashes_arg)

(* ------------------------------------------------------------------ *)
(* Adversary campaigns: one [fuzz] and one [replay] over five stacks.

   A stack is everything one adversary needs: its campaign runner, the
   oracle stack a replay faces, how a run and a failure print, and the
   schedule format of its corpus files. [fuzz] picks the stack from the
   protocol name (and --byz), [replay] from the schedule file, both
   through [stack_of_name]. *)

module Campaign = Simkit.Campaign
module AF = Asim.Async_fuzz

(* Usage and input errors exit 2, distinct from 1 = counterexample found. *)
let usage fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let spec_of ~n ~t =
  try D.Spec.make ~n ~t with Invalid_argument m -> usage "%s" m

(* [tracked flag arg] is [arg]'s value plus [[flag]] when the command line
   gave it, so a dispatching subcommand can reject options that do not
   apply to the stack it picked. *)
let tracked flag arg =
  Term.(
    const (fun (v, used) -> (v, if used = [] then [] else [ flag ]))
    $ with_used_args arg)

(* Campaigns always run through the parallel engine here, so --jobs 1 and
   --jobs 8 print byte-identical stats and write byte-identical corpora;
   0 means one worker domain per core. *)
let jobs_arg =
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N"
       ~doc:"Worker domains executing campaign schedules (default 0 = one per core). Campaign results are byte-identical for every value; only wall-clock time changes.")

let work_cap_arg =
  Arg.(value & opt (some int) None & info [ "work-cap" ] ~docv:"UNITS"
       ~doc:"Extra oracle asserting total work <= $(i,UNITS). Setting it below the theorem bound deliberately fails the campaign - the hook for demonstrating shrinking and replay; pass the same cap to $(b,replay). Not on the Byzantine stacks.")

(* The two schedule file formats. *)
type 's format = {
  print : 's -> string;
  pp : Format.formatter -> 's -> unit;
  cost : 's -> int;
}

let sync_format =
  { print = Campaign.Schedule.print; pp = Campaign.Schedule.pp;
    cost = Campaign.Schedule.cost }

let async_format =
  { print = Campaign.Async.print; pp = Campaign.Async.pp;
    cost = Campaign.Async.cost }

(* The campaign options of [fuzz], defaults not yet applied. *)
type fuzz_opts = {
  seed : int;
  executions : int option;
  exhaustive : bool;
  window : int option;
  restart_gap : int option;
  byz : int option;
  max_failures : int;
  jobs : int;
}

type ('s, 'r) stack = {
  name : string;  (* meta protocol of its schedules, corpus file prefix *)
  kind : string;  (* output prefix: "", "recovery ", "byz " or "async " *)
  replay_head : string;  (* the replay line's text before " n=" *)
  format : 's format;
  costed : bool;  (* shrinks to the cheapest break; failures print costs *)
  flags : string list;  (* the adversary options it takes *)
  campaign :
    fuzz_opts -> extra:'r Campaign.oracle list -> D.Spec.t ->
    string * 's Campaign.stats;  (* campaign line suffix, stats *)
  run : D.Spec.t -> 's -> 'r;
  oracles : D.Spec.t -> 's -> 'r Campaign.oracle list;
  work_cap : int -> 'r Campaign.oracle;
  pp_subject : Format.formatter -> 'r -> unit;
}

type stacked =
  | Sync of (Campaign.Schedule.t, D.Fuzz.subject) stack
  | Async of (Campaign.Async.t, AF.subject) stack

let sync_subject ppf (s : D.Fuzz.subject) = D.Runner.pp ppf s.D.Fuzz.report

let async_subject ppf (s : AF.subject) =
  Format.fprintf ppf "%a outcome=%a" Simkit.Metrics.pp_summary
    s.AF.result.Asim.Event_sim.metrics Asim.Event_sim.pp_outcome
    s.AF.result.Asim.Event_sim.outcome

(* The latest entry round: the horizon recovery and byz runs are judged
   and capped with. *)
let horizon (sched : Campaign.Schedule.t) =
  List.fold_left
    (fun acc (e : Campaign.Schedule.entry) -> max acc e.at)
    0 sched.Campaign.Schedule.entries

let byz_suffix o spec =
  let t = D.Spec.processes spec in
  match o.byz with
  | Some b when b < 0 || b >= t ->
      usage "--byz must satisfy 0 <= B < t (got %d, t = %d)" b t
  | Some b -> Printf.sprintf " byz=%d" b
  | None -> Printf.sprintf " byz=%d" (min (max 0 ((t / 3) - 1)) (t - 1))

let crash_stack name p =
  {
    name; kind = ""; replay_head = "replay: protocol=" ^ name;
    format = sync_format; costed = false;
    flags = [ "--exhaustive"; "--work-cap" ];
    campaign =
      (fun o ~extra spec ->
        if o.exhaustive then
          ( " exhaustive",
            D.Fuzz.exhaustive_campaign ~jobs:o.jobs ?window:o.window ~extra
              ~max_failures:o.max_failures spec p )
        else
          ( " sampled",
            D.Fuzz.campaign ~jobs:o.jobs ~seed:(Int64.of_int o.seed)
              ?executions:o.executions ?window:o.window ~extra
              ~max_failures:o.max_failures spec p ));
    run = (fun spec sched -> D.Fuzz.run_schedule spec p sched);
    oracles = (fun spec _ -> D.Fuzz.oracles spec ~protocol:name);
    work_cap = D.Fuzz.work_cap; pp_subject = sync_subject;
  }

let recovery_stack which =
  let name = D.Fuzz.recovery_protocol_name which in
  {
    name; kind = "recovery "; replay_head = "recovery replay: protocol=" ^ name;
    format = sync_format; costed = false;
    flags = [ "--restart-gap"; "--work-cap" ];
    campaign =
      (fun o ~extra spec ->
        let restart_gap = Option.value o.restart_gap ~default:6 in
        ( Printf.sprintf " restart-gap=%d" restart_gap,
          D.Fuzz.recovery_campaign ~jobs:o.jobs ~seed:(Int64.of_int o.seed)
            ?executions:o.executions ?window:o.window ~restart_gap ~extra
            ~max_failures:o.max_failures spec which ));
    run = (fun spec sched -> D.Fuzz.run_recovery_schedule spec which sched);
    oracles =
      (fun spec sched ->
        D.Fuzz.recovery_oracles spec which ~horizon:(horizon sched));
    work_cap = D.Fuzz.work_cap; pp_subject = sync_subject;
  }

let byz_stack hardening =
  let name = D.Fuzz.byz_protocol_name hardening in
  {
    name; kind = "byz "; replay_head = "byz replay: protocol=" ^ name;
    format = sync_format; costed = true; flags = [ "--byz" ];
    campaign =
      (fun o ~extra spec ->
        let suffix = byz_suffix o spec in
        ( suffix,
          D.Fuzz.byz_campaign ~jobs:o.jobs ~seed:(Int64.of_int o.seed)
            ?executions:o.executions ?window:o.window ?byz:o.byz ~extra
            ~max_failures:o.max_failures spec hardening ));
    run =
      (fun spec sched ->
        let max_rounds = D.Fuzz.byz_max_rounds spec ~window:(horizon sched) in
        D.Fuzz.run_byz_schedule ~max_rounds spec hardening sched);
    oracles = (fun spec _ -> D.Fuzz.byz_oracles spec ~hardening);
    work_cap = D.Fuzz.work_cap; pp_subject = sync_subject;
  }

let async_stack =
  {
    name = "async-a"; kind = "async "; replay_head = "async replay:";
    format = async_format; costed = false; flags = [ "--work-cap" ];
    campaign =
      (fun o ~extra spec ->
        ( "",
          AF.campaign ~jobs:o.jobs ~seed:(Int64.of_int o.seed)
            ?executions:o.executions ?window:o.window ~extra
            ~max_failures:o.max_failures spec ));
    run = (fun spec sched -> AF.run_schedule spec sched);
    oracles = (fun _ _ -> AF.oracles ());
    work_cap = AF.work_cap; pp_subject = async_subject;
  }

let async_byz_stack hardening =
  let name = AF.byz_protocol_name hardening in
  {
    name; kind = "byz "; replay_head = "byz replay: protocol=" ^ name;
    format = async_format; costed = true; flags = [ "--byz" ];
    campaign =
      (fun o ~extra spec ->
        let suffix = byz_suffix o spec in
        ( suffix,
          AF.byz_campaign ~jobs:o.jobs ~seed:(Int64.of_int o.seed)
            ?executions:o.executions ?window:o.window ?byz:o.byz ~extra
            ~max_failures:o.max_failures spec hardening ));
    run = (fun spec sched -> AF.run_byz_schedule spec hardening sched);
    oracles = (fun spec _ -> AF.byz_oracles spec ~hardening);
    work_cap = AF.work_cap; pp_subject = async_subject;
  }

(* The dispatch table. [byz] is --byz for fuzz and "the schedule has
   corrupt/byz entries" for replay. Names match exactly: [-p a] is the
   crash stack, never the recovery or Byzantine one. *)
let stack_of_name ~byz name =
  match (String.lowercase_ascii name, byz) with
  | "a+rec", false -> Sync (recovery_stack D.Recovery.A)
  | "b+rec", false -> Sync (recovery_stack D.Recovery.B)
  | "a+val", _ -> Sync (byz_stack D.Fuzz.Hardened)
  | "a", true -> Sync (byz_stack D.Fuzz.Unhardened)
  | "async-a", false -> Async async_stack
  | "async-a", true -> Async (async_byz_stack D.Fuzz.Unhardened)
  | "async-a+val", _ -> Async (async_byz_stack D.Fuzz.Hardened)
  | _, true ->
      usage
        "protocol %s has no Byzantine stack (a, a+val, async-a, async-a+val)"
        name
  | _, false -> (
      let accepted =
        crash_protocol_names ^ ", a+rec, b+rec, a+val, async-a, async-a+val"
      in
      match protocol_of_name ~accepted name with
      | Ok p -> Sync (crash_stack name p)
      | Error (`Msg m) -> usage "%s" m)

let reject_flags ~cmd st used =
  List.iter
    (fun flag ->
      if not (List.mem flag st.flags) then
        usage "%s: %s does not apply to protocol %s" cmd flag st.name)
    used

let pp_failure st ppf (i, (f : _ Campaign.failure)) =
  let pp = st.format.pp and cost = st.format.cost in
  Format.fprintf ppf "violation #%d: oracle=%s (%s)@." i f.Campaign.oracle
    f.Campaign.detail;
  if st.costed then begin
    Format.fprintf ppf "  schedule (cost %d): %a@." (cost f.Campaign.schedule)
      pp f.Campaign.schedule;
    Format.fprintf ppf "  cheapest break (cost %d, %d executions): %a (%s)@."
      (cost f.Campaign.shrunk) f.Campaign.shrink_executions pp
      f.Campaign.shrunk f.Campaign.shrunk_detail
  end
  else begin
    Format.fprintf ppf "  schedule: %a@." pp f.Campaign.schedule;
    Format.fprintf ppf "  shrunk (%d executions): %a (%s)@."
      f.Campaign.shrink_executions pp f.Campaign.shrunk
      f.Campaign.shrunk_detail
  end

(* Each failure becomes [<protocol>-seed<k>-<i>.sched], the shrunk schedule
   [replay] takes, plus a machine-readable [.report.json] companion: the
   oracle verdict and both the original and the shrunk schedule texts. *)
let write_corpus st ~corpus ~seed failures =
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Format.printf "  written: %s@." path
  in
  if failures <> [] && not (Sys.file_exists corpus) then Sys.mkdir corpus 0o755;
  List.iteri
    (fun i (f : _ Campaign.failure) ->
      let base =
        Filename.concat corpus (Printf.sprintf "%s-seed%d-%d" st.name seed i)
      in
      write (base ^ ".sched") (st.format.print f.Campaign.shrunk);
      write (base ^ ".report.json")
        (J.pretty
           (J.Obj
              [
                ("schema", J.Str "dhw-fuzz-failure/v1");
                ("protocol", J.Str st.name);
                ("seed", J.Int seed);
                ("index", J.Int i);
                ("oracle", J.Str f.Campaign.oracle);
                ("detail", J.Str f.Campaign.detail);
                ("schedule", J.Str (st.format.print f.Campaign.schedule));
                ("shrunk", J.Str (st.format.print f.Campaign.shrunk));
                ("shrunk_detail", J.Str f.Campaign.shrunk_detail);
                ("shrink_executions", J.Int f.Campaign.shrink_executions);
              ])
        ^ "\n"))
    failures

let fuzz st spec (o : fuzz_opts) ~work_cap ~corpus =
  let extra = Option.to_list (Option.map st.work_cap work_cap) in
  let suffix, stats = st.campaign o ~extra spec in
  Format.printf "%scampaign: protocol=%s n=%d t=%d seed=%d%s@." st.kind
    st.name (D.Spec.n spec) (D.Spec.processes spec) o.seed suffix;
  Format.printf "%a@." Campaign.pp_stats stats;
  List.iteri
    (fun i f ->
      Format.printf "%a" (pp_failure st) (i, f);
      (* one more run, printed as replay prints it, so a failure and its
         replay can be compared verbatim *)
      Format.printf "  %a@." st.pp_subject (st.run spec f.Campaign.shrunk))
    stats.Campaign.failures;
  write_corpus st ~corpus ~seed:o.seed stats.Campaign.failures;
  if stats.Campaign.failures <> [] then exit 1

let fuzz_cmd =
  let proto_arg =
    Arg.(value & opt string "A" & info [ "p"; "protocol" ]
         ~doc:"Protocol, which picks the adversary: $(b,a), $(b,b), $(b,c), $(b,c-chunked), $(b,c-naive), $(b,d), $(b,d-coord), $(b,trivial) or $(b,checkpoint[:k]) face partial-delivery crashes; $(b,a+rec) or $(b,b+rec) crash+restart storms; $(b,a+val) (or $(b,a) with $(b,--byz)) corruption/Byzantine storms; $(b,async-a) crashes plus a lossy link on the asynchronous substrate, and $(b,async-a+val) (or $(b,async-a) with $(b,--byz)) Byzantine storms there.")
  in
  let executions_arg =
    Arg.(value & opt (some int) None & info [ "executions" ]
         ~doc:"Random schedules to run (default 200, 100 for async-a; ignored with --exhaustive).")
  in
  let exhaustive_arg =
    Arg.(value & flag & info [ "exhaustive" ]
         ~doc:"Crash protocols only: enumerate every (victim set x crash round grid x mode) schedule instead of sampling; keep -t tiny.")
  in
  let window_opt_arg =
    Arg.(value & opt (some int) None & info [ "window" ] ~docv:"ROUNDS"
         ~doc:"Fault round (async: tick) window (default: twice the failure-free running time).")
  in
  let restart_gap_arg =
    Arg.(value & opt (some int) None & info [ "restart-gap" ] ~docv:"ROUNDS"
         ~doc:"a+rec/b+rec only: maximum downtime before a sampled restart (default 6).")
  in
  let byz_arg =
    Arg.(value & opt (some int) None & info [ "byz" ] ~docv:"B"
         ~doc:"Byzantine processes per schedule (default t/3 - 1; must satisfy 0 <= B < t). Selects the Byzantine stack for a and async-a.")
  in
  let corpus_arg =
    Arg.(value & opt string "corpus" & info [ "corpus" ] ~docv:"DIR"
         ~doc:"Directory where shrunk failing schedules are written.")
  in
  let max_failures_arg =
    Arg.(value & opt int 3 & info [ "max-failures" ]
         ~doc:"Stop after this many (shrunk) violations.")
  in
  let run proto n t seed executions (exhaustive, u1) window (restart_gap, u2)
      (byz, u3) corpus (work_cap, u4) max_failures jobs =
    let proto = String.lowercase_ascii proto in
    let st = stack_of_name ~byz:(byz <> None) proto in
    if Option.fold ~none:false ~some:(fun e -> e < 0) executions then
      usage "--executions must be >= 0";
    if Option.fold ~none:false ~some:(fun w -> w < 0) window then
      usage "--window must be >= 0";
    if jobs < 0 then usage "--jobs must be >= 0 (0 = one worker per core)";
    let jobs = if jobs = 0 then Simkit.Pool.default_jobs () else jobs in
    let spec = spec_of ~n ~t in
    let o =
      { seed; executions; exhaustive; window; restart_gap; byz; max_failures;
        jobs }
    in
    let used = List.concat [ u1; u2; u3; u4 ] in
    match st with
    | Sync st ->
        reject_flags ~cmd:"fuzz" st used;
        fuzz st spec o ~work_cap ~corpus
    | Async st ->
        reject_flags ~cmd:"fuzz" st used;
        fuzz st spec o ~work_cap ~corpus
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Adversary campaign against a protocol, shrinking every violation to a replayable corpus schedule; the protocol name picks the adversary")
    Term.(
      const run $ proto_arg $ n_arg $ t_arg $ seed_arg $ executions_arg
      $ tracked "--exhaustive" exhaustive_arg
      $ window_opt_arg
      $ tracked "--restart-gap" restart_gap_arg
      $ tracked "--byz" byz_arg $ corpus_arg
      $ tracked "--work-cap" work_cap_arg
      $ max_failures_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* Real-process deployment: net-run (and replay --real of a schedule v1
   file) *)

module Net = Dhw_net

let net_protocol_of_name name =
  match String.lowercase_ascii name with
  | "a" -> Some "a"
  | "b" -> Some "b"
  | "a+rec" -> Some "a+rec"
  | "b+rec" -> Some "b+rec"
  | _ -> None

let find_node_exe = function
  | Some p -> p
  | None ->
      let cand =
        Filename.concat (Filename.dirname Sys.executable_name) "dhw_node.exe"
      in
      if Sys.file_exists cand then cand else "dhw_node.exe"

let fresh_run_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go i =
    (* Short names: a unix-socket path tops out around 108 bytes. *)
    let d = Filename.concat base (Printf.sprintf "dhw%d-%d" (Unix.getpid ()) i) in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (i + 1)
  in
  go 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Entries a real deployment cannot realize: there is no tamper model over
   sockets, so refuse rather than silently degrade. *)
let net_check_entries (sched : Campaign.Schedule.t) =
  List.iter
    (fun (e : Campaign.Schedule.entry) ->
      match e.mode with
      | Campaign.Schedule.Corrupt _ | Campaign.Schedule.Byzantine ->
          prerr_endline
            "net-run: corrupt/byzantine entries are not realizable over real \
             sockets";
          exit 2
      | _ -> ())
    sched.Campaign.Schedule.entries

let net_runner_report spec ~protocol (res : Net.Orchestrator.result) =
  {
    D.Runner.spec;
    protocol;
    metrics = res.Net.Orchestrator.metrics;
    statuses = res.Net.Orchestrator.statuses;
    outcome = Net.Orchestrator.to_run_outcome res.Net.Orchestrator.stop;
  }

(* The sim-vs-real differential: the same schedule through the simulator
   (its own fresh fault plan — plans are stateful) and through the real
   fleet must spend identical effort. *)
let net_sim_subject spec ~protocol ~rejoin_rounds ~max_rounds sched =
  match D.Fuzz.recovery_which_of_name protocol with
  | Some which when protocol = "a+rec" || protocol = "b+rec" ->
      D.Fuzz.run_recovery_schedule ~max_rounds ~rejoin_rounds spec which sched
  | _ -> (
      match protocol_of_name protocol with
      | Ok p -> D.Fuzz.run_schedule ~max_rounds spec p sched
      | Error (`Msg m) -> prerr_endline m; exit 2)

let net_parity_check ~(sim : D.Fuzz.subject) ~(real : D.Runner.report) =
  let sm = sim.D.Fuzz.report.D.Runner.metrics and rm = real.D.Runner.metrics in
  let measures =
    [
      ("work", Simkit.Metrics.work);
      ("messages", Simkit.Metrics.messages);
      ("rounds", Simkit.Metrics.rounds);
      ("persists", Simkit.Metrics.persists);
      ("restarts", Simkit.Metrics.restarts);
      ("crashes", Simkit.Metrics.crashes);
    ]
  in
  List.filter_map
    (fun (name, f) ->
      let s = f sm and r = f rm in
      if s = r then None else Some (Printf.sprintf "%s: sim=%d real=%d" name s r))
    measures

let net_exit (res : Net.Orchestrator.result) ~ok =
  exit_run ~ok
    (match res.Net.Orchestrator.stop with
    | Net.Orchestrator.Completed -> `Completed
    | Net.Orchestrator.Stalled _ | Net.Orchestrator.Node_failure _ -> `Stalled
    | Net.Orchestrator.Round_limit _ | Net.Orchestrator.Watchdog _ -> `Limit)

let net_print_report ~report_fmt ~fault_desc ~protocol spec
    (cfg : Net.Orchestrator.config) (res : Net.Orchestrator.result) rr =
  let correct = D.Runner.correct rr in
  (match report_fmt with
  | `Json ->
      let rep =
        D.Report.make ~kind:"net" ~protocol ~spec ~fault:fault_desc
          ~metrics:res.Net.Orchestrator.metrics
          ~outcome:(Net.Orchestrator.stop_to_string res.Net.Orchestrator.stop)
          ~correct
          ~survivors:(status_survivors res.Net.Orchestrator.statuses)
          ~crashed:(status_crashed res.Net.Orchestrator.statuses)
          ~extra:(Net.Orchestrator.transport_json cfg res)
          ()
      in
      print_endline (D.Report.to_string rep)
  | `Text ->
      Format.printf "%a@." D.Runner.pp rr;
      let s = res.Net.Orchestrator.transport in
      Format.printf
        "transport: connects=%d retries=%d timeouts=%d frames=%d/%d \
         spawns=%d kills=%d respawns=%d wall=%.2fs@."
        s.Net.Transport.connects s.Net.Transport.retries
        s.Net.Transport.timeouts s.Net.Transport.frames_sent
        s.Net.Transport.frames_received res.Net.Orchestrator.spawns
        res.Net.Orchestrator.kills res.Net.Orchestrator.respawns
        res.Net.Orchestrator.wall_s;
      Format.printf "outcome: %s@."
        (Net.Orchestrator.stop_to_string res.Net.Orchestrator.stop);
      Format.printf "verdict: %s@." (if correct then "CORRECT" else "INCORRECT"));
  correct

let node_exe_arg =
  Arg.(value & opt (some string) None & info [ "node-exe" ] ~docv:"PATH"
       ~doc:"Path to the dhw_node binary (default: next to this executable).")

let addr_arg =
  Arg.(value & opt (some string) None & info [ "addr" ] ~docv:"ADDR"
       ~doc:"Control-plane address: $(b,unix:<path>) or $(b,tcp:<host>:<port>) (port 0 picks one). Default: a unix socket in a fresh temp dir.")

let watchdog_arg =
  Arg.(value & opt float 60. & info [ "watchdog" ] ~docv:"SECONDS"
       ~doc:"Wall-clock budget for the whole run.")

let io_timeout_arg =
  Arg.(value & opt float 10. & info [ "io-timeout" ] ~docv:"SECONDS"
       ~doc:"Per-RPC deadline (handshake, step, shutdown).")

let rejoin_arg =
  Arg.(value & opt int 3 & info [ "rejoin-rounds" ] ~docv:"ROUNDS"
       ~doc:"State-transfer window a restarted node spends rebooting.")

let max_rounds_arg =
  Arg.(value & opt int 10_000 & info [ "max-rounds" ] ~doc:"Round limit.")

let keep_dir_arg =
  Arg.(value & flag & info [ "keep-dir" ]
       ~doc:"Keep the run directory (sockets, checkpoints, node logs) instead of deleting it.")

let diff_arg =
  Arg.(value & flag & info [ "diff" ]
       ~doc:"Also run the identical schedule in the simulator and require effort parity (work, messages, rounds, persists, restarts, crashes).")

let copy_file src dst =
  let ic = open_in_bin src in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

(* Run a schedule against a real-process fleet; shared by net-run and
   replay --real. Returns (config, orchestrator result, runner-shaped
   report). With [~trace_out:(Some path)] the fleet runs traced: nodes and
   orchestrator write span files under the run dir and the merged
   dhw-trace/v1 stream is copied to [path] before the run dir is deleted. *)
let net_execute ~node_exe ~addr ~watchdog ~io_timeout ~rejoin_rounds
    ~max_rounds ~keep_dir ~trace_out spec ~protocol sched =
  net_check_entries sched;
  let run_dir = fresh_run_dir () in
  let addr =
    match addr with
    | Some s -> (
        match Net.Transport.addr_of_string s with
        | Ok a -> a
        | Error e -> prerr_endline e; exit 2)
    | None -> Net.Transport.Unix_sock (Filename.concat run_dir "ctl.sock")
  in
  let trace_dir =
    Option.map (fun _ -> Filename.concat run_dir "trace") trace_out
  in
  let cfg =
    Net.Orchestrator.config
      ~fault:(Campaign.Schedule.to_fault sched)
      ~max_rounds ~rejoin_rounds ~watchdog_s:watchdog ~io_timeout_s:io_timeout
      ~log_dir:run_dir ?trace_dir ~node_exe:(find_node_exe node_exe) ~addr
      ~protocol ~n:(D.Spec.n spec) ~t:(D.Spec.processes spec)
      ~ckpt_dir:(Filename.concat run_dir "ckpt") ()
  in
  let res = Net.Orchestrator.run cfg in
  (match (trace_out, trace_dir) with
  | Some out, Some dir ->
      let merged = Filename.concat dir "trace.jsonl" in
      if Sys.file_exists merged then copy_file merged out
      else Printf.eprintf "net: no merged trace at %s\n%!" merged
  | _ -> ());
  if keep_dir then Printf.eprintf "run dir kept: %s\n%!" run_dir
  else rm_rf run_dir;
  (cfg, res, net_runner_report spec ~protocol res)

let net_run_cmd =
  let proto_arg =
    Arg.(value & opt string "a+rec" & info [ "p"; "protocol" ]
         ~doc:"Protocol to deploy: $(b,a), $(b,b), $(b,a+rec) or $(b,b+rec).")
  in
  let run proto n t crashes restarts node_exe addr watchdog io_timeout
      rejoin_rounds max_rounds keep_dir diff report_fmt trace_out =
    let protocol =
      match net_protocol_of_name proto with
      | Some p -> p
      | None ->
          prerr_endline
            ("net-run: unknown protocol " ^ proto ^ " (a, b, a+rec, b+rec)");
          exit 2
    in
    let recovery = protocol = "a+rec" || protocol = "b+rec" in
    if restarts <> [] && not recovery then begin
      prerr_endline "net-run: --restarts needs a recovery protocol (a+rec or b+rec)";
      exit 2
    end;
    let spec = D.Spec.make ~n ~t in
    let entry mode (victim, at) = { Campaign.Schedule.victim; at; mode } in
    let sched =
      Campaign.Schedule.make
        ~meta:
          [ ("protocol", protocol); ("n", string_of_int n); ("t", string_of_int t) ]
        (List.map (entry Campaign.Schedule.Silent) crashes
        @ List.map (entry Campaign.Schedule.Restart) restarts)
    in
    let fault_desc =
      match (crashes, restarts) with
      | [], [] -> "none"
      | cs, [] -> crash_desc cs
      | [], rs -> restart_desc rs
      | cs, rs -> crash_desc cs ^ "; " ^ restart_desc rs
    in
    let cfg, res, rr =
      net_execute ~node_exe ~addr ~watchdog ~io_timeout ~rejoin_rounds
        ~max_rounds ~keep_dir ~trace_out spec ~protocol sched
    in
    let correct =
      net_print_report ~report_fmt ~fault_desc ~protocol spec cfg res rr
    in
    let parity_ok =
      if not diff then true
      else begin
        let sim =
          net_sim_subject spec ~protocol ~rejoin_rounds ~max_rounds sched
        in
        match net_parity_check ~sim ~real:rr with
        | [] ->
            Format.printf "diff: sim and real runs agree on every measure@.";
            true
        | ms ->
            Format.printf "diff: sim-vs-real MISMATCH (%s)@."
              (String.concat "; " ms);
            false
      end
    in
    if not parity_ok then exit 1;
    net_exit res ~ok:correct
  in
  Cmd.v
    (Cmd.info "net-run"
       ~doc:"Run a Do-All protocol as real OS processes over sockets, with SIGKILL crashes and checkpoint-recovering restarts")
    Term.(
      const run $ proto_arg $ n_arg $ t_arg $ crashes_arg $ restarts_arg
      $ node_exe_arg $ addr_arg $ watchdog_arg $ io_timeout_arg $ rejoin_arg
      $ max_rounds_arg $ keep_dir_arg $ diff_arg $ report_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* Asynchronous real-process fleet: async-net-run (and replay --real of an
   async-schedule v1 file).
   No round-lockstep control plane: dhw_node --async peers exchange
   protocol traffic and heartbeats directly over a datagram mesh, detect
   failures organically, and the runner only spawns / SIGKILLs /
   respawns / collects. *)

let async_net_check (sched : Campaign.Async.t) =
  if sched.Campaign.Async.corrupt_bp > 0 || sched.Campaign.Async.byz <> [] then begin
    prerr_endline
      "async-net-run: corrupt/byzantine entries are not realizable over real \
       sockets";
    exit 2
  end;
  List.iter
    (fun (r : Campaign.Async.crash) ->
      if
        not
          (List.exists
             (fun (c : Campaign.Async.crash) ->
               c.Campaign.Async.victim = r.Campaign.Async.victim
               && c.Campaign.Async.at < r.Campaign.Async.at)
             sched.Campaign.Async.crashes)
      then begin
        Printf.eprintf
          "async-net-run: restart %d@%d has no earlier crash of that pid\n%!"
          r.Campaign.Async.victim r.Campaign.Async.at;
        exit 2
      end)
    sched.Campaign.Async.restarts

(* The canonical stdout: protocol-level facts that are deterministic by
   construction for a given schedule — outcome of the oracle stack, unit
   coverage, multiplicity, work. Timing-dependent transport/detector
   counters go to the rich report only, so two replays of the same
   schedule print byte-identical canonical sections (the CI determinism
   leg cmps them). *)
let async_net_print_canonical spec sched (rep : Net.Fleet.report) =
  Format.printf "async-net: n=%d t=%d schedule: %a@." (D.Spec.n spec)
    (D.Spec.processes spec) Campaign.Async.pp sched;
  Format.printf "units-covered=%d/%d max-multiplicity=%d work=%d@."
    rep.Net.Fleet.units_covered (D.Spec.n spec) rep.Net.Fleet.max_multiplicity
    rep.Net.Fleet.total_work;
  Format.printf
    "oracles: completed=%b no-lost-unit=%b detector-complete=%b \
     bounded-duplication=%b@."
    rep.Net.Fleet.completed rep.Net.Fleet.no_lost_unit
    rep.Net.Fleet.detector_complete rep.Net.Fleet.bounded_dup;
  Format.printf "verdict: %s@."
    (if rep.Net.Fleet.ok then "all oracles pass" else "ORACLE FAILURE")

let async_net_rich_report ~report_fmt spec sched (rep : Net.Fleet.report) =
  let transport_totals =
    List.fold_left
      (fun (ds, rt, ab, dg, un) (nr : Net.Fleet.node_report) ->
        let c = Net.Fleet.counter nr.Net.Fleet.nr_counters in
        ( ds + c "data_sent",
          rt + c "retransmits",
          ab + c "abandoned",
          dg + c "dg_sent",
          un + c "undeliverable" ))
      (0, 0, 0, 0, 0) rep.Net.Fleet.nodes
  in
  let detector_totals =
    List.fold_left
      (fun (su, fs, us, pk) (nr : Net.Fleet.node_report) ->
        let c = Net.Fleet.counter nr.Net.Fleet.nr_counters in
        ( su + c "suspicions",
          fs + c "false_suspicions",
          us + c "unsuspects",
          pk + c "parks" ))
      (0, 0, 0, 0) rep.Net.Fleet.nodes
  in
  match report_fmt with
  | `Text ->
      let ds, rt, ab, dg, un = transport_totals in
      Format.printf
        "transport: data=%d retransmits=%d abandoned=%d datagrams=%d \
         undeliverable=%d wall=%.2fs@."
        ds rt ab dg un rep.Net.Fleet.wall_s;
      let su, fs, us, pk = detector_totals in
      Format.printf
        "detector: suspicions=%d false=%d unsuspects=%d parks=%d@." su fs us
        pk;
      let h = rep.Net.Fleet.detect_hist in
      if Dhw_util.Hist.count h > 0 then
        Format.printf "detection latency (ticks): p50=%d p99=%d max=%d@."
          (Dhw_util.Hist.quantile h 0.5)
          (Dhw_util.Hist.quantile h 0.99)
          (Dhw_util.Hist.max_value h);
      let h = rep.Net.Fleet.recover_hist in
      if Dhw_util.Hist.count h > 0 then
        Format.printf
          "false-suspicion recovery latency (ticks): p50=%d p99=%d max=%d@."
          (Dhw_util.Hist.quantile h 0.5)
          (Dhw_util.Hist.quantile h 0.99)
          (Dhw_util.Hist.max_value h)
  | `Json ->
      let ds, rt, ab, dg, un = transport_totals in
      let su, fs, us, pk = detector_totals in
      let node_json (nr : Net.Fleet.node_report) =
        J.Obj
          [
            ("pid", J.Int nr.Net.Fleet.nr_pid);
            ("incarnations", J.Int nr.Net.Fleet.nr_incarnations);
            ( "exit",
              match nr.Net.Fleet.nr_exit with
              | None -> J.Null
              | Some c -> J.Int c );
            ( "counters",
              J.Obj
                (List.map
                   (fun (k, v) -> (k, J.Int v))
                   nr.Net.Fleet.nr_counters) );
          ]
      in
      print_endline
        (J.to_string
           (J.Obj
              [
                ("kind", J.Str "async-net");
                ("protocol", J.Str "async-a");
                ("n", J.Int (D.Spec.n spec));
                ("t", J.Int (D.Spec.processes spec));
                ("schedule", J.Str (Fmt.str "%a" Campaign.Async.pp sched));
                ("ok", J.Bool rep.Net.Fleet.ok);
                ("completed", J.Bool rep.Net.Fleet.completed);
                ("no_lost_unit", J.Bool rep.Net.Fleet.no_lost_unit);
                ("detector_complete", J.Bool rep.Net.Fleet.detector_complete);
                ("bounded_duplication", J.Bool rep.Net.Fleet.bounded_dup);
                ("units_covered", J.Int rep.Net.Fleet.units_covered);
                ("max_multiplicity", J.Int rep.Net.Fleet.max_multiplicity);
                ("work", J.Int rep.Net.Fleet.total_work);
                ("kills", J.Int rep.Net.Fleet.kills);
                ("restarts", J.Int rep.Net.Fleet.restarts);
                ("wall_s", J.Float rep.Net.Fleet.wall_s);
                ( "transport",
                  J.Obj
                    [
                      ("data_sent", J.Int ds);
                      ("retransmits", J.Int rt);
                      ("abandoned", J.Int ab);
                      ("datagrams_sent", J.Int dg);
                      ("undeliverable", J.Int un);
                    ] );
                ( "detector",
                  J.Obj
                    [
                      ("suspicions", J.Int su);
                      ("false_suspicions", J.Int fs);
                      ("unsuspects", J.Int us);
                      ("parks", J.Int pk);
                      ( "detection_latency_ticks",
                        Dhw_util.Hist.to_json rep.Net.Fleet.detect_hist );
                      ( "recovery_latency_ticks",
                        Dhw_util.Hist.to_json rep.Net.Fleet.recover_hist );
                    ] );
                ("nodes", J.Arr (List.map node_json rep.Net.Fleet.nodes));
              ]))

(* The sim side of --diff: the same schedule through the asynchronous
   simulator (which treats every crash as final — restarts are a
   real-fleet notion). Work and unit coverage are the protocol-level
   measures both sides must agree on; message counts are timing-dependent
   on a real network and deliberately excluded. *)
let async_net_parity spec sched (rep : Net.Fleet.report) =
  let subject = AF.run_schedule spec sched in
  let sim_work =
    Simkit.Metrics.work subject.AF.result.Asim.Event_sim.metrics
  in
  let sim_units =
    match Campaign.first_failure [ AF.no_lost_unit ] subject with
    | None -> D.Spec.n spec
    | Some _ -> -1
  in
  List.filter_map
    (fun (name, s, r) ->
      if s = r then None else Some (Printf.sprintf "%s: sim=%d real=%d" name s r))
    [
      ("work", sim_work, rep.Net.Fleet.total_work);
      ("units", sim_units, rep.Net.Fleet.units_covered);
    ]

let async_net_exit (rep : Net.Fleet.report) ~parity =
  if rep.Net.Fleet.watchdog_fired then exit 4;
  if
    List.exists
      (fun (nr : Net.Fleet.node_report) -> nr.Net.Fleet.nr_exit = Some 3)
      rep.Net.Fleet.nodes
  then exit 3;
  if (not rep.Net.Fleet.ok) || parity <> [] then exit 1

(* Shared by async-net-run and replay --real. *)
let async_net_execute ~node_exe ~watchdog ~tick_ms ~max_ticks ~keep_dir
    ~trace_out ~diff ~report_fmt spec sched =
  async_net_check sched;
  let run_dir = fresh_run_dir () in
  let cfg =
    Net.Fleet.config ~tick_ms ~watchdog_s:watchdog ~max_ticks ~dir:run_dir
      ~node_exe:(find_node_exe node_exe) ~spec ~sched ()
  in
  let rep = Net.Fleet.run cfg in
  (match trace_out with
  | Some out ->
      Dhw_util.Spanfile.write_file
        ~meta:
          [
            ("protocol", J.Str "async-a");
            ("n", J.Int (D.Spec.n spec));
            ("t", J.Int (D.Spec.processes spec));
          ]
        ~source:"fleet" out rep.Net.Fleet.spans
  | None -> ());
  if keep_dir then Printf.eprintf "run dir kept: %s\n%!" run_dir
  else rm_rf run_dir;
  async_net_print_canonical spec sched rep;
  let parity =
    if diff then begin
      let ms = async_net_parity spec sched rep in
      (match ms with
      | [] -> Format.printf "diff: sim and real runs agree on work and units@."
      | ms ->
          Format.printf "diff: sim-vs-real MISMATCH (%s)@."
            (String.concat "; " ms));
      ms
    end
    else []
  in
  (match report_fmt with
  | `Text -> async_net_rich_report ~report_fmt:`Text spec sched rep
  | `Json -> async_net_rich_report ~report_fmt:`Json spec sched rep);
  async_net_exit rep ~parity

let tick_ms_arg =
  Arg.(value & opt int 5 & info [ "tick-ms" ] ~docv:"MS"
       ~doc:"Wall-clock quantum one protocol tick maps to.")

let max_ticks_arg =
  Arg.(value & opt int 20_000 & info [ "max-ticks" ]
       ~doc:"Per-node stall bound in ticks.")

let sever_conv =
  let parse s =
    (* SRC>DST@FROM-TO *)
    match String.split_on_char '@' s with
    | [ link; window ] -> (
        match
          (String.split_on_char '>' link, String.split_on_char '-' window)
        with
        | [ a; b ], [ f; t ] -> (
            try Ok (int_of_string a, int_of_string b, int_of_string f, int_of_string t)
            with _ -> Error (`Msg "expected SRC>DST@FROM-TO"))
        | _ -> Error (`Msg "expected SRC>DST@FROM-TO"))
    | _ -> Error (`Msg "expected SRC>DST@FROM-TO")
  in
  let print ppf (a, b, f, t) = Format.fprintf ppf "%d>%d@@%d-%d" a b f t in
  Arg.conv (parse, print)

let async_net_run_cmd =
  let drop_arg =
    Arg.(value & opt int 0 & info [ "drop" ] ~docv:"BP"
         ~doc:"Per-message loss probability in basis points (3000 = 30%).")
  in
  let dup_arg =
    Arg.(value & opt int 0 & info [ "dup" ] ~docv:"BP"
         ~doc:"Per-message duplication probability in basis points.")
  in
  let crash_arg =
    Arg.(value & opt_all crash_conv [] & info [ "crash" ] ~docv:"PID@TICK"
         ~doc:"SIGKILL $(i,PID)'s process at $(i,TICK) (repeatable).")
  in
  let restart_arg =
    Arg.(value & opt_all crash_conv [] & info [ "restart" ] ~docv:"PID@TICK"
         ~doc:"Respawn a SIGKILLed $(i,PID) at $(i,TICK) with $(b,--recover), reading its on-disk checkpoint (repeatable).")
  in
  let sever_arg =
    Arg.(value & opt_all sever_conv [] & info [ "sever" ] ~docv:"SRC>DST@FROM-TO"
         ~doc:"Cut the directed link $(i,SRC)→$(i,DST) over the tick window (repeatable).")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
         ~doc:"Also serialize the schedule to $(i,FILE) for $(b,replay --real).")
  in
  let run n t seed drop dup crashes restarts severs node_exe watchdog tick_ms
      max_ticks keep_dir trace_out diff report_fmt out =
    let spec = D.Spec.make ~n ~t in
    let sched =
      Campaign.Async.make
        ~meta:
          [
            ("protocol", "async-a");
            ("n", string_of_int n);
            ("t", string_of_int t);
          ]
        ~crashes:
          (List.map (fun (p, at) -> { Campaign.Async.victim = p; at }) crashes)
        ~restarts:
          (List.map (fun (p, at) -> { Campaign.Async.victim = p; at }) restarts)
        ~drop_bp:drop ~dup_bp:dup
        ~severs:
          (List.map
             (fun (a, b, f, t) ->
               { Campaign.Async.s_src = a; s_dst = b; s_from = f; s_to = t })
             severs)
        ~seed:(Int64.of_int seed) ()
    in
    (match out with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc (Campaign.Async.print sched);
        close_out oc);
    async_net_execute ~node_exe ~watchdog ~tick_ms ~max_ticks ~keep_dir
      ~trace_out ~diff ~report_fmt spec sched
  in
  Cmd.v
    (Cmd.info "async-net-run"
       ~doc:"Run the asynchronous Protocol A as a fleet of real dhw_node processes exchanging datagrams peer-to-peer, with organic heartbeat failure detection, seeded chaos (drop/duplicate/delay/sever), real SIGKILLs and --recover respawns")
    Term.(
      const run $ n_arg $ t_arg $ seed_arg $ drop_arg $ dup_arg $ crash_arg
      $ restart_arg $ sever_arg $ node_exe_arg $ watchdog_arg $ tick_ms_arg
      $ max_ticks_arg $ keep_dir_arg $ trace_out_arg $ diff_arg $ report_arg
      $ out_arg)

(* ------------------------------------------------------------------ *)
(* replay: one schedule file through the stack it names, in the simulator
   or, with --real, on a real fleet *)

type schedule_file =
  | Sync_file of Campaign.Schedule.t
  | Async_file of Campaign.Async.t

(* The one loader every replay goes through: the header picks the format;
   meta protocol/n/t and every pid are checked here, so a malformed file
   is a usage error (exit 2) naming its key or line. *)
let load file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  let parsed =
    if Campaign.header text = Some "async-schedule v1" then
      Result.map (fun s -> Async_file s) (Campaign.Async.parse text)
    else Result.map (fun s -> Sync_file s) (Campaign.Schedule.parse text)
  in
  let sched =
    match parsed with Ok s -> s | Error msg -> usage "parse error: %s" msg
  in
  let meta, pids =
    match sched with
    | Sync_file s -> (Campaign.Schedule.meta s, Campaign.Schedule.pids s)
    | Async_file s -> (Campaign.Async.meta s, Campaign.Async.pids s)
  in
  let meta key =
    match meta key with
    | Some v -> v
    | None -> usage "schedule file lacks meta %s" key
  in
  let count key =
    match int_of_string_opt (meta key) with
    | Some v when v >= 1 -> v
    | _ ->
        usage "schedule file: meta %s must be an integer >= 1, got %S" key
          (meta key)
  in
  let protocol = meta "protocol" in
  let n = count "n" in
  let t = count "t" in
  List.iter
    (fun (pid, line) ->
      if pid < 0 || pid >= t then
        usage "schedule file: %S names pid %d outside [0, %d) (meta t)" line
          pid t)
    pids;
  (* the async executor's ranges for the link and delay fields *)
  (match sched with
  | Sync_file _ -> ()
  | Async_file s ->
      let field key v ~lo ?hi () =
        match hi with
        | Some hi when v < lo || v > hi ->
            usage "schedule file: %s must lie in [%d, %d], got %d" key lo hi v
        | None when v < lo -> usage "schedule file: %s must be >= %d, got %d" key lo v
        | _ -> ()
      in
      let open Campaign.Async in
      field "link drop" s.drop_bp ~lo:0 ~hi:9_999 ();
      field "link dup" s.dup_bp ~lo:0 ~hi:10_000 ();
      field "corrupt" s.corrupt_bp ~lo:0 ~hi:9_999 ();
      field "slow factor" s.slow_factor ~lo:1 ();
      field "delay" s.max_delay ~lo:1 ();
      field "lag" s.max_lag ~lo:1 ());
  (sched, protocol, D.Spec.make ~n ~t)

let replay st spec sched ~work_cap =
  if work_cap <> None then reject_flags ~cmd:"replay" st [ "--work-cap" ];
  let subject = st.run spec sched in
  let oracles =
    st.oracles spec sched @ Option.to_list (Option.map st.work_cap work_cap)
  in
  Format.printf "%s n=%d t=%d%s schedule: %a@." st.replay_head (D.Spec.n spec)
    (D.Spec.processes spec)
    (if st.costed then Printf.sprintf " cost=%d" (st.format.cost sched) else "")
    st.format.pp sched;
  Format.printf "  %a@." st.pp_subject subject;
  match Campaign.first_failure oracles subject with
  | None -> Format.printf "verdict: all oracles pass@."
  | Some (oracle, detail) ->
      Format.printf "verdict: oracle=%s FAILS (%s)@." oracle detail;
      exit 1

(* A schedule v1 file on the lockstep fleet: judged by the oracle stack
   its simulator replay faces, and always checked for sim-vs-real effort
   parity. *)
let net_replay ~node_exe ~addr ~watchdog ~io_timeout ~rejoin_rounds
    ~max_rounds ~keep_dir ~trace_out st spec sched =
  let protocol =
    match net_protocol_of_name st.name with
    | Some p -> p
    | None ->
        usage
          "replay --real: protocol %s has no real-process deployment (a, b, \
           a+rec, b+rec)"
          st.name
  in
  let _cfg, res, rr =
    net_execute ~node_exe ~addr ~watchdog ~io_timeout ~rejoin_rounds
      ~max_rounds ~keep_dir ~trace_out spec ~protocol sched
  in
  Format.printf "net replay: protocol=%s n=%d t=%d schedule: %a@." protocol
    (D.Spec.n spec) (D.Spec.processes spec) Campaign.Schedule.pp sched;
  Format.printf "  %a@." D.Runner.pp rr;
  Format.printf "  outcome: %s@."
    (Net.Orchestrator.stop_to_string res.Net.Orchestrator.stop);
  let subject = { D.Fuzz.report = rr; trace = res.Net.Orchestrator.trace } in
  let oracle_failure = Campaign.first_failure (st.oracles spec sched) subject in
  (match oracle_failure with
  | None -> Format.printf "oracles: all pass@."
  | Some (oracle, detail) ->
      Format.printf "oracles: %s FAILS (%s)@." oracle detail);
  let sim = net_sim_subject spec ~protocol ~rejoin_rounds ~max_rounds sched in
  let parity = net_parity_check ~sim ~real:rr in
  (match parity with
  | [] -> Format.printf "diff: sim and real runs agree on every measure@."
  | ms ->
      Format.printf "diff: sim-vs-real MISMATCH (%s)@."
        (String.concat "; " ms));
  if oracle_failure <> None || parity <> [] then exit 1;
  net_exit res ~ok:true

let replay_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Schedule file written by fuzz or async-net-run --out, or hand-written. Its header (schedule v1 or async-schedule v1) picks the substrate, its meta protocol the hardening, and corrupt/byz entries (or a corrupt rate) the Byzantine stack.")
  in
  let real_arg =
    Arg.(value & flag & info [ "real" ]
         ~doc:"Run the schedule on real dhw_node processes: a schedule v1 file on the lockstep fleet (judged by the simulator's oracle stack, sim-vs-real parity always checked), an async-schedule v1 file on the async fleet (parity with $(b,--diff)).")
  in
  let sync_real =
    [ "--node-exe"; "--addr"; "--watchdog"; "--io-timeout"; "--rejoin-rounds";
      "--max-rounds"; "--keep-dir"; "--trace-out" ]
  and async_real =
    [ "--node-exe"; "--watchdog"; "--tick-ms"; "--max-ticks"; "--keep-dir";
      "--trace-out"; "--diff"; "--report" ]
  in
  let run file work_cap real (node_exe, u1) (addr, u2) (watchdog, u3)
      (io_timeout, u4) (rejoin_rounds, u5) (max_rounds, u6) (keep_dir, u7)
      (trace_out, u8) (tick_ms, u9) (max_ticks, u10) (diff, u11)
      (report_fmt, u12) =
    let sched, protocol, spec = load file in
    let used =
      List.concat [ u1; u2; u3; u4; u5; u6; u7; u8; u9; u10; u11; u12 ]
    in
    if real && work_cap <> None then
      usage "replay: --work-cap does not apply with --real";
    if (not real) && used <> [] then
      usage "replay: %s needs --real" (List.hd used);
    let only allowed what =
      List.iter
        (fun f ->
          if not (List.mem f allowed) then
            usage "replay --real: %s does not apply to %s files" f what)
        used
    in
    match sched with
    | Sync_file s -> (
        let byz =
          List.exists
            (fun (e : Campaign.Schedule.entry) ->
              match e.mode with
              | Campaign.Schedule.Corrupt _ | Campaign.Schedule.Byzantine ->
                  true
              | _ -> false)
            s.Campaign.Schedule.entries
        in
        match stack_of_name ~byz protocol with
        | Async _ ->
            usage "replay: protocol %s needs an async-schedule v1 file" protocol
        | Sync st when real ->
            only sync_real "schedule v1";
            net_replay ~node_exe ~addr ~watchdog ~io_timeout ~rejoin_rounds
              ~max_rounds ~keep_dir ~trace_out st spec s
        | Sync st -> replay st spec s ~work_cap)
    | Async_file s -> (
        let byz =
          s.Campaign.Async.byz <> [] || s.Campaign.Async.corrupt_bp > 0
        in
        match stack_of_name ~byz protocol with
        | Sync _ ->
            usage "replay: protocol %s needs a schedule v1 file" protocol
        | Async st when real ->
            only async_real "async-schedule v1";
            if st.name <> "async-a" then
              usage
                "replay --real: protocol %s has no real-process deployment \
                 (async-a)"
                protocol;
            async_net_execute ~node_exe ~watchdog ~tick_ms ~max_ticks ~keep_dir
              ~trace_out ~diff ~report_fmt spec s
        | Async st -> replay st spec s ~work_cap)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-run a schedule file and re-judge it with the oracle stack it names; with --real, on a real process fleet")
    Term.(
      const run $ file_arg $ work_cap_arg $ real_arg
      $ tracked "--node-exe" node_exe_arg
      $ tracked "--addr" addr_arg
      $ tracked "--watchdog" watchdog_arg
      $ tracked "--io-timeout" io_timeout_arg
      $ tracked "--rejoin-rounds" rejoin_arg
      $ tracked "--max-rounds" max_rounds_arg
      $ tracked "--keep-dir" keep_dir_arg
      $ tracked "--trace-out" trace_out_arg
      $ tracked "--tick-ms" tick_ms_arg
      $ tracked "--max-ticks" max_ticks_arg
      $ tracked "--diff" diff_arg
      $ tracked "--report" report_arg)


let trace_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"A dhw-trace/v1 span file (per-pid, control-plane, or merged).")
  in
  let chrome_arg =
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"PATH"
         ~doc:"Export Chrome trace-event JSON (open in chrome://tracing or ui.perfetto.dev) to $(i,PATH); $(b,-) writes to stdout.")
  in
  let width_arg =
    Arg.(value & opt int 64 & info [ "width" ] ~docv:"COLS"
         ~doc:"ASCII timeline width in columns.")
  in
  let run file chrome width =
    match Dhw_util.Spanfile.read_file file with
    | Error e -> prerr_endline ("trace: " ^ e); exit 2
    | Ok { Dhw_util.Spanfile.spans; _ } -> (
        let spans = Dhw_util.Spanfile.merge [ spans ] in
        match chrome with
        | Some path ->
            let j = J.pretty (Dhw_util.Spanfile.to_chrome spans) in
            if path = "-" then print_endline j
            else begin
              let oc = open_out path in
              output_string oc j;
              output_char oc '\n';
              close_out oc;
              Printf.printf "wrote %s (%d spans)\n" path (List.length spans)
            end
        | None -> Dhw_util.Spanfile.render ~width Format.std_formatter spans)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Render a dhw-trace/v1 span file as per-pid ASCII timelines, or export it as Chrome trace-event JSON")
    Term.(const run $ file_arg $ chrome_arg $ width_arg)

let () =
  let doc = "Do-All protocols of Dwork, Halpern and Waarts (PODC 1992)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "doall_cli" ~doc)
          [ run_cmd; timeline_cmd; ba_cmd; async_cmd; shmem_cmd; bootstrap_cmd;
            fuzz_cmd; replay_cmd; net_run_cmd; async_net_run_cmd; trace_cmd ]))
