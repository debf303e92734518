(* The kernel's original scheduling rule, kept as an executable
   specification: every processed round sweeps all t pids in pid order and
   asks the fault plan about each live one — silently dead? Byzantine? —
   before stepping the pids that have mail or a due wakeup. The next round
   is found by scanning every wakeup. Slow (O(t) per round) and obviously
   faithful to the fault model; [Simkit.Kernel.run] must agree with it on
   metrics, statuses, outcome, trace and observability events for every
   plan that honours the [Fault.crashed_by] contract. Spans are not
   modelled. *)

open Simkit
open Types

let run ?recover ?metrics (cfg : 'm Kernel.config) (proc : ('s, 'm) process) :
    'm Kernel.result =
  let t = cfg.n_processes in
  let fault = cfg.fault in
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Metrics.create ~n_processes:t ~n_units:cfg.n_units
  in
  let recover =
    match recover with Some f -> f | None -> fun pid _ -> proc.init pid
  in
  let statuses = Array.make t Running in
  let wakeups = Array.make t (-1) in
  let states =
    Array.init t (fun pid ->
        let s, w = proc.init pid in
        (match w with
        | Some w0 when w0 < 0 -> invalid_arg "Ref_kernel.run: negative wakeup"
        | Some w0 -> wakeups.(pid) <- w0
        | None -> ());
        s)
  in
  let byz_from pid = Fault.byzantine_from fault pid in
  let armed = Option.is_some cfg.tamper in
  if armed then
    for pid = 0 to t - 1 do
      match byz_from pid with
      | Some b0 ->
          wakeups.(pid) <- (if wakeups.(pid) < 0 then b0 else min wakeups.(pid) b0)
      | None -> ()
    done;
  let emit e =
    (match cfg.trace with Some tr -> Trace.record tr e | None -> ());
    match cfg.obs with Some sink -> sink (Obs.of_trace_event e) | None -> ()
  in
  let tamper_ev pid r =
    match cfg.obs with Some sink -> sink (Obs.Tamper { pid; at = r }) | None -> ()
  in
  let restart_queue =
    ref (List.sort compare (List.map (fun (p, r) -> (r, p)) (Fault.restarts fault)))
  in
  let applicable (rr, pid) =
    pid >= 0 && pid < t
    && match statuses.(pid) with Crashed rc -> rr > rc | _ -> false
  in
  let apply_restarts r =
    let rec go () =
      match !restart_queue with
      | (rr, pid) :: rest when rr <= r ->
          restart_queue := rest;
          if applicable (rr, pid) then begin
            statuses.(pid) <- Running;
            let s, w = recover pid r in
            states.(pid) <- s;
            wakeups.(pid) <- Option.value ~default:(-1) w;
            Fault.note_restart fault pid r;
            Metrics.record_restart metrics pid r;
            emit (Trace.Restarted_ev { pid; round = r })
          end;
          go ()
      | _ -> ()
    in
    go ()
  in
  (* messages sent in round [fst], delivered at [fst + 1] *)
  let pending : (round * 'm envelope list array) option ref = ref None in
  let commit_crash pid r =
    statuses.(pid) <- Crashed r;
    Metrics.record_crash metrics pid r;
    emit (Trace.Crashed_ev { pid; round = r })
  in
  let step out any_sent pid r mail =
    let due = wakeups.(pid) >= 0 && wakeups.(pid) <= r in
    if mail <> [] || due then begin
      emit (Trace.Stepped { pid; round = r });
      let o = proc.step pid r states.(pid) mail in
      let commit_work () =
        List.iter
          (fun u ->
            Metrics.record_work metrics pid u;
            emit (Trace.Worked { pid; round = r; unit_id = u }))
          o.work
      in
      let commit_sends sends =
        List.iter
          (fun { dst; payload } ->
            Metrics.record_send metrics pid;
            emit (Trace.Sent { src = pid; dst; round = r; what = cfg.show payload });
            if dst >= 0 && dst < t then begin
              out.(dst) <- { src = pid; sent_at = r; payload } :: out.(dst);
              any_sent := true
            end)
          sends
      in
      let view =
        {
          Fault.sv_pid = pid;
          sv_round = r;
          sv_sends = List.length o.sends;
          sv_works = List.length o.work;
          sv_terminating = o.terminate;
          sv_works_done_before = Metrics.work_by metrics pid;
        }
      in
      match Fault.on_step fault view with
      | Fault.Survive ->
          states.(pid) <- o.state;
          commit_work ();
          let sends =
            match cfg.tamper with
            | Some tm when o.sends <> [] -> (
                match Fault.corrupts fault pid r with
                | Some tam ->
                    List.map
                      (fun { dst; payload } ->
                        Metrics.record_corruption metrics;
                        tamper_ev pid r;
                        { dst; payload = tm.mutate tam ~src:pid ~dst ~at:r payload })
                      o.sends
                | None -> o.sends)
            | _ -> o.sends
          in
          commit_sends sends;
          Metrics.record_round metrics r;
          if o.terminate then begin
            statuses.(pid) <- Terminated r;
            wakeups.(pid) <- -1;
            Metrics.record_terminate metrics pid r;
            emit (Trace.Terminated_ev { pid; round = r })
          end
          else begin
            match o.wakeup with
            | Some w when w <= r -> invalid_arg "Ref_kernel.run: non-future wakeup"
            | Some w -> wakeups.(pid) <- w
            | None -> wakeups.(pid) <- -1
          end
      | Fault.Crash { keep_work; delivery } ->
          let delivered, dropped = Fault.apply_delivery delivery o.sends in
          if keep_work || delivered <> [] then commit_work ();
          commit_sends delivered;
          List.iter
            (fun { dst; payload } ->
              emit (Trace.Dropped { src = pid; dst; round = r; what = cfg.show payload }))
            dropped;
          wakeups.(pid) <- -1;
          Metrics.record_round metrics r;
          commit_crash pid r
    end
  in
  let round_body r =
    apply_restarts r;
    let inbox =
      match !pending with
      | Some (sent_at, boxes) when sent_at + 1 = r ->
          pending := None;
          boxes
      | _ -> Array.make t []
    in
    let out = Array.make t [] and any_sent = ref false in
    for pid = 0 to t - 1 do
      if statuses.(pid) = Running then begin
        let b0 = byz_from pid in
        let reached = match b0 with Some b -> b <= r | None -> false in
        if Fault.crashed_by fault pid r || ((not armed) && reached) then
          commit_crash pid r
        else if armed && reached then begin
          (match cfg.tamper with
          | Some tm ->
              List.iter
                (fun { dst; payload } ->
                  Metrics.record_corruption metrics;
                  tamper_ev pid r;
                  if dst >= 0 && dst < t then begin
                    out.(dst) <- { src = pid; sent_at = r; payload } :: out.(dst);
                    any_sent := true
                  end)
                (tm.forge pid ~at:r)
          | None -> ());
          wakeups.(pid) <- r + 1
        end
        else step out any_sent pid r inbox.(pid)
      end
    done;
    if !any_sent then
      pending :=
        Some (r, Array.map (List.sort (fun a b -> compare a.src b.src)) out)
  in
  let next_round () =
    let c = ref max_int in
    Array.iteri
      (fun pid w -> if statuses.(pid) = Running && w >= 0 && w < !c then c := w)
      wakeups;
    (match !pending with Some (s, _) -> c := min !c (s + 1) | None -> ());
    List.iter (fun (rr, p) -> if applicable (rr, p) then c := min !c rr) !restart_queue;
    !c
  in
  let all_retired () =
    let ok = ref true in
    for pid = 0 to t - 1 do
      if not (is_retired statuses.(pid) || (armed && byz_from pid <> None)) then
        ok := false
    done;
    !ok
  in
  let rec loop r =
    if r > cfg.max_rounds then Kernel.Round_limit r
    else begin
      round_body r;
      if all_retired () && not (List.exists applicable !restart_queue) then
        Kernel.Completed
      else
        let r' = next_round () in
        if r' = max_int then Kernel.Stalled r else loop r'
    end
  in
  let outcome =
    let r0 = next_round () in
    if r0 = max_int then
      if Array.for_all is_retired statuses then Kernel.Completed
      else Kernel.Stalled 0
    else loop r0
  in
  { Kernel.metrics; statuses; outcome }
