open Types

type run_outcome = Completed | Stalled of round | Round_limit of round

type 'm result = {
  metrics : Metrics.t;
  statuses : status array;
  outcome : run_outcome;
}

type 'm tamper_model = {
  mutate : Fault.tamper -> src:pid -> dst:pid -> at:round -> 'm -> 'm;
  forge : pid -> at:round -> 'm send list;
}

type 'm config = {
  n_processes : int;
  n_units : int;
  fault : Fault.t;
  max_rounds : round;
  trace : Trace.t option;
  obs : Obs.sink option;
  show : 'm -> string;
  spans : Obs.sink option;
  tamper : 'm tamper_model option;
}

let config ?(fault = Fault.none) ?(max_rounds = max_int / 2) ?trace ?obs
    ?(show = fun _ -> "<msg>") ?spans ?tamper ~n_processes ~n_units () =
  { n_processes; n_units; fault; max_rounds; trace; obs; show; spans; tamper }

(* The round loop is written to allocate nothing of its own: inboxes are a
   pair of preallocated per-destination arrays (messages sent in round r into
   one buffer while the other is being consumed, swapped each delivery),
   wakeups live in an int array (-1 = none) shadowed by a lazy binary
   min-heap so the next active round is found in O(log t) instead of an O(t)
   scan, and every trace/obs event is constructed only when a sink is
   actually attached. Each visited round touches only the pids that have
   something to do: a due wakeup, mail, or a fault deadline. The deadlines —
   the round a pid silently dies and the round it turns Byzantine — are read
   from the fault plan once per incarnation and share the wakeup heap, but
   never make a round visited: like the adversary's silent crash, they take
   effect at the next round the kernel processes anyway. *)

let run ?recover ?metrics cfg proc =
  let t = cfg.n_processes in
  if t <= 0 then invalid_arg "Kernel.run: need at least one process";
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Metrics.create ~n_processes:t ~n_units:cfg.n_units
  in
  (* Default recovery: volatile state is lost, the process re-initialises
     from scratch (amnesiac rejoin). Recovery-aware harnesses supply a hook
     that reads stable storage instead. *)
  let recover =
    match recover with Some f -> f | None -> fun pid _r -> proc.init pid
  in
  let trivial = Fault.is_trivial cfg.fault in
  let observing = Option.is_some cfg.trace || Option.is_some cfg.obs in
  let has_obs = Option.is_some cfg.obs in
  let statuses = Array.make t Running in
  let wakeups = Array.make t (-1) in
  (* Fault deadlines of the current incarnation; max_int = never. [death]
     includes a Byzantine activation degraded to a silent crash (no tamper
     model); [subverted_at] is the activation round when a model is armed. *)
  let death = Array.make t max_int in
  let subverted_at = Array.make t max_int in

  (* Lazy min-heap over (round, key), lexicographic. Key p < t is pid p's
     wakeup, key t + p its fault deadline. Entries are pushed on every
     change and validated when they surface, so stale entries cost one pop
     each, ever. *)
  let heap_w = ref (Array.make (max 8 (2 * t)) 0) in
  let heap_p = ref (Array.make (max 8 (2 * t)) 0) in
  let heap_n = ref 0 in
  let heap_less i j =
    let hw = !heap_w in
    hw.(i) < hw.(j) || (hw.(i) = hw.(j) && !heap_p.(i) < !heap_p.(j))
  in
  let heap_swap i j =
    let hw = !heap_w and hp = !heap_p in
    let w = hw.(i) and p = hp.(i) in
    hw.(i) <- hw.(j);
    hp.(i) <- hp.(j);
    hw.(j) <- w;
    hp.(j) <- p
  in
  let heap_push w p =
    if !heap_n = Array.length !heap_w then begin
      let cap = 2 * !heap_n in
      let nw = Array.make cap 0 and np = Array.make cap 0 in
      Array.blit !heap_w 0 nw 0 !heap_n;
      Array.blit !heap_p 0 np 0 !heap_n;
      heap_w := nw;
      heap_p := np
    end;
    !heap_w.(!heap_n) <- w;
    !heap_p.(!heap_n) <- p;
    incr heap_n;
    let i = ref (!heap_n - 1) in
    while !i > 0 && heap_less !i ((!i - 1) / 2) do
      heap_swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let heap_pop () =
    (* caller guarantees non-empty; returns nothing — read top first *)
    decr heap_n;
    if !heap_n > 0 then begin
      heap_swap 0 !heap_n;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < !heap_n && heap_less l !s then s := l;
        if r < !heap_n && heap_less r !s then s := r;
        if !s = !i then continue := false
        else begin
          heap_swap !i !s;
          i := !s
        end
      done
    end
  in
  let entry_valid w k =
    if k < t then statuses.(k) = Running && wakeups.(k) = w
    else
      let p = k - t in
      statuses.(p) = Running && (death.(p) = w || subverted_at.(p) = w)
  in
  (* The pids to visit in the coming round. They arrive in pid order unless
     a deadline is queued behind a larger pid (wakeup keys pop before
     deadline keys, and [heap_peek] queues deadlines of earlier rounds);
     only then does the list need sorting. A pid may be listed more than
     once (a wakeup and a deadline, or an entry pushed twice); sorting
     makes the copies adjacent and the visit skips them. *)
  let due = ref (Array.make (max 8 t) 0) in
  let due_n = ref 0 in
  let due_sorted = ref true in
  let queue_due p =
    let d = !due in
    let n = !due_n in
    if n = Array.length d then begin
      let d' = Array.make (2 * n) 0 in
      Array.blit d 0 d' 0 n;
      due := d'
    end;
    if n > 0 && !due.(n - 1) > p then due_sorted := false;
    !due.(n) <- p;
    due_n := n + 1
  in
  (* Smallest valid wakeup below [bound], else [bound]. A valid deadline
     that surfaces on top lies below [bound] and at or below every wakeup,
     so whichever round is visited next is at or past it: it is queued for
     that round rather than allowed to make one. *)
  let rec heap_peek bound =
    if !heap_n = 0 || !heap_w.(0) >= bound then bound
    else
      let w = !heap_w.(0) and k = !heap_p.(0) in
      if k < t && entry_valid w k then w
      else begin
        heap_pop ();
        if k >= t && entry_valid w k then queue_due (k - t);
        heap_peek bound
      end
  in
  let set_wakeup p w =
    wakeups.(p) <- w;
    if w >= 0 then heap_push w p
  in
  (* Read the incarnation's deadlines off the plan (at the start, and after
     every committed revival at [from]). *)
  let arm_deadlines pid ~from =
    let b = Fault.byzantine_from cfg.fault pid in
    let d =
      Option.value ~default:max_int
        (Fault.first_crash cfg.fault pid ~from ~upto:cfg.max_rounds)
    in
    (death.(pid) <-
       match (cfg.tamper, b) with None, Some b0 -> min d b0 | _ -> d);
    (subverted_at.(pid) <-
       match (cfg.tamper, b) with Some _, Some b0 -> b0 | _ -> max_int);
    if death.(pid) < max_int then heap_push death.(pid) (t + pid);
    if subverted_at.(pid) < max_int then heap_push subverted_at.(pid) (t + pid)
  in
  (* A subverted pid never terminates; completion is the honest pids'
     affair. Without a tamper model every pid is honest: Byzantine entries
     degrade to crashes and every pid still retires. *)
  let honest pid =
    Option.is_none cfg.tamper || Option.is_none (Fault.byzantine_from cfg.fault pid)
  in
  let live_honest = ref 0 in
  let retire pid = if honest pid then decr live_honest in

  let states =
    Array.init t (fun pid ->
        let s, w = proc.init pid in
        (match w with
        | Some w0 when w0 < 0 ->
            invalid_arg "Kernel.run: negative initial wakeup"
        | Some w0 -> set_wakeup pid w0
        | None -> wakeups.(pid) <- -1);
        s)
  in
  for pid = 0 to t - 1 do
    if honest pid then incr live_honest;
    arm_deadlines pid ~from:0;
    (* A subverted pid must be scheduled at its activation round even if the
       protocol put it to sleep beyond it. *)
    let b0 = subverted_at.(pid) in
    if b0 < max_int then
      set_wakeup pid (match wakeups.(pid) with -1 -> b0 | w -> min w b0)
  done;

  (* Messages in flight: sent during [pending_sent_at] into buffer
     [pending_idx], delivered at [pending_sent_at + 1]. At most one round's
     worth exists at any time, so two buffers suffice. *)
  let bufs = [| Array.make t ([] : 'm envelope list); Array.make t [] |] in
  let touched = [| Array.make t 0; Array.make t 0 |] in
  let touched_n = [| 0; 0 |] in
  let pending_sent_at = ref (-1) in
  let pending_idx = ref 0 in
  let out_idx = ref 0 in
  let any_sent = ref false in
  let enqueue dst env =
    let b = bufs.(!out_idx) in
    if b.(dst) == [] then begin
      touched.(!out_idx).(touched_n.(!out_idx)) <- dst;
      touched_n.(!out_idx) <- touched_n.(!out_idx) + 1
    end;
    b.(dst) <- env :: b.(dst);
    any_sent := true
  in

  let trace_ev e =
    (match cfg.trace with Some tr -> Trace.record tr e | None -> ());
    match cfg.obs with Some sink -> sink (Obs.of_trace_event e) | None -> ()
  in
  let obs_ev e = match cfg.obs with Some sink -> sink e | None -> () in
  (* Incarnation counters for span context: 0 until the first restart. *)
  let incs = Array.make t 0 in
  let with_span ~name ~pid ~inc r f =
    match cfg.spans with
    | None -> f ()
    | Some sink ->
        sink
          (Obs.Span_begin
             { name; pid; at = r; inc; ts_us = Dhw_util.Clock.now_us () });
        let res = f () in
        sink
          (Obs.Span_end
             { name; pid; at = r; inc; ts_us = Dhw_util.Clock.now_us () });
        res
  in
  (* The adversary's restart schedule, sorted by (round, pid) so revivals in
     the same round happen in pid order — determinism. An entry is *applicable*
     while its pid is down from a round before the scheduled one; entries for
     up or terminated pids are dropped when their round arrives. *)
  let restart_queue =
    ref (List.sort compare (List.map (fun (p, r) -> (r, p)) (Fault.restarts cfg.fault)))
  in
  let applicable (rr, pid) =
    pid >= 0 && pid < t
    && match statuses.(pid) with Crashed rc -> rr > rc | _ -> false
  in
  let pending_restart () = List.exists applicable !restart_queue in
  let revive pid r =
    statuses.(pid) <- Running;
    if honest pid then incr live_honest;
    incs.(pid) <- incs.(pid) + 1;
    let s, w = recover pid r in
    states.(pid) <- s;
    (match w with Some w0 -> set_wakeup pid w0 | None -> wakeups.(pid) <- -1);
    Fault.note_restart cfg.fault pid r;
    arm_deadlines pid ~from:r;
    Metrics.record_restart metrics pid r;
    trace_ev (Trace.Restarted_ev { pid; round = r })
  in
  let rec apply_restarts r =
    match !restart_queue with
    | (rr, pid) :: rest when rr <= r ->
        restart_queue := rest;
        if applicable (rr, pid) then revive pid r;
        apply_restarts r
    | _ -> ()
  in
  let rec min_restart acc = function
    | [] -> acc
    | (rr, p) :: rest ->
        min_restart (if applicable (rr, p) && rr < acc then rr else acc) rest
  in
  let next_round () =
    (* Smallest round at which anything can happen; max_int = nothing. *)
    let c = if !pending_sent_at >= 0 then !pending_sent_at + 1 else max_int in
    heap_peek (min_restart c !restart_queue)
  in
  let rec commit_work pid r = function
    | [] -> ()
    | u :: rest ->
        Metrics.record_work metrics pid u;
        if observing then trace_ev (Trace.Worked { pid; round = r; unit_id = u });
        commit_work pid r rest
  in
  (* The trace rendering of the current step's last shown payload. A
     broadcast shares one payload value across its destinations, so [show]
     runs once per physically distinct payload per step, and the [Sent] and
     [Dropped] events of one broadcast share one string. Cleared at every
     traced step. *)
  let shown = ref None in
  let show payload =
    match !shown with
    | Some (p, what) when p == payload -> what
    | _ ->
        let what = cfg.show payload in
        shown := Some (payload, what);
        what
  in
  let rec commit_sends pid r = function
    | [] -> ()
    | { dst; payload } :: rest ->
        Metrics.record_send metrics pid;
        if observing then
          trace_ev (Trace.Sent { src = pid; dst; round = r; what = show payload });
        if dst >= 0 && dst < t then enqueue dst { src = pid; sent_at = r; payload };
        commit_sends pid r rest
  in
  let rec trace_dropped pid r = function
    | [] -> ()
    | { dst; payload } :: rest ->
        trace_ev (Trace.Dropped { src = pid; dst; round = r; what = show payload });
        trace_dropped pid r rest
  in
  let rec forge_loop pid r = function
    | [] -> ()
    | { dst; payload } :: rest ->
        Metrics.record_corruption metrics;
        if has_obs then obs_ev (Obs.Tamper { pid; at = r });
        if dst >= 0 && dst < t then enqueue dst { src = pid; sent_at = r; payload };
        forge_loop pid r rest
  in
  (* Link tampering: a consuming query — asked only when there are messages
     to corrupt and a model to corrupt them with. *)
  let tampered_sends pid r (o : ('s, 'm) outcome) =
    match cfg.tamper with
    | Some tm when o.sends <> [] -> (
        match Fault.corrupts cfg.fault pid r with
        | Some tam ->
            List.map
              (fun { dst; payload } ->
                Metrics.record_corruption metrics;
                if has_obs then obs_ev (Obs.Tamper { pid; at = r });
                { dst; payload = tm.mutate tam ~src:pid ~dst ~at:r payload })
              o.sends
        | None -> o.sends)
    | _ -> o.sends
  in
  let step_pid r pid mail =
    let w = wakeups.(pid) in
    let due = w >= 0 && w <= r in
    if mail != [] || due then begin
      if observing then begin
        shown := None;
        trace_ev (Trace.Stepped { pid; round = r })
      end;
      let o =
        match cfg.spans with
        | None -> proc.step pid r states.(pid) mail
        | Some _ ->
            with_span ~name:"step" ~pid ~inc:incs.(pid) r (fun () ->
                proc.step pid r states.(pid) mail)
      in
      let decision =
        if trivial then Fault.Survive
        else
          Fault.on_step cfg.fault
            {
              Fault.sv_pid = pid;
              sv_round = r;
              sv_sends = List.length o.sends;
              sv_works = List.length o.work;
              sv_terminating = o.terminate;
              sv_works_done_before = Metrics.work_by metrics pid;
            }
      in
      match decision with
      | Fault.Survive ->
          states.(pid) <- o.state;
          commit_work pid r o.work;
          commit_sends pid r (tampered_sends pid r o);
          Metrics.record_round metrics r;
          if o.terminate then begin
            statuses.(pid) <- Terminated r;
            wakeups.(pid) <- -1;
            retire pid;
            Metrics.record_terminate metrics pid r;
            if observing then trace_ev (Trace.Terminated_ev { pid; round = r })
          end
          else begin
            match o.wakeup with
            | Some w ->
                if w <= r then
                  invalid_arg
                    (Printf.sprintf
                       "Kernel.run: process %d at round %d asked for non-future wakeup %d"
                       pid r w);
                set_wakeup pid w
            | None -> wakeups.(pid) <- -1
          end
      | Fault.Crash { keep_work; delivery } ->
          let delivered, dropped = Fault.apply_delivery delivery o.sends in
          (* Program-order causality: within a round, work precedes sends, so
             a crash that lets any message out must also let the work count
             (otherwise a victim could announce work it never performed). *)
          let keep_work = keep_work || delivered <> [] in
          if keep_work then commit_work pid r o.work;
          commit_sends pid r delivered;
          if observing then trace_dropped pid r dropped;
          statuses.(pid) <- Crashed r;
          wakeups.(pid) <- -1;
          retire pid;
          Metrics.record_crash metrics pid r;
          Metrics.record_round metrics r;
          if observing then trace_ev (Trace.Crashed_ev { pid; round = r })
    end
  in
  (* A live pid's turn at round [r] once one of its deadlines has passed,
     in the adversary's order: a silent death before Byzantine subversion. *)
  let deadline_passed r pid =
    if death.(pid) <= r then begin
      statuses.(pid) <- Crashed r;
      retire pid;
      Metrics.record_crash metrics pid r;
      if observing then trace_ev (Trace.Crashed_ev { pid; round = r })
    end
    else begin
      (* Adversary-controlled: the protocol state is abandoned; the tamper
         model forges this round's messages. Forged traffic is counted as
         corruption, not as honest sends — audits and the message bounds
         judge only what honest processes do. *)
      (match cfg.tamper with
      | Some tm -> forge_loop pid r (tm.forge pid ~at:r)
      | None -> ());
      set_wakeup pid (r + 1)
    end
  in
  (* insertion sort: inbox destinations arrive nearly ordered (senders run
     in pid order and broadcast to ascending member lists) *)
  let sort_mail (a : int array) n =
    for i = 1 to n - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  in
  (* Visit, in pid order, the pids that are due — a wakeup or fault deadline
     at or before [r], or mail in the inbox — merging the due list with the
     sorted inbox-destination list. The pids left out would do nothing. *)
  let visit_due r delivering del_idx =
    while !heap_n > 0 && !heap_w.(0) <= r do
      let w = !heap_w.(0) and k = !heap_p.(0) in
      heap_pop ();
      if entry_valid w k then queue_due (if k < t then k else k - t)
    done;
    let nd = !due_n in
    let due = !due in
    if not !due_sorted then begin
      let s = Array.sub due 0 nd in
      Array.sort Int.compare s;
      Array.blit s 0 due 0 nd;
      due_sorted := true
    end;
    let mail = touched.(del_idx) in
    let mail_n = if delivering then touched_n.(del_idx) else 0 in
    sort_mail mail mail_n;
    let i = ref 0 and j = ref 0 in
    let last = ref (-1) in
    while !i < nd || !j < mail_n do
      let p =
        if !i >= nd then mail.(!j)
        else if !j >= mail_n then due.(!i)
        else min due.(!i) mail.(!j)
      in
      if !i < nd && due.(!i) = p then incr i;
      if !j < mail_n && mail.(!j) = p then incr j;
      if p <> !last then begin
        last := p;
        if statuses.(p) = Running then
          if death.(p) > r && subverted_at.(p) > r then
            step_pid r p (if delivering then bufs.(del_idx).(p) else [])
          else deadline_passed r p
      end
    done;
    due_n := 0
  in
  let cmp_src a b = compare a.src b.src in
  let rec descending_src = function
    | a :: (b :: _ as rest) -> a.src > b.src && descending_src rest
    | _ -> true
  in
  let deliver_commit r =
    (* Inboxes in the stable order by sender, for determinism. Senders are
       stepped in pid order and cons onto the inbox, so one with a message
       per sender is strictly descending by sender and its reversal is that
       order; empty and singleton inboxes already are. Only an inbox holding
       two messages from one sender is sorted. *)
    let oi = !out_idx in
    let ta = touched.(oi) and b = bufs.(oi) in
    for i = 0 to touched_n.(oi) - 1 do
      let dst = ta.(i) in
      match b.(dst) with
      | [] | [ _ ] -> ()
      | l -> b.(dst) <- (if descending_src l then List.rev l else List.sort cmp_src l)
    done;
    pending_sent_at := r;
    pending_idx := oi
  in
  let round_body r =
    apply_restarts r;
    let delivering = !pending_sent_at >= 0 && !pending_sent_at + 1 = r in
    let del_idx = !pending_idx in
    if delivering then pending_sent_at := -1;
    out_idx := (if delivering then 1 - del_idx else del_idx);
    any_sent := false;
    visit_due r delivering del_idx;
    (* consumed inboxes are cleared whether or not their pid was stepped
       (crashed and sleeping destinations lose their mail, as before) *)
    if delivering then begin
      let ta = touched.(del_idx) and b = bufs.(del_idx) in
      for i = 0 to touched_n.(del_idx) - 1 do
        b.(ta.(i)) <- []
      done;
      touched_n.(del_idx) <- 0
    end;
    if !any_sent then
      with_span ~name:"deliver" ~pid:(-1) ~inc:0 r (fun () -> deliver_commit r)
  in
  let rec loop r =
    if r > cfg.max_rounds then Round_limit r
    else begin
      (match cfg.spans with
      | None -> round_body r
      | Some _ -> with_span ~name:"round" ~pid:(-1) ~inc:0 r (fun () -> round_body r));
      if !live_honest = 0 && not (pending_restart ()) then Completed
      else begin
        let r' = next_round () in
        if r' = max_int then Stalled r
        else begin
          (* r' can equal r only if a wakeup request slipped through the
             strictness check, which [invalid_arg]s above; assert here. *)
          assert (r' > r);
          loop r'
        end
      end
    end
  in
  (* Nothing has retired before the first round, so nothing to do is a
     stall at 0. *)
  let outcome =
    let r0 = next_round () in
    if r0 = max_int then Stalled 0 else loop r0
  in
  { metrics; statuses; outcome }
