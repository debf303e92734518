(* The kernel differential law: [Simkit.Kernel.run], which learns each pid's
   silent-death and Byzantine-activation rounds once per incarnation and
   visits only due pids, against [Ref_kernel], the all-pid sweep that asks
   the fault plan about every live pid every round. Both run fresh copies
   of the same plan and must agree on metrics, statuses, outcome, the trace
   and the observability stream. Plans cover random campaign schedules
   (silent, acting, restart, corrupt and byz entries, with and without a
   tamper model, including restarts of Byzantine pids), every [Fault]
   constructor, and plans re-wrapped through [Fault.custom]. Processes are
   hash-driven chatter, Protocol A and a traced Protocol D, whose shared
   broadcast payloads exercise the kernel's once-per-payload rendering. *)

open Simkit
open Types
module Gen = QCheck2.Gen
module S = Campaign.Schedule

(* ------------------------------------------------------------------ *)
(* Processes *)

(* Every choice — sends (some to the out-of-range pid t), work, wakeups,
   termination — is a hash of pid, round, step count and inbox, so runs
   exercise every kernel rule without any protocol logic. *)
let chatter ~seed ~t ~n : (int, int) process =
  {
    init =
      (fun pid ->
        let x = Hashtbl.hash (seed, pid) in
        (0, if x mod 4 = 0 then None else Some (x mod 3)));
    step =
      (fun pid r k inbox ->
        let mail =
          List.fold_left (fun acc e -> (acc * 31) + (e.src * 7) + e.payload) 0 inbox
        in
        let x = Hashtbl.hash (seed, pid, r, k, mail) in
        let terminate = k >= 4 && (x / 1024) mod 5 = 0 in
        {
          state = k + 1;
          sends =
            List.init (x mod 4) (fun i ->
                { dst = ((x / 4) + i) mod (t + 1); payload = ((x / 16) + i) mod 1000 });
          work = List.init ((x / 64) mod 3) (fun i -> ((x / 256) + i) mod n);
          terminate;
          wakeup =
            (if terminate then None
             else match (x / 8192) mod 5 with 0 -> None | d -> Some (r + d));
        });
  }

let chatter_tamper ~t : int Kernel.tamper_model =
  {
    mutate =
      (fun tam ~src ~dst ~at p -> p + 1000 + ((tam.Fault.t_salt + src + dst + at) mod 97));
    forge =
      (fun pid ~at ->
        [
          { dst = (pid + at) mod t; payload = 5000 + at };
          { dst = ((pid * 3) + at) mod (t + 1); payload = 6000 + pid };
        ]);
  }

(* A rejoiner whose wakeup may already be due, so it steps in its restart
   round. *)
let chatter_recover pid r = (100 + r, Some (max 0 (r - (pid mod 2))))

(* ------------------------------------------------------------------ *)
(* Plans, as printable data *)

type plan =
  | Sched of S.t
  | Rewrap of plan * (pid * round) list
      (* through [Fault.custom], as perfbench's probe does, plus extra
         restart entries *)
  | Random of { seed : int; victims : int; window : int }
  | Acting of (pid * round * Fault.decision) list
  | Dynamic of int
  | With_restarts of (pid * round) list * plan
  | After_work of { gap : int; crashes : int }
  | After_random_work of { seed : int; lo : int; hi : int; crashes : int }
  | Silent of (pid * round) list

let rec build ~t = function
  | Sched s -> S.to_fault s
  | Rewrap (p, extra) ->
      let base = build ~t p in
      Fault.custom
        ~restarts:(Fault.restarts base @ extra)
        ~on_restart:(Fault.note_restart base) ~corrupts:(Fault.corrupts base)
        ~byzantine_from:(Fault.byzantine_from base)
        ~crashed_by:(Fault.crashed_by base) ~on_step:(Fault.on_step base) ()
  | Random { seed; victims; window } ->
      Fault.random ~seed:(Int64.of_int seed) ~t ~victims:(min victims (t - 1)) ~window
  | Acting l -> Fault.crash_acting_at l
  | Dynamic seed ->
      Fault.dynamic (fun v ->
          let x = Hashtbl.hash (seed, v.Fault.sv_pid, v.sv_round) in
          if x mod 9 = 0 then
            Fault.Crash { keep_work = x mod 2 = 0; delivery = Fault.Prefix (x / 9 mod 3) }
          else Fault.Survive)
  | With_restarts (rs, p) -> Fault.with_restarts rs (build ~t p)
  | After_work { gap; crashes } ->
      Fault.crash_active_after_work ~units_between_crashes:gap ~max_crashes:crashes
  | After_random_work { seed; lo; hi; crashes } ->
      Fault.crash_active_after_random_work ~seed:(Int64.of_int seed) ~min_units:lo
        ~max_units:hi ~max_crashes:crashes
  | Silent l -> Fault.crash_silently_at l

let pp_pairs l = String.concat " " (List.map (fun (p, r) -> Printf.sprintf "%d@%d" p r) l)

let rec show_plan = function
  | Sched s -> "schedule:\n" ^ S.print s
  | Rewrap (p, extra) ->
      Printf.sprintf "rewrap +restarts [%s] of %s" (pp_pairs extra) (show_plan p)
  | Random { seed; victims; window } ->
      Printf.sprintf "random seed=%d victims=%d window=%d" seed victims window
  | Acting l ->
      "acting "
      ^ String.concat " "
          (List.map
             (fun (p, r, d) ->
               Printf.sprintf "%d@%d:%s" p r
                 (match d with
                 | Fault.Survive -> "survive"
                 | Crash { keep_work; delivery } ->
                     Printf.sprintf "crash(keep=%b,%s)" keep_work
                       (match delivery with
                       | All -> "all"
                       | Prefix k -> Printf.sprintf "prefix %d" k
                       | Indices l ->
                           "indices " ^ String.concat "," (List.map string_of_int l))))
             l)
  | Dynamic seed -> Printf.sprintf "dynamic seed=%d" seed
  | With_restarts (rs, p) -> Printf.sprintf "with_restarts [%s] %s" (pp_pairs rs) (show_plan p)
  | After_work { gap; crashes } -> Printf.sprintf "after_work gap=%d crashes=%d" gap crashes
  | After_random_work { seed; lo; hi; crashes } ->
      Printf.sprintf "after_random_work seed=%d [%d,%d] crashes=%d" seed lo hi crashes
  | Silent l -> "silent " ^ pp_pairs l

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_delivery =
  Gen.oneof
    [
      Gen.return Fault.All;
      Gen.map (fun k -> Fault.Prefix k) (Gen.int_bound 3);
      Gen.map (fun l -> Fault.Indices l) (Gen.list_size (Gen.int_bound 3) (Gen.int_bound 4));
    ]

let gen_crash =
  Gen.map2
    (fun keep_work delivery -> Fault.Crash { keep_work; delivery })
    Gen.bool gen_delivery

let gen_mode =
  Gen.frequency
    [
      (3, Gen.return S.Silent);
      ( 3,
        Gen.map2
          (fun keep_work delivery -> S.Acting { keep_work; delivery })
          Gen.bool gen_delivery );
      (4, Gen.return S.Restart);
      ( 2,
        Gen.map2
          (fun k t_salt -> S.Corrupt { Fault.t_kind = k; t_salt })
          (Gen.oneofl [ Fault.Lying_view; Fault.Replay_stale; Fault.Inflate_done ])
          (Gen.int_bound 999) );
      (2, Gen.return S.Byzantine);
    ]

(* victims range over [0, t]: pid t is out of range and must stay inert *)
let gen_pid ~t = Gen.int_bound t
let gen_round = Gen.int_bound 60
let gen_pairs ~t = Gen.list_size (Gen.int_bound 4) (Gen.pair (gen_pid ~t) gen_round)

let gen_schedule ~t =
  Gen.map S.make
    (Gen.list_size (Gen.int_bound 8)
       (Gen.map3
          (fun victim at mode -> { S.victim; at; mode })
          (gen_pid ~t) gen_round gen_mode))

(* a Byzantine pid that was down before its activation and is restarted
   after it — past what [S.normalize] keeps, hence the re-wrap *)
let gen_byz_restart ~t =
  Gen.map
    (fun (victim, c, b, gap) ->
      let victim = victim mod t in
      Rewrap
        ( Sched
            (S.make
               [
                 { S.victim; at = c; mode = S.Silent };
                 { S.victim; at = c + b; mode = S.Byzantine };
               ]),
          [ (victim, c + b + gap) ] ))
    (Gen.quad (Gen.int_bound t) (Gen.int_bound 20) (Gen.int_bound 20) (Gen.int_range 1 20))

let rec gen_plan ~t depth =
  let simple =
    [
      (6, Gen.map (fun s -> Sched s) (gen_schedule ~t));
      (2, gen_byz_restart ~t);
      ( 1,
        Gen.map3
          (fun seed victims window -> Random { seed; victims; window })
          Gen.nat (Gen.int_bound 4) (Gen.int_bound 40) );
      ( 1,
        Gen.map
          (fun l -> Acting l)
          (Gen.list_size (Gen.int_bound 4)
             (Gen.triple (gen_pid ~t) gen_round
                (Gen.oneof [ Gen.return Fault.Survive; gen_crash ]))) );
      (1, Gen.map (fun s -> Dynamic s) Gen.nat);
      ( 1,
        Gen.map2
          (fun gap crashes -> After_work { gap; crashes })
          (Gen.int_range 1 6) (Gen.int_bound 4) );
      ( 1,
        Gen.map3
          (fun seed (lo, d) crashes -> After_random_work { seed; lo; hi = lo + d; crashes })
          Gen.nat
          (Gen.pair (Gen.int_range 1 4) (Gen.int_bound 4))
          (Gen.int_bound 4) );
      (1, Gen.map (fun l -> Silent l) (gen_pairs ~t));
    ]
  in
  if depth = 0 then Gen.frequency simple
  else
    Gen.frequency
      (simple
      @ [
          ( 2,
            Gen.map2
              (fun p extra -> Rewrap (p, extra))
              (gen_plan ~t (depth - 1)) (gen_pairs ~t) );
          ( 2,
            Gen.map2
              (fun rs p -> With_restarts (rs, p))
              (gen_pairs ~t) (gen_plan ~t (depth - 1)) );
        ])

type case = {
  seed : int;
  t : int;
  n : int;
  plan : plan;
  tamper : bool;
  recover : bool;
  short : bool;  (* a round limit inside the schedule's horizon *)
}

let gen_case ~max_t =
  let open Gen in
  let* t = int_range 1 max_t in
  let* n = int_range 1 12 in
  let* plan = gen_plan ~t 1 in
  let* seed = nat in
  let* tamper = bool in
  let* recover = bool in
  let* short = bool in
  return { seed; t; n; plan; tamper; recover; short }

let show_case c =
  Printf.sprintf "seed=%d t=%d n=%d tamper=%b recover=%b short=%b\n%s" c.seed c.t c.n
    c.tamper c.recover c.short (show_plan c.plan)

(* ------------------------------------------------------------------ *)
(* The law *)

type kernel = {
  run :
    's 'm.
    ?recover:(pid -> round -> 's * round option) ->
    'm Kernel.config ->
    ('s, 'm) process ->
    'm Kernel.result;
}

let kernel = { run = (fun ?recover cfg proc -> Kernel.run ?recover cfg proc) }
let reference = { run = (fun ?recover cfg proc -> Ref_kernel.run ?recover cfg proc) }

let fingerprint m ~t ~n =
  [
    Metrics.messages m; Metrics.work m; Metrics.rounds m; Metrics.crashes m;
    Metrics.terminated m; Metrics.restarts m; Metrics.persists m;
    Metrics.corruptions m; Metrics.rejected m; Metrics.units_covered m;
  ]
  @ List.init t (Metrics.work_by m)
  @ List.init t (Metrics.messages_by m)
  @ List.init n (Metrics.unit_multiplicity m)

let observe (k : kernel) ~c ~max_rounds ?recover ?tamper ~show proc =
  let trace = Trace.create () in
  let obs, events = Obs.memory () in
  let cfg =
    Kernel.config ~fault:(build ~t:c.t c.plan) ~max_rounds ~trace ~obs ~show ?tamper
      ~n_processes:c.t ~n_units:c.n ()
  in
  let res = k.run ?recover cfg proc in
  ( fingerprint res.metrics ~t:c.t ~n:c.n,
    res.statuses,
    res.outcome,
    Trace.events trace,
    events () )

let agree (fm, fs, fo, ft, fe) (rm, rs, ro, rt, re) =
  let first_diff a b =
    let rec go i = function
      | x :: xs, y :: ys -> if x = y then go (i + 1) (xs, ys) else i
      | _ -> i
    in
    go 0 (a, b)
  in
  if fm <> rm then QCheck2.Test.fail_report "metrics differ"
  else if fs <> rs then QCheck2.Test.fail_report "statuses differ"
  else if fo <> ro then QCheck2.Test.fail_report "outcomes differ"
  else if ft <> rt then
    QCheck2.Test.fail_reportf "trace differs at event %d of %d/%d"
      (first_diff ft rt) (List.length ft) (List.length rt)
  else if fe <> re then
    QCheck2.Test.fail_reportf "obs stream differs at event %d" (first_diff fe re)
  else true

let law_chatter c =
  let proc = chatter ~seed:c.seed ~t:c.t ~n:c.n in
  let tamper = if c.tamper then Some (chatter_tamper ~t:c.t) else None in
  let recover = if c.recover then Some chatter_recover else None in
  let max_rounds = if c.short then 25 else 150 in
  let go k = observe k ~c ~max_rounds ?recover ?tamper ~show:string_of_int proc in
  agree (go kernel) (go reference)

let law_protocol_a c =
  let spec = Doall.Spec.make ~n:c.n ~t:c.t in
  let grid = Doall.Grid.make spec in
  let proc = Doall.Protocol_a.proc_on_grid grid in
  let tamper = if c.tamper then Some (Doall.Validate.tamper_plain grid) else None in
  let max_rounds = if c.short then 25 else 2000 in
  let go k = observe k ~c ~max_rounds ?tamper ~show:Doall.Protocol_a.show_msg proc in
  agree (go kernel) (go reference)

(* Protocol D's agreement broadcasts share one payload value across their
   destinations, so the kernel renders each once; the reference renders
   every send and sorts every inbox. No tamper model: D has none, and
   Byzantine entries degrade to crashes. *)
let law_protocol_d c =
  let (Doall.Protocol.Packed { proc; show }) =
    Doall.Protocol_d.protocol.make (Doall.Spec.make ~n:c.n ~t:c.t)
  in
  let max_rounds = if c.short then 25 else 2000 in
  let go k = observe k ~c ~max_rounds ~show proc in
  agree (go kernel) (go reference)

let law ~count ~name ~max_t f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:show_case (gen_case ~max_t) f)

(* ------------------------------------------------------------------ *)
(* The reference must see what the kernel sees, so it is checked against
   plain expectations too: a silent crash lands at the first processed
   round at or after its deadline, not at the deadline itself. *)

let test_silent_death_lands_on_visited_round () =
  let proc =
    {
      init = (fun pid -> ((), if pid = 0 then Some 0 else Some 10));
      step =
        (fun _ r () _ ->
          { state = (); sends = []; work = []; terminate = r >= 10; wakeup = Some 10 });
    }
  in
  let fault = Fault.crash_silently_at [ (1, 4) ] in
  List.iter
    (fun (name, (k : kernel)) ->
      let res = k.run (Kernel.config ~fault ~n_processes:2 ~n_units:1 ()) proc in
      Alcotest.(check bool)
        (name ^ ": pid 1 dies at round 10, the next processed round")
        true
        (res.statuses.(1) = Crashed 10))
    [ ("kernel", kernel); ("reference", reference) ]

(* An inbox reaches its pid in the stable order by sender: a sender's two
   messages to one destination stay in the order the sort by sender leaves
   them (the later send first, as the inbox is built by consing). *)
let test_two_messages_from_one_sender () =
  let inbox (k : kernel) =
    let got = ref [] in
    let proc =
      {
        init = (fun pid -> ((), if pid < 3 then Some 0 else None));
        step =
          (fun pid r () inbox ->
            if pid = 3 then got := List.map (fun e -> (e.src, e.payload)) inbox;
            let sends =
              match (pid, r) with
              | 0, 0 -> [ { dst = 3; payload = 1 }; { dst = 3; payload = 2 } ]
              | 1, 0 -> [ { dst = 3; payload = 3 } ]
              | 2, 0 -> [ { dst = 3; payload = 4 }; { dst = 3; payload = 5 } ]
              | _ -> []
            in
            { state = (); sends; work = []; terminate = true; wakeup = None });
      }
    in
    ignore (k.run (Kernel.config ~n_processes:4 ~n_units:1 ()) proc);
    !got
  in
  List.iter
    (fun (name, k) ->
      Alcotest.(check (list (pair int int)))
        (name ^ ": inbox of pid 3")
        [ (0, 2); (0, 1); (1, 3); (2, 5); (2, 4) ]
        (inbox k))
    [ ("kernel", kernel); ("reference", reference) ]

(* A traced failure-free Protocol D run renders one string per
   broadcasting step, not one per send. *)
let test_show_once_per_broadcast () =
  let (Doall.Protocol.Packed { proc; show }) =
    Doall.Protocol_d.protocol.make (Doall.Spec.make ~n:400 ~t:16)
  in
  let calls = ref 0 in
  let show m =
    incr calls;
    show m
  in
  let trace = Trace.create () in
  let res =
    Kernel.run (Kernel.config ~trace ~show ~n_processes:16 ~n_units:400 ()) proc
  in
  let steps =
    List.sort_uniq compare
      (List.filter_map
         (function Trace.Sent { src; round; _ } -> Some (src, round) | _ -> None)
         (Trace.events trace))
  in
  Alcotest.(check bool) "D broadcasts" true (Metrics.messages res.metrics > List.length steps);
  Alcotest.(check int) "show calls = broadcasting steps" (List.length steps) !calls

let suite =
  [
    Alcotest.test_case "silent death lands on the next processed round" `Quick
      test_silent_death_lands_on_visited_round;
    Alcotest.test_case "two messages from one sender keep the sorted order" `Quick
      test_two_messages_from_one_sender;
    Alcotest.test_case "show runs once per broadcasting step (D)" `Quick
      test_show_once_per_broadcast;
    law ~count:1000 ~name:"kernel = reference sweep (chatter processes)" ~max_t:8 law_chatter;
    law ~count:300 ~name:"kernel = reference sweep (Protocol A)" ~max_t:6 law_protocol_a;
    law ~count:300 ~name:"kernel = reference sweep (traced Protocol D)" ~max_t:8 law_protocol_d;
  ]
