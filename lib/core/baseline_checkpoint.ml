open Simkit.Types

type msg = Ckpt of int  (** [Ckpt c]: the first [c] units are done *)

let show_msg (Ckpt c) = Printf.sprintf "ckpt(%d)" c

type action = Do_unit of int | Announce of int

type state =
  | Waiting of { completed : int }  (** highest checkpoint received *)
  | Active of action list

let make ~period spec =
  let n = Spec.n spec in
  let t = Spec.processes spec in
  let n_ckpts = Dhw_util.Intmath.ceil_div n period in
  (* Active lifetime: at most one round per unit plus one per checkpoint. *)
  let lifetime = n + n_ckpts + 2 in
  let deadline j = j * lifetime in
  let others j = List.filter (fun k -> k <> j) (List.init t Fun.id) in
  let script_from completed =
    let rec go c acc =
      if c > n then List.rev acc
      else
        let acc = Do_unit (c - 1) :: acc in
        let acc = if c mod period = 0 || c = n then Announce c :: acc else acc in
        go (c + 1) acc
    in
    go (completed + 1) []
  in
  let run_active pid r script =
    match script with
    | [] ->
        (* Only reachable on takeover with everything already done. *)
        { state = Active []; sends = []; work = []; terminate = true; wakeup = None }
    | Do_unit u :: rest ->
        {
          state = Active rest;
          sends = [];
          work = [ u ];
          terminate = rest = [];
          wakeup = Some (r + 1);
        }
    | Announce c :: rest ->
        let payload = Ckpt c in
        {
          state = Active rest;
          sends = List.map (fun dst -> { dst; payload }) (others pid);
          work = [];
          terminate = rest = [];
          wakeup = Some (r + 1);
        }
  in
  let init pid =
    if pid = 0 then (Active (script_from 0), Some 0)
    else (Waiting { completed = 0 }, Some (deadline pid))
  in
  let step pid r st inbox =
    match st with
    | Active script -> run_active pid r script
    | Waiting { completed } ->
        let completed =
          List.fold_left (fun acc { payload = Ckpt c; _ } -> max acc c) completed inbox
        in
        if completed >= n then
          {
            state = Waiting { completed };
            sends = [];
            work = [];
            terminate = true;
            wakeup = None;
          }
        else if r >= deadline pid then run_active pid r (script_from completed)
        else
          {
            state = Waiting { completed };
            sends = [];
            work = [];
            terminate = false;
            wakeup = Some (deadline pid);
          }
  in
  Protocol.Packed { proc = { init; step }; show = show_msg }

let protocol ~period =
  if period < 1 then invalid_arg "Baseline_checkpoint.protocol: period >= 1";
  {
    Protocol.name = Printf.sprintf "checkpoint/%d" period;
    describe =
      "single active process, checkpoint broadcast to all after every period units";
    make = make ~period;
  }
