(* A Domain-based parallel work pool for the campaign and bench harnesses.

   The simulator models distributed work; this module makes the *harness*
   itself scale with cores. Tasks are independent, deterministic closures
   (one adversary schedule execution, one bench cell); the pool runs them
   on [jobs] worker domains and hands the results back in task order.

   Design:
   - the task queue is a bounded deque: the task array itself plus an
     atomic cursor. Workers pop the next index until the cursor passes the
     end. Tasks are coarse (whole protocol executions), so one-at-a-time
     stealing costs nothing and needs no chunking heuristics;
   - results land in a per-index cell array — distinct indices, so writes
     from different domains never race — and are reduced strictly in task
     order afterwards. Which worker ran a task can therefore never leak
     into the result: output is byte-identical at [~jobs:1] and [~jobs:8];
   - a task that raises is recorded, the remaining tasks still run, and the
     *lowest-index* exception is re-raised after the join — again
     independent of scheduling;
   - tasks needing randomness take a [Dhw_util.Prng.t] derived from
     (master seed, task index) via [Prng.stream], never from a generator
     shared across workers. *)

let default_jobs () = Domain.recommended_domain_count ()

type 'b cell =
  | Pending
  | Done of 'b
  | Raised of exn * Printexc.raw_backtrace

let resolve_jobs jobs n =
  let j =
    match jobs with
    | None -> default_jobs ()
    | Some j when j >= 1 -> j
    | Some j -> invalid_arg (Printf.sprintf "Pool: jobs must be >= 1, got %d" j)
  in
  max 1 (min j n)

let map ?jobs f tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else
    let jobs = resolve_jobs jobs n in
    let results = Array.make n Pending in
    let cursor = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          (results.(i) <-
            (try Done (f tasks.(i))
             with e -> Raised (e, Printexc.get_raw_backtrace ())));
          loop ()
        end
      in
      loop ()
    in
    (* [jobs = 1] runs the same loop in the calling domain with no spawns,
       so the run-every-task / lowest-index-exception contract holds for
       every worker count. *)
    let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    (* An exited domain's heap stays orphaned, and counted in [Gc] heap
       statistics, until some later major cycle adopts and sweeps it —
       sooner if the calling domain happened to finish its tasks last. One
       full major here frees it before returning, so the caller's heap
       does not depend on which worker ran the last task. *)
    if helpers <> [] then Gc.full_major ();
    Array.map
      (function
        | Done v -> v
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending -> assert false)
      results

let map_list ?jobs f tasks = Array.to_list (map ?jobs f (Array.of_list tasks))

(* Per-task seeded randomness: task [i] always receives [Prng.stream seed i],
   so the stream a task sees is a function of the task alone. *)
let map_seeded ?jobs ~seed f tasks =
  map ?jobs
    (fun (i, task) -> f (Dhw_util.Prng.stream seed i) task)
    (Array.mapi (fun i task -> (i, task)) tasks)

(* Order-independent deterministic reduction: map in parallel, fold the
   results sequentially in task order. Any fold is safe here, associative
   or not, because the fold itself never runs concurrently. *)
let map_reduce ?jobs ~f ~fold ~init tasks =
  Array.fold_left fold init (map ?jobs f tasks)
