(** Domain-based parallel work pool.

    Runs independent, deterministic tasks — adversary schedule executions,
    bench cells — on a set of worker domains and returns their results in
    task order, so the outcome is byte-identical whatever the worker count
    or scheduling. The task queue is the task array plus an atomic cursor
    (a bounded deque popped one task at a time; tasks are coarse, so no
    chunking is needed). A raising task does not abort its siblings: every
    task still runs, and the lowest-index exception is re-raised after the
    join, with its backtrace. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the number of cores the runtime
    recommends saturating ([nproc] in practice). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f tasks] is [Array.map f tasks] computed on [jobs] worker
    domains (default {!default_jobs}; clamped to the task count; [1] runs
    in the calling domain with no spawns). With helper domains it ends
    with one [Gc.full_major], which frees their heaps. [f] must not touch
    shared mutable state. @raise Invalid_argument if [jobs < 1]. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map}. *)

val map_seeded :
  ?jobs:int -> seed:int64 -> (Dhw_util.Prng.t -> 'a -> 'b) -> 'a array -> 'b array
(** Like {!map}, but task [i] also receives the independent PRNG
    [Prng.stream seed i] — per-task seed splitting, so randomized tasks
    stay deterministic in [seed] alone, independent of worker count. *)

val map_reduce :
  ?jobs:int ->
  f:('a -> 'b) ->
  fold:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a array ->
  'acc
(** Parallel map, then a sequential fold over the results in task order —
    an order-independent deterministic reduction, safe for non-associative
    folds. *)
