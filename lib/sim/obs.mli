(** Structured observability: one typed event stream over both substrates.

    The synchronous kernel ({!Kernel}, via [?obs] in its config) and the
    asynchronous executor ([Asim.Event_sim], likewise) emit the same
    {!type:event} alphabet — step, send, drop, work, crash, terminate — each
    stamped with the round (sync) or tick (async) it happened at. A {!sink}
    consumes the stream as it is produced; sinks compose with {!tee}.

    Built-in sinks: {!memory} (capture), {!jsonl} (one compact JSON object
    per line, schema [{"ev", "at", ...}]), and {!Timeline} (per-round
    aggregates with an ASCII sparkline renderer).

    Events are emitted exactly where {!Metrics} records, so a {!Timeline}
    folded from the stream reproduces the run's metric totals — a property
    the test suite checks (sync and async). Emission never consults the
    adversary PRNG: observing a run cannot change it. A sink may still act
    outside the run — the real-process fleet SIGKILLs a node on its
    [Crash] event and shuts it down on its [Terminate] — since the
    executor reads nothing back from it. *)

open Types

type event =
  | Step of { pid : pid; at : int }  (** a process was scheduled *)
  | Send of { src : pid; dst : pid; at : int; tag : string }
  | Drop of { src : pid; dst : pid; at : int; tag : string }
      (** a send suppressed by a mid-broadcast crash (sync kernel only;
          async link losses are accounted in [Event_sim.net]) *)
  | Work of { pid : pid; at : int; unit_id : int }
  | Crash of { pid : pid; at : int }
  | Restart of { pid : pid; at : int }
      (** a crashed process revived by the adversary's restart schedule *)
  | Persist of { pid : pid; at : int }
      (** a stable-storage write ({!Stable.write}); emitted by the recovery
          harness' [on_write] hook, not by the kernel *)
  | Tamper of { pid : pid; at : int }
      (** one adversary-corrupted payload — a Byzantine forgery by [pid] or
          an in-flight mutation of [pid]'s outgoing message (sync kernel
          with a tamper model, or the async link's [corrupt_bp]) *)
  | Reject of { pid : pid; at : int }
      (** a message [pid]'s validation layer refused (bad authenticator or
          unattested view); emitted by [Doall.Validate]-style harnesses'
          [on_reject] hook, not by the kernel *)
  | Terminate of { pid : pid; at : int }
  | Span_begin of { name : string; pid : pid; at : int; inc : int; ts_us : float }
      (** a timed region opened: kernel round ([pid = -1]), a process step,
          message delivery, a stable-storage write, or an async tick.
          [inc] is the incarnation (0 before any restart), [ts_us] a
          monotonic wall-clock stamp ([Dhw_util.Clock.now_us]). Spans flow
          through a separate [?spans] sink, never the [?obs] stream, so
          deterministic event output stays free of wall-clock data. *)
  | Span_end of { name : string; pid : pid; at : int; inc : int; ts_us : float }

val at : event -> int
(** The round/tick stamp of an event. *)

type sink = event -> unit

val null : sink

val tee : sink list -> sink
(** Fan one stream out to several sinks, in list order. *)

val memory : unit -> sink * (unit -> event list)
(** An in-memory sink and a function returning everything captured so far,
    in emission order. *)

val jsonl : out_channel -> sink
(** Stream events as JSON Lines: one compact object per event, e.g.
    [{"ev":"work","at":12,"pid":3,"unit":7}]. The caller owns the channel. *)

val event_to_json : event -> Dhw_util.Jsonw.t

val of_trace_event : Trace.event -> event

val replay : Trace.t -> sink -> unit
(** Feed a recorded {!Trace} through a sink, in recorded order — the bridge
    for post-hoc analysis of runs that only kept a trace. *)

val span_collector :
  src:string -> unit -> sink * (unit -> Dhw_util.Spanfile.span list)
(** A sink that pairs {!Span_begin}/{!Span_end} events (by name, pid and
    incarnation, LIFO) into completed [Dhw_util.Spanfile] spans stamped
    with [src], ignoring every non-span event — wire it into a [?spans]
    config slot and call the second component afterwards for the spans in
    completion order. Begins left open (a crash inside a span) are
    discarded. *)

module Timeline : sig
  (** Folds the event stream into per-round rows: alive processes,
      cumulative work/messages/effort, distinct units covered, and
      crash/termination marks. Rows exist only for rounds in which
      something happened (the kernel skips quiet rounds; so does the
      timeline). *)

  type t

  val create : n_processes:int -> n_units:int -> t
  val sink : t -> sink

  type row = {
    at : int;
    alive : int;
        (** processes up at [at]: [np - crashes + restarts - terminated] *)
    work : int;  (** cumulative, counting multiplicity *)
    msgs : int;
    effort : int;  (** work + msgs *)
    covered : int;  (** distinct units performed at least once by [at] *)
    crashes : int;  (** cumulative *)
    restarts : int;  (** cumulative *)
    persists : int;  (** cumulative stable-storage writes *)
    corruptions : int;  (** cumulative adversary-corrupted payloads *)
    rejected : int;  (** cumulative validation-layer refusals *)
    terminated : int;  (** cumulative *)
    d_work : int;  (** this round's work *)
    d_msgs : int;
    d_crashes : int;
    d_restarts : int;
    d_persists : int;
    d_tampers : int;
    d_rejects : int;
    d_terminated : int;
  }

  val rows : t -> row list
  (** Ascending by [at]. Cumulative fields are monotone non-decreasing and,
      absent restarts, [alive] is non-increasing — properties the qcheck
      suite pins down. A restart bumps [alive] back up. *)

  val final : t -> row option
  (** The last row; its cumulative fields equal the {!Metrics} totals of
      the observed run. *)

  val to_json : t -> Dhw_util.Jsonw.t
  (** Schema [dhw-timeline/v3]: processes, units, and the cumulative rows
      (v2 = v1 plus additive [restarts]/[persists] columns; v3 = v2 plus
      additive [corruptions]/[rejected] columns). *)

  val spark : ?max:int -> int list -> string
  (** Render a series as one ASCII character per value, using the density
      ramp [.:-=+*#@] scaled to [?max] (default: the series maximum);
      non-positive values render as ['.']. *)

  val pp : ?width:int -> Format.formatter -> t -> unit
  (** Multi-line ASCII timeline (alive, work/round, msgs/round, coverage,
      crash/termination marks), bucketed down to at most [width] (default
      64) columns. *)
end
