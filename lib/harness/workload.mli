(** Open-loop workload generator for the pipelined consensus service.

    Drives a {!Core.Ordered_log} cluster with client commands arriving
    at a configurable offered load — Poisson (memoryless gaps) or
    bursty (groups of [b] back-to-back commands at the same long-run
    rate) — and measures what a deployment would: sustained
    decisions/sec, delivered-command throughput versus offered load,
    and per-command submit→deliver latency at the submitting node.

    Everything is simulation-time and seed-deterministic: arrival
    times are precomputed from the run seed before the simulation
    starts, sweep tasks derive their seeds from grid coordinates, and
    results carry no wall-clock — so a sweep is bit-identical across
    [-j N] and observer-only knobs, and is checked as such by the
    equivalence table in [test/equiv.ml] and the bench gate. *)

type arrival =
  | Poisson
  | Bursty of int  (** burst size; same long-run rate as [Poisson] *)

type config = {
  n : int;
  capacity : int;  (** total log slots per run *)
  window : int;  (** pipeline depth *)
  max_batch : int;  (** commands per slot *)
  load : float;  (** offered load, commands/sec across the system *)
  arrival : arrival;
  commands : int;  (** commands injected per run *)
  cmd_bytes : int;  (** filler bytes per command *)
  loss : float;
  payload_wait : float;  (** non-proposer crash deadline per slot *)
  noop_wait : float;
      (** how long an idle proposer holds its slot open for traffic
          before announcing a no-op — the demand-pacing knob *)
  timeout : float;  (** sim-seconds safety horizon *)
  seed : int64;
}

val default : n:int -> config
(** 24 slots, window 1, batch 8, 50 cmd/s Poisson, 60 commands, 1%
    loss. On the contention-modeled shared medium, narrow windows win:
    wider pipelines multiply concurrent consensus instances competing
    for airtime and congest the channel faster than they add slots. *)

type result = {
  offered_load : float;
  commands : int;
  delivered_commands : int;  (** commands that reached delivery *)
  committed_slots : int;
  skipped_slots : int;
  duration : float;  (** sim-seconds until every process drained the log *)
  throughput : float;  (** delivered commands / duration *)
  decisions_per_sec : float;  (** delivered slots / duration *)
  latency_p50 : float;  (** submit→deliver seconds, submitting node *)
  latency_p99 : float;
}

val run : config -> result
(** One run under its own {!Obs.Scope.with_run}.
    @raise Invalid_argument on a nonsensical config (n < 4,
    non-positive sizes/load, loss outside [0,1)). *)

(** One offered-load point of a sweep, averaged over its reps. *)
type point = {
  load_point : float;
  mean_throughput : float;
  mean_decisions_per_sec : float;
  mean_p50 : float;
  mean_p99 : float;
  mean_delivered : float;
  reps : int;
}

val sweep :
  ?jobs:int -> base:config -> loads:float list -> reps:int -> unit -> point list
(** Runs [reps] runs per offered load on the worker pool; point order
    follows [loads]. Bit-identical for any [jobs]. *)

val knee : ?efficiency:float -> point list -> float option
(** Highest offered load still served at [efficiency] (default 0.9) of
    the offered rate — the saturation knee. [None] when even the
    lowest load saturates. *)

val render_points : point list -> string
