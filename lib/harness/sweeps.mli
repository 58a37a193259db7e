(** Secondary experiments beyond the three latency tables: the σ
    liveness bound of Section 5 and the decision-phase distributions
    discussed in §7.3. *)

type sigma_row = {
  omissions : int;
  adversary : Abstract_rounds.adversary;
  runs : int;
  k_reached : int;          (** runs where ≥ k correct processes decided *)
  mean_rounds : float option;  (** mean rounds to k over successful runs *)
  agreement_violations : int;
  validity_violations : int;
}

val run_seed :
  base_seed:int64 -> adversary:Abstract_rounds.adversary -> omissions:int ->
  run:int -> int64
(** The per-run seed of a sweep grid point: {!Util.Rng.derive} over
    (adversary index, omission budget, repetition). Collision-free
    across the grid and distinct per adversary, so adversary
    comparisons run on independent randomness — exposed for the
    regression test of the old additive scheme, which reused one seed
    for every adversary at a grid point. *)

val sigma_sweep :
  n:int -> k:int -> ?byzantine:int list -> ?dist:Runner.dist ->
  ?rounds:int -> ?runs_per_point:int -> ?beyond:int -> ?base_seed:int64 ->
  ?jobs:int -> unit -> sigma_row list
(** Sweeps the per-round omission budget from 0 to σ + [beyond]
    (default 4) for both adversaries, [runs_per_point] (default 10)
    seeds each, [rounds] (default 120) round horizon. Grid points run
    on the {!Pool} with [jobs] workers (default {!Pool.default_jobs});
    the row list is bit-identical for every [jobs]. *)

val sigma_sweep_merged :
  n:int -> k:int -> ?byzantine:int list -> ?dist:Runner.dist ->
  ?rounds:int -> ?runs_per_point:int -> ?beyond:int -> ?base_seed:int64 ->
  ?jobs:int -> unit -> sigma_row list * Obs.Metrics.snapshot
(** Like {!sigma_sweep}, also returning the merged per-run metrics
    (slot-ordered {!Obs.Metrics.merge} of every grid point's
    domain-local snapshot) — the aggregate the parallel-determinism
    test compares across [jobs] values. *)

val render_sigma : n:int -> k:int -> t:int -> sigma_row list -> string

type phase_row = {
  dist : Runner.dist;
  load : Net.Fault.load;
  samples : int;
  phase_stats : Util.Stats.summary;
  histogram : (int * int) list;  (** (decision phase, count) *)
}

val phase_distribution :
  n:int -> ?reps:int -> ?base_seed:int64 -> ?jobs:int ->
  loads:Net.Fault.load list -> unit -> phase_row list
(** Turquois decision-phase distribution per proposal distribution and
    fault load — the "decide by phase 3 unanimous, phase 6 divergent"
    observation of §7.3. *)

val render_phases : n:int -> phase_row list -> string

type ablation_row = {
  label : string;
  group : string;      (** which design choice the row belongs to *)
  ab_samples : int;
  latency : Util.Stats.summary;  (** milliseconds *)
}

val ablations :
  n:int -> ?reps:int -> ?base_seed:int64 -> ?jobs:int -> unit -> ablation_row list
(** Ablation study of DESIGN.md's called-out choices, Turquois only:

    - {b authentication}: one-time hash signatures (the paper's
      mechanism) vs charging conventional RSA sign/verify costs —
      failure-free load;
    - {b retransmission pacing}: fixed 10 ms ticks vs multiplicative
      adaptive backoff-down — fail-stop load, where the paper says
      pacing matters. *)

val render_ablations : n:int -> ablation_row list -> string

type edge_row = {
  edge_n : int;
  edge_sigma : int;
  rate : float;  (** per-receiver omission rate the adversary achieved *)
  edge : Util.Stats.summary;  (** latency, ms, censored at the timeout *)
  iid : Util.Stats.summary;  (** the same at iid loss of [rate] *)
  edge_stalls : int;  (** runs that timed out *)
  iid_stalls : int;
  edge_runs : int;
}

val sigma_edge_vs_loss : ns:int list -> ?reps:int -> ?base_seed:int64 -> unit -> edge_row list
(** Turquois, divergent, failure-free, per group size: [reps] (default
    10) runs under the adaptive {!Net.Fault.sigma_edge} omission
    adversary, then as many under iid loss at the per-receiver rate
    the adversary achieved, on the same seeds. Every correct process
    contributes its decision latency, censored at the 10 s timeout when
    it never decides: the adversary sits exactly at the Section 5
    bound, so starving a victim is expected, and dropping it from the
    mean would hide precisely the delay the adversary buys. *)

val render_sigma_edge : edge_row list -> string
