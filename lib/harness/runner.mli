(** Single-run experiment driver.

    Reproduces the paper's methodology (§7.2): n processes on one
    simulated 802.11b broadcast domain; a signaling broadcast starts
    every process (modeled as a small randomized start offset); each
    process records the interval between proposing and deciding. The
    run ends when every correct process decides, or at the timeout.

    Key material is expensive to generate, so it is cached per group
    size and shared across repetitions — exactly as the paper
    pre-distributes keys before its runs. *)

type protocol = Turquois | Bracha | Abba | Sampled
(** [Sampled] is the sample-based probabilistic consensus from
    {!Scale.Sampled}, run over the same radio/MAC unicast stack;
    Byzantine processes map the ["equivocate"] strategy to its
    equivocator and every other strategy to its random attacker. *)

val protocol_to_string : protocol -> string

val protocol_of_string : string -> protocol option
(** {!protocol_to_string}'s inverse, ignoring case: the CLI's and the
    reproducer codec's one parser. *)

type dist = Unanimous | Divergent

val dist_to_string : dist -> string

val proposals : dist -> n:int -> int array
(** Unanimous: all 1. Divergent: odd ids propose 1, even ids 0 (§7.2). *)

(** A breach of one safety clause by one decider. *)
type breach =
  | Agreement of { id : int; value : int; first : int }
      (** decided [value] against the first decider's [first] *)
  | Validity of { id : int; value : int }  (** decided [value] in a unanimous-1 run *)
  | Integrity of { id : int; value : int }  (** decided a non-binary [value] *)

val safety_violations : dist:dist -> (int * int) list -> breach list
(** The agreement, validity and integrity breaches among (process id,
    decided value) pairs, in that order — the safety clauses every
    driver, the chaos harness and the model checker share. *)

val breach_to_string : breach -> string
(** One report line, e.g. ["agreement: p2 decided 0, others 1"]. *)

val agreement_holds : breach list -> bool
(** No [Agreement] breach among them. *)

val validity_holds : breach list -> bool
(** No [Validity] breach among them. *)

type result = {
  latencies : (int * float) list;
      (** (process id, seconds from its proposal to its decision),
          correct processes that decided *)
  decisions : (int * int) list;    (** (process id, decided value) *)
  decision_phases : (int * int) list;
      (** (process id, phase/round at decision) *)
  correct : int list;              (** ids measured (not crashed/Byzantine) *)
  agreement : bool;
      (** no two decided values differ ({!agreement_holds}) *)
  validity : bool;
      (** unanimous runs: every decision equals the proposed value
          ({!validity_holds}) *)
  duration : float;                (** simulated seconds until run end *)
  timed_out : bool;
  frames_sent : int;               (** radio frames over the run *)
  bytes_sent : int;
  airtime : float;                 (** cumulative medium occupancy, s *)
  events_live_peak : int;          (** engine live-event high-water mark *)
  events_queued_peak : int;        (** raw queue high-water mark *)
  metrics : Obs.Metrics.snapshot;
      (** per-run metrics across every instrumented layer; the global
          registry is reset at the start of each run ({!Obs.Scope.with_run}),
          so repetitions never leak counters into each other *)
}

val run :
  protocol:protocol ->
  n:int ->
  dist:dist ->
  load:Net.Fault.load ->
  ?loss:float ->
  ?strategy:Core.Strategy.t ->
  ?schedule:Net.Schedule.t ->
  ?attach:(Net.Radio.t -> unit) ->
  ?tick_policy:Core.Turquois.tick_policy ->
  ?auth_cost:Core.Turquois.auth_cost ->
  ?timeout:float ->
  seed:int64 ->
  unit ->
  result
(** One consensus execution. [loss], the iid per-receiver omission
    probability, defaults to {!Net.Fault.benign_loss}; [timeout] to 120
    simulated seconds.
    With [strategy], Turquois's Byzantine processes run that strategy
    instead of the legacy §7.2 [Attacker] (baseline protocols keep their
    own attacker). [schedule] arms a declarative fault timeline on the
    radio before the run; [attach] is a last-resort hook for installing
    custom radio-level adversaries (e.g. {!Net.Fault.sigma_edge}).
    [tick_policy] (default {!Core.Turquois.default_mac_aware}) and
    [auth_cost] (default [Onetime_cost]) reach only Turquois — the
    ablations' knobs. *)

val clear_key_cache : unit -> unit
(** Drops the cached key material (for tests that need fresh keys). *)

val keyrings_for : seed:int64 -> n:int -> phases:int -> Core.Keyring.t array
(** Domain-local cached {!Core.Keyring.setup} from a dedicated seed.
    Key generation is by far the most expensive step of a simulated run
    (RSA keypairs for the VK exchange), and the paper pre-distributes
    all key material before its experiments — so harnesses that would
    otherwise regenerate keys per repetition share one deterministic
    array per (seed, n, phases) instead. Callers must pick seeds
    disjoint from run seeds and must not mutate the result. *)
