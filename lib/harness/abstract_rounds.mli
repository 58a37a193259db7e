(** Abstract synchronous-round simulator over the pure protocol machine.

    Strips away the radio, MAC and timers and exposes exactly the model
    of Sections 3–5: in each round every process broadcasts its state,
    and an adversary suppresses up to σ of the n·(n−c) transmissions
    between correct processes. This isolates the paper's liveness claim
    — progress is guaranteed in rounds with at most
    σ = ⌈(n−t)/2⌉(n−k−t)+k−2 omissions — from all networking effects.

    Broadcasts always carry their explicit justification (the abstract
    model's processes are memoryless across rounds about retransmission,
    so the pessimistic encoding keeps validation self-contained). *)

type adversary =
  | Random_omissions
      (** each round, a uniformly random set of σ (sender, receiver)
          pairs among correct processes is suppressed *)
  | Target_victims
      (** the adversary's strongest pattern: completely silence
          n−k−t victims (isolating them costs (n−t−1) omissions each
          ... bounded by σ) and then starve one more process just below
          its quorum with the remaining budget *)
  | Sigma_edge
      (** the formula-structured adversary: ⌈(n−t)/2⌉ drops against each
          successive victim (the per-victim term of σ), remainder to the
          next — the pattern that makes the bound tight where the
          blocking cost equals k−2 *)

type outcome = {
  deciders : int;        (** correct processes decided at the horizon *)
  rounds_to_k : int option;
      (** first round where at least k correct processes had decided *)
  agreement : bool;
  validity : bool;
}

(** Externally-driven synchronous rounds: the caller supplies each
    round's adversary choices — per-receiver omissions and per-round
    Byzantine strategies. Every lockstep execution steps through here:
    the model checker, the replay engine for serialized round
    schedules, and {!run} and {!single_round}, whose drops come from a
    built-in pattern. *)
module Driven : sig
  type sim

  val create :
    n:int ->
    k:int ->
    ?byzantine:int list ->
    ?dist:Runner.dist ->
    ?behavior:Core.Machine.behavior ->
    horizon:int ->
    rng:Util.Rng.t ->
    unit ->
    sim
  (** A fresh group at phase 1. [horizon] bounds how many rounds the sim
      will be stepped (it sizes the one-time-key horizon). Each machine
      takes a {!Util.Rng.split} of [rng], in id order. [byzantine]
      machines start with [behavior] (default
      [Byzantine Core.Strategy.silent]). Key material comes from the
      deterministic per-(n, phases) cache — results are
      key-independent. *)

  val clone : sim -> sim
  (** Independent deep copy; stepping one never affects the other. *)

  val step : sim -> drops:(int * int) list -> byz:(int * Core.Strategy.t) list -> unit
  (** One synchronous round: every process broadcasts (Byzantine ones
      follow their entry in [byz], or their own behavior when it names
      none — a silent machine stays quiet, a crash), then every
      (sender, receiver) delivery not in [drops] happens. *)

  val round : sim -> int
  val correct : sim -> int list

  val machine : sim -> int -> Core.Machine.t
  (** Process [i]'s machine, for inspection: stepping or feeding it
      outside {!step} desynchronizes the group (emit on a
      {!Core.Machine.clone} instead). *)

  val decisions : sim -> (int * int) list
  (** (id, decided value) for the correct deciders. *)

  val deciders : sim -> int

  val advanced : sim -> int
  (** Correct processes past phase 1. *)

  val violations : sim -> string list
  (** {!Runner.safety_violations} over the correct deciders, rendered
      by {!Runner.breach_to_string}. *)

  val fingerprint : sim -> string
  (** Canonical serialization of the whole group state (concatenated
      {!Core.Machine.fingerprint}s). Equal fingerprints between sims of
      identical configuration imply identical future behavior under
      identical adversary choices. *)
end

val run :
  n:int ->
  k:int ->
  ?byzantine:int list ->
  ?dist:Runner.dist ->
  ?adversary:adversary ->
  omissions:int ->
  rounds:int ->
  seed:int64 ->
  unit ->
  outcome
(** Runs [rounds] synchronous rounds with exactly [omissions] suppressed
    transmissions per round (fewer when not that many exist).
    [byzantine] processes run the §7.2 [Attacker]. *)

val single_round :
  n:int ->
  k:int ->
  ?byzantine:int list ->
  ?adversary:adversary ->
  omissions:int ->
  seed:int64 ->
  unit ->
  int
(** One synchronous round in isolation, returning how many correct
    processes advanced past phase 1. [byzantine] processes are silent
    (the liveness bound's worst case); the default adversary is
    {!Sigma_edge}. No cross-round adoption can rescue a blocked victim
    here, so at (n,k,t) points where the blocking cost equals k−2 this
    returns [< k] with [omissions = σ] and [>= k] with [σ − 1] — the σ
    tightness check of the test suite. *)
