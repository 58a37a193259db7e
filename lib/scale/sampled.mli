(** Sample-based probabilistic binary consensus.

    A phase-structured Ben-Or descendant where every quorum is a
    deterministic public sample of O(log n) peers: per-node message
    cost is O(log n) per phase, so n = 1024 runs are feasible where
    the all-to-all baselines collapse. Agreement and termination are
    probabilistic (1 - epsilon); all randomness — samples, the shared
    phase coin, attacker noise — derives from the run seed, so runs
    are bit-identical at any parallelism. *)

type behavior = Correct | Attacker | Equivocator | Silent

type config = {
  sample_size : int;
  quorum_frac : float;  (** of the inverse set heard before advancing *)
  adopt_frac : float;  (** majority share that displaces the coin *)
  claim_frac : float;  (** distinct claimants that import a decision *)
  confidence : int;
      (** consecutive even-phase supermajorities for the same value
          before deciding it — one skewed sample during a genuinely
          split phase must not certify a decision *)
  tick : float;
  patience : int;  (** ticks without quorum before advancing anyway *)
  max_phases : int;
  linger_ticks : int;  (** decided nodes re-push claims this long *)
  epochs : int;  (** sample tags cycle with this period: flat memory *)
}

val default_config : n:int -> config
(** Sample size ~ 3 ln n (min 8) — full membership below the crossover
    where sampling would actually thin the fan-out. Deciding takes the
    BFT quorum k - (k-1)/3 of the tally universe (inverse sample plus
    own vote), sustained for [confidence] consecutive even phases. *)

val state_frame_bytes : int
(** Encoded size of one vote frame — what per-frame channel-capacity
    math (e.g. the harness's contended-radio tick sizing) must assume,
    instead of guessing. Phases above 127 add one varint byte. *)

type t

val create :
  Transport.t ->
  Sampler.t ->
  config ->
  id:int ->
  coin_seed:int64 ->
  ?behavior:behavior ->
  proposal:int ->
  unit ->
  t
(** [coin_seed] must be identical at every node (public randomness);
    [proposal] must be 0 or 1. *)

val id : t -> int
val phase : t -> int
val decision : t -> int option
val on_decide : t -> (value:int -> phase:int -> unit) -> unit

val start : t -> unit
(** Registers the listen hook, pushes phase 1 and arms the tick. *)
