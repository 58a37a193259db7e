(** Sample-based probabilistic binary consensus.

    A phase-structured Ben-Or descendant where every quorum is a
    deterministic public sample of O(log n) peers: per-node message
    cost is O(log n) per phase, so n = 1024 runs are feasible where
    the all-to-all baselines collapse. Agreement and termination are
    probabilistic (1 - epsilon); all randomness — samples, the shared
    phase coin, attacker noise — derives from the run seed, so runs
    are bit-identical at any parallelism. *)

type behavior = Correct | Attacker | Equivocator | Silent

val sample_size : n:int -> int
(** Sample size ~ 3 ln n (min 8) — full membership below the crossover
    where sampling would actually thin the fan-out. Deciding takes the
    BFT quorum k - (k-1)/3 of the tally universe (inverse sample plus
    own vote), sustained for two consecutive even phases. *)

val state_frame_bytes : int
(** Encoded size of one vote frame — what per-frame channel-capacity
    math (e.g. the harness's contended-radio tick sizing) must assume,
    instead of guessing. Phases above 127 add one varint byte. *)

type t

val create :
  Transport.t ->
  Sampler.t ->
  id:int ->
  coin_seed:int64 ->
  ?tick:float ->
  ?behavior:behavior ->
  proposal:int ->
  unit ->
  t
(** [coin_seed] must be identical at every node (public randomness);
    [proposal] must be 0 or 1. [tick] (default 20 ms) is the re-push
    interval: after three ticks in one phase a node acts on a partial
    tally, it stops at phase 40, and it lingers ten ticks after
    deciding. *)

val id : t -> int
val phase : t -> int
val decision : t -> int option
val on_decide : t -> (value:int -> phase:int -> unit) -> unit

val start : t -> unit
(** Registers the listen hook, pushes phase 1 and arms the tick. *)
