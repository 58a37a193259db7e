(** Shared protocol vocabulary: proposal values, phase arithmetic,
    quorum thresholds, and the k-consensus configuration. *)

(** A proposal value. [Vbot] is the paper's ⊥ — "no preference" — and
    is only admissible in messages of DECIDE phases. *)
type value = V0 | V1 | Vbot

val value_equal : value -> value -> bool
val value_to_int : value -> int
(** 0, 1, or 2 for ⊥ (wire encoding). *)

val value_of_int : int -> value
(** @raise Util.Codec.Malformed outside 0..2. *)

val value_of_bit : int -> value
(** 0 → [V0], 1 → [V1]. @raise Invalid_argument otherwise. *)

val bit_of_value : value -> int option
(** Inverse of {!value_of_bit}; [None] for ⊥. *)

val value_to_string : value -> string

(** How a CONVERGE-phase proposal was obtained (Algorithm 1 lines
    32–36): adopted deterministically from a received value, or drawn
    from the local coin. Receivers must distinguish the two (line 12),
    so the flag is part of the message and of its one-time signature. *)
type origin = Deterministic | Random

type status = Undecided | Decided

(** Which of the three phases of a cycle a phase number falls in. *)
type phase_kind = Converge | Lock | Decide

val kind_of_phase : int -> phase_kind
(** φ mod 3 = 1 → CONVERGE, 2 → LOCK, 0 → DECIDE.
    @raise Invalid_argument for φ < 1. *)

type config = {
  n : int;  (** total number of processes *)
  f : int;  (** maximum Byzantine processes tolerated *)
  k : int;  (** processes required to decide (harness-level; the state
                machine itself does not consult k) *)
  max_phases : int;    (** one-time-signature key horizon *)
}

val default_config : n:int -> config
(** f = ⌊(n−1)/3⌋, k = n − f, 300-phase key horizon. *)

val tick_interval : float
(** Seconds between broadcast ticks: 10 ms, as in the paper's
    prototype. *)

val validate_config : config -> unit
(** @raise Invalid_argument when n ≤ 3f, or k outside
    ((n+f)/2, n−f], or non-positive fields. *)

val quorum_exceeded : config -> int -> bool
(** [quorum_exceeded c count] ⟺ count > (n+f)/2 (as a real number). *)

val half_quorum_exceeded : config -> int -> bool
(** [half_quorum_exceeded c count] ⟺ count > ((n+f)/2)/2. *)

val past_faulty : config -> int -> bool
(** [past_faulty c count] ⟺ count > f: among [count] distinct senders
    at least one is correct (an f+1 witness set). *)

val past_double_faulty : config -> int -> bool
(** [past_double_faulty c count] ⟺ count > 2f: a certificate — with
    n > 3f any two such sender sets intersect in a correct process, so
    at most one value can ever collect this many distinct senders. *)

val sigma : config -> t:int -> int
(** The paper's liveness bound: the protocol makes progress in rounds
    whose omission-fault count is at most
    σ = ⌈(n−t)/2⌉·(n−k−t) + k − 2, where t ≤ f is the number of
    actually faulty processes ({!Obs.Analyze.sigma} after the bounds
    check).
    @raise Invalid_argument unless [0 <= t <= f]. *)
