(** Semantic validation of messages (paper Section 6.2).

    A message is semantically valid when each of its three state
    variables — phase, proposal value, status — is congruent with some
    execution of the algorithm, as witnessed by previously validated
    messages. All checks count distinct senders in the caller's V set;
    thresholds are the paper's: more than (n+f)/2, written [Q], and more
    than ((n+f)/2)/2, written [Q/2], per phase as follows.

    - phase φ: φ = 1, or [Q] messages at φ−1;
    - value, φ = 1: v ∈ {0,1}, deterministic — always valid;
    - value, LOCK message (φ mod 3 = 2): v ∈ {0,1} with [Q/2] support
      at φ−1;
    - value, DECIDE message (φ mod 3 = 0): v ∈ {0,1} with [Q] support
      at φ−1, or ⊥ with [Q/2] support for each of 0 and 1 at φ−2;
    - value, CONVERGE message (φ mod 3 = 1, φ > 1): deterministic v
      with [Q] support at φ−2, or coin-flip v with [Q] ⊥-messages at
      φ−1;
    - status: undecided is free for φ ≤ 3, and for φ > 3 needs a
      0/1 split of [Q/2] each at the highest LOCK phase below φ;
      decided needs φ > 3, v ∈ {0,1} and [Q] support for v at some
      DECIDE phase φ₀ ≤ φ. *)

type rule = Phase | Value | Status
(** The three state-variable rules, checked in this order. *)

type failure
(** A failed rule with the counts it saw. The text is built only by
    {!describe}, so the receive path, which rejects far more often than
    it reads a reason, never formats one. *)

type verdict = (unit, failure) result

val rule : failure -> rule

val rule_name : rule -> string
(** ["phase"], ["value"] or ["status"]: the [rule] label of the
    [validation.rejected] counter. *)

val describe : failure -> string
(** One line naming the failed rule and the counts it saw, e.g.
    ["phase 5: only 0 messages at phase 4"]. *)

val check_phase : Proto.config -> Vset.t -> Message.t -> verdict
val check_value : Proto.config -> Vset.t -> Message.t -> verdict
val check_status : Proto.config -> Vset.t -> Message.t -> verdict

val semantic_check : Proto.config -> Vset.t -> Message.t -> verdict
(** Conjunction of the three; first failure wins. Counts the verdict
    into [validation.accepted] or [validation.rejected{rule}]. *)

val is_valid : Proto.config -> Vset.t -> Message.t -> bool

val highest_lock_phase_below : int -> int
(** The φ′ of the undecided-status rule: largest φ′ < φ with
    φ′ mod 3 = 2; 0 when none exists (φ ≤ 2). *)

val highest_decide_phase_below : int -> int
(** Largest DECIDE phase (mod 3 = 0) strictly below φ; 0 when none. *)
