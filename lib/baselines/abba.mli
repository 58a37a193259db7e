(** ABBA — Asynchronous Binary Byzantine Agreement in the style of
    Cachin, Kursawe and Shoup (Journal of Cryptology 2005), the paper's
    second comparison protocol.

    Rounds of two message exchanges over reliable authenticated links:

    + {b pre-vote}: every party signs and broadcasts its pre-vote for
      the round; pre-votes after round 1 must carry a justification
      from the previous round;
    + {b main-vote}: after n−f valid pre-votes, a party main-votes the
      unanimous value b (justified by the n−f collected pre-vote
      signatures) or ⊥/abstain (justified by two conflicting
      pre-votes); main-votes also release the party's threshold-coin
      share for the round.

    After n−f valid main-votes: unanimously b → decide b; some b →
    pre-vote b next round; all abstain → pre-vote the common coin.

    Where CKS uses dual-threshold signatures, this implementation
    carries k-of-n multisignatures with identical collection patterns
    and verification counts (see DESIGN.md §2); the common coin is the
    CKS Diffie–Hellman threshold coin ({!Crypto.Coin}). The protocol is
    deliberately heavy on public-key operations — that cost, charged to
    the simulated CPUs, is what the paper's Table 1–3 measure. *)

type behavior =
  | Correct
  | Attacker
      (** §7.2 strategy: flood syntactically well-formed messages with
          invalid signatures and justifications, forcing verification
          work at correct processes. *)

(** Key material shared by one protocol group (pre-distributed, as in
    the paper's methodology). *)
type group_keys

val setup_keys : Util.Rng.t -> n:int -> f:int -> group_keys
(** Generates a 512-bit RSA keypair for every party and deals the
    threshold-coin shares (threshold f+1). *)

type t

val create :
  Net.Node.t ->
  keys:group_keys ->
  ?behavior:behavior ->
  ?port:int ->
  proposal:int ->
  unit ->
  t
(** Transport created internally on [port] (default 800). *)

val start : t -> unit
val on_decide : t -> (value:int -> round:int -> unit) -> unit
val id : t -> int
val decision : t -> int option
val round : t -> int
