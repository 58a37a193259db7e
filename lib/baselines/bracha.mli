(** Bracha's asynchronous ⌊(n−1)/3⌋-resilient randomized consensus
    (PODC 1984) — the first comparison protocol of the paper's
    evaluation.

    Every protocol message travels inside Bracha's reliable broadcast
    primitive (INITIAL / ECHO / READY with the 2f+1 and f+1 amplification
    thresholds), giving the O(n³) message complexity the paper measures.
    As in the paper's testbed, all point-to-point traffic uses the
    reliable transport ({!Net.Rlink}) with authenticated channels (the
    IPSec AH stand-in), because the protocol assumes reliable
    authenticated links.

    Each round has three steps: converge on a majority value, detect a
    super-majority (a "d-flagged" value), and decide when 2f+1 d-flags
    agree — otherwise adopt (f+1 d-flags) or flip a local coin. *)

type behavior =
  | Correct
  | Attacker
      (** §7.2 strategy: opposite value in steps 0 and 1, d-flag
          withheld in step 2. *)

type t

val create :
  Net.Node.t ->
  n:int ->
  f:int ->
  ?behavior:behavior ->
  ?port:int ->
  proposal:int ->
  unit ->
  t
(** The transport is created internally on [port] (default 700).
    @raise Invalid_argument unless [n > 3f] and the proposal is 0/1. *)

val start : t -> unit
val on_decide : t -> (value:int -> round:int -> unit) -> unit
val id : t -> int
val decision : t -> int option
val round : t -> int
