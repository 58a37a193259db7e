(** The Turquois Byzantine k-consensus protocol (Algorithm 1).

    Each instance runs on one simulated {!Net.Node.t}: task T1 is the
    10 ms broadcast tick (re-armed immediately on phase changes, as in
    the paper's prototype), task T2 is the message handler. Arriving
    messages pass authenticity validation (one hash) and then semantic
    validation; messages that cannot be validated yet wait in a pending
    pool and are re-examined whenever V grows — this implements the
    optimistic implicit validation with explicit justifications attached
    to repeated broadcasts (Section 6.2).

    Safety holds for any number of omission faults; with fewer than
    σ omissions per round the instance keeps making progress, and
    randomization ensures termination with probability 1. *)

(** Retransmission pacing for task T1. The paper's prototype re-arms a
    fixed 10 ms tick and notes that "an optimization of the
    retransmission mechanism could significantly improve the performance
    of Turquois" in loss-sensitive scenarios (§7.3). [Adaptive] is that
    optimization: while the state does not change, the tick interval
    backs {e down} multiplicatively to [floor] (faster recovery of lost
    messages); any phase change resets it to the configured interval.
    The ablation benchmark quantifies the difference.

    [Mac_aware] paces from the medium instead of a preset schedule: at
    every own phase change it reads the radio's cumulative airtime, and
    sets the tick to [headroom] times the channel occupancy the finished
    phase consumed, clamped to [[max floor tick_interval, cap]] — it
    only ever adapts {e upward} from the configured interval, so a
    16-station network keeps the paper's exact 10 ms timing while 64 or
    128 stations — whose phases take hundreds of milliseconds of
    airtime to clear — back off proportionally instead of flooding the
    medium with retransmissions it cannot carry. *)
type tick_policy =
  | Fixed_tick
  | Adaptive_tick of { floor : float; factor : float }
  | Mac_aware of { floor : float; headroom : float; cap : float }

val default_adaptive : tick_policy
(** Floor 2.5 ms, factor 0.5. *)

val default_mac_aware : tick_policy
(** Floor 2.5 ms, headroom 0.25, cap 0.5 s. *)

(** CPU-cost model for message authentication — an ablation knob. The
    protocol always uses the one-time hash signatures on the wire;
    [Rsa_cost] charges each broadcast a public-key signing cost and each
    authenticity check a public-key verification cost instead of a hash,
    quantifying what the paper's contribution (3) saves. *)
type auth_cost = Onetime_cost | Rsa_cost

(** Re-export of {!Machine.behavior}. [Attacker] is the paper's fixed
    Byzantine strategy (§7.2): broadcast the opposite value in CONVERGE
    and LOCK phases and ⊥ in DECIDE phases, even when the resulting
    messages are invalid. [Byzantine] runs an arbitrary strategy from
    the {!Strategy} library; equivocating plans are shipped as unicasts
    so no receiver overhears the conflicting copy. *)
type behavior = Machine.behavior =
  | Correct
  | Attacker
  | Byzantine of Strategy.t

type t

val create :
  Net.Node.t ->
  Proto.config ->
  keyring:Keyring.t ->
  ?behavior:behavior ->
  ?port:int ->
  ?tick_policy:tick_policy ->
  ?linger_ticks:int ->
  ?auth_cost:auth_cost ->
  proposal:int ->
  unit ->
  t
(** Binds an instance to a node. [proposal] is the initial binary value.
    [port] defaults to 443 (any free datagram port works as long as all
    instances agree). After deciding, the instance keeps broadcasting for
    [linger_ticks] more T1 activations (default 50) so that slower
    processes can still collect quorums and decision certificates, then
    goes quiet. The instance is inert until {!start}.
    @raise Invalid_argument on a bad config or proposal. *)

val start : t -> unit
(** Broadcasts the initial state and starts the tick timer. *)

val stop : t -> unit
(** Cancels the broadcast tick. The instance stops transmitting (and,
    if undecided, stops trying to decide); reception is unaffected
    until the owner unlistens the port. Used when a multi-instance
    service retires an instance whose outcome is already known. *)

val on_decide : t -> (value:int -> phase:int -> unit) -> unit
(** Called exactly once, when the decision variable is first set. *)

val id : t -> int
val phase : t -> int
val decision : t -> int option
