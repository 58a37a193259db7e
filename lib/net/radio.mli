(** Shared 802.11b broadcast medium for a single-hop ad hoc network.

    All n nodes are within range of each other (as in the paper's
    testbed, "at most a few meters distant"). The medium carries frame
    records, not bytes: a frame's byte count ({!frame_bytes}) feeds the
    [radio.bytes] series, and its sender gives its airtime. Any two
    transmissions that overlap in time collide and corrupt each other
    (no capture effect). On top of collisions the
    model injects the paper's dynamic omission faults: an iid
    per-receiver loss probability, and jamming windows during which
    every frame is corrupted (the jammer is modeled below the
    carrier-sense threshold, so it destroys frames without making the
    medium appear busy — the harshest interpretation of Section 1's
    jamming discussion). *)

type t

type frame = {
  src : int;  (** MAC source *)
  dst : int;  (** MAC destination: a node id, or the MAC's broadcast address *)
  seq : int;  (** MAC sequence number; an ACK names the frame it acknowledges *)
  ack : bool;  (** a MAC acknowledgment, which carries no datagram *)
  port : int;  (** datagram port *)
  payload : bytes;  (** what the layer above sent, handed to every receiver *)
}
(** What one transmission carries. *)

val datagram_bytes : bytes -> int
(** The datagram a data frame carries with this payload: the payload
    plus 32 bytes (a 2-byte port, 26 bytes of IP+UDP header padding and
    a 4-byte payload length). Airtime is computed on it. *)

val frame_bytes : frame -> int
(** Bytes on the medium: a 13-byte MAC record (kind, src, dst, seq,
    payload length), plus {!datagram_bytes} on a data frame. So a data
    frame counts its payload plus 45, and an ACK 13. *)

type stats = {
  mutable frames_sent : int;
  mutable collisions : int;      (** frames corrupted by overlap *)
  mutable jammed : int;          (** frames destroyed by jamming *)
  mutable bytes_sent : int;
  mutable airtime : float;       (** cumulative seconds of occupancy *)
}

val create : Engine.t -> Util.Rng.t -> n:int -> t

val set_loss_prob : t -> float -> unit
(** Probability that a given receiver independently misses a given
    (otherwise successful) frame. Default 0. *)

val set_rx_loss : t -> rx:int -> float -> unit
(** Additional, independent per-receiver omission probability layered on
    top of the global one (targeted interference near one station).
    Default 0. *)

val set_link_loss : t -> tx:int -> rx:int -> float -> unit
(** Additional, independent omission probability for one directed
    (sender, receiver) link. 0 removes the overlay. *)

val jam_rx : t -> rx:int -> until:float -> unit
(** Destroys every frame arriving at [rx] from now until [until]
    (absolute time): its per-receiver omission probability is 1
    meanwhile. Windows may overlap each other and the {!set_rx_loss}
    overlay; once the last window closes, the overlay applies again. *)

val delay_rx : t -> rx:int -> delay:float -> until:float -> unit
(** Adds [delay] seconds of delivery latency at [rx] from now until
    [until] (absolute time) — a station whose reception path is
    momentarily slow; varying it across receivers reorders deliveries.
    While windows overlap, the one opened last applies; once the last
    closes, [rx] delivers without delay. *)

val set_filter : t -> (now:float -> tx:int -> rx:int -> bool) option -> unit
(** Installs (or clears) an adversarial drop predicate consulted for
    every otherwise-successful delivery; returning [true] suppresses the
    frame for that receiver. This is the hook adaptive omission
    adversaries (e.g. {!Fault.sigma_edge}) use to pick their victims
    online. The stochastic overlays are sampled first; the filter is
    consulted only for frames they let through. *)

val set_down : t -> int -> bool -> unit
(** Crashed nodes neither transmit nor receive. Emits a ["radio"]/
    ["down"] (resp. ["up"]) {!Obs.Trace2} event on every state change,
    so crash and recovery are both visible in exported traces. *)

val is_down : t -> int -> bool

val engine : t -> Engine.t
(** The engine this radio schedules on (for fault injectors). *)

val size : t -> int
(** Number of stations [n]. *)

val jam : t -> from:float -> until:float -> unit
(** Adds a jamming window in absolute simulation time. *)

val on_receive : t -> (int -> sender:int -> frame -> unit) -> unit
(** Registers the single delivery callback: [f receiver ~sender frame]
    runs at the end of a successful reception. Set once by the MAC. *)

type attachment = ..
(** State a layer above keeps with the radio it serves, so that it lives
    exactly as long as the radio does (the MACs' dispatch table and
    contention batches). *)

val attachment : t -> attachment option
val attach : t -> attachment -> unit
(** Replaces the radio's attachment. *)

type frame_class
(** A frame class ("bcast", "ucast", "ack", ...) with its [radio.tx],
    [radio.bytes] and [radio.airtime_s] series. *)

val frame_class : string -> frame_class
(** Declares the class's series; make one per class, at module level. *)

val transmit : t -> ?kind:frame_class -> sender:int -> duration:float -> frame -> unit
(** Starts a transmission occupying the medium for [duration] seconds;
    delivery (or corruption) resolves at its end, handing every
    receiver the same frame. The sender does not receive its own frame.
    [kind] labels the frame class (default ["data"]) in the [radio.*]
    metrics and the structured trace, whose events carry the causal id
    of the frame's payload ({!Obs.Causal.mid_field}). *)

val busy : t -> bool
(** Carrier sense at the current instant. *)

val idle_since : t -> float -> bool
(** [idle_since t s] is true when the medium has been continuously idle
    from time [s] to now. *)

val subscribe_idle : t -> (unit -> unit) -> unit
(** One-shot callback at the next instant the medium becomes idle
    (immediately-next event if it is idle already). The callbacks
    waiting for one idle instant run in one engine action, in
    subscription order. *)

val stats : t -> stats
