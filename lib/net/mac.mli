(** 802.11b DCF medium access control, one instance per node.

    Models the distributed coordination function: DIFS sensing, slotted
    backoff with freezing while the medium is busy, and the two frame
    classes the paper's evaluation contrasts —

    - {b broadcast}: transmitted at the 2 Mb/s basic rate, no MAC-level
      acknowledgment, no retransmission, a single contention window. One
      collision can deprive all n−1 receivers of the frame (paper §7.3).
    - {b unicast}: transmitted at 11 Mb/s, acknowledged after SIFS, and
      retransmitted with exponential backoff up to the retry limit —
      this is the reliability TCP-style transports build on.

    Frames are {!Radio.frame} records: this module fills in their
    addressing, sequence numbers and kind, and computes their airtime
    from the datagram they carry ({!Radio.datagram_bytes}) plus the MAC
    header and the physical preamble. *)

(** Protocol timing and size constants (802.11b, long preamble):
    slot 20 µs, SIFS 10 µs, DIFS 50 µs, PLCP preamble + header 192 µs
    long / 96 µs short (broadcasts use long, unicast and ACKs short),
    basic rate 2 Mb/s (broadcasts and ACKs), data rate 11 Mb/s (unicast),
    CW in [31, 1023], retry limit 7, ACK frame 14 bytes, MAC header +
    FCS + LLC/SNAP 36 bytes. *)
module Const : sig
  val slot : float
  val sifs : float
  val difs : float
  val plcp_overhead : float
  val plcp_short : float
  val basic_rate : float
  val data_rate : float
  val cw_min : int
  val cw_max : int
  val retry_limit : int
  val ack_bytes : int
  val header_bytes : int
end

type t

val create : Engine.t -> Radio.t -> id:int -> rng:Util.Rng.t -> t
(** One MAC entity for node [id]. All MACs of a network share the radio
    and must be created before any traffic flows. Received frames are
    dispatched to the MAC of the receiving node by id.
    @raise Invalid_argument when [id] is outside [0, Radio.size radio)
    or the radio already has a MAC for [id]. *)

val id : t -> int

val send_broadcast : t -> port:int -> bytes -> unit
(** Queues a broadcast of [payload] to datagram port [port]. *)

val send_broadcast_replacing : t -> tag:int -> port:int -> bytes -> unit
(** Like {!send_broadcast}, but if a queued (not yet in-service)
    broadcast with the same [tag] is still waiting for the medium, its
    port and payload are overwritten in place instead — the queue holds
    at most one waiting frame per tag, so a sender that produces state
    updates faster than the contended medium drains them never builds a
    backlog of stale frames. Counted under the [mac.replaced] metric. *)

val send_unicast : t -> dst:int -> port:int -> bytes -> unit
(** Queues a unicast to [dst], with ACK and retransmission. *)

val radio : t -> Radio.t
(** The shared medium this MAC contends on — exposed so upper layers can
    read cumulative airtime statistics (e.g. load-adaptive timers). *)

val on_deliver : t -> (src:int -> port:int -> bytes -> unit) -> unit
(** Upper-layer delivery callback: fires once per distinct received
    frame (duplicates from lost ACKs are suppressed) with its port and
    payload. Every receiver is handed the sender's own payload buffer,
    so delivered bytes are immutable: callbacks must not write to
    them. *)

val on_drop : t -> (dst:int -> bytes -> unit) -> unit
(** Fires with the payload when a unicast frame exhausts the retry
    limit. *)

val queue_length : t -> int
(** Frames waiting for the medium (including the one in service). *)

val airtime_broadcast : payload_bytes:int -> float
(** Time on air of a broadcast payload including headers and preamble;
    exposed for capacity analysis and tests. *)

val airtime_unicast : payload_bytes:int -> float

val ack_airtime : float
(** Time on air of a MAC-level acknowledgment (short preamble, basic
    rate) — part of the full per-unicast channel cost together with
    SIFS, DIFS and the average backoff. *)
