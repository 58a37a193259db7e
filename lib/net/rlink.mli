(** Reliable, ordered, message-oriented point-to-point transport — the
    TCP stand-in for the Bracha and ABBA baselines.

    Sliding-window ARQ with cumulative acknowledgments, Jacobson/Karn
    RTT estimation, exponential RTO backoff, and fast retransmit on
    three duplicate ACKs. Optionally authenticates every segment with
    HMAC-SHA-256, modeling the IPSec AH channels the paper configures
    for Bracha's protocol; the HMAC work is charged to the node's CPU.

    Connections are implicit (the paper establishes security
    associations before the runs), one per ordered peer pair. A
    received segment whose tag, layout or message list does not check
    is dropped unacknowledged and counted under [rlink.malformed]. *)

type t

val create : Engine.t -> Datagram.t -> Cpu.t -> ?auth:bool -> port:int -> unit -> t
(** [create engine dg cpu ~port ()] binds the transport to [port] on the
    node owning [dg], with up to 8 outstanding segments per destination.
    [auth] defaults to [false]. *)

val send : t -> dst:int -> bytes -> unit
(** Queues a message for reliable in-order delivery at [dst]. *)

val on_receive : t -> (src:int -> bytes -> unit) -> unit
(** Application delivery callback; runs on the node's CPU queue. *)

val stats_retransmissions : t -> int
(** Total segment (re)transmissions beyond the first attempt. *)
