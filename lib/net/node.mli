(** Per-node runtime bundle: MAC + datagram + CPU + timers.

    Protocol implementations talk to a [Node.t] only; everything below
    (medium access, airtime, loss) is hidden behind it. All application
    callbacks — datagram deliveries and timers — are serialized through
    the node's CPU queue, so a handler that charges cryptographic cost
    delays every later handler on the same node, as on real hardware. *)

type t

val create : Engine.t -> Radio.t -> id:int -> rng:Util.Rng.t -> t

val id : t -> int
val engine : t -> Engine.t
val rng : t -> Util.Rng.t
val cpu : t -> Cpu.t
val datagram : t -> Datagram.t
val mac : t -> Mac.t

val charge : t -> float -> unit
(** Account CPU cost to the currently-running handler. *)

val broadcast : t -> port:int -> bytes -> unit
(** UDP-style broadcast, loopback included. *)

val broadcast_latest : t -> ?tag:int -> port:int -> bytes -> unit
(** {!broadcast}, but a broadcast with the same replacement [tag]
    (default: the port) still queued at the MAC is superseded in place
    rather than queued behind — the transport for periodic state
    announcements whose newest frame obsoletes the older ones. *)

val unicast : t -> dst:int -> port:int -> bytes -> unit

val listen : t -> port:int -> (src:int -> bytes -> unit) -> unit
(** Datagram listener; runs on the CPU queue with the per-message
    kernel overhead already charged. *)

val unlisten : t -> port:int -> unit
(** Removes the port's datagram listener (e.g. when a finished
    protocol instance is retired); later datagrams to the port are
    dropped before they reach the CPU queue. *)

val set_timer : t -> delay:float -> (unit -> unit) -> Engine.handle
(** One-shot timer; the callback runs on the CPU queue. *)

val cancel_timer : t -> Engine.handle -> unit
