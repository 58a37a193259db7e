(** Connectionless datagram service (UDP/IP equivalent) over the MAC.

    Adds the IP+UDP header overhead (28 bytes) to every packet so that
    simulated airtimes match real ones, dispatches received payloads by
    destination port, and loops broadcast datagrams back to the sending
    node (the paper's protocol broadcasts include the sender itself;
    the loopback path does not touch the radio). *)

type t

val header_bytes : int
(** 28 = IP (20) + UDP (8). *)

val create : Engine.t -> Mac.t -> t

val send :
  t -> dst:[ `Broadcast | `Node of int ] -> port:int -> bytes -> unit
(** Queues a datagram. Broadcast datagrams are also delivered locally
    (loopback) at the end of the MAC airtime they would need, so local
    and remote deliveries of the same broadcast happen at comparable
    times. *)

val send_latest : t -> ?tag:int -> port:int -> bytes -> unit
(** Broadcast a datagram that {e supersedes} any broadcast with the same
    replacement [tag] (default: the port) still queued at the MAC: the
    queued frame's payload is replaced in place
    ({!Mac.send_broadcast_replacing}), so a fast producer on a contended
    medium transmits only its latest state. Loopback delivery behaves as
    in {!send}. *)

val listen : t -> port:int -> (src:int -> bytes -> unit) -> unit
(** At most one listener per port; a second [listen] replaces the
    first. A received datagram is decoded once per transmission: every
    receiver of one broadcast is handed the same payload buffer, as the
    MAC hands them the same frame ({!Mac.on_deliver}). Payloads are
    therefore immutable: listeners must not write to them. A loopback
    delivery hands the listener the sender's own buffer. *)

val unlisten : t -> port:int -> unit
(** Removes the port's listener; later datagrams to it are dropped.
    No-op when the port has no listener. *)

val mac : t -> Mac.t
