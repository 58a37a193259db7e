(** Connectionless datagram service (UDP/IP equivalent) over the MAC.

    Hands the MAC each payload with its destination port, dispatches
    received payloads by port, and loops broadcast datagrams back to the
    sending node (the paper's protocol broadcasts include the sender
    itself; the loopback path does not touch the radio). Nothing is
    serialized: the frame counts the IP+UDP header in its length
    ({!Radio.datagram_bytes}), so simulated airtimes match real ones. *)

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
    first. Every receiver, the sender's own loopback included, is handed
    the sender's own payload buffer ({!Mac.on_deliver}). Payloads are
    therefore immutable: listeners must not write to them. *)

val unlisten : t -> port:int -> unit
(** Removes the port's listener; later datagrams to it are dropped.
    No-op when the port has no listener. *)

val mac : t -> Mac.t
