(** Scalable abstract message medium for n >> 16.

    A generic lossy datagram network: per-message iid loss, a 2 ms
    base latency plus up to 1 ms of uniform jitter, airtime accounted
    with the 802.11b unicast formula. Deliveries are quantized onto a
    0.5 ms grid so one engine event serves every message landing on a
    tick, and in-flight records recycle through a flat {!Arena} — the
    delivery bookkeeping stays sub-quadratic in n. *)

type t

type stats = {
  mutable msgs_sent : int;
  mutable bytes_sent : int;
  mutable airtime : float;  (** summed serialized transmission time, s *)
  mutable delivered : int;
  mutable dropped : int;
}

val create : Net.Engine.t -> Util.Rng.t -> n:int -> ?loss:float -> unit -> t
(** [loss] is the per-message drop probability (default 0). *)

val engine : t -> Net.Engine.t
val stats : t -> stats

val set_handler : t -> node:int -> (src:int -> bytes -> unit) -> unit
(** Delivery callback for [node]; replaces any previous handler. *)

val send : t -> src:int -> dst:int -> bytes -> unit
(** Queues one message. The payload is delivered by reference — treat
    it as immutable after sending, so one buffer can serve a whole
    fan-out. *)

val in_flight : t -> int
val arena_high_water : t -> int
(** Peak simultaneous in-flight messages. *)
