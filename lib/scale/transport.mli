(** Carrier abstraction for the sample-based protocols: point-to-point
    sends, per-node timers and a listen hook. Constructors exist for
    the scalable abstract {!Medium} and the radio/MAC node stack. *)

type t

val send : t -> src:int -> dst:int -> bytes -> unit
val timer : t -> node:int -> delay:float -> (unit -> unit) -> unit

val register : t -> node:int -> (src:int -> bytes -> unit) -> unit
(** Installs [node]'s delivery callback (one per node). *)

val of_medium : Medium.t -> t

val of_nodes : Net.Node.t array -> port:int -> t
(** Over the radio/MAC stack; sends become acknowledged 802.11b
    unicast frames on the shared medium. *)
