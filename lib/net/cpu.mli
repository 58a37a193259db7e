(** Per-node CPU serialization.

    Each simulated node processes events on a single core: message
    handlers and timer callbacks run one at a time, and cryptographic
    work ({!Cost}) pushes the node's availability into the future. This
    is what makes computational cost visible in end-to-end latency. *)

type t

val create : Engine.t -> t

val enqueue : t -> (unit -> unit) -> unit
(** [enqueue t job] runs [job] as soon as the core is free (now, if
    idle). Jobs run in FIFO order of their ready times. *)

val charge : t -> float -> unit
(** [charge t cost] accounts [cost] seconds of computation to the job
    currently running (pushes back the moment the core is free). Call
    from inside a job. *)
