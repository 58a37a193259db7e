(** Deterministic public sample sets for sample-based protocols.

    Samples are pure functions of (base seed, owner, tag) — shared
    public randomness, recomputable by any domain without coordination,
    so parallel sweeps stay bit-identical and receivers can invert
    membership offline instead of exchanging subscriptions. *)

type t

val create : seed:int64 -> n:int -> t
(** [create ~seed ~n] prepares a sampler over ids [0..n-1].
    @raise Invalid_argument if [n < 2]. *)

val size : t -> int

val sample : t -> owner:int -> tag:int -> k:int -> int array
(** [k] distinct peers of [owner] (owner excluded, clamped to n-1)
    for role [tag]. Cached; callers must not mutate the array. *)

val in_sample : t -> owner:int -> tag:int -> k:int -> int -> bool

val incoming : t -> node:int -> tag:int -> k:int -> int array
(** The owners whose (tag, k) sample contains [node], ascending — the
    senders [node] accepts pushes from. *)
