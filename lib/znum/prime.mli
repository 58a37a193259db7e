(** Probabilistic primality testing and prime generation.

    Used by the crypto layer to generate RSA moduli and Schnorr groups
    for the threshold common coin. All randomness is drawn from an
    explicit {!Util.Rng.t}, so key material is reproducible per seed. *)

val small_primes : int array
(** The primes below 1000, used for trial division. *)

val is_probably_prime : Util.Rng.t -> Znum.t -> bool
(** Miller–Rabin with 24 random bases after trial division by
    {!small_primes}. Error probability at most [4^-24] for composites.
    Deterministically correct for inputs below 10^6. *)

val random_bits : Util.Rng.t -> bits:int -> Znum.t
(** Uniform integer in [\[0, 2^bits)]. *)

val random_below : Util.Rng.t -> Znum.t -> Znum.t
(** Uniform integer in [\[0, bound)] by rejection sampling.
    @raise Invalid_argument if bound <= 0. *)

val random_prime : Util.Rng.t -> bits:int -> Znum.t
(** A random prime of exactly [bits] bits (top bit set).
    @raise Invalid_argument if [bits < 2]. *)

type schnorr_group = {
  p : Znum.t;  (** prime modulus *)
  q : Znum.t;  (** prime order of the subgroup, q | p-1 *)
  g : Znum.t;  (** generator of the order-q subgroup *)
}

val schnorr_group : Util.Rng.t -> pbits:int -> qbits:int -> schnorr_group
(** DSA-style parameter generation: a [qbits] prime q, a [pbits] prime
    p = q*r + 1, and g = h^((p-1)/q) <> 1. The threshold coin operates
    in this subgroup. *)
