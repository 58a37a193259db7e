(** Threshold common coin (Cachin–Kursawe–Shoup style, Diffie–Hellman
    based) used by the ABBA baseline.

    Setup is by a trusted dealer (the paper pre-distributes all keys
    before the runs): a secret [x] is Shamir-shared over the order-q
    subgroup of a Schnorr group. The coin with name [c] is the least
    significant bit of [H(H2(c)^x)]; party [i] contributes the share
    [H2(c)^{x_i}] plus a Chaum–Pedersen DLEQ proof that ties the share
    to its public verification key [g^{x_i}], and any [threshold] valid
    shares reconstruct the coin in the exponent via Lagrange
    interpolation. *)

type params
(** Group parameters plus per-party public verification keys; common to
    all parties. *)

type key_share
(** One party's secret share [x_i]. *)

type share
(** A coin share with its DLEQ proof, ready to travel in a message. *)

val setup :
  Util.Rng.t -> n:int -> threshold:int -> ?pbits:int -> ?qbits:int -> unit ->
  params * key_share array
(** Trusted-dealer setup for [n] parties (indices 0..n-1). [threshold]
    shares are necessary and sufficient to evaluate a coin. Defaults:
    [pbits = 512], [qbits = 160]. *)

val threshold : params -> int

val create_share : params -> key_share -> name:string -> share
(** [create_share params ks ~name] evaluates party [ks]'s contribution
    to the coin named [name] and attaches the DLEQ proof. *)

val share_owner : share -> int

val verify_share : params -> name:string -> share -> bool
(** Checks the DLEQ proof; rejects shares from out-of-range parties or
    with malformed group elements. *)

val combine : params -> name:string -> share list -> int option
(** [combine params ~name shares] returns [Some bit] when at least
    [threshold] valid shares from distinct parties are supplied;
    [None] otherwise. Shares failing {!verify_share} are ignored. *)

val share_to_bytes : share -> bytes
val share_of_bytes : bytes -> share
(** @raise Util.Codec.Malformed / Truncated on garbage. *)
