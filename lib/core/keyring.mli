(** Key material for the authenticity validation of Section 6.1.

    A keyring holds one process's own one-time secret keys plus the
    verified verification-key arrays of every process. Setup performs
    the paper's key exchange [e = 1]: each process's VK array is signed
    with its RSA private key (the trapdoor function F) and checked by
    every other process before the run starts — exactly the "distributed
    offline along with the public keys" deployment the paper uses in its
    experiments. *)

type t

val setup : Util.Rng.t -> n:int -> phases:int -> t array
(** Trusted-dealer style setup for all [n] processes at once (the
    simulator plays the out-of-band reliable channel). Generates one-time
    key arrays for phases 1..[phases], 512-bit RSA keypairs, signs every
    VK array, verifies every signature, and returns each process's
    keyring.
    @raise Failure if any VK signature fails to verify (cannot happen
    with an honest dealer; the check exercises the verification path). *)

val owner : t -> int
val n : t -> int
val phases : t -> int

val sign : t -> phase:int -> value:Proto.value -> origin:Proto.origin -> bytes
(** The one-time signature this process attaches to a broadcast for
    [(phase, value, origin)].
    @raise Invalid_argument when [phase] exceeds the key horizon. *)

val check :
  t -> signer:int -> phase:int -> value:Proto.value -> origin:Proto.origin ->
  proof:bytes -> bool
(** Authenticity validation of a received message: one hash. Total —
    unknown signers and out-of-range phases return [false]. *)

val check_message : t -> Message.t -> bool
(** {!check} applied to a message's own fields. *)

val check_with :
  hash:(bytes -> bytes) -> t -> signer:int -> phase:int -> value:Proto.value ->
  origin:Proto.origin -> proof:bytes -> bool

val check_message_with : hash:(bytes -> bytes) -> t -> Message.t -> bool
(** {!check} / {!check_message} with the proof hash computed by [hash]
    (must be extensionally [Sha256.digest]); see
    {!Crypto.Onetime_sig.check_with}. [Msgstore.check] routes through
    this to hash each stored message's proof once per run. *)

val slice : t -> offset:int -> phases:int -> t
(** [slice t ~offset ~phases] is a view of the same key material whose
    phase [p] maps to the underlying phase [offset + p] — the paper's
    optimization of letting "a single key exchange span multiple
    instances of the k-consensus" (Section 6.1): instance i of an
    agreement sequence uses [slice t ~offset:(i * stride) ~phases:stride].
    @raise Invalid_argument when the window exceeds the key horizon. *)
