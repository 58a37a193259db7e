(** One-time hash-based message signatures (paper Section 6.1).

    For each phase [phi] and each admissible proposal value, the signer
    holds a random secret key [SK(phi)(v)] whose hash [VK(phi)(v) =
    H(SK(phi)(v))] has been pre-distributed. Broadcasting a message for
    [(phi, v)] reveals [SK(phi)(v)]; receivers recompute the hash and
    compare. Authenticity of [(phi, v)] then follows from preimage
    resistance — no public-key operation on the critical path.

    The slot domain is the paper's {0, 1, ⊥} extended with the origin of
    the value in CONVERGE-phase messages (deterministic adoption vs local
    coin flip), because the validation procedure of Algorithm 1 line 12
    must distinguish the two cases. *)

type slot =
  | S_zero       (** v = 0, deterministically derived *)
  | S_one        (** v = 1, deterministically derived *)
  | S_bot        (** v = ⊥ (DECIDE-phase messages only) *)
  | S_rand_zero  (** v = 0 from a local coin flip (phase mod 3 = 1) *)
  | S_rand_one   (** v = 1 from a local coin flip (phase mod 3 = 1) *)

val slot_count : int
val slot_index : slot -> int
val slot_of_index : int -> slot
(** @raise Util.Codec.Malformed on an out-of-range index. *)

type secret
(** The signer's side: the full SK array. *)

type verifier
(** The receivers' side: the full VK array for one signer. *)

val generate : Util.Rng.t -> owner:int -> phases:int -> secret * verifier
(** [generate rng ~owner ~phases] creates key material valid for phases
    [1..phases] — the key exchange [e = 1] of Section 6.1. *)

val owner : verifier -> int
val phases : verifier -> int
val secret_phases : secret -> int

val reveal : secret -> phase:int -> slot -> bytes
(** The 32-byte one-time signature for [(phase, slot)].
    @raise Invalid_argument when [phase] is outside [1..phases]. *)

val check : verifier -> phase:int -> slot -> proof:bytes -> bool
(** [check vk ~phase slot ~proof] is [true] iff [H(proof)] equals the
    pre-distributed verification key. Total: wrong sizes or phases out
    of range return [false]. *)

val check_with :
  hash:(bytes -> bytes) -> verifier -> phase:int -> slot -> proof:bytes -> bool
(** {!check} with the proof hash computed by [hash], which must be
    extensionally equal to [Sha256.digest] — the hook through which the
    per-run message store ([Core.Msgstore]) deduplicates hashing when
    one broadcast proof is verified at every receiver. [hash] is only
    invoked after the phase and length guards pass. *)

val verifier_to_bytes : verifier -> bytes
val verifier_of_bytes : bytes -> verifier
(** @raise Util.Codec.Malformed / Truncated on garbage. *)

val verifier_digest : verifier -> bytes
(** SHA-256 over the serialized VK array; this is what the trapdoor
    function [F] (RSA) signs during key exchange. *)
