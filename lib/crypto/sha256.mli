(** SHA-256 (FIPS 180-4).

    Pure OCaml implementation; the 32-bit words are carried in native
    ints masked to 32 bits. This is the hash function [H] of the paper's
    one-time signature scheme (Section 6.1) and the basis of HMAC and of
    hashing onto the coin group. *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
val update : ctx -> bytes -> unit
val finalize : ctx -> bytes
(** Returns the 32-byte digest. The context must not be reused. *)

val digest : bytes -> bytes
(** One-shot hash of a byte buffer. *)

val digest_string : string -> bytes
val digest_concat : bytes list -> bytes
(** Hash of the concatenation, without materializing it. *)

val hex_digest_string : string -> string
(** Lowercase hex of [digest_string], convenient for tests. *)

val digest_size : int
(** 32. *)
