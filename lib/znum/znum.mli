(** Arbitrary-precision signed integers.

    Self-contained implementation (no external dependency): magnitudes
    are little-endian arrays of 26-bit limbs, so limb products and
    Knuth-D quotient estimates fit comfortably in OCaml's native 63-bit
    integers. Sized for the cryptographic workloads in this repository
    (512–1024 bit RSA and Schnorr-group arithmetic). *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
val to_int_opt : t -> int option
(** [to_int_opt t] is [Some n] when the value fits in a native [int]. *)

val of_string : string -> t
(** Decimal, with optional leading ['-'].
    @raise Invalid_argument on empty or non-numeric input. *)

val to_string : t -> string
(** Decimal rendering. *)

val of_bytes_be : bytes -> t
(** Big-endian unsigned magnitude; the empty buffer is 0. *)

val to_bytes_be : ?len:int -> t -> bytes
(** Big-endian unsigned magnitude of [abs t], left-padded with zeros to
    [len] when given. @raise Invalid_argument if the value needs more
    than [len] bytes or [t] is negative. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val neg : t -> t
val abs : t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** Truncated division (like [Stdlib.( / )] and [mod]): quotient rounds
    toward zero, remainder has the sign of the dividend.
    @raise Division_by_zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val emod : t -> t -> t
(** [emod a m] is the unique representative of [a] in [\[0, m)] for
    positive [m]. @raise Invalid_argument if [m <= 0]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bit_length : t -> int
(** Bits in the magnitude; [bit_length zero = 0]. *)

val testbit : t -> int -> bool
val is_even : t -> bool
val is_odd : t -> bool

val gcd : t -> t -> t
val egcd : t -> t -> t * t * t
(** [egcd a b] is [(g, x, y)] with [g = gcd a b >= 0] and
    [a*x + b*y = g]. *)

val mod_inv : t -> m:t -> t option
(** Multiplicative inverse of [t] modulo [m], in [\[0, m)], when
    [gcd t m = 1]. *)

val mod_pow : base:t -> exp:t -> m:t -> t
(** [mod_pow ~base ~exp ~m] for [exp >= 0], [m > 0]; result in
    [\[0, m)]. A negative base or one [>= m] is reduced first.

    For odd [m] (every cryptographic caller) the kernel works in
    Montgomery form over the 26-bit limbs: [-m^-1 mod 2^26] by Newton
    iteration, CIOS multiplication into k-limb buffers owned by the
    call, and a fixed 4-bit exponent window. Even [m] falls back to
    right-to-left square-and-multiply over {!mul} and {!emod}. Both
    return the same value, so callers see no difference but speed. *)

