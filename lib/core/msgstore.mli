(** Per-run content-addressed message store: the one table the Turquois
    receive path keys on.

    Each structurally distinct {!Message.t} is stored once per run (per
    domain) under a compact 1-based index, with its 8-byte content
    digest ({!Message.msg_digest}, computed when first stored) and the
    SHA-256 hash of its proof (computed on its first {!check}). Frame
    decoding, compact-reference resolution, authenticity checks and
    {!Vset} rows all address messages through these indices, so the
    many appearances of one justification message across frames and
    receivers collapse onto a single stored copy. The store is
    append-only — index 0 never allocated, valid indices never
    invalidated — and the domain-local current store is {e re-bound} to
    a fresh one at every {!Obs.Scope.with_run} boundary, so structures
    holding a store reference (e.g. model-checker clones) stay valid
    across runs. Only host time depends on it: callers still charge
    every receiver its own simulated decode and checks. *)

type t

type entry =
  | Stored of int  (** a message carried in full, by store index *)
  | Unknown of bytes
      (** a compact reference: the content digest of a message the
          sender shipped earlier, resolved per receiver ({!resolve}) *)

type frame = { msg : int; just : entry list }
(** A decoded wire frame: its own message and its justification entries
    in wire order. *)

val create : unit -> t

val intern : t -> Message.t -> int
(** The 1-based index of [m], storing it if the exact message (proof
    bytes included) was not seen before. *)

val admit : t -> Message.t -> int
(** {!intern}, also counting [m] as a V-set member for {!size}. *)

val get : t -> int -> Message.t
(** @raise Invalid_argument on an index never returned by [intern]. *)

val digest : t -> int -> bytes
(** The message's content digest. Callers must treat it as immutable. *)

val resolve : t -> (int -> bool) -> bytes -> int option
(** [resolve t known d] is the lowest index whose content digest is [d]
    among those [known] accepts. A receiver passes the set of messages
    it authenticated itself, so a digest naming several stored messages
    never resolves to one that receiver has not checked. *)

val decode : t -> bytes -> frame
(** {!Message.decode_wire} memoized on the exact payload bytes, every
    full entry interned. Raises exactly what [Message.decode_wire]
    raises; malformed payloads are never cached. Emits the
    [codec.decode.memo_hit]/[_miss] counters and the [hotpath.decode]
    span. *)

val check : t -> Keyring.t -> int -> bool
(** {!Keyring.check_message} of the stored message: the proof hash is
    computed once per message, the verdict evaluated per call. Emits the
    [crypto.verify.cache_hit]/[_miss] counters and the [hotpath.verify]
    span. *)

val size : t -> int
(** Number of distinct messages admitted to some V set — the flat-arena
    high-water mark reported by the scaling sweep. *)

val current : unit -> t
(** This domain's current per-run store ({!Vset.create} captures it). *)
