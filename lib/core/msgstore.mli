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

type candidates
(** The store's one cell for a content digest: every stored index whose
    message has that digest, ascending. Decoding a compact reference to
    a digest no stored message has yet creates the cell empty; storing
    a matching message later ({!intern}) appends to the same cell, so
    every frame that names the digest sees the append. *)

type entry =
  | Stored of int  (** a message carried in full, by store index *)
  | Unknown of candidates
      (** a compact reference to a message the sender shipped earlier:
          the candidate cell of the digest it names, resolved per
          receiver ({!resolve}) *)

type frame = { msg : int; just : entry array }
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

val candidates_digest : candidates -> bytes
(** The digest a cell collects. Callers must treat it as immutable. *)

val resolve : ('a -> int -> bool) -> 'a -> candidates -> int
(** [resolve known k c] is the lowest index in [c] that [known k]
    accepts, or 0 when there is none. A receiver passes the set of
    messages it authenticated itself, so a digest naming several stored
    messages never resolves to one that receiver has not checked. It
    reads the cell as it stands now, not as it stood when the frame was
    decoded, and hashes nothing. (The filter takes its state as a
    separate argument so that callers need not allocate a closure per
    reference.) *)

val decode : t -> bytes -> frame
(** {!Message.decode_wire} memoized on the exact payload bytes, every
    full entry interned and every compact reference mapped to its
    digest's cell. Raises exactly what [Message.decode_wire] raises;
    malformed payloads are never cached. The memo keys on a private
    copy of each payload, so a buffer mutated after its decode is
    decoded afresh. Emits the [codec.decode.memo_hit]/[_miss] counters
    and the [hotpath.decode] span. *)

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
