(** The set V_i of valid received messages (Algorithm 1, line 9).

    One primary message per (sender, phase) — the first valid one — so
    quorum counts below count distinct senders, as the protocol's
    thresholds require. An equivocating sender's differently-valued
    copies for the same phase are additionally retained (the paper's
    V_i is a set of {e messages}): without them, two correct processes
    holding the two halves of an equivocation could never validate each
    other's next-phase values, and the protocol would stall — the chaos
    harness's equivocation strategy exercises exactly this. At most one
    copy per value is kept, bounding a slot at 3 messages.

    The representation is flat: rows of compact indices into the
    per-run interned {!Msgstore}, one row per phase found by indexing
    an array with the phase, so structurally equal messages are stored
    once per run no matter how many V sets and justification bundles
    they appear in, and the duplicate test ({!copy_index}) allocates
    nothing. *)

type t

val create : n:int -> t
(** Captures the domain's current per-run {!Msgstore}. *)

val add : t -> Message.t -> bool
(** [add t m] stores [m] unless a copy from the same (sender, phase)
    with the same value is already present, or its sender is outside
    [0, n) or its phase is negative; returns whether it was stored. *)

val mem : t -> sender:int -> phase:int -> bool
(** A primary message from this (sender, phase) is present. *)

val mem_copy : t -> Message.t -> bool
(** A stored copy with [m]'s exact header (sender, phase, value, origin,
    status) is present — the duplicate test for arriving messages. *)

val copy_index : t -> Message.t -> int
(** The {!Msgstore} index of the stored copy {!mem_copy} finds, or 0
    when there is none. It equals [m]'s own index exactly when that very
    message, proof bytes included, is in the set. *)

val store : t -> Msgstore.t
(** The store the set captured at creation. *)

val find : t -> sender:int -> phase:int -> Message.t option
(** The primary (first-stored) message of a (sender, phase). *)

val copies : t -> sender:int -> phase:int -> Message.t list
(** Every stored copy for a (sender, phase): primary first, then any
    equivocated extras. *)

val count_phase : t -> phase:int -> int
(** Distinct senders with a message at [phase]. *)

val count_value : t -> phase:int -> value:Proto.value -> int
(** Distinct senders with {e any} copy at [phase] carrying [value]; an
    equivocating sender supports every value it signed. *)

val messages_at : t -> phase:int -> Message.t list
(** All stored messages of a phase (including equivocated extras),
    ascending sender order. *)

val majority_value : t -> phase:int -> Proto.value
(** The value appearing most often at [phase] among {0, 1} (ties favor
    [V1]); the CONVERGE-phase rule of line 21.
    @raise Invalid_argument when no 0/1 message is stored at [phase]. *)

val some_binary_value : t -> phase:int -> Proto.value option
(** Some v ∈ {0,1} present at [phase], if any (line 32). *)

val max_phase : t -> int
(** Highest phase with at least one stored message; 0 when empty. *)

val highest_message : t -> Message.t option
(** A stored message of maximal phase (the trigger of transition
    rule 1). *)

val size : t -> int
(** Total stored messages. *)

val clone : t -> t
(** An independent deep copy (messages themselves are immutable and
    shared). The model checker forks a machine's V set per enumerated
    adversary choice. *)

val canonical : t -> Buffer.t -> unit
(** Appends a canonical serialization of the whole set (phases
    ascending; per slot the primary then its equivocated extras in
    stored order; proof bytes omitted) to [buf] — the V-set component of
    {!Machine.fingerprint}. Equal serializations imply identical future
    behavior under identical inputs. *)
