(** The Turquois protocol as a pure state machine, independent of any
    transport or clock.

    {!Turquois} wraps this machine with the UDP-broadcast shell used in
    the paper's evaluation; the harness's abstract round simulator
    drives it directly to study the σ liveness bound of Section 5. All
    nondeterminism comes from the supplied RNG (the local coin), so runs
    are reproducible. *)

type event =
  | Phase_changed of int
  | Decided of { value : int; phase : int }
      (** Fired once, when the decision variable is first assigned. *)

type stats = {
  mutable accepted : int;
  mutable rejected_auth : int;
  mutable duplicates : int;
  mutable pending_peak : int;
}

type behavior =
  | Correct
  | Attacker
      (** The fixed §7.2 value-flipping attacker used for Table 3 — kept
          verbatim for reproducibility. *)
  | Byzantine of Strategy.t
      (** An arbitrary strategy from the {!Strategy} library, consulted
          at every transmission opportunity. *)

type t

val create :
  Proto.config ->
  keyring:Keyring.t ->
  rng:Util.Rng.t ->
  ?behavior:behavior ->
  proposal:int ->
  unit ->
  t
(** @raise Invalid_argument on a bad config or a non-binary proposal. *)

val id : t -> int
val phase : t -> int
val current_value : t -> Proto.value
val current_status : t -> Proto.status
val decision : t -> int option
val decision_phase : t -> int option
val stats : t -> stats
val vset : t -> Vset.t

type transmission =
  | Quiet  (** nothing this opportunity *)
  | Broadcast of Message.envelope  (** one frame for everyone *)
  | Per_receiver of (int * Message.envelope) list
      (** receiver-specific frames (equivocation); shipped as unicasts *)

val clone : t -> t
(** An independent deep copy: same config/keyring (immutable, shared),
    copied rng state and mutable containers. The model checker forks a
    whole group per enumerated adversary choice; stepping a clone never
    affects the original. *)

val fingerprint : t -> string
(** Canonical serialization of everything that shapes future behavior:
    protocol variables, V set, pending pool (admission order preserved),
    decided claims, and the rng position via the local-coin draw count.
    Machines created with the same config, keyring and rng seed that
    reach equal fingerprints behave identically on identical future
    inputs — the soundness condition for memoized state dedup. *)

val emit : t -> justify:bool -> transmission
(** The transmission for the current state (task T1). Correct and
    [Attacker] machines broadcast; [Byzantine] machines follow their
    strategy, which may stay silent or equivocate per receiver. With
    [justify], the explicit-validation bundle is attached. Correct
    machines also record their own message in their V set. [Quiet] once
    the phase exceeds the one-time key horizon. *)

val emit_as : t -> strategy:Strategy.t -> justify:bool -> transmission
(** The transmission the given strategy produces from this machine's
    current state, regardless of the machine's own behavior — the hook
    for externally-driven adversaries that pick a fresh strategy every
    round (the model checker's Byzantine enumeration). Frames are signed
    with the machine's keyring; [Quiet] past the key horizon. *)

val prepare : t -> justify:bool -> Message.envelope option
(** {!emit} restricted to broadcast: [Quiet] and [Per_receiver] map to
    [None]. Kept for broadcast-only drivers. *)

val handle : t -> Message.envelope -> event list * int
(** Task T2 for one arriving envelope: authenticity checks, the pending
    pool fixpoint, then state transitions. Returns the events produced
    and the number of hash verifications performed (for CPU-cost
    accounting by the shell). *)

val store : t -> Msgstore.t
(** The message store this machine's V set captured at creation: frames
    for {!handle_wire} are decoded through it. *)

val with_compact : bool -> (unit -> 'a) -> 'a
(** Runs the thunk with the sender-side switch for delta-compressed
    justification bundles (default on) forced to the given value,
    restoring the previous setting afterwards (also on exceptions).
    [with_compact false] is the plain-wire reference path that tests
    compare the compact wire against. Receivers accept both wire
    formats regardless, so flipping it never strands in-flight frames.
    Call it between runs, from the coordinating domain. *)

val encode_envelope : t -> Message.envelope -> bytes
(** The envelope's wire bytes, delta-compressed against this machine's
    per-phase shipped window unless {!with_compact} turned that off: a
    justification entry already shipped since the last phase change goes
    out as its 8-byte content digest instead of in full, and every 4th
    justified encode of a phase is a keyframe shipping everything in
    full again (bounding the blackout of receivers that missed a full
    copy). Falls back to the plain format — byte-identical but for the
    format byte — when compaction is off or the bundle is empty. Repeat
    encodes of the physically same envelope reuse the previous buffer
    (except under causal tracing, which needs per-send bytes). *)

val handle_wire : t -> Msgstore.frame -> event list * int
(** {!handle} for a frame decoded through {!store}, compact references
    included. A reference resolves only to a message this machine
    authenticated itself, or holds exactly in its V set — an earlier
    entry of the same frame included — so a forged full entry never
    becomes resolvable. An unresolvable reference is dropped and counted
    under the [compact.unresolved] metric; the sender's next keyframe
    retransmits it in full. *)

val resolvable : t -> int
(** How many stored messages {!handle_wire} may resolve references to.
    It grows only with messages that pass this machine's checks. *)

val same_state_as_last_broadcast : t -> bool
(** True when the state to broadcast equals the previously broadcast
    one — the trigger for attaching explicit justification (§6.2). *)
