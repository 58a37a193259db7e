(** Pipelined totally-ordered command log over the multi-instance
    {!Service} — the closest thing in this repo to a production
    replicated state machine.

    Slots are numbered [0 .. capacity-1] and owned round-robin
    ([proposer_of slot = slot mod n]). Up to [window] slots are open
    concurrently at each process (a pipeline); each decides through its
    own binary Turquois instance, and delivery happens strictly in slot
    order behind a cursor. A proposer drains its pending submissions
    into one length-prefixed {e batch} per slot, so throughput scales
    with offered load without extra consensus instances.

    Binary consensus only fixes {e whether} a slot commits, not {e what
    bytes} it carries. The gap is closed with an echo/ready certificate
    bound to the batch's SHA-256 digest: a slot delivers its payload
    only once more than 2f distinct processes have sent READY for that
    digest, and — because any two such sets intersect in a correct
    process when n > 3f — no two honest processes can ever deliver
    different bytes for the same committed slot, even under an
    equivocating proposer. Payload bytes claimed by anyone other than
    the slot's proposer are adopted only when backed by at least f+1
    READYs, so a Byzantine non-proposer cannot inject content into
    someone else's slot.

    The module keeps O(window) per-slot state: everything more than
    [help_retention] slots behind the delivery cursor is pruned (and
    the underlying consensus instance retired), except a proposer's own
    batch, which survives until its rebroadcast grace expires. All
    internal timers quiesce once there is no timed work left, so a
    finished log drains the engine to zero pending events.

    Because a quorum excludes up to f processes, the fast majority can
    decide, deliver and retire a slot's instance without a lagging
    process ever seeing it — that process would then sit on a dead
    instance forever. A head slot that stays undecided for a grace
    period therefore broadcasts a PULL; peers answer with a burst of
    OUTCOME claims (1 bit per delivered slot, retained at any depth)
    and, within the retention horizon, re-ship the certificate and
    batch. f+1 matching claims from distinct senders contain an honest
    one, so the straggler adopts the decisions and rejoins without
    re-running dead consensus. *)

type t

type slot_outcome = Committed of bytes | Committed_awaiting_payload | Skipped

(** Retained-entry counts across the internal tables, for memory-bound
    assertions in tests. *)
type mem_stats = {
  payload_entries : int;
  vote_entries : int;
  outcome_entries : int;
  proposed_entries : int;
  timer_entries : int;
}

val create :
  Net.Node.t ->
  Proto.config ->
  keyring:Keyring.t ->
  capacity:int ->
  ?window:int ->
  ?max_batch:int ->
  ?payload_wait:float ->
  ?noop_wait:float ->
  ?payload_grace:float ->
  ?help_retention:int ->
  ?retain_deliveries:bool ->
  unit ->
  t
(** All processes must use identical [capacity], [window] and
    [max_batch]. [window] (default 1) is the pipeline depth: how
    many undecided slots may run concurrently per process. [max_batch]
    (default 64) caps commands per slot. [payload_wait] (default 50 ms)
    is how long a non-proposer waits for a slot's payload before voting
    0 — the crash deadline. A live proposer with nothing to send
    announces an explicit no-op after [noop_wait] (default 20 ms), so
    idle slots skip at consensus speed instead of stalling the pipeline
    for the crash deadline. [payload_grace] (default 2 s) bounds
    proposer rebroadcast traffic and paces straggler catch-up pulls.
    [help_retention] (default [window]) is how many delivered slots of
    certificate-and-payload state are kept behind the cursor to answer
    straggler pulls; beyond it only each slot's 1-bit outcome survives,
    so a further-behind straggler can still learn skip decisions at any
    depth but can recover committed bytes only within the retention
    horizon. Size it generously (e.g. [capacity]) for long unattended
    workloads. Payload frames use port 14999; consensus instance [s]
    uses port 15000 + [s]. [retain_deliveries] (default
    true) keeps the in-memory history returned by {!delivered}; switch
    it off for long workloads to keep memory at O(window).
    @raise Invalid_argument on non-positive capacity, window or
    max_batch, or when the keyring cannot cover
    [capacity * cfg.max_phases] phases. *)

val start : t -> unit
(** Registers handlers and opens the first [window] slots. Idempotent. *)

val submit : t -> bytes -> unit
(** Queues one command for inclusion in this process's next proposer
    slot (possibly batched with others). Commands whose slot is skipped
    are requeued automatically. *)

val on_deliver : t -> (slot:int -> payload:bytes option -> unit) -> unit
(** Delivery callback, fired in strict slot order. [payload] is the
    encoded batch ([Some] for committed slots, [None] for skipped
    ones); decode it with {!decode_batch}. *)

val delivered : t -> (int * bytes option) list
(** Deliveries so far, oldest first (empty when created with
    [~retain_deliveries:false]). *)

val delivered_count : t -> int

val next_deliver : t -> int
(** The delivery cursor: the lowest slot not yet delivered. *)

val payload_port : t -> int
val mem_stats : t -> mem_stats

(** {2 Batch and frame codecs}

    Exposed for tests (forging adversarial frames, decoding delivered
    batches) and for tools that render log contents. *)

val encode_batch : bytes list -> bytes

val decode_batch : bytes -> bytes list
(** @raise Util.Codec.Malformed or [Truncated] on bad input. *)

val batch_digest : bytes -> bytes

val encode_payload_frame : slot:int -> bytes -> bytes
(** The proposer's announcement for [slot] carrying a batch; the bound
    digest is computed internally. *)

val encode_echo_frame : slot:int -> digest:bytes -> bytes
