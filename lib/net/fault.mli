(** Fault-load definitions matching the paper's evaluation (§7.2), plus
    the adaptive omission adversary.

    The fault load picks which processes misbehave and how; the loss
    probability adds the dynamic omission faults of the communication
    failure model. Richer, time-varying fault timelines are expressed
    with {!Schedule} and applied on top of these static knobs. *)

type load =
  | Failure_free
      (** All processes behave correctly (Table 1). *)
  | Fail_stop
      (** f = ⌊(n−1)/3⌋ processes crash before the run starts
          (Table 2). *)
  | Byzantine
      (** f = ⌊(n−1)/3⌋ processes follow the attack strategies of
          §7.2 (Table 3). *)

val load_to_string : load -> string

val max_f : int -> int
(** [max_f n] = ⌊(n−1)/3⌋, the resilience bound used in the paper's
    experiments. *)

val faulty_set : n:int -> load -> int list
(** The process identifiers chosen to be faulty under this load: the
    highest [max_f n] ids (deterministic, so runs are reproducible).
    Empty for [Failure_free]. *)

val is_faulty : n:int -> load -> int -> bool
(** Constant-time membership test for {!faulty_set} (the faulty ids are
    exactly the top [max_f n]). *)

val benign_loss : float
(** 5% residual per-receiver loss — an 802.11b channel with the ambient
    interference the paper's fail-stop sensitivity implies. *)

val set_loss : Radio.t -> float -> unit
(** Sets the radio's iid per-receiver omission probability and records
    it in the [fault.loss_prob] gauge. *)

val crash : Radio.t -> int -> unit
(** Marks a node down now, with its {!Obs.Fault_event} and metric. *)

val recover : Radio.t -> int -> unit
(** Brings a crashed node back up, with its {!Obs.Fault_event} and
    metric. *)

val apply_crashes : Radio.t -> n:int -> load -> unit
(** Crashes the faulty set now, before the run starts, for
    [Fail_stop]; no-op otherwise. *)

(** {2 Adaptive sigma-edge adversary}

    An omission adversary that, instead of dropping frames at an iid
    rate, spends a per-round budget of exactly
    σ = ⌈(n−t)/2⌉(n−k−t)+k−2 drops on a fixed victim set — the
    worst-case schedule of the Section 5 liveness analysis, applied
    online to the simulated radio via {!Radio.set_filter}. *)

type sigma_edge

val sigma_edge : Radio.t -> n:int -> k:int -> t:int -> sigma_edge
(** Installs the adversary's drop filter on the radio. The budget
    replenishes every 10 ms protocol tick and sits exactly at σ; the
    victims are the n−k−t+1 lowest ids, i.e. the paper's "silence
    whole victims, then starve one more" pattern among the
    conventionally correct processes. *)

val sigma_edge_drops : sigma_edge -> int
(** Frames suppressed so far. *)
