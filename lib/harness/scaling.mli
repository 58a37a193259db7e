(** Scaling sweep: Turquois vs the sample-based protocols as n grows
    past the paper's 16-node testbed (16 / 64 / 128 / 256 / 1024).

    Turquois is all-to-all — every phase costs O(n^2) receptions — so
    it is only run up to [turquois_cap]. The sampled protocol runs
    twice: over the same contended 802.11b radio/MAC stack up to
    [radio_cap] ("Sampled-radio"), and at every n over the scalable
    abstract {!Scale.Medium} ("Sampled"). Each point reports decision
    coverage, latency, traffic, airtime and the engine/arena
    high-water marks; every rendered field is a deterministic function
    of the seed, so tables are bit-identical across [-j N] (the
    allocation-word fields are within a cache-warmup constant of
    deterministic and stay out of the table). *)

type point = {
  protocol : string;
  n : int;
  honest : int;
  decided : int;  (** honest nodes that decided before the timeout *)
  mean_latency : float;  (** seconds, over deciders *)
  max_latency : float;
  duration : float;  (** simulated seconds until quiescence/timeout *)
  msgs : int;
  bytes : int;
  airtime : float;  (** cumulative medium occupancy, seconds *)
  live_peak : int;  (** engine live-event high-water mark *)
  queued_peak : int;  (** raw event-queue high-water mark *)
  arena_hw : int;
      (** peak in-flight messages (sampled abstract runs) or distinct
          interned messages in the per-run {!Core.Msgstore} (Turquois
          runs); 0 where neither applies *)
  timed_out : bool;
  minor_words : int;
      (** words the point allocated in the minor heap of its own
          domain, read by {!Gate.measure} — a coarse memory-cost proxy
          that, unlike a process-global heap high-water mark, does not
          depend on which points ran earlier. Domain-cache warmup can
          shift the two word counts by a small constant, so they are
          excluded from {!render} and compared one-sidedly. *)
  major_words : int;  (** words it allocated directly in the major heap *)
}

val default_ns : int list
(** [16; 64; 128; 256; 1024] *)

val sweep :
  ?jobs:int ->
  ?ns:int list ->
  ?turquois_cap:int ->
  ?radio_cap:int ->
  ?timeout:float ->
  seed:int64 ->
  unit ->
  point list
(** Runs the grid on the worker pool. [turquois_cap] defaults to 128,
    [radio_cap] (largest n for the Sampled-radio task) to 256,
    [timeout] (simulated seconds) to 30. Point order follows [ns];
    at each n: Turquois, then Sampled-radio, then Sampled. *)

val render : point list -> string
(** Fixed-width table of the deterministic fields only. *)

val fields : point list -> Gate.field list
(** The gate's view of the points, keyed ["<protocol> n=<n>/<field>"]:
    the two allocation-word counts under {!Gate.words_growth}, every
    other field {!Gate.Exact} ([timed_out] as 0 or 1). *)
