(** Opt-in hot-path span profiler (host wall clock, domain-local).

    Instrumented sites bracket a region with
    [let t0 = Prof.start () in ... ; Prof.stop span t0]; when profiling
    is disabled [start] returns a negative sentinel and [stop] is a
    no-op. The profiler is strictly an observer: it never touches the
    simulation clock, the RNG, or the per-run metrics registry, so
    profiling on/off yields bit-identical protocol results (enforced by
    the equivalence table in [test/equiv.ml]).

    Latencies land in log2(ns) buckets: bucket [b] counts durations in
    [[2^b, 2^(b+1)) ns]. Accumulators are domain-local and reset at
    every run boundary while profiling is on, so a snapshot taken after
    a run covers exactly that run. *)

type span = private int

val decode : span  (** [Core.Msgstore.decode] — frame decode (memo hit or miss) *)

val verify : span  (** [Core.Msgstore.check] — one-time-signature check *)

val mac_contention : span
(** [Net.Mac] — contention resolution and frame transmit *)

val engine_pop : span  (** [Net.Engine.step] — event heap pop *)

val vset_tally : span  (** [Core.Vset.add] — insert plus incremental tallies *)

val register : string -> span
(** Registers an additional span name; call at module initialization. *)

val span_name : span -> string

val on : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val with_profiling : bool -> (unit -> 'a) -> 'a
(** Runs [f] with profiling forced to the given state, restoring the
    previous state afterwards (also on raise). *)

val start : unit -> float
(** Timestamp when profiling is on, a negative sentinel otherwise. *)

val stop : span -> float -> unit
(** [stop span t0] records [now - t0] against [span]; no-op when [t0]
    is the sentinel. *)

val reset : unit -> unit
(** Zeroes this domain's accumulators. *)

type stat = {
  name : string;
  count : int;
  total_ns : float;
  max_ns : float;
  buckets : int array;
}

val snapshot : unit -> stat list
(** All registered spans (count 0 when never hit), this domain only. *)

val bucket_quantile : stat -> float -> float
(** Upper bucket edge (ns) for the given quantile, 0 when empty. *)

val render_table : stat list -> string
