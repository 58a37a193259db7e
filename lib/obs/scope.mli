(** Per-run scoping of the global observability sinks.

    [with_run f] resets the metrics registry and clears the trace
    buffer (the enabled/limit state is untouched), runs [f], and
    returns its result together with the metrics snapshot of exactly
    that run. The registry is reset again on exit — success or raise —
    so no run leaves counters behind on the executing domain (the trace
    buffer survives until the next run: callers export it after the run
    returns). This is the discipline that keeps repetitions
    independent: without it, a 50-rep [--trace] session would mix
    events and counters from every earlier repetition. *)

val with_run : (unit -> 'a) -> 'a * Metrics.snapshot

val at_run_start : (unit -> unit) -> unit
(** Registers a hook that [with_run] invokes (on the calling domain,
    after resetting metrics and trace) at the start of every run. This
    is how per-run caches in layers obs cannot depend on — e.g. the
    message store [Core.Msgstore] — are re-bound at the same
    boundary that scopes the metrics: a cache surviving a run would
    leak work (and hit/miss counters) between repetitions and break the
    [-j 1] vs [-j N] determinism contract. Hooks are global and
    permanent; register once at module initialization. *)
