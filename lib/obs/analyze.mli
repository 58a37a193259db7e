(** Offline analysis of a JSONL run trace ([turquois-lab analyze]).

    Reconstructs three views from the structured events of one run:

    - a medium breakdown: frames, airtime, bytes and collisions per
      frame class, plus jamming and per-receiver omission drops;
    - a per-phase timeline: when each node first entered each
      phase/round, and when it decided;
    - a stall report: each inter-phase window is checked against the
      paper's Section 5 progress bound
      [sigma = ceil((n-t)/2)*(n-k-t) + k - 2] (omissions per
      communication round, one round = one tick), flagging windows
      whose per-round omission load exceeds sigma and windows that
      stalled well past the median.

    Run parameters are read from the trace's [run/meta] event when
    present; [?n]/[?k]/[?t] override them. *)

val sigma : n:int -> k:int -> t:int -> int
(** The bound's arithmetic, unchecked — the one definition every layer
    uses ({!Core.Proto.sigma} adds the [0 <= t <= f] check). *)

val analyze : ?n:int -> ?k:int -> ?t:int -> dropped:int -> Trace2.event list -> string
(** [dropped] is the count of events the trace sink dropped at its
    limit ({!Trace2.load_file}); when positive, the report's header
    gains a notice line naming it and the time span the events cover. *)

val causal : ?n:int -> ?k:int -> ?t:int -> Trace2.event list -> string
(** Causal upgrade of the stall report ([analyze --causal]): rebuilds
    the happens-before DAG from mid-tagged events ({!Causal.build}),
    prints each decision's justification chain, and attributes every
    stall window to the dropped/jammed messages whose delivery the
    lagging receivers were missing. Degrades to a well-formed notice on
    traces without message ids. *)
