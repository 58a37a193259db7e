(** Per-node protocol timelines rendered as an ASCII Gantt
    ([turquois-lab analyze --timeline]).

    One row per node over the run's time span; each cell shows the
    node's state during that time bucket — current phase's last digit,
    ['D'] once decided, ['X'] while crashed, ['.'] before its first
    phase transition. State changes are read from protocol
    "phase"/"round" and "decide" events and the crashes and recoveries
    of {!Fault_event}. *)

val render : ?n:int -> Trace2.event list -> string
(** [?n] forces the node count (default: inferred from the trace).
    Total over an empty trace renders a well-formed "no events"
    report. *)
