(** Discrete-event simulation engine.

    Time is a float in seconds. Events fire in nondecreasing time order;
    ties break by scheduling order, so a run is a deterministic function
    of the inputs. All higher layers (radio, MAC, transports, protocol
    timers) are driven from one engine instance. *)

type t

type handle
(** Names a scheduled event so it can be cancelled. *)

val create : unit -> t

val now : t -> float
(** Current simulation time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay].
    @raise Invalid_argument if [delay] is negative or NaN. *)

val at : t -> time:float -> (unit -> unit) -> handle
(** Absolute-time variant; [time] in the past fires immediately-next. *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or cancelled event is a no-op. *)

val pending : t -> int
(** Number of live (not cancelled, not yet fired) events. Safe as a
    quiescence signal: cancelled events never count, even before they
    are lazily collected from the heap. *)

val heap_size : t -> int
(** Raw queue occupancy, including cancelled events
    awaiting lazy collection. [heap_size t >= pending t]; exposed for
    tests and queue-depth diagnostics. *)

val live_peak : t -> int
(** High-water mark of {!pending} over the engine's lifetime. *)

val queued_peak : t -> int
(** High-water mark of {!heap_size} over the engine's lifetime. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drains the queue. Stops when the queue is empty, when the next event
    is later than [until], or after [max_events] events. *)

val step : t -> bool
(** Executes the single next event; [false] when the queue is empty. *)

val run_while : t -> (unit -> bool) -> unit
(** Executes events while the predicate holds (checked before each
    event) and the queue is non-empty. *)
