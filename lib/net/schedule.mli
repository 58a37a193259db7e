(** Declarative fault schedules.

    A schedule is a timeline of fault injections — crashes and
    recoveries at arbitrary times, time-varying global / per-receiver /
    per-link omission rates, targeted jamming, and delivery-delay bursts
    (which reorder frames across receivers). {!apply} arms the whole
    timeline on the radio's engine before a run starts; every injection
    bumps the [fault.injected] metric and emits its {!Obs.Fault_event},
    so the offline analyzer can attribute stalls to the faults that
    caused them.

    Schedules are plain data: the chaos harness generates them from a
    seed ({!random}), prints them ({!to_string}), and shrinks failing
    ones to minimal reproducers ({!shrink_candidates}). *)

type action = Obs.Fault_event.action =
  | Crash of int
  | Recover of int
  | Set_loss of float
  | Set_rx_loss of { rx : int; p : float }
  | Set_link_loss of { tx : int; rx : int; p : float }
  | Jam of { until : float }
  | Jam_rx of { rx : int; until : float }
  | Delay_rx of { rx : int; delay : float; until : float }

type entry = Obs.Fault_event.entry = { at : float; action : action }
type t = entry list

val to_string : t -> string
(** One-line rendering, suitable for a printed reproducer. *)

val sort : t -> t
(** Entries in time order (stable). *)

val apply : Radio.t -> t -> unit
(** Arms every entry on the radio's engine (entries at or before the
    current time fire immediately). Call once, before the run. *)

val random : rng:Util.Rng.t -> n:int -> duration:float -> ?events:int -> unit -> t
(** A randomized schedule of [events] injections (default 6) over
    [duration] seconds. Every generated [Crash] is paired with a later
    [Recover], and the global loss overlay is cleared at the horizon, so
    the channel is provably quiet afterwards — the chaos harness's
    liveness check relies on this. Deterministic in [rng]. *)

val quiet_after : t -> float option
(** [Some h] when nothing is in force at infinity
    ({!Obs.Fault_event.in_force}: every overlay is cleared and every
    crashed node has recovered), where [h] is the last entry's time or
    window end. [None] if any fault persists — liveness cannot be
    asserted for such a run. *)

val shrink_candidates : t -> t list
(** Simplifications of a failing schedule (halves first, then each
    single-entry removal), for delta-debugging a minimal reproducer. *)
