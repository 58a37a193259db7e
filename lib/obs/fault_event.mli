(** Injected faults: what each one is and how it is written down.

    A schedule entry ({!Net.Schedule} re-exports {!action} and
    {!entry}), the ["fault"] trace event that performing it emits, and
    its object in a [turquois-repro/1] artifact carry one label and
    field set:

    {v
    crash        node        set_link_loss  tx rx p
    recover      node        jam            until
    set_loss     p           jam_rx         rx until
    set_rx_loss  rx p        delay_rx       rx delay until
    v}

    plus [sigma_edge] (budget, round_s, victims), traced when the
    adaptive adversary of [Net.Fault.sigma_edge] is installed. The module
    sits in obs, below net, so the injectors, the artifact codec, the
    analyzer and the timeline all read this one definition. *)

type action =
  | Crash of int  (** node goes silent (radio down) *)
  | Recover of int  (** node comes back *)
  | Set_loss of float  (** global iid omission probability *)
  | Set_rx_loss of { rx : int; p : float }  (** per-receiver omission overlay *)
  | Set_link_loss of { tx : int; rx : int; p : float }  (** directed-link omission overlay *)
  | Jam of { until : float }  (** broadband jamming window from [at] *)
  | Jam_rx of { rx : int; until : float }  (** everything arriving at [rx] is destroyed *)
  | Delay_rx of { rx : int; delay : float; until : float }
      (** delivery-delay burst at one receiver (reorders frames) *)

type entry = { at : float; action : action }

type t =
  | Injected of entry
  | Sigma_edge of { at : float; budget : int; round_s : float; victims : int list }
      (** [budget] drops per [round_s] on [victims], never lifted *)

val emit : t -> unit
(** Traces the fault at its time, attributed to the node of a crash or
    recovery; builds the fields only while tracing is on. *)

val of_event : Trace2.event -> t option
(** [None] for an event of another layer or with unreadable fields. *)

val entry_to_json : entry -> Json.t
(** [{"at": …, "action": label, …fields}] *)

val entry_of_json : Json.t -> (entry, string) result
val time : t -> float

val to_string : t -> string
(** The one rendering, e.g. ["0.200s jam p2 until 0.300s"]. *)

val in_force : t list -> time:float -> t list
(** The faults before [time] whose effect lasts past it, in time order:
    the latest non-zero loss overlay of each scope (global, receiver,
    link), crashes not yet recovered, open jamming and delay windows,
    and any installed sigma-edge adversary. *)

val ends : t -> float
(** When the fault stops by itself: a window's [until], never for the
    sigma-edge adversary, and at once for the rest, which last until a
    later entry undoes them. *)
