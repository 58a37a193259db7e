(** Causal message tracing: online id tagging, offline happens-before
    reconstruction.

    Online, each protocol broadcast is assigned a message id
    ["m<sender>.<phase>.<seq>"] when it is encoded. Frames carry the
    payload down unchanged, so radio/MAC events are labeled with the
    message they carry by looking up the frame's payload; a layer that
    re-encodes a payload (the reliable link's segments) re-attaches the
    id to its encoding with [alias]. No signature widens. The registry is
    domain-local, keyed on byte content, and cleared at every run
    boundary. Callers only invoke it when [Trace2.enabled ()], so the
    off-path cost is zero and results stay bit-identical either way.

    Offline, [build] reconstructs a DAG of send / deliver / drop records
    from a trace, plus the sends that never went on the air;
    [decision_chain] returns every message a decision transitively
    depends on, and [attribute] covers a stall window's lagging
    receivers with the messages dropped inside it. *)

(** {1 Online tagging} *)

val next_send : sender:int -> phase:int -> string
(** Fresh message id for a broadcast by [sender] in [phase]. *)

val register : bytes -> string -> unit
(** Associates the byte content with a message id. *)

val alias : from:bytes -> bytes -> unit
(** [alias ~from bytes] carries [from]'s id (if any) over to [bytes] —
    a layer's own encoding of the payload it was handed. *)

val lookup : bytes -> string option

val mid_field : bytes -> (string * Trace2.field) list
(** [[("mid", S id)]] when the bytes are registered, [[]] otherwise —
    ready to splice into a [Trace2.emit] field list. *)

val reset : unit -> unit
(** Clears this domain's registry (also installed as a run-start hook). *)

(** {1 Offline reconstruction} *)

type send = { s_mid : string; s_sender : int; s_phase : int; s_time : float }
type deliver = { d_mid : string; d_rx : int; d_time : float }

type drop = {
  dr_mid : string;
  dr_kind : string;  (** ["omission"], ["jammed"] or ["mac-drop"] *)
  dr_rx : int option;  (** [None]: broadcast-wide loss (jamming) *)
  dr_time : float;
}

type replaced = { rp_mid : string; rp_node : int; rp_time : float }
(** A send superseded in its node's MAC queue at [rp_time]. *)

type dag = {
  sends : (string, send) Hashtbl.t;
  delivers : deliver list;  (** chronological *)
  delivers_by_rx : (int, deliver list) Hashtbl.t;  (** chronological *)
  drops : drop list;  (** chronological *)
  decides : (int, float) Hashtbl.t;  (** node -> first decide time *)
  never_on_air : replaced list;
      (** chronological: sends a MAC replacement removed before any
          [radio]/[tx] carried them. A replacement naming the mid of the
          node's broadcast at that instant lost nothing — mids are keyed
          by content, so the new frame held the same bytes. These are
          not drops: {!attribute} leaves them out. *)
}

val build : Trace2.event list -> dag

val decision_chain : dag -> node:int -> time:float -> string list
(** Message ids the action at ([node], [time]) causally depends on:
    everything delivered to [node] by [time] plus, transitively,
    everything each sender had heard when it sent. Sorted by send
    time. *)

val drops_in : dag -> from:float -> until:float -> drop list

val attribute :
  dag ->
  lagging:int list ->
  from:float ->
  until:float ->
  (string * string * int list) list * int list
(** Greedy minimal cover of [lagging] receivers by messages dropped in
    the window: returns [(mid, kind, covered receivers)] best-first,
    plus the receivers no in-window drop explains. *)

val describe_send : dag -> string -> string
(** ["m0.3.2 (p0, phase 3, @41.0ms)"], with [", never on the air"]
    before the parenthesis closes for a send in [never_on_air], or the
    bare id if unknown. *)
