(** Structured event tracing with JSONL export.

    Every event carries typed key/value fields, so traces can be
    rendered as text ([turquois-lab run --trace]), exported as JSONL
    and re-analysed offline ([turquois-lab analyze]). One buffer per
    domain, off by default, bounded by [limit], cleared per run by the
    harness. *)

type field = S of string | I of int | F of float | B of bool

type event = {
  time : float;
  node : int;  (** -1 when not attributable to one node *)
  layer : string;  (** "radio", "mac", "rlink", "turquois", "run", ... *)
  label : string;  (** short event class, e.g. "tx", "omission", "phase" *)
  fields : (string * field) list;
}

val start : ?limit:int -> unit -> unit
(** Enables collection; at most [limit] events are kept (default
    100_000; afterwards new events are counted but dropped). *)

val stop : unit -> unit
val enabled : unit -> bool
val clear : unit -> unit

val emit :
  time:float -> node:int -> layer:string -> label:string -> (string * field) list -> unit

val events : unit -> event list
(** Collected events in emission (= time) order. *)

val dropped : unit -> int

val field_to_string : field -> string
val fields_to_string : (string * field) list -> string
(** ["k=v k2=v2"]. *)

val render : ?filter:(event -> bool) -> ?max_events:int -> unit -> string
(** One line per collected event: [time node layer label fields]. Ends
    with a ["(+N more, M dropped)"] trailer when [max_events] truncated
    the listing (N) or the sink itself dropped events at its limit
    (M). *)

(** {2 JSONL}

    One event per line:
    [{"t":0.012,"node":3,"layer":"radio","label":"tx","f":{"class":"bcast","bytes":93,...}}] *)

val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result
val to_jsonl_line : event -> string
val parse_line : string -> (event, string) result

val schema_version : int
(** Version of the exported event vocabulary. Exports start with a
    pseudo-event line [{"layer":"trace","label":"schema",...}] carrying
    it; [load_file] rejects files whose header names a different
    version. *)

val export_channel : out_channel -> int
(** Writes a schema header line, then the collected events as JSONL;
    returns the event count (header excluded). *)

val export_file : string -> int

val load_file : string -> (event list * int, string) result
(** Events plus the count of unparseable lines (tolerated and
    skipped). The schema header, when present, is checked against
    {!schema_version} — a mismatch is an [Error] — and filtered from
    the returned events; headerless legacy traces are accepted. *)
