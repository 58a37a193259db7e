(** Labeled metrics registry for the simulation stack.

    Counters, gauges and fixed-bin histograms, each identified by a
    metric name plus an optional label set. A series is declared once,
    at module level or when a component is created, and updated through
    the handle the declaration returns:

    {[
      let tx_bcast = Obs.Metrics.counter ~labels:[ ("class", "bcast") ] "radio.tx"
      ...
      Obs.Metrics.incr tx_bcast
    ]}

    Declarations are interned in one process-global table: declaring the
    same (name, labels) again returns the same series, and label order
    is irrelevant (labels are canonicalised by sorting). Declaring an
    existing series with another kind, or a histogram with another
    shape, raises [Invalid_argument].

    An update is an array index into a domain-local registry: no name
    hashing and no label sorting on the hot path. The registry is
    scoped per run: {!reset} drops every series' value, {!snapshot}
    captures an immutable, deterministically ordered view, and a series
    enters the snapshot on its first update of a run ([incr_by c 0]
    included). [Runner.run] resets at the start of every repetition so
    runs never bleed into each other; use [Scope.with_run] for the same
    discipline in custom harnesses. *)

type labels = (string * string) list

(** {2 Declarations} *)

type counter
type gauge
type histogram

val counter : ?labels:labels -> string -> counter
val gauge : ?labels:labels -> string -> gauge

val histogram : ?labels:labels -> lo:float -> hi:float -> bins:int -> string -> histogram
(** A histogram of [bins] equal bins from [lo] up to [hi]; values
    outside clamp into the end bins. Raises [Invalid_argument] on [bins <= 0]
    or [hi <= lo]. *)

(** {2 Updates} *)

val incr : counter -> unit

val incr_by : counter -> int -> unit
(** Adds to a counter; [incr_by c 0] still enters [c] into the run's
    snapshot. *)

val set : gauge -> float -> unit

val add : gauge -> float -> unit
(** Accumulates into a gauge (e.g. seconds of airtime). *)

val observe : histogram -> float -> unit

val reset : unit -> unit
(** Drops every series from this domain's registry; declarations stay.
    Called at the start of each simulated run. *)

(** {2 Snapshots} *)

type hist_snapshot = {
  lo : float;
  hi : float;
  counts : int array;
  total : int;
  sum : float;
}

type value = Counter of int | Gauge of float | Histogram of hist_snapshot
type sample = { name : string; labels : labels; value : value }

type snapshot = sample list
(** Sorted by (name, labels): identical seeds produce structurally
    equal snapshots. *)

val snapshot : unit -> snapshot

val find : snapshot -> ?labels:labels -> string -> sample option
val counter_value : snapshot -> ?labels:labels -> string -> int
(** 0 when absent or not a counter. *)

val sum_counters : snapshot -> string -> int
(** Sum of a counter across all of its label sets. *)

val merge : snapshot list -> snapshot
(** [merge snaps] combines per-run snapshots into one aggregate view:
    counters and gauges add, histograms add bin-wise. Used by the
    parallel run pool to fold the domain-local per-run snapshots back
    into a single deterministic series after join — merging is
    commutative and associative over runs, so the result is independent
    of execution order (the pool still merges in slot order).
    @raise Invalid_argument if the same series appears with
    incompatible types or histogram shapes. *)

val labels_to_string : labels -> string
val render_table : snapshot -> string
(** Human-readable table (metric | labels | value). *)
