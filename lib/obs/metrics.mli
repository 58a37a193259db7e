(** Labeled metrics registry for the simulation stack.

    A process-global registry of counters, gauges and fixed-bin
    histograms, identified by a metric name plus an optional label set
    (e.g. [incr "radio.tx" ~labels:[("class", "bcast")]]). Label order
    is irrelevant — labels are canonicalised by sorting — so two call
    sites with permuted labels update the same series.

    Metrics are always on (an update is one hashtable probe), and the
    registry is scoped per run: {!reset} drops everything, {!snapshot}
    captures an immutable, deterministically ordered view. [Runner.run]
    resets at the start of every repetition so runs never bleed into
    each other; use [Scope.with_run] for the same discipline in custom
    harnesses. *)

type labels = (string * string) list

(** {2 Updates} *)

val incr : ?by:int -> ?labels:labels -> string -> unit
(** Bumps a counter, creating it at 0 on first use. Raises
    [Invalid_argument] if the series already exists with another
    type. *)

val set : ?labels:labels -> string -> float -> unit
(** Sets a gauge. *)

val add : ?labels:labels -> string -> float -> unit
(** Accumulates into a gauge (e.g. seconds of airtime). *)

val observe : ?labels:labels -> lo:float -> hi:float -> bins:int -> string -> float -> unit
(** Records a value into a fixed-bin histogram; [lo]/[hi]/[bins] take
    effect when the series is first created. *)

val reset : unit -> unit
(** Drops every series. Called at the start of each simulated run. *)

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
