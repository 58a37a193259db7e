(** The two committed regression gates: their one document layout, the
    rules their fields are compared by, and the cost reader both
    measure with.

    [BENCH_baseline.json] records the regression grid: the host wall
    clock of a fixed grid plus deterministic counts of representative
    runs. [BENCH_scaling.json] records the scaling sweep ({!Scaling}).
    Each gate flattens a run into named {!field}s, each under the
    {!rule} it is compared by; a {!doc} records their values, and
    {!check} diffs a re-run against them. *)

val schema_version : int
(** Layout version of the gate document. {!of_json} rejects a document
    of any other version instead of misreading it. *)

type rule =
  | Exact
      (** a bit-deterministic function of the document's seed: any
          change fails, in either direction *)
  | Growth of float
      (** a host-dependent cost: fails only when the re-run exceeds the
          baseline by more than this fraction *)

val wall_growth : rule
(** [Growth 3.0]: host wall-clock seconds may grow by up to +300%,
    because shared CI wall clock is noisy. *)

val words_growth : rule
(** [Growth 0.5]: allocation words may grow by up to +50%. *)

type field = { key : string; rule : rule; value : float }

val check : baseline:(string * float) list -> field list -> string list
(** [check ~baseline rerun] describes every failure, one line each,
    and is [[]] when the re-run passes. [baseline] is a {!doc}'s
    [values]. A key present on one side only fails; otherwise the
    re-run field's rule decides. *)

(** {2 The gate document} *)

type doc = {
  bench : string;  (** the gate that wrote it: ["regression-gate"] or ["scaling"] *)
  seed : int64;
  params : (string * Obs.Json.t) list;
      (** what a re-run needs besides [seed]: the scaling sweep's sizes,
          caps and timeout; nothing for the regression grid *)
  values : (string * float) list;  (** each field's key and recorded value *)
}

val to_json : doc -> Obs.Json.t
(** [{"bench", "schema_version", "seed", "params", "values"}], with
    [values] an object from key to number. *)

val of_json : Obs.Json.t -> (doc, string) result
(** Reads a document written by {!to_json}; [Error] for any other
    layout or schema version. *)

(** {2 Cost} *)

type cost = {
  wall_s : float;  (** host wall-clock seconds *)
  minor_words : int;  (** words allocated in the minor heap *)
  major_words : int;
      (** words allocated directly in the major heap (major minus
          promoted), so the two add up to total allocation *)
}

val measure : (unit -> 'a) -> 'a * cost
(** [measure f] runs [f] and reads what it cost the calling domain.
    The words come from that domain's own counters, so no other
    domain's allocation bleeds into them under [-j N]; a domain-cache
    warmup can still shift them by a small constant. *)
