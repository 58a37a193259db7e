(** The rules of the two committed regression gates, and the
    regression-gate baseline document.

    [BENCH_baseline.json] holds a {!baseline}: the host wall clock of a
    fixed grid plus deterministic counts of representative runs.
    [BENCH_scaling.json] holds a {!Scaling.doc}. Each gate flattens its
    document into named {!field}s, each under the {!rule} it is
    compared by, and {!check} diffs a re-run against the committed
    baseline. *)

val schema_version : int
(** Layout version of both gate documents. Their [of_json] readers
    reject a document of any other version instead of misreading it. *)

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

val check : baseline:field list -> field list -> string list
(** [check ~baseline rerun] describes every failure, one line each,
    and is [[]] when the re-run passes. A key present on one side only
    fails; otherwise the re-run field's rule decides. *)

(** {2 The regression-gate baseline} *)

type baseline = {
  seed : int64;
  wall : (string * float) list;  (** host seconds per grid section *)
  airtime : (string * float) list;
      (** frame, byte, airtime and workload counts of representative
          runs: deterministic for [seed] *)
}

val fields : baseline -> field list
(** [wall/<key>] under {!wall_growth}, [airtime/<key>] under
    {!Exact}. *)

val to_json : baseline -> Obs.Json.t

val of_json : Obs.Json.t -> (baseline, string) result
(** Parses a document written by {!to_json}. *)
