(** Replayable adversary-schedule artifacts.

    One JSON file format ("turquois-repro/1") for every deterministic
    reproducer the toolchain extracts, so model-checker output and chaos
    reproducers flow through the same replay path ([run --replay]):

    - {b rounds} artifacts replay an explicit per-round adversary
      schedule (per-receiver omissions, per-round Byzantine strategy
      choices) through {!Harness.Abstract_rounds.Driven} — the model
      checker's worst-case liveness schedules and any safety violation
      it finds;
    - {b radio} artifacts replay a {!Net.Schedule} fault timeline
      through {!Harness.Chaos.check_schedule} — the chaos harness's
      shrunken minimal reproducers.

    Every artifact records the outcome it must reproduce; replay
    re-executes and compares, turning extracted schedules into
    regression tests. *)

type round_choice = {
  drops : (int * int) list;
      (** suppressed (sender, receiver) transmissions this round *)
  byz : (int * string) list;
      (** (byzantine id, {!Core.Strategy} name) for this round; an
          absent id stays silent (a crash) *)
}

type expect =
  | Stall of { deciders : int; advanced : int }
      (** exact horizon outcome of a worst-case stall schedule *)
  | Violations of string list
      (** the exact invariant breaches the run must reproduce *)

type rounds_artifact = {
  r_n : int;
  r_k : int;
  r_byzantine : int list;
  r_dist : Harness.Runner.dist;
  r_seed : int64;
  r_budget : int;  (** the omission budget the schedule was drawn from *)
  r_rounds : round_choice list;
  r_expect : expect;
  r_note : string;  (** human-readable provenance *)
}

type radio_artifact = {
  c_protocol : Harness.Runner.protocol;
  c_n : int;
  c_dist : Harness.Runner.dist;
  c_strategy : string option;
  c_seed : int64;
  c_bug : bool;
      (** the chaos harness's planted broken-machine defect — re-planted
          at replay so self-test reproducers replay faithfully *)
  c_schedule : Net.Schedule.t;
  c_expect : string list;  (** violations the replay must reproduce *)
  c_note : string;
}

type artifact = Rounds of rounds_artifact | Radio of radio_artifact

val to_json : artifact -> Obs.Json.t
val of_json : Obs.Json.t -> (artifact, string) result

val save : string -> artifact -> unit
(** Writes the artifact as a single JSON line to the given path. *)

val load : string -> (artifact, string) result
(** Reads an artifact back; [Error] on IO problems, malformed JSON, a
    schema mismatch, or an unknown strategy/action name. *)

val delivered_per_round : rounds_artifact -> int list
(** For each round, how many of the correct-to-correct transmissions
    were delivered (the paper counts liveness in delivered messages:
    total correct pairs minus that round's suppressed ones). *)

val describe : artifact -> string
(** One-line summary for logs. *)
