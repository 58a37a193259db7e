(** Paper-table regeneration: repetition loops, per-cell statistics, and
    rendering in the layout of Tables 1–3. *)

type cell = {
  protocol : Runner.protocol;
  n : int;
  dist : Runner.dist;
  load : Net.Fault.load;
}

type cell_result = {
  cell : cell;
  summary : Util.Stats.summary;  (** per-process latencies, milliseconds *)
  decided_fraction : float;      (** deciders / correct, over all reps *)
  phase_summary : Util.Stats.summary option;
      (** decision phases (Turquois) or rounds (baselines) *)
  agreement_violations : int;
  validity_violations : int;
  timeouts : int;
}

val run_cell :
  ?reps:int -> ?base_seed:int64 -> ?timeout:float -> ?jobs:int -> cell -> cell_result
(** [reps] defaults to the paper's 50 repetitions; each repetition uses
    seed [base_seed + rep]. Repetitions run on the {!Pool} with [jobs]
    workers; all statistics are bit-identical for every [jobs].
    @raise Invalid_argument if no repetition produced a decision. *)

type table_options = {
  reps : int;
  group_sizes : int list;
  protocols : Runner.protocol list;
  base_seed : int64;
  timeout : float;
  progress : (string -> unit) option;  (** per-cell progress callback *)
  jobs : int option;  (** pool workers per cell; [None] = {!Pool.default_jobs} *)
}

val default_options : table_options

val run_table : ?options:table_options -> Net.Fault.load -> cell_result list
(** Every (protocol × group size × distribution) cell of one fault
    load — one paper table. *)

val render_table : Net.Fault.load -> cell_result list -> string
(** ASCII rendering in the paper's layout (group-size rows; protocol ×
    distribution columns), cells as "mean ± ci" in ms. *)

val render_comparison : Net.Fault.load -> cell_result list -> string
(** Three-way cell rendering: measured vs paper, with the ratio. *)

val table_number : Net.Fault.load -> int
(** Failure-free → 1, fail-stop → 2, Byzantine → 3. *)
