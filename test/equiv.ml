(* The observer-only contract in one table: every result this lab
   reproduces is a deterministic function of its seed, whatever
   observer-only knob is set. Each knob is declared once, with how its
   results compare against a plain -j 1 pass; each scenario is declared
   once; [check knob scenario] runs one pair. A knob also reports
   whether it engaged, so a row whose knob never touched anything fails
   instead of passing vacuously. *)

module R = Harness.Runner

(* --- scenarios -------------------------------------------------------------- *)

type 'r scenario = {
  scenario : string;
  run : jobs:int -> 'r;
  same_decisions : 'r -> 'r -> bool;
      (** equality of everything but timing and traffic, for knobs that
          legitimately move those *)
  air_bytes : 'r -> int;  (** bytes the pass put on the air; 0 if unknown *)
}

let scenario ?(same_decisions = ( = )) ?(air_bytes = fun _ -> 0) scenario run =
  { scenario; run; same_decisions; air_bytes }

(* Turquois over the full radio/MAC stack, divergent proposals, one
   seed per run, runs spread over the pool *)
let turquois_runs name specs =
  let outcome (r : R.result) = (r.decisions, r.correct, r.agreement, r.validity, r.timed_out) in
  scenario name
    ~same_decisions:(fun a b -> List.map outcome a = List.map outcome b)
    ~air_bytes:(List.fold_left (fun acc (r : R.result) -> acc + r.bytes_sent) 0)
    (fun ~jobs ->
      Harness.Pool.map_list ~jobs specs (fun (n, load, strategy) ->
          R.run ~protocol:R.Turquois ~n ~dist:R.Divergent ~load ?strategy ~seed:1000L ()))

let sigma_sweep =
  scenario "sigma sweep n=4" (fun ~jobs ->
      Harness.Sweeps.sigma_sweep_merged ~n:4 ~k:3 ~runs_per_point:2 ~rounds:25 ~beyond:1
        ~base_seed:77L ~jobs ())

(* Table 3's n=16 cell is here because it is the one where compact
   bundles change the bytes on the air: in the smaller cells, and in
   every run of the strategy alphabet, compact off and on put identical
   bytes on the air. *)
let paper_cells =
  turquois_runs "paper cells n=4/7/10/16"
    [
      (4, Net.Fault.Failure_free, None);
      (7, Net.Fault.Failure_free, None);
      (7, Net.Fault.Fail_stop, None);
      (10, Net.Fault.Byzantine, None);
      (16, Net.Fault.Byzantine, None);
    ]

let strategies =
  turquois_runs "strategy alphabet n=4"
    (List.map (fun s -> (4, Net.Fault.Byzantine, Some s)) Core.Strategy.all)

(* Tables 1-3's path: repetitions spread over the pool by seed, then
   folded in slot order into the summary, phase summary and decided
   fraction *)
let run_cell =
  let cell =
    {
      Harness.Experiment.protocol = R.Turquois;
      n = 4;
      dist = R.Divergent;
      load = Net.Fault.Failure_free;
    }
  in
  scenario "run_cell n=4" (fun ~jobs ->
      Harness.Experiment.run_cell ~reps:4 ~base_seed:90L ~jobs cell)

let chaos_batch =
  scenario "chaos batch" (fun ~jobs -> Harness.Chaos.run_chaos ~n:4 ~runs:3 ~jobs ~seed:1000L ())

let workload_sweep =
  let base =
    {
      (Harness.Workload.default ~n:4) with
      capacity = 8;
      window = 2;
      max_batch = 4;
      commands = 16;
      load = 40.0;
      seed = 7300L;
    }
  in
  scenario "workload sweep" (fun ~jobs ->
      Harness.Workload.sweep ~jobs ~base ~loads:[ 20.0; 60.0 ] ~reps:2 ())

(* every task kind once at n=16, and the abstract medium at n=64;
   compared through the rendered table, because the allocation-word
   fields are host measurements *)
let scaling =
  scenario "scaling n=16/64" (fun ~jobs ->
      Harness.Scaling.render
        (Harness.Scaling.sweep ~jobs ~ns:[ 16; 64 ] ~turquois_cap:16 ~radio_cap:16
           ~seed:1000L ()))

(* the exhaustive two-round walk (model's "worst schedule replays" saves,
   loads and replays its worst-case schedule) *)
let model_walk =
  scenario "model walk n=4" (fun ~jobs ->
      let r = Model.Checker.check (Model.Checker.config ~n:4 ~rounds:2 ~jobs ()) in
      (r.outcome, r.stats))

(* --- knobs ------------------------------------------------------------------ *)

type comparison =
  | Bit_identical
  | Decisions_only
      (** the knob changes frame sizes, so contended-radio timing may
          move; it engages when a pass puts more bytes on the air than
          the plain one *)

type knob = {
  knob : string;
  comparison : comparison;
  passes : 'r. (jobs:int -> 'r) -> 'r list * bool;
      (** the passes of a scenario with the knob set, and whether the
          knob engaged *)
}

let jobs =
  { knob = "-j 2"; comparison = Bit_identical; passes = (fun run -> ([ run ~jobs:2 ], true)) }

(* The on-flag is global, so pool workers profile too, each into its
   own domain-local accumulators: the knob runs at -j 1 and at -j 2.
   Spans are counted on this domain, which runs tasks in both passes. *)
let profiling =
  {
    knob = "profiling";
    comparison = Bit_identical;
    passes =
      (fun run ->
        Obs.Prof.reset ();
        let rs =
          Obs.Prof.with_profiling true (fun () ->
              let serial = run ~jobs:1 in
              let parallel = run ~jobs:2 in
              [ serial; parallel ])
        in
        Alcotest.(check bool) "profiling restored off" false (Obs.Prof.on ());
        let spans = List.exists (fun (s : Obs.Prof.stat) -> s.count > 0) (Obs.Prof.snapshot ()) in
        Obs.Prof.reset ();
        (rs, spans));
  }

(* -j 1 only: the trace buffer is domain-local and pool workers start
   untraced. Each run clears the buffer at its start, so what is left
   is the last run's trace. *)
let tracing =
  {
    knob = "tracing";
    comparison = Bit_identical;
    passes =
      (fun run ->
        Obs.Trace2.start ();
        Fun.protect
          ~finally:(fun () ->
            Obs.Trace2.stop ();
            Obs.Trace2.clear ())
          (fun () ->
            let r = run ~jobs:1 in
            ([ r ], Obs.Trace2.events () <> [])));
  }

(* The key cache is domain-local, so the pass runs at -j 1 on the
   domain whose cache was cleared. A probe entry shows the clear took
   effect; a second clear drops it again. *)
let fresh_keys =
  {
    knob = "fresh key material";
    comparison = Bit_identical;
    passes =
      (fun run ->
        let probe () = R.keyrings_for ~seed:0L ~n:1 ~phases:1 in
        let cached = probe () in
        R.clear_key_cache ();
        let cleared = probe () != cached in
        R.clear_key_cache ();
        ([ run ~jobs:1 ], cleared));
  }

let compact_off =
  {
    knob = "compact off";
    comparison = Decisions_only;
    passes = (fun run -> ([ Core.Machine.with_compact false (fun () -> run ~jobs:1) ], true));
  }

(* --- the check -------------------------------------------------------------- *)

(* One knob against scenario [s]; says whether the knob engaged. The
   knob's passes run before the plain one, so a fresh-keys pass is
   compared against a plain pass served from the cache it refilled. *)
let pair s knob =
  let results, engaged = knob.passes s.run in
  let plain = s.run ~jobs:1 in
  let label what = Printf.sprintf "%s / %s: %s" knob.knob s.scenario what in
  match knob.comparison with
  | Bit_identical ->
      List.iter
        (fun result -> Alcotest.(check bool) (label "bit-identical") true (result = plain))
        results;
      engaged
  | Decisions_only ->
      List.iter
        (fun result ->
          Alcotest.(check bool) (label "same decisions") true (s.same_decisions result plain))
        results;
      engaged && List.exists (fun result -> s.air_bytes result > s.air_bytes plain) results

(* One knob crossed with several scenarios: it must engage in at least
   one of them. *)
let row knob pairs =
  let engaged = List.map (fun pair -> pair knob) pairs in
  Alcotest.(check bool) (knob.knob ^ " engaged") true (List.exists Fun.id engaged)

let check knob s = row knob [ pair s ]

(* The pairs no other suite's case runs. Tracing skips the σ sweep and
   the model walk: both run on abstract rounds and emit no trace event.
   Fresh key material comes last: each of its passes empties the key
   cache that later rows would otherwise reuse. *)
let suite =
  let case knob pairs = Alcotest.test_case knob.knob `Quick (fun () -> row knob pairs) in
  ( "equiv",
    [
      case jobs [ pair paper_cells; pair strategies; pair scaling ];
      case profiling
        [
          pair paper_cells;
          pair strategies;
          pair chaos_batch;
          pair workload_sweep;
          pair scaling;
          pair model_walk;
        ];
      case tracing [ pair paper_cells; pair chaos_batch; pair workload_sweep; pair scaling ];
      case compact_off [ pair strategies; pair paper_cells; pair chaos_batch ];
      case fresh_keys
        [
          pair paper_cells;
          pair strategies;
          pair chaos_batch;
          pair workload_sweep;
          pair scaling;
          pair model_walk;
        ];
    ] )
