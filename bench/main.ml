(* Benchmark harness: regenerates every table of the paper's evaluation
   and runs Bechamel micro-benchmarks of the building blocks.

       dune exec bench/main.exe                 # everything
       dune exec bench/main.exe -- --reps 50    # paper's repetition count
       dune exec bench/main.exe -- --quick      # small sizes, few reps
       dune exec bench/main.exe -- --micro-only # just the Bechamel part

   Sections:
     1. Tables 1-3  — average latency ± 95% CI per (protocol, n,
        proposal distribution, fault load), next to the published
        numbers.
     2. σ sweep     — the Section 5 liveness bound, exercised in the
        abstract round model.
     3. Phases      — decision-phase distributions (§7.3).
     4. Bechamel    — one Test.make per paper table (host-CPU cost of a
        representative simulated cell) plus the cryptographic
        primitives. *)

let reps = ref 15
let sizes = ref Harness.Paper.group_sizes
let tables = ref true
let sigma = ref true
let adversary = ref true
let phases = ref true
let workload = ref true
let micro = ref true
let seed = ref 1000L
let json_out = ref None
let jobs = ref (Harness.Pool.default_jobs ())
let baseline_out = ref None
let compare_against = ref None
let threshold = ref 0.5
let scaling_out = ref None
let scaling_sizes = ref Harness.Scaling.default_ns
let scaling_cap = ref 128
let scaling_radio_cap = ref 256
let scaling_timeout = ref 30.0

(* version of the JSON layouts this binary writes (summary,
   regression-gate baseline and scaling document); --compare rejects a
   baseline written by a different generation instead of mis-reading
   it. v3 added the scaling sweep document and the engine high-water
   metrics; v4 added the Sampled-radio task ([radio_cap]) and the
   minor/major allocation-word split. *)
let bench_schema_version = 4

let speclist =
  [
    ("--reps", Arg.Set_int reps, "N repetitions per table cell (default 15; paper used 50)");
    ( "--sizes",
      Arg.String
        (fun s -> sizes := List.map int_of_string (String.split_on_char ',' s)),
      "N,N,... group sizes (default 4,7,10,13,16)" );
    ( "--quick",
      Arg.Unit
        (fun () ->
          reps := 5;
          sizes := [ 4; 7 ]),
      " small sizes and few repetitions" );
    ("--seed", Arg.Int (fun s -> seed := Int64.of_int s), "S base seed (default 1000)");
    ( "--tables-only",
      Arg.Unit
        (fun () ->
          sigma := false;
          adversary := false;
          phases := false;
          workload := false;
          micro := false),
      " only regenerate Tables 1-3" );
    ( "--micro-only",
      Arg.Unit
        (fun () ->
          tables := false;
          sigma := false;
          adversary := false;
          phases := false;
          workload := false),
      " only the Bechamel micro-benchmarks" );
    ( "--adversary-only",
      Arg.Unit
        (fun () ->
          tables := false;
          sigma := false;
          phases := false;
          workload := false;
          micro := false),
      " only the sigma-edge vs static-loss comparison" );
    ( "--workload-only",
      Arg.Unit
        (fun () ->
          tables := false;
          sigma := false;
          adversary := false;
          phases := false;
          micro := false),
      " only the consensus-service workload sweep" );
    ( "--json",
      Arg.String (fun f -> json_out := Some f),
      "FILE write a machine-readable summary (table cells + per-load metrics) to FILE" );
    ( "-j",
      Arg.Set_int jobs,
      "N worker domains for independent runs (default: cores minus one); results \
       are bit-identical for every N" );
    ( "--jobs",
      Arg.Set_int jobs,
      "N same as -j" );
    ( "--baseline-out",
      Arg.String (fun f -> baseline_out := Some f),
      "FILE run the regression-gate grid (-j 1), write wall-clock and airtime \
       baselines to FILE, and run nothing else" );
    ( "--compare",
      Arg.String (fun f -> compare_against := Some f),
      "FILE re-run the regression-gate grid and diff it against the baseline in \
       FILE; exit non-zero when a metric regresses beyond --threshold" );
    ( "--threshold",
      Arg.Set_float threshold,
      "X allowed relative regression for --compare (default 0.5 = +50%)" );
    ( "--scaling-out",
      Arg.String (fun f -> scaling_out := Some f),
      "FILE run the scaling sweep (Turquois vs sample-based consensus at \
       16/64/256/1024), write the document to FILE, and run nothing else; \
       --compare accepts the document as a baseline" );
    ( "--scaling-sizes",
      Arg.String
        (fun s ->
          scaling_sizes := List.map int_of_string (String.split_on_char ',' s)),
      "N,N,... group sizes for --scaling-out (default 16,64,128,256,1024)" );
    ( "--scaling-cap",
      Arg.Set_int scaling_cap,
      "N largest n Turquois runs at in the scaling sweep (default 128)" );
    ( "--scaling-radio-cap",
      Arg.Set_int scaling_radio_cap,
      "N largest n the sampled protocol runs over the contended radio at \
       (default 256)" );
  ]

let banner title =
  let line = String.make 72 '=' in
  Printf.printf "%s\n%s\n%s\n" line title line

(* --- section 1: the paper's tables ---------------------------------------- *)

let run_tables () =
  let options =
    {
      Harness.Experiment.default_options with
      reps = !reps;
      group_sizes = !sizes;
      base_seed = !seed;
      progress = Some (fun line -> Printf.eprintf "  [%s]\n%!" line);
      jobs = Some !jobs;
    }
  in
  List.map
    (fun load ->
      banner
        (Printf.sprintf "Table %d: %s fault load (%d reps/cell)"
           (Harness.Experiment.table_number load)
           (Net.Fault.load_to_string load)
           !reps);
      let results = Harness.Experiment.run_table ~options load in
      print_string (Harness.Experiment.render_table load results);
      print_newline ();
      print_string (Harness.Experiment.render_comparison load results);
      print_newline ();
      (load, results))
    [ Net.Fault.Failure_free; Net.Fault.Fail_stop; Net.Fault.Byzantine ]

(* --- section 1b: sigma-edge adversary vs matched static loss --------------- *)

type adversary_point = {
  adv_n : int;
  adv_k : int;
  adv_sigma : int;
  adv_rate : float;  (** per-receiver omission rate the adversary achieved *)
  adv_drops : int;
  adv_edge : Util.Stats.summary;  (** completion latency, ms, censored *)
  adv_static : Util.Stats.summary;
  adv_edge_timeouts : int;
  adv_static_timeouts : int;
}

let silent_conditions = { Net.Fault.loss_prob = 0.0; jam_windows = [] }

(* Every correct process contributes its decision latency, censored at the
   timeout when it never decides: the sigma-edge adversary sits exactly at
   the Section 5 liveness bound, so starving a victim forever is expected
   behaviour, and dropping those processes from the mean would hide
   precisely the delay the adversary buys. *)
let censored_latencies ~timeout (r : Harness.Runner.result) =
  List.map
    (fun i ->
      match List.assoc_opt i r.latencies with
      | Some l -> 1000.0 *. l
      | None -> 1000.0 *. timeout)
    r.correct

let run_adversary () =
  banner
    "Adaptive adversary: sigma-edge omissions vs iid loss at the same rate";
  let timeout = 10.0 in
  let reps = max 3 (min !reps 10) in
  let points =
    List.map
      (fun n ->
        let k = n - Net.Fault.max_f n in
        let s = Net.Fault.sigma ~n ~k ~t:0 in
        (* pass 1: the adaptive adversary, counting the drops it spends *)
        let edge_runs =
          List.init reps (fun i ->
              let handle = ref None in
              let r =
                Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n
                  ~dist:Harness.Runner.Divergent ~load:Net.Fault.Failure_free
                  ~conditions:silent_conditions
                  ~attach:(fun radio ->
                    handle := Some (Net.Fault.sigma_edge radio ~n ~k ~t:0 ()))
                  ~timeout
                  ~seed:(Int64.add !seed (Int64.of_int (7000 + i)))
                  ()
              in
              let drops =
                match !handle with
                | Some h -> Net.Fault.sigma_edge_drops h
                | None -> 0
              in
              (r, drops))
        in
        let drops = List.fold_left (fun a (_, d) -> a + d) 0 edge_runs in
        let opportunities =
          List.fold_left
            (fun a ((r : Harness.Runner.result), _) ->
              a + (r.frames_sent * (n - 1)))
            0 edge_runs
        in
        let rate =
          if opportunities = 0 then 0.0
          else float_of_int drops /. float_of_int opportunities
        in
        (* pass 2: iid loss at the rate the adversary actually achieved *)
        let static_runs =
          List.init reps (fun i ->
              Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n
                ~dist:Harness.Runner.Divergent ~load:Net.Fault.Failure_free
                ~conditions:{ Net.Fault.loss_prob = rate; jam_windows = [] }
                ~timeout
                ~seed:(Int64.add !seed (Int64.of_int (7000 + i)))
                ())
        in
        {
          adv_n = n;
          adv_k = k;
          adv_sigma = s;
          adv_rate = rate;
          adv_drops = drops;
          adv_edge =
            Util.Stats.summarize
              (List.concat_map
                 (fun (r, _) -> censored_latencies ~timeout r)
                 edge_runs);
          adv_static =
            Util.Stats.summarize
              (List.concat_map (censored_latencies ~timeout) static_runs);
          adv_edge_timeouts =
            List.length
              (List.filter
                 (fun ((r : Harness.Runner.result), _) -> r.timed_out)
                 edge_runs);
          adv_static_timeouts =
            List.length
              (List.filter
                 (fun (r : Harness.Runner.result) -> r.timed_out)
                 static_runs);
        })
      [ 4; 7 ]
  in
  let row p =
    [
      string_of_int p.adv_n;
      string_of_int p.adv_sigma;
      Printf.sprintf "%.1f%%" (100.0 *. p.adv_rate);
      Printf.sprintf "%.1f ms" p.adv_edge.Util.Stats.mean;
      Printf.sprintf "%d/%d" p.adv_edge_timeouts reps;
      Printf.sprintf "%.1f ms" p.adv_static.Util.Stats.mean;
      Printf.sprintf "%d/%d" p.adv_static_timeouts reps;
    ]
  in
  print_string
    (Util.Tablefmt.render
       ~header:
         [
           "n";
           "sigma";
           "omission rate";
           "sigma-edge";
           "stalls";
           "static loss";
           "stalls";
         ]
       ~rows:(List.map row points) ());
  print_newline ();
  points

let adversary_to_json p =
  let slowdown =
    if p.adv_static.Util.Stats.mean > 0.0 then
      p.adv_edge.Util.Stats.mean /. p.adv_static.Util.Stats.mean
    else 0.0
  in
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int p.adv_n);
      ("k", Obs.Json.Int p.adv_k);
      ("sigma", Obs.Json.Int p.adv_sigma);
      ("matched_loss_rate", Obs.Json.Float p.adv_rate);
      ("drops", Obs.Json.Int p.adv_drops);
      ("sigma_edge_mean_ms", Obs.Json.Float p.adv_edge.Util.Stats.mean);
      ("sigma_edge_ci95_ms", Obs.Json.Float p.adv_edge.Util.Stats.ci95);
      ("sigma_edge_timeouts", Obs.Json.Int p.adv_edge_timeouts);
      ("static_loss_mean_ms", Obs.Json.Float p.adv_static.Util.Stats.mean);
      ("static_loss_ci95_ms", Obs.Json.Float p.adv_static.Util.Stats.ci95);
      ("static_loss_timeouts", Obs.Json.Int p.adv_static_timeouts);
      ("slowdown", Obs.Json.Float slowdown);
    ]

(* --- section 1c: consensus-service workload --------------------------------- *)

let workload_loads = [ 10.0; 30.0; 120.0 ]

let workload_base () =
  {
    (Harness.Workload.default ~n:4) with
    (* a longer run than the default config: 60 commands at the lowest
       load span only ~3 s, so the fixed decide-and-deliver tail lag
       dominates the sustained-throughput ratio and hides the knee *)
    Harness.Workload.capacity = 72;
    commands = 120;
    seed = Util.Rng.derive ~base:!seed [ 71 ];
  }

let run_workload () =
  banner
    "Consensus-service workload: offered load vs sustained decisions and latency";
  let reps = max 2 (min !reps 4) in
  let points =
    Harness.Workload.sweep ~jobs:!jobs ~base:(workload_base ()) ~loads:workload_loads
      ~reps ()
  in
  print_string (Harness.Workload.render_points points);
  print_newline ();
  points

let workload_point_to_json (p : Harness.Workload.point) =
  Obs.Json.Obj
    [
      ("offered_load_cmd_s", Obs.Json.Float p.Harness.Workload.load_point);
      ("throughput_cmd_s", Obs.Json.Float p.Harness.Workload.mean_throughput);
      ("decisions_per_s", Obs.Json.Float p.Harness.Workload.mean_decisions_per_sec);
      ("latency_p50_s", Obs.Json.Float p.Harness.Workload.mean_p50);
      ("latency_p99_s", Obs.Json.Float p.Harness.Workload.mean_p99);
      ("delivered_commands", Obs.Json.Float p.Harness.Workload.mean_delivered);
      ("reps", Obs.Json.Int p.Harness.Workload.reps);
    ]

let workload_to_json points =
  Obs.Json.Obj
    [
      ("loads", Obs.Json.List (List.map (fun l -> Obs.Json.Float l) workload_loads));
      ("points", Obs.Json.List (List.map workload_point_to_json points));
      ( "saturation_knee_cmd_s",
        match Harness.Workload.knee points with
        | Some k -> Obs.Json.Float k
        | None -> Obs.Json.Null );
    ]

(* --- machine-readable summary ---------------------------------------------- *)

let cell_to_json (cr : Harness.Experiment.cell_result) =
  Obs.Json.Obj
    [
      ("protocol", Obs.Json.String (Harness.Runner.protocol_to_string cr.cell.protocol));
      ("n", Obs.Json.Int cr.cell.n);
      ("dist", Obs.Json.String (Harness.Runner.dist_to_string cr.cell.dist));
      ("mean_ms", Obs.Json.Float cr.summary.mean);
      ("ci95_ms", Obs.Json.Float cr.summary.ci95);
      ("decided_fraction", Obs.Json.Float cr.decided_fraction);
      ("agreement_violations", Obs.Json.Int cr.agreement_violations);
      ("validity_violations", Obs.Json.Int cr.validity_violations);
      ("timeouts", Obs.Json.Int cr.timeouts);
    ]

(* one representative run per fault load so the JSON carries a full
   metrics snapshot alongside the latency aggregates *)
let metrics_json () =
  Obs.Json.Obj
    (List.map
       (fun load ->
         let r =
           Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:4
             ~dist:Harness.Runner.Unanimous ~load ~seed:!seed ()
         in
         (Net.Fault.load_to_string load, Obs.Metrics.to_json r.metrics))
       [ Net.Fault.Failure_free; Net.Fault.Fail_stop; Net.Fault.Byzantine ])

let write_json file table_results adversary_results workload_results =
  let doc =
    Obs.Json.Obj
      [
        ("schema_version", Obs.Json.Int bench_schema_version);
        ("reps", Obs.Json.Int !reps);
        ("sizes", Obs.Json.List (List.map (fun n -> Obs.Json.Int n) !sizes));
        ("seed", Obs.Json.String (Int64.to_string !seed));
        ( "tables",
          Obs.Json.List
            (List.map
               (fun (load, results) ->
                 Obs.Json.Obj
                   [
                     ("table", Obs.Json.Int (Harness.Experiment.table_number load));
                     ("load", Obs.Json.String (Net.Fault.load_to_string load));
                     ("cells", Obs.Json.List (List.map cell_to_json results));
                   ])
               table_results) );
        ( "adversary",
          Obs.Json.List (List.map adversary_to_json adversary_results) );
        ("workload", workload_to_json workload_results);
        ("metrics", metrics_json ());
      ]
  in
  let oc = open_out file in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote JSON summary to %s\n%!" file

(* --- section 2: sigma sweep ------------------------------------------------ *)

let run_sigma () =
  banner "Section 5 liveness bound: omissions per round vs progress";
  List.iter
    (fun (n, byz) ->
      let t = List.length byz in
      let k = n - Net.Fault.max_f n in
      let rows =
        Harness.Sweeps.sigma_sweep ~n ~k ~byzantine:byz ~runs_per_point:8 ~rounds:90
          ~beyond:3 ~base_seed:!seed ~jobs:!jobs ()
      in
      print_string (Harness.Sweeps.render_sigma ~n ~k ~t rows);
      print_newline ())
    [ (4, []); (8, []); (8, [ 7 ]) ]

(* --- section 3: decision phases ------------------------------------------- *)

let run_phases () =
  banner "Decision phases (paper 7.3): unanimous vs divergent";
  let rows =
    Harness.Sweeps.phase_distribution ~n:10 ~reps:20 ~base_seed:!seed ~jobs:!jobs
      ~loads:[ Net.Fault.Failure_free; Net.Fault.Byzantine ] ()
  in
  print_string (Harness.Sweeps.render_phases ~n:10 rows);
  print_newline ()

(* --- section 3b: ablations -------------------------------------------------- *)

let run_ablations () =
  banner "Ablations: the design choices DESIGN.md calls out";
  let rows = Harness.Sweeps.ablations ~n:10 ~reps:10 ~base_seed:!seed ~jobs:!jobs () in
  print_string (Harness.Sweeps.render_ablations ~n:10 rows);
  print_newline ()

(* --- section 3c: regression gate ------------------------------------------ *)

(* The regression-gate grid: a fast, fully deterministic slice of the
   benchmark surface (-j 1). Wall-clock sections catch
   performance regressions; the frame/byte/airtime counts of a
   representative run are bit-deterministic for a fixed seed, so any
   drift there signals a protocol behavior change — rebaseline
   deliberately with --baseline-out when that change is intentional. *)
let gate_grid () =
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    ignore v;
    Unix.gettimeofday () -. t0
  in
  let n = 8 in
  let k = n - Net.Fault.max_f n in
  Harness.Runner.clear_key_cache ();
  let sweep_s =
    time (fun () ->
        Harness.Sweeps.sigma_sweep_merged ~n ~k ~runs_per_point:8 ~rounds:90
          ~beyond:3 ~base_seed:!seed ~jobs:1 ())
  in
  let cell_s =
    time (fun () ->
        Harness.Experiment.run_cell ~reps:12 ~base_seed:!seed ~jobs:1
          {
            Harness.Experiment.protocol = Harness.Runner.Turquois;
            n = 7;
            dist = Harness.Runner.Divergent;
            load = Net.Fault.Failure_free;
          })
  in
  let chaos_s =
    time (fun () -> Harness.Chaos.run_chaos ~n:4 ~runs:20 ~jobs:1 ~seed:!seed ())
  in
  let wl = ref None in
  let workload_s =
    time (fun () -> wl := Some (Harness.Workload.run (workload_base ())))
  in
  let wl = Option.get !wl in
  let rep =
    Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:7
      ~dist:Harness.Runner.Divergent ~load:Net.Fault.Failure_free ~seed:!seed ()
  in
  let airtime =
    List.fold_left
      (fun acc (s : Obs.Metrics.sample) ->
        if s.name = "radio.airtime_s" then
          match s.value with
          | Obs.Metrics.Gauge g -> acc +. g
          | Obs.Metrics.Counter c -> acc +. float_of_int c
          | Obs.Metrics.Histogram _ -> acc
        else acc)
      0.0 rep.Harness.Runner.metrics
  in
  let wall =
    [
      ("sigma_sweep_s", sweep_s);
      ("table_cell_s", cell_s);
      ("chaos_s", chaos_s);
      ("workload_s", workload_s);
    ]
  in
  let deterministic =
    [
      ("frames_sent", float_of_int rep.Harness.Runner.frames_sent);
      ("bytes_sent", float_of_int rep.Harness.Runner.bytes_sent);
      ("airtime_s", airtime);
      ("sim_duration_s", rep.Harness.Runner.duration);
      ( "workload_delivered",
        float_of_int wl.Harness.Workload.delivered_commands );
      ( "workload_slots",
        float_of_int
          (wl.Harness.Workload.committed_slots
         + wl.Harness.Workload.skipped_slots) );
      ("workload_sim_s", wl.Harness.Workload.duration);
    ]
  in
  (wall, deterministic)

let gate_to_json (wall, deterministic) =
  let fields l = List.map (fun (k, v) -> (k, Obs.Json.Float v)) l in
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String "regression-gate");
      ("schema_version", Obs.Json.Int bench_schema_version);
      ("seed", Obs.Json.String (Int64.to_string !seed));
      ("wall", Obs.Json.Obj (fields wall));
      ("airtime", Obs.Json.Obj (fields deterministic));
    ]

let run_baseline_out file =
  banner "Regression-gate baseline (-j 1)";
  let ((wall, deterministic) as gate) = gate_grid () in
  List.iter
    (fun (k, v) -> Printf.printf "  %-16s %12.4f\n" k v)
    (wall @ deterministic);
  let oc = open_out file in
  output_string oc (Obs.Json.to_string (gate_to_json gate));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" file

(* --- section 3d: scaling sweep --------------------------------------------- *)

let run_scaling_out file =
  banner "Scaling sweep: Turquois vs sample-based consensus past n=16";
  let points =
    Harness.Scaling.sweep ~jobs:!jobs ~ns:!scaling_sizes ~turquois_cap:!scaling_cap
      ~radio_cap:!scaling_radio_cap ~timeout:!scaling_timeout ~seed:!seed ()
  in
  print_string (Harness.Scaling.render points);
  let doc =
    Harness.Scaling.to_json ~schema_version:bench_schema_version ~ns:!scaling_sizes
      ~turquois_cap:!scaling_cap ~radio_cap:!scaling_radio_cap
      ~timeout:!scaling_timeout ~seed:!seed points
  in
  let oc = open_out file in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" file

(* Re-run the sweep with the baseline's own parameters and diff every
   point. All fields but [mem_words] are bit-deterministic for the
   recorded seed: coverage and timeouts must match exactly, the
   numeric fields fail on drift beyond --threshold in either direction
   (an intentional protocol change is a deliberate rebaseline), and
   the allocation-word fields ([mem_words] and its minor/major split) —
   per-domain allocation deltas, exact up to a small cache-warmup
   constant — only fail on growth. *)
let run_compare_scaling file (base : Harness.Scaling.doc) =
  banner
    (Printf.sprintf "Scaling gate: re-run sweep vs %s (threshold %.0f%%)" file
       (100.0 *. !threshold));
  let points =
    Harness.Scaling.sweep ~jobs:!jobs ~ns:base.ns ~turquois_cap:base.turquois_cap
      ~radio_cap:base.radio_cap ~timeout:base.timeout ~seed:base.seed ()
  in
  let failures = ref 0 in
  let fail fmt = incr failures; Printf.printf fmt in
  (match
     List.combine base.points points
   with
  | pairs ->
      List.iter
        (fun ((b : Harness.Scaling.point), (p : Harness.Scaling.point)) ->
          let tag = Printf.sprintf "%s n=%d" p.protocol p.n in
          if b.protocol <> p.protocol || b.n <> p.n then
            fail "  %s: grid mismatch vs baseline %s n=%d — FAIL\n" tag b.protocol
              b.n
          else begin
            if p.decided <> b.decided || p.timed_out <> b.timed_out then
              fail "  %s: coverage %d/%d t/o=%b vs baseline %d/%d t/o=%b — FAIL\n"
                tag p.decided p.honest p.timed_out b.decided b.honest b.timed_out;
            let drift name bv pv =
              let rel =
                if bv = 0.0 then if pv = 0.0 then 0.0 else infinity
                else (pv -. bv) /. bv
              in
              if Float.abs rel > !threshold then
                fail "  %s/%-12s %12.4f -> %12.4f  %+8.1f%% — FAIL\n" tag name bv
                  pv (100.0 *. rel)
            in
            drift "mean_ms" (1e3 *. b.mean_latency) (1e3 *. p.mean_latency);
            drift "msgs" (float_of_int b.msgs) (float_of_int p.msgs);
            drift "bytes" (float_of_int b.bytes) (float_of_int p.bytes);
            drift "airtime_s" b.airtime p.airtime;
            drift "live_peak" (float_of_int b.live_peak) (float_of_int p.live_peak);
            drift "arena_hw" (float_of_int b.arena_hw) (float_of_int p.arena_hw);
            let grow name bv pv =
              let rel =
                if bv = 0 then 0.0
                else float_of_int (pv - bv) /. float_of_int bv
              in
              if rel > !threshold then
                fail "  %s/%-12s %d -> %d  %+.1f%% — FAIL\n" tag name bv pv
                  (100.0 *. rel)
            in
            grow "mem_words" b.mem_words p.mem_words;
            grow "minor_words" b.minor_words p.minor_words;
            grow "major_words" b.major_words p.major_words
          end)
        pairs
  | exception Invalid_argument _ ->
      fail "  point count %d vs baseline %d — FAIL\n" (List.length points)
        (List.length base.points));
  if !failures > 0 then begin
    Printf.printf "scaling gate: %d mismatch(es) vs %s — FAIL\n" !failures file;
    exit 1
  end
  else Printf.printf "scaling gate: all points within %.0f%% of %s\n"
      (100.0 *. !threshold) file

let rec run_compare file =
  let read_file f =
    let ic = open_in f in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let base =
    match Obs.Json.parse (read_file file) with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s: %s" file e)
  in
  (* dispatch on the document's self-description: a scaling document
     compares against a re-run of its own sweep, anything else is the
     regression-gate grid *)
  match Option.bind (Obs.Json.member "bench" base) Obs.Json.to_str with
  | Some "scaling" -> begin
      (match
         Option.bind (Obs.Json.member "bench_schema_version" base) Obs.Json.to_int
       with
      | Some v when v = bench_schema_version -> ()
      | Some v ->
          failwith
            (Printf.sprintf
               "%s: scaling schema version %d; this build writes version %d — \
                regenerate it with --scaling-out"
               file v bench_schema_version)
      | None -> failwith (Printf.sprintf "%s: no bench_schema_version" file));
      match Harness.Scaling.of_json base with
      | Ok doc -> run_compare_scaling file doc
      | Error e -> failwith (Printf.sprintf "%s: %s" file e)
    end
  | Some _ | None -> run_compare_gate file base

and run_compare_gate file base =
  banner
    (Printf.sprintf "Regression gate: re-run grid vs %s (threshold +%.0f%%)" file
       (100.0 *. !threshold));
  (match Option.bind (Obs.Json.member "schema_version" base) Obs.Json.to_int with
  | Some v when v = bench_schema_version -> ()
  | Some v ->
      failwith
        (Printf.sprintf
           "%s: baseline schema version %d; this build writes version %d — \
            regenerate it with --baseline-out"
           file v bench_schema_version)
  | None ->
      failwith
        (Printf.sprintf "%s: not a regression-gate baseline (no schema_version)"
           file));
  let section name =
    match Obs.Json.member name base with Some (Obs.Json.Obj kvs) -> kvs | _ -> []
  in
  let base_wall = section "wall" in
  let base_det = section "airtime" in
  let wall, deterministic = gate_grid () in
  let failures = ref 0 in
  (* wall clock only fails on increases (machines get faster for free);
     deterministic airtime metrics fail on drift in either direction; a
     key present on one side only fails, naming the key *)
  let check ~two_sided sect_name baseline (k, v) =
    match Option.bind (List.assoc_opt k baseline) Obs.Json.to_float with
    | None ->
        incr failures;
        Printf.printf "  %s/%-16s %12.4f  (no baseline value)  FAIL\n" sect_name k v
    | Some b ->
        let rel =
          if b = 0.0 then if v = 0.0 then 0.0 else infinity else (v -. b) /. b
        in
        let regressed =
          if two_sided then Float.abs rel > !threshold else rel > !threshold
        in
        if regressed then incr failures;
        Printf.printf "  %s/%-16s %12.4f -> %12.4f  %+8.1f%%  %s\n" sect_name k b v
          (100.0 *. rel)
          (if regressed then "FAIL" else "ok")
  in
  let rerun_has sect_name rerun (k, _) =
    if not (List.mem_assoc k rerun) then begin
      incr failures;
      Printf.printf "  %s/%-16s missing from the re-run  FAIL\n" sect_name k
    end
  in
  List.iter (check ~two_sided:false "wall" base_wall) wall;
  List.iter (check ~two_sided:true "airtime" base_det) deterministic;
  List.iter (rerun_has "wall" wall) base_wall;
  List.iter (rerun_has "airtime" deterministic) base_det;
  if !failures > 0 then (
    Printf.printf "regression gate: %d metric(s) missing or beyond %.0f%% of %s — FAIL\n"
      !failures
      (100.0 *. !threshold)
      file;
    exit 1)
  else
    Printf.printf "regression gate: all metrics within %.0f%% of %s\n"
      (100.0 *. !threshold)
      file

(* --- section 4: bechamel --------------------------------------------------- *)

open Bechamel
open Toolkit

(* one representative simulated cell per paper table, measured in host
   CPU time: n = 4, one run of each protocol under the table's fault
   load *)
let table_cell_test ~name ~load ~table_seed =
  Test.make ~name
    (Staged.stage (fun () ->
         List.iter
           (fun protocol ->
             ignore
               (Harness.Runner.run ~protocol ~n:4 ~dist:Harness.Runner.Unanimous ~load
                  ~seed:table_seed ()))
           [ Harness.Runner.Turquois; Harness.Runner.Abba; Harness.Runner.Bracha ]))

let crypto_tests () =
  let rng = Util.Rng.create ~seed:77L in
  let buf = Util.Rng.bytes rng 256 in
  let rsa = Crypto.Rsa.generate rng ~bits:512 in
  let signature = Crypto.Rsa.sign rsa.sec buf in
  let sk, vk = Crypto.Onetime_sig.generate rng ~owner:0 ~phases:8 in
  ignore sk;
  let proof = Crypto.Onetime_sig.reveal sk ~phase:3 Crypto.Onetime_sig.S_one in
  let params, key_shares = Crypto.Coin.setup rng ~n:4 ~threshold:2 ~pbits:512 ~qbits:160 () in
  let share = Crypto.Coin.create_share params key_shares.(0) ~name:"bench" in
  Test.make_grouped ~name:"crypto"
    [
      Test.make ~name:"sha256-256B" (Staged.stage (fun () -> Crypto.Sha256.digest buf));
      Test.make ~name:"hmac-256B"
        (Staged.stage (fun () -> Crypto.Hmac.mac ~key:proof buf));
      Test.make ~name:"onetime-check"
        (Staged.stage (fun () ->
             Crypto.Onetime_sig.check vk ~phase:3 Crypto.Onetime_sig.S_one ~proof));
      Test.make ~name:"rsa512-verify"
        (Staged.stage (fun () -> Crypto.Rsa.verify rsa.pub buf ~signature));
      Test.make ~name:"rsa512-sign" (Staged.stage (fun () -> Crypto.Rsa.sign rsa.sec buf));
      Test.make ~name:"coin-share-verify"
        (Staged.stage (fun () -> Crypto.Coin.verify_share params ~name:"bench" share));
    ]

let run_micro () =
  banner "Bechamel micro-benchmarks (host CPU time per operation)";
  let tests =
    Test.make_grouped ~name:"bench"
      [
        Test.make_grouped ~name:"tables"
          [
            table_cell_test ~name:"table1-cell-n4" ~load:Net.Fault.Failure_free
              ~table_seed:11L;
            table_cell_test ~name:"table2-cell-n4" ~load:Net.Fault.Fail_stop
              ~table_seed:12L;
            table_cell_test ~name:"table3-cell-n4" ~load:Net.Fault.Byzantine
              ~table_seed:13L;
          ];
        crypto_tests ();
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan
        in
        let r2 =
          match Analyze.OLS.r_square ols with Some r -> r | None -> Float.nan
        in
        (name, estimate, r2) :: acc)
      results []
    |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)
  in
  let render (name, ns, r2) =
    let time =
      if ns >= 1.0e6 then Printf.sprintf "%10.3f ms" (ns /. 1.0e6)
      else if ns >= 1.0e3 then Printf.sprintf "%10.3f us" (ns /. 1.0e3)
      else Printf.sprintf "%10.1f ns" ns
    in
    [ name; time; Printf.sprintf "%.4f" r2 ]
  in
  print_string
    (Util.Tablefmt.render
       ~header:[ "benchmark"; "time/run"; "r^2" ]
       ~rows:(List.map render rows) ());
  print_newline ()

let () =
  Arg.parse speclist
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    "bench/main.exe [options]";
  match (!baseline_out, !compare_against, !scaling_out) with
  | Some file, _, _ ->
      run_baseline_out file;
      print_endline "benchmark complete."
  | None, Some file, _ ->
      run_compare file;
      print_endline "benchmark complete."
  | None, None, Some file ->
      run_scaling_out file;
      print_endline "benchmark complete."
  | None, None, None ->
  let table_results = if !tables then run_tables () else [] in
  if !sigma then run_sigma ();
  let adversary_results = if !adversary then run_adversary () else [] in
  if !phases then run_phases ();
  if !phases then run_ablations ();
  let workload_results = if !workload then run_workload () else [] in
  if !micro then run_micro ();
  (match !json_out with
  | None -> ()
  | Some file -> write_json file table_results adversary_results workload_results);
  print_endline "benchmark complete."
