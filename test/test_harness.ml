(* Tests of the experiment harness: runner, experiment cells, paper
   reference data, abstract round model and the sigma bound. *)

module R = Harness.Runner

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let test_proposals () =
  Alcotest.(check (array int)) "unanimous" [| 1; 1; 1; 1 |] (R.proposals R.Unanimous ~n:4);
  Alcotest.(check (array int)) "divergent" [| 0; 1; 0; 1; 0 |] (R.proposals R.Divergent ~n:5)

let test_names () =
  Alcotest.(check string) "turquois" "Turquois" (R.protocol_to_string R.Turquois);
  Alcotest.(check string) "abba" "ABBA" (R.protocol_to_string R.Abba);
  Alcotest.(check string) "bracha" "Bracha" (R.protocol_to_string R.Bracha);
  Alcotest.(check string) "unan" "unanimous" (R.dist_to_string R.Unanimous)

let test_runner_turquois_result () =
  let r =
    R.run ~protocol:R.Turquois ~n:4 ~dist:R.Unanimous ~load:Net.Fault.Failure_free ~seed:5L ()
  in
  Alcotest.(check int) "4 correct" 4 (List.length r.correct);
  Alcotest.(check int) "4 latencies" 4 (List.length r.latencies);
  Alcotest.(check bool) "agreement" true r.agreement;
  Alcotest.(check bool) "validity" true r.validity;
  Alcotest.(check bool) "not timed out" false r.timed_out;
  Alcotest.(check bool) "frames counted" true (r.frames_sent > 0);
  List.iter
    (fun (_, l) -> Alcotest.(check bool) "positive latency" true (l > 0.0))
    r.latencies

let test_runner_failstop_excludes_crashed () =
  let r =
    R.run ~protocol:R.Turquois ~n:7 ~dist:R.Unanimous ~load:Net.Fault.Fail_stop ~seed:6L ()
  in
  Alcotest.(check int) "5 measured" 5 (List.length r.correct);
  Alcotest.(check bool) "crashed not measured" false (List.mem_assoc 6 r.latencies)

let test_runner_byzantine_excludes_attackers () =
  let r =
    R.run ~protocol:R.Turquois ~n:7 ~dist:R.Unanimous ~load:Net.Fault.Byzantine ~seed:7L ()
  in
  Alcotest.(check int) "5 measured" 5 (List.length r.correct);
  Alcotest.(check bool) "validity" true r.validity

let test_runner_deterministic () =
  let run () =
    R.run ~protocol:R.Turquois ~n:4 ~dist:R.Divergent ~load:Net.Fault.Failure_free ~seed:11L ()
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same latencies" true (a.latencies = b.latencies);
  Alcotest.(check bool) "same decisions" true (a.decisions = b.decisions)

let test_runner_seed_variation () =
  let lat seed =
    let r =
      R.run ~protocol:R.Turquois ~n:4 ~dist:R.Divergent ~load:Net.Fault.Failure_free ~seed ()
    in
    r.latencies
  in
  Alcotest.(check bool) "different seeds differ" true (lat 12L <> lat 13L)

(* The ablations' two knobs reach Turquois through [Runner.run]. *)
let test_runner_auth_cost () =
  let lat auth_cost =
    let r =
      R.run ~protocol:R.Turquois ~n:4 ~dist:R.Unanimous ~load:Net.Fault.Failure_free ?auth_cost
        ~seed:1L ()
    in
    Alcotest.(check int) "all decide" 4 (List.length r.latencies);
    List.map snd r.latencies
  in
  let onetime = lat None and rsa = lat (Some Core.Turquois.Rsa_cost) in
  Alcotest.(check bool) "the default is the one-time cost" true
    (onetime = lat (Some Core.Turquois.Onetime_cost));
  Alcotest.(check bool) "every RSA latency exceeds every one-time latency" true
    (List.fold_left Float.min infinity rsa > List.fold_left Float.max 0.0 onetime)

let test_runner_tick_policy () =
  let ticks tick_policy =
    let r =
      R.run ~protocol:R.Turquois ~n:10 ~dist:R.Unanimous ~load:Net.Fault.Fail_stop ~tick_policy
        ~seed:1L ()
    in
    Obs.Metrics.counter_value r.metrics ~labels:[ ("proto", "turquois") ] "proto.ticks"
  in
  let fixed = ticks Core.Turquois.Fixed_tick in
  Alcotest.(check bool) "the run ticks" true (fixed > 0);
  Alcotest.(check bool) "the adaptive policy changes the tick count" true
    (ticks Core.Turquois.default_adaptive <> fixed)

let test_experiment_cell () =
  let cell =
    { Harness.Experiment.protocol = R.Turquois; n = 4; dist = R.Unanimous;
      load = Net.Fault.Failure_free }
  in
  let result = Harness.Experiment.run_cell ~reps:4 ~base_seed:50L cell in
  Alcotest.(check int) "16 samples (4 procs x 4 reps)" 16 result.summary.count;
  Alcotest.(check int) "no agreement violations" 0 result.agreement_violations;
  Alcotest.(check int) "no validity violations" 0 result.validity_violations;
  Alcotest.(check int) "no timeouts" 0 result.timeouts;
  Alcotest.(check (float 1e-9)) "all decided" 1.0 result.decided_fraction;
  match result.phase_summary with
  | Some p -> Alcotest.(check (float 1e-9)) "phase 3 everywhere" 3.0 p.mean
  | None -> Alcotest.fail "phase summary expected"

let test_render_table () =
  let cell =
    { Harness.Experiment.protocol = R.Turquois; n = 4; dist = R.Unanimous;
      load = Net.Fault.Failure_free }
  in
  let result = Harness.Experiment.run_cell ~reps:2 ~base_seed:60L cell in
  let table = Harness.Experiment.render_table Net.Fault.Failure_free [ result ] in
  Alcotest.(check bool) "mentions group" true
    (String.length table > 0
    && contains ~affix:"n = 4" table
    && contains ~affix:"Turquois" table)

let test_table_numbers () =
  Alcotest.(check int) "t1" 1 (Harness.Experiment.table_number Net.Fault.Failure_free);
  Alcotest.(check int) "t2" 2 (Harness.Experiment.table_number Net.Fault.Fail_stop);
  Alcotest.(check int) "t3" 3 (Harness.Experiment.table_number Net.Fault.Byzantine)

let test_paper_values () =
  (match Harness.Paper.value ~load:Net.Fault.Failure_free ~protocol:R.Turquois ~n:4
           ~dist:R.Unanimous with
  | Some (mean, ci) ->
      Alcotest.(check (float 1e-9)) "t1 mean" 14.90 mean;
      Alcotest.(check (float 1e-9)) "t1 ci" 4.74 ci
  | None -> Alcotest.fail "expected value");
  (match Harness.Paper.value ~load:Net.Fault.Byzantine ~protocol:R.Bracha ~n:16
           ~dist:R.Divergent with
  | Some (mean, _) -> Alcotest.(check (float 1e-9)) "t3 bracha" 20412.36 mean
  | None -> Alcotest.fail "expected value");
  Alcotest.(check bool) "unknown n" true
    (Harness.Paper.value ~load:Net.Fault.Failure_free ~protocol:R.Turquois ~n:5
       ~dist:R.Unanimous = None);
  Alcotest.(check int) "group sizes" 5 (List.length Harness.Paper.group_sizes)

(* --- abstract rounds / sigma bound ------------------------------------------- *)

module A = Harness.Abstract_rounds

let test_sigma_values () =
  Alcotest.(check int) "n=4 k=3 t=0" 3 (Obs.Analyze.sigma ~n:4 ~k:3 ~t:0);
  Alcotest.(check int) "n=8 k=6 t=0" ((4 * 2) + 4) (Obs.Analyze.sigma ~n:8 ~k:6 ~t:0)

let test_abstract_lossless_decides () =
  let o = A.run ~n:4 ~k:3 ~omissions:0 ~rounds:10 ~seed:1L () in
  Alcotest.(check int) "all decide" 4 o.deciders;
  Alcotest.(check bool) "k reached early" true
    (match o.rounds_to_k with Some r -> r <= 4 | None -> false);
  Alcotest.(check bool) "agreement" true o.agreement;
  Alcotest.(check bool) "validity" true o.validity

let test_abstract_at_sigma_progresses () =
  let sigma = Obs.Analyze.sigma ~n:4 ~k:3 ~t:0 in
  let ok = ref 0 in
  for seed = 0 to 9 do
    let o =
      A.run ~n:4 ~k:3 ~adversary:A.Random_omissions ~omissions:sigma ~rounds:80
        ~seed:(Int64.of_int seed) ()
    in
    Alcotest.(check bool) "safety at sigma" true (o.agreement && o.validity);
    if o.rounds_to_k <> None then incr ok
  done;
  Alcotest.(check int) "k reached in every run" 10 !ok

let test_abstract_beyond_sigma_targeted_stalls () =
  let sigma = Obs.Analyze.sigma ~n:4 ~k:3 ~t:0 in
  let o =
    A.run ~n:4 ~k:3 ~adversary:A.Target_victims ~omissions:(sigma + 3) ~rounds:60 ~seed:3L ()
  in
  Alcotest.(check bool) "k not reached" true (o.rounds_to_k = None);
  Alcotest.(check bool) "but safety holds" true (o.agreement && o.validity)

let test_abstract_byzantine_safety () =
  for seed = 0 to 4 do
    let o =
      A.run ~n:7 ~k:5 ~byzantine:[ 5; 6 ] ~dist:R.Divergent ~adversary:A.Random_omissions
        ~omissions:3 ~rounds:60 ~seed:(Int64.of_int seed) ()
    in
    Alcotest.(check bool) "agreement under byz+omissions" true o.agreement
  done

let test_sweep_shape () =
  let rows = Harness.Sweeps.sigma_sweep ~n:4 ~k:3 ~runs_per_point:3 ~rounds:50 ~beyond:2 () in
  (* both adversaries, omissions 0..sigma+2 *)
  Alcotest.(check int) "row count" (2 * (3 + 2 + 1)) (List.length rows);
  List.iter
    (fun (row : Harness.Sweeps.sigma_row) ->
      Alcotest.(check int) "no agreement violations" 0 row.agreement_violations;
      Alcotest.(check int) "no validity violations" 0 row.validity_violations)
    rows;
  let rendered = Harness.Sweeps.render_sigma ~n:4 ~k:3 ~t:0 rows in
  Alcotest.(check bool) "renders sigma" true (contains ~affix:"sigma" rendered)

(* SHA-256 of two rendered sweeps, recorded before the lockstep loops
   were rebuilt on [Driven.step]: both adversaries, the silent and the
   Attacker path, every mean-rounds cell and the sigma line. *)
let test_sweep_pinned () =
  let digest ~n ~k ?byzantine ~rounds () =
    let rows =
      Harness.Sweeps.sigma_sweep ~n ~k ?byzantine ~runs_per_point:2 ~rounds ~beyond:1 ~jobs:1 ()
    in
    let t = List.length (Option.value byzantine ~default:[]) in
    Crypto.Sha256.hex_digest_string (Harness.Sweeps.render_sigma ~n ~k ~t rows)
  in
  Alcotest.(check string) "n=4 k=3"
    "842c27cf4c7cdaae1de8cb7a3760a1a7905e732e0c970b7a1153839632881d45"
    (digest ~n:4 ~k:3 ~rounds:25 ());
  Alcotest.(check string) "n=8 k=6 byzantine [7]"
    "85946ad5751e9398ff314a7be2941f5dd6cecb902ae285359d1905925822b939"
    (digest ~n:8 ~k:6 ~byzantine:[ 7 ] ~rounds:30 ())

(* The first ablation table goes through [Runner.run]: the one-time
   signature row stays well below the RSA row. *)
let test_ablations_smoke () =
  match Harness.Sweeps.ablations ~n:4 ~reps:2 ~jobs:1 () with
  | onetime :: rsa :: _ ->
      Alcotest.(check bool) "samples" true (onetime.ab_samples > 0 && rsa.ab_samples > 0);
      Alcotest.(check bool) "RSA costs more" true (rsa.latency.mean > onetime.latency.mean)
  | _ -> Alcotest.fail "ablations returned fewer than two rows"

let test_phase_distribution () =
  let rows =
    Harness.Sweeps.phase_distribution ~n:4 ~reps:3 ~loads:[ Net.Fault.Failure_free ] ()
  in
  Alcotest.(check int) "two dists" 2 (List.length rows);
  let unan = List.find (fun (r : Harness.Sweeps.phase_row) -> r.dist = R.Unanimous) rows in
  Alcotest.(check (float 1e-9)) "unanimous decides at phase 3" 3.0 unan.phase_stats.mean

(* Both gates' rules on synthetic runs, each recorded through the one
   gate document layout and read back before the re-run is checked. *)
let test_gate_rules () =
  let module G = Harness.Gate in
  let module S = Harness.Scaling in
  let doc bench params fields =
    {
      G.bench;
      seed = 1000L;
      params;
      values = List.map (fun (f : G.field) -> (f.key, f.value)) fields;
    }
  in
  let reparse (d : G.doc) =
    match G.of_json (G.to_json d) with Ok d -> d | Error e -> Alcotest.fail e
  in
  let point protocol n =
    {
      S.protocol;
      n;
      honest = n;
      decided = n;
      mean_latency = 0.015804466668394624;
      max_latency = 0.016729461366211406;
      duration = 0.017021073349180644;
      msgs = 46;
      bytes = 4140;
      airtime = 0.012612363636363628;
      live_peak = 52;
      queued_peak = 63;
      arena_hw = 64;
      timed_out = false;
      minor_words = 14896233;
      major_words = 240128;
    }
  in
  let scaling points =
    doc "scaling"
      [
        ("sizes", Obs.Json.List [ Obs.Json.Int 16 ]);
        ("turquois_cap", Obs.Json.Int 16);
        ("radio_cap", Obs.Json.Int 16);
        ("timeout_s", Obs.Json.Float 30.0);
      ]
      (S.fields points)
  in
  let turquois = point "Turquois" 16 and sampled = point "Sampled" 16 in
  let scaling_passes points =
    let baseline = reparse (scaling [ turquois; sampled ]) in
    G.check ~baseline:baseline.values (S.fields points) = []
  in
  let words x p =
    let scale w = int_of_float (x *. float_of_int w) in
    { p with S.minor_words = scale p.S.minor_words; major_words = scale p.major_words }
  in
  Alcotest.(check bool) "scaling document round-trips" true
    (reparse (scaling [ turquois; sampled ]) = scaling [ turquois; sampled ]);
  Alcotest.(check bool) "identical scaling passes" true (scaling_passes [ turquois; sampled ]);
  Alcotest.(check bool) "msgs lowered by one fails" false
    (scaling_passes [ { turquois with msgs = 45 }; sampled ]);
  Alcotest.(check bool) "timed_out flip fails" false
    (scaling_passes [ { turquois with timed_out = true }; sampled ]);
  Alcotest.(check bool) "missing point fails" false (scaling_passes [ turquois ]);
  Alcotest.(check bool) "extra point fails" false
    (scaling_passes [ turquois; sampled; point "Sampled" 64 ]);
  Alcotest.(check bool) "words x1.6 fail" false
    (scaling_passes [ words 1.6 turquois; sampled ]);
  Alcotest.(check bool) "words x0.1 pass" true
    (scaling_passes [ words 0.1 turquois; sampled ]);
  let gate wall airtime =
    List.map (fun (k, value) -> { G.key = "wall/" ^ k; rule = G.wall_growth; value }) wall
    @ List.map (fun (k, value) -> { G.key = "airtime/" ^ k; rule = G.Exact; value }) airtime
  in
  let chaos = ("chaos_s", 3.17) and frames = ("frames_sent", 21.0) in
  let air = ("airtime_s", 0.0057578181818181843) in
  let base = doc "regression-gate" [] (gate [ chaos ] [ frames; air ]) in
  let gate_passes rerun = G.check ~baseline:(reparse base).values rerun = [] in
  Alcotest.(check bool) "identical baseline passes" true
    (gate_passes (gate [ chaos ] [ frames; air ]));
  Alcotest.(check bool) "frames lowered by one fails" false
    (gate_passes (gate [ chaos ] [ ("frames_sent", 20.0); air ]));
  Alcotest.(check bool) "missing key fails" false (gate_passes (gate [ chaos ] [ frames ]));
  Alcotest.(check bool) "extra key fails" false
    (gate_passes (gate [ chaos; ("table_cell_s", 0.38) ] [ frames; air ]));
  Alcotest.(check bool) "wall x5 fails" false
    (gate_passes (gate [ ("chaos_s", 5.0 *. 3.17) ] [ frames; air ]));
  Alcotest.(check bool) "wall x0.5 passes" true
    (gate_passes (gate [ ("chaos_s", 0.5 *. 3.17) ] [ frames; air ]));
  let version d =
    match G.to_json d with
    | Obs.Json.Obj kvs ->
        Obs.Json.Obj
          (List.map
             (fun (k, v) -> if k = "schema_version" then (k, Obs.Json.Int 3) else (k, v))
             kvs)
    | json -> json
  in
  Alcotest.(check bool) "baseline of another schema rejected" true
    (Result.is_error (G.of_json (version base)));
  Alcotest.(check bool) "scaling of another schema rejected" true
    (Result.is_error (G.of_json (version (scaling [ turquois ]))))

let suite =
  ( "harness",
    [
      Alcotest.test_case "proposals" `Quick test_proposals;
      Alcotest.test_case "names" `Quick test_names;
      Alcotest.test_case "runner result" `Quick test_runner_turquois_result;
      Alcotest.test_case "fail-stop exclusion" `Quick test_runner_failstop_excludes_crashed;
      Alcotest.test_case "byzantine exclusion" `Quick test_runner_byzantine_excludes_attackers;
      Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
      Alcotest.test_case "seed variation" `Quick test_runner_seed_variation;
      Alcotest.test_case "runner auth cost" `Quick test_runner_auth_cost;
      Alcotest.test_case "runner tick policy" `Quick test_runner_tick_policy;
      Alcotest.test_case "experiment cell" `Quick test_experiment_cell;
      Alcotest.test_case "render table" `Quick test_render_table;
      Alcotest.test_case "table numbers" `Quick test_table_numbers;
      Alcotest.test_case "paper values" `Quick test_paper_values;
      Alcotest.test_case "sigma values" `Quick test_sigma_values;
      Alcotest.test_case "abstract lossless" `Quick test_abstract_lossless_decides;
      Alcotest.test_case "abstract at sigma" `Slow test_abstract_at_sigma_progresses;
      Alcotest.test_case "abstract beyond sigma" `Quick test_abstract_beyond_sigma_targeted_stalls;
      Alcotest.test_case "abstract byzantine" `Slow test_abstract_byzantine_safety;
      Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
      Alcotest.test_case "sweep pinned" `Quick test_sweep_pinned;
      Alcotest.test_case "ablations smoke" `Quick test_ablations_smoke;
      Alcotest.test_case "phase distribution" `Quick test_phase_distribution;
      Alcotest.test_case "gate rules" `Quick test_gate_rules;
    ] )

(* --- paper-shape assertions ----------------------------------------------- *)

let mean_latency ~protocol ~n ~dist ~load ~reps ~base_seed =
  let acc = ref [] in
  for rep = 0 to reps - 1 do
    let r =
      R.run ~protocol ~n ~dist ~load ~seed:(Int64.add base_seed (Int64.of_int rep)) ()
    in
    List.iter (fun (_, l) -> acc := l :: !acc) r.latencies
  done;
  Util.Stats.mean !acc

let test_shape_failstop_slower_than_failure_free () =
  (* the Table 2 observation: with exactly n-f processes, Turquois
     becomes sensitive to message loss *)
  let free =
    mean_latency ~protocol:R.Turquois ~n:10 ~dist:R.Unanimous ~load:Net.Fault.Failure_free
      ~reps:6 ~base_seed:800L
  in
  let failstop =
    mean_latency ~protocol:R.Turquois ~n:10 ~dist:R.Unanimous ~load:Net.Fault.Fail_stop
      ~reps:6 ~base_seed:800L
  in
  Alcotest.(check bool) "fail-stop slower" true (failstop > free)

let test_shape_divergent_slower_failure_free () =
  (* the Table 1 observation: divergent proposals cost roughly a cycle *)
  let unanimous =
    mean_latency ~protocol:R.Turquois ~n:7 ~dist:R.Unanimous ~load:Net.Fault.Failure_free
      ~reps:6 ~base_seed:810L
  in
  let divergent =
    mean_latency ~protocol:R.Turquois ~n:7 ~dist:R.Divergent ~load:Net.Fault.Failure_free
      ~reps:6 ~base_seed:810L
  in
  Alcotest.(check bool) "divergent slower" true (divergent > unanimous)

let test_shape_message_complexity_separation () =
  (* frames per consensus: Bracha grows much faster with n than Turquois *)
  let frames protocol n =
    let r =
      R.run ~protocol ~n ~dist:R.Unanimous ~load:Net.Fault.Failure_free ~seed:820L ()
    in
    float_of_int r.frames_sent
  in
  let turquois_growth = frames R.Turquois 10 /. frames R.Turquois 4 in
  let bracha_growth = frames R.Bracha 10 /. frames R.Bracha 4 in
  Alcotest.(check bool) "bracha superlinear vs turquois" true
    (bracha_growth > 3.0 *. turquois_growth)

let shape_suite =
  [
    Alcotest.test_case "shape: fail-stop degradation" `Slow
      test_shape_failstop_slower_than_failure_free;
    Alcotest.test_case "shape: divergent penalty" `Slow test_shape_divergent_slower_failure_free;
    Alcotest.test_case "shape: message complexity" `Slow test_shape_message_complexity_separation;
  ]

let suite = (fst suite, snd suite @ shape_suite)
