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
  Alcotest.(check int) "n=4 k=3 t=0" 3 (A.sigma ~n:4 ~k:3 ~t:0);
  Alcotest.(check int) "n=8 k=6 t=0" ((4 * 2) + 4) (A.sigma ~n:8 ~k:6 ~t:0)

let test_abstract_lossless_decides () =
  let o = A.run ~n:4 ~k:3 ~omissions:0 ~rounds:10 ~seed:1L () in
  Alcotest.(check int) "all decide" 4 o.deciders;
  Alcotest.(check bool) "k reached early" true
    (match o.rounds_to_k with Some r -> r <= 4 | None -> false);
  Alcotest.(check bool) "agreement" true o.agreement;
  Alcotest.(check bool) "validity" true o.validity

let test_abstract_at_sigma_progresses () =
  let sigma = A.sigma ~n:4 ~k:3 ~t:0 in
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
  let sigma = A.sigma ~n:4 ~k:3 ~t:0 in
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

let test_phase_distribution () =
  let rows =
    Harness.Sweeps.phase_distribution ~n:4 ~reps:3 ~loads:[ Net.Fault.Failure_free ] ()
  in
  Alcotest.(check int) "two dists" 2 (List.length rows);
  let unan = List.find (fun (r : Harness.Sweeps.phase_row) -> r.dist = R.Unanimous) rows in
  Alcotest.(check (float 1e-9)) "unanimous decides at phase 3" 3.0 unan.phase_stats.mean

(* Both gates' rules on synthetic documents, each read back through the
   JSON layout its committed BENCH file uses. *)
let test_gate_rules () =
  let module G = Harness.Gate in
  let module S = Harness.Scaling in
  let reparse of_json json =
    match of_json json with Ok doc -> doc | Error e -> Alcotest.fail e
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
      mem_words = 15136361;
      minor_words = 14896233;
      major_words = 240128;
    }
  in
  let scaling points =
    S.to_json
      { S.ns = [ 16 ]; turquois_cap = 16; radio_cap = 16; timeout = 30.0; seed = 1000L; points }
  in
  let turquois = point "Turquois" 16 and sampled = point "Sampled" 16 in
  let scaling_passes points =
    let baseline = reparse S.of_json (scaling [ turquois; sampled ]) in
    G.check ~baseline:(S.fields baseline.points) (S.fields points) = []
  in
  let words x p =
    let scale w = int_of_float (x *. float_of_int w) in
    {
      p with
      S.mem_words = scale p.S.mem_words;
      minor_words = scale p.minor_words;
      major_words = scale p.major_words;
    }
  in
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
  let gate wall airtime = { G.seed = 1000L; wall; airtime } in
  let chaos = ("chaos_s", 3.17) and frames = ("frames_sent", 21.0) in
  let air = ("airtime_s", 0.0057578181818181843) in
  let base = gate [ chaos ] [ frames; air ] in
  let gate_passes b =
    G.check ~baseline:(G.fields base) (G.fields (reparse G.of_json (G.to_json b))) = []
  in
  Alcotest.(check bool) "identical baseline passes" true (gate_passes base);
  Alcotest.(check bool) "frames lowered by one fails" false
    (gate_passes (gate [ chaos ] [ ("frames_sent", 20.0); air ]));
  Alcotest.(check bool) "missing key fails" false (gate_passes (gate [ chaos ] [ frames ]));
  Alcotest.(check bool) "extra key fails" false
    (gate_passes (gate [ chaos; ("table_cell_s", 0.38) ] [ frames; air ]));
  Alcotest.(check bool) "wall x5 fails" false
    (gate_passes (gate [ ("chaos_s", 5.0 *. 3.17) ] [ frames; air ]));
  Alcotest.(check bool) "wall x0.5 passes" true
    (gate_passes (gate [ ("chaos_s", 0.5 *. 3.17) ] [ frames; air ]));
  let version key = function
    | Obs.Json.Obj kvs ->
        Obs.Json.Obj
          (List.map (fun (k, v) -> if k = key then (k, Obs.Json.Int 3) else (k, v)) kvs)
    | json -> json
  in
  Alcotest.(check bool) "baseline of another schema rejected" true
    (Result.is_error (G.of_json (version "schema_version" (G.to_json base))));
  Alcotest.(check bool) "scaling of another schema rejected" true
    (Result.is_error (S.of_json (version "bench_schema_version" (scaling [ turquois ]))))

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
