(* Tests of the bounded exhaustive model checker and the replayable
   reproducer codec: exhaustive sigma tightness at the small group
   sizes, jobs-independence of the walk, artifact round-trips through
   JSON and through replay, and graceful degradation past the state
   cap. *)

module C = Model.Checker
module Codec = Model.Codec
module Replay = Model.Replay

let silent = [ Core.Strategy.silent ]

let stall_of (artifact : Codec.rounds_artifact) =
  match artifact.r_expect with
  | Codec.Stall { deciders; advanced } -> (deciders, advanced)
  | _ -> Alcotest.fail "expected a stall artifact"

(* (worst artifact, min deciders, min advanced) of a [Safe] outcome *)
let safe_exn = function
  | C.Safe { worst; min_deciders; min_advanced } -> (worst, min_deciders, min_advanced)
  | C.Violation artifact ->
      Alcotest.fail
        ("unexpected violation: "
        ^
        match artifact.r_expect with
        | Codec.Violations vs -> String.concat "; " vs
        | _ -> "?")

(* --- exhaustive sigma tightness --------------------------------------------- *)

(* n=4, k=3, t=1: sigma = 1 and the per-victim blocking cost is also 1,
   so the bound is exactly tight — over ALL omission patterns, budget
   sigma admits a stall and budget sigma-1 provably cannot block k
   processes. This upgrades the sampled Sigma_edge single_round check to
   an exhaustive proof at this point. *)
let test_exhaustive_sigma_n4 () =
  let check ~budget ~exact =
    let cfg =
      C.config ~n:4 ~byzantine:[ 3 ] ~budget ~exact_budget:exact ~alphabet:silent ~rounds:1
        ~jobs:1 ()
    in
    safe_exn (C.check cfg).outcome
  in
  let sigma = Harness.Abstract_rounds.sigma ~n:4 ~k:3 ~t:1 in
  Alcotest.(check int) "sigma(4,3,1)" 1 sigma;
  let _, _, at_sigma = check ~budget:sigma ~exact:true in
  Alcotest.(check bool) "a stall exists at budget sigma" true (at_sigma < 3);
  let _, _, below = check ~budget:(sigma - 1) ~exact:false in
  Alcotest.(check bool) "no pattern below sigma stalls" true (below >= 3)

(* n=5, k=4, t=1: sigma = 2, but under the machine's (n+f)/2 quorum a
   single dropped transmission already leaves its receiver one short —
   the exhaustive walk shows the formula is an upper bound here, not the
   exact threshold (blocking cost 1 < sigma). Both facts are pinned:
   budget sigma stalls, and so does the cheaper single-drop schedule. *)
let test_exhaustive_sigma_n5 () =
  let check ~budget ~exact =
    let cfg =
      C.config ~n:5 ~byzantine:[ 4 ] ~budget ~exact_budget:exact ~alphabet:silent ~rounds:1
        ~jobs:1 ()
    in
    safe_exn (C.check cfg).outcome
  in
  let sigma = Harness.Abstract_rounds.sigma ~n:5 ~k:4 ~t:1 in
  Alcotest.(check int) "sigma(5,4,1)" 2 sigma;
  let _, _, at_sigma = check ~budget:sigma ~exact:true in
  Alcotest.(check bool) "a stall exists at budget sigma" true (at_sigma < 4);
  let _, _, one = check ~budget:1 ~exact:true in
  Alcotest.(check bool) "formula is conservative at n=5: one drop stalls" true (one < 4);
  let _, _, zero = check ~budget:0 ~exact:false in
  Alcotest.(check bool) "zero omissions cannot stall" true (zero >= 4)

(* The extracted worst-case schedule is a first-class reproducer: replay
   re-executes it and lands on the recorded (deciders, advanced) point;
   tampering with the expectation is detected. The two-round walk's
   worst schedule also survives a save/load cycle through a file. *)
let test_worst_schedule_replays () =
  let cfg =
    C.config ~n:4 ~byzantine:[ 3 ] ~budget:1 ~exact_budget:true ~alphabet:silent ~rounds:1
      ~jobs:1 ()
  in
  let worst, _, _ = safe_exn (C.check cfg).outcome in
  let d, a = stall_of worst in
  Alcotest.(check int) "worst schedule stalls one victim" 2 a;
  let v = Replay.run (Codec.Rounds worst) in
  Alcotest.(check bool) ("replay reproduces: " ^ v.detail) true v.ok;
  let tampered = { worst with r_expect = Codec.Stall { deciders = d; advanced = a + 1 } } in
  Alcotest.(check bool) "tampered expectation is detected" false
    (Replay.run (Codec.Rounds tampered)).ok;
  let walk_worst, _, _ = safe_exn (C.check (C.config ~n:4 ~rounds:2 ~jobs:1 ())).outcome in
  let path = Filename.temp_file "worst_walk" ".json" in
  let loaded =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Codec.save path (Codec.Rounds walk_worst);
        match Codec.load path with
        | Ok artifact -> artifact
        | Error msg -> Alcotest.fail ("saved walk artifact did not load: " ^ msg))
  in
  Alcotest.(check bool) "saved walk artifact loads unchanged" true
    (loaded = Codec.Rounds walk_worst);
  let v = Replay.run loaded in
  Alcotest.(check bool) ("two-round walk's worst schedule replays: " ^ v.detail) true v.ok

(* --- jobs-independence -------------------------------------------------------- *)

let test_walk_jobs_independent () = Equiv.(check jobs model_walk)

(* --- the state cap ------------------------------------------------------------ *)

let test_state_cap_degrades_gracefully () =
  Obs.Metrics.reset ();
  let base = C.check (C.config ~n:4 ~rounds:2 ~jobs:1 ()) in
  let capped = C.check (C.config ~n:4 ~rounds:2 ~jobs:1 ~max_states:10 ()) in
  Alcotest.(check bool) "lossy dedup left the outcome exact" true
    (base.outcome = capped.outcome);
  Alcotest.(check bool) "pruning was exercised" true (capped.stats.pruned > 0);
  Alcotest.(check bool) "model.pruned metric recorded" true
    (Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "model.pruned" > 0)

(* --- codec round-trips -------------------------------------------------------- *)

let roundtrip artifact =
  match Codec.of_json (Codec.to_json artifact) with
  | Ok a -> a
  | Error msg -> Alcotest.fail ("codec round-trip: " ^ msg)

let test_codec_rounds_roundtrip () =
  let artifact =
    Codec.Rounds
      {
        r_n = 4;
        r_k = 3;
        r_byzantine = [ 3 ];
        r_dist = Harness.Runner.Divergent;
        r_seed = 0x7FFF_FFFF_FFFF_FF13L;
        r_budget = 1;
        r_rounds =
          [
            { Codec.drops = [ (0, 1); (2, 0) ]; byz = [ (3, "silent") ] };
            { Codec.drops = []; byz = [ (3, "value-flip") ] };
          ];
        r_expect = Codec.Stall { deciders = 0; advanced = 2 };
        r_note = "round-trip fixture";
      }
  in
  Alcotest.(check bool) "rounds artifact survives JSON" true (roundtrip artifact = artifact);
  match artifact with
  | Codec.Rounds a ->
      Alcotest.(check (list int)) "delivered counts" [ 4; 6 ] (Codec.delivered_per_round a)
  | _ -> assert false

let test_codec_radio_roundtrip () =
  let module S = Net.Schedule in
  let artifact =
    Codec.Radio
      {
        c_protocol = Harness.Runner.Bracha;
        c_n = 4;
        c_dist = Harness.Runner.Unanimous;
        c_strategy = Some "equivocate";
        c_seed = 424242L;
        c_bug = true;
        c_schedule =
          [
            { S.at = 0.01; action = S.Crash 2 };
            { S.at = 0.05; action = S.Recover 2 };
            { S.at = 0.1; action = S.Set_loss 0.25 };
            { S.at = 0.12; action = S.Set_rx_loss { rx = 1; p = 0.5 } };
            { S.at = 0.15; action = S.Set_link_loss { tx = 0; rx = 3; p = 1.0 } };
            { S.at = 0.2; action = S.Jam { until = 0.3 } };
            { S.at = 0.32; action = S.Jam_rx { rx = 0; until = 0.4 } };
            { S.at = 0.45; action = S.Delay_rx { rx = 2; delay = 0.02; until = 0.6 } };
          ];
        c_expect = [ "agreement: p0 decided 1, p1 decided 0" ];
        c_note = "round-trip fixture";
      }
  in
  Alcotest.(check bool) "radio artifact survives JSON" true (roundtrip artifact = artifact);
  Alcotest.(check bool) "unknown strategy rejected" true
    (match
       Codec.of_json
         (Codec.to_json
            (match artifact with
            | Codec.Radio a -> Codec.Radio { a with c_strategy = Some "no_such" }
            | r -> r))
     with
    | Error _ -> true
    | Ok _ -> false)

(* --- chaos reproducer round-trip ---------------------------------------------- *)

(* The harness's own negative test doubles as the reproducer fixture: a
   planted broken machine fails, the minimal schedule is serialized in
   the model-checker codec, and a saved reproducer must still fail
   identically after a load/replay cycle. *)
let test_chaos_repro_roundtrip () =
  let bug = Harness.Chaos.Flip_reported_decision in
  let report = Harness.Chaos.run_chaos ~n:4 ~bug ~runs:3 ~jobs:1 ~seed:7L () in
  match report.failures with
  | [] -> Alcotest.fail "planted bug produced no failure"
  | f :: _ ->
      let strategy = Option.map (fun s -> Option.get (Core.Strategy.of_string s)) f.strategy in
      let violations =
        Harness.Chaos.check_schedule ~protocol:f.protocol ~n:4 ~bug ~dist:f.dist ?strategy
          ~schedule:f.shrunk ~seed:f.seed ()
      in
      Alcotest.(check bool) "minimal schedule still fails" true (violations <> []);
      let artifact =
        Codec.Radio
          {
            c_protocol = f.protocol;
            c_n = 4;
            c_dist = f.dist;
            c_strategy = f.strategy;
            c_seed = f.seed;
            c_bug = true;
            c_schedule = f.shrunk;
            c_expect = violations;
            c_note = "chaos negative-test reproducer";
          }
      in
      let path = Filename.temp_file "turquois_repro" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Codec.save path artifact;
          match Codec.load path with
          | Error msg -> Alcotest.fail ("load: " ^ msg)
          | Ok loaded ->
              Alcotest.(check bool) "artifact survives the file" true (loaded = artifact);
              let v = Replay.run loaded in
              Alcotest.(check bool) ("reproducer still fails identically: " ^ v.detail) true
                v.ok)

(* --- driven sim vs the sampled adversary --------------------------------------- *)

(* The Driven stepper and single_round agree on the zero-omission case:
   everything delivered, everyone advances. Ties the new execution hook
   back to the code path the sampled tests exercise. *)
let test_driven_matches_single_round () =
  let module D = Harness.Abstract_rounds.Driven in
  let sampled =
    Harness.Abstract_rounds.single_round ~n:4 ~k:3 ~byzantine:[ 3 ] ~omissions:0 ~seed:5L ()
  in
  let sim = D.create ~n:4 ~k:3 ~byzantine:[ 3 ] ~horizon:1 ~seed:5L () in
  D.step sim ~drops:[] ~byz:[];
  Alcotest.(check int) "advanced agrees with single_round" sampled (D.advanced sim);
  Alcotest.(check (list string)) "no violations" [] (D.violations sim)

let suite =
  ( "model",
    [
      Alcotest.test_case "exhaustive sigma n=4" `Quick test_exhaustive_sigma_n4;
      Alcotest.test_case "exhaustive sigma n=5" `Quick test_exhaustive_sigma_n5;
      Alcotest.test_case "worst schedule replays" `Quick test_worst_schedule_replays;
      Alcotest.test_case "walk jobs-independent" `Slow test_walk_jobs_independent;
      Alcotest.test_case "state cap degrades gracefully" `Slow test_state_cap_degrades_gracefully;
      Alcotest.test_case "codec rounds round-trip" `Quick test_codec_rounds_roundtrip;
      Alcotest.test_case "codec radio round-trip" `Quick test_codec_radio_roundtrip;
      Alcotest.test_case "chaos reproducer round-trip" `Slow test_chaos_repro_roundtrip;
      Alcotest.test_case "driven matches single_round" `Quick test_driven_matches_single_round;
    ] )
