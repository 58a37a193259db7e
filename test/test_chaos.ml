(* Tests of the fault-injection subsystem: schedules, the Byzantine
   strategy library, the sigma-edge adversary's tightness at the bound,
   and the chaos harness (including its own negative test). *)

module S = Net.Schedule
module AR = Harness.Abstract_rounds

(* --- schedules ------------------------------------------------------------- *)

let test_schedule_random_deterministic () =
  let make seed = S.random ~rng:(Util.Rng.create ~seed) ~n:5 ~duration:0.5 () in
  Alcotest.(check string) "same seed, same schedule" (S.to_string (make 9L))
    (S.to_string (make 9L));
  Alcotest.(check bool) "different seed, different schedule" true
    (S.to_string (make 9L) <> S.to_string (make 10L))

let test_schedule_quiet_after () =
  let quiet =
    [
      { S.at = 0.1; action = S.Set_loss 0.4 };
      { S.at = 0.2; action = S.Jam_rx { rx = 1; until = 0.35 } };
      { S.at = 0.3; action = S.Set_loss 0.0 };
    ]
  in
  (match S.quiet_after quiet with
  | Some h -> Alcotest.(check (float 1e-9)) "horizon covers the jam window" 0.35 h
  | None -> Alcotest.fail "expected a quiet horizon");
  let residual = [ { S.at = 0.1; action = S.Set_rx_loss { rx = 2; p = 0.5 } } ] in
  Alcotest.(check bool) "residual overlay is never quiet" true
    (S.quiet_after residual = None);
  let crash_only = [ { S.at = 0.1; action = S.Crash 0 } ] in
  Alcotest.(check bool) "unrecovered crash is never quiet" true
    (S.quiet_after crash_only = None);
  let crash_recover =
    [ { S.at = 0.1; action = S.Crash 0 }; { S.at = 0.2; action = S.Recover 0 } ]
  in
  Alcotest.(check bool) "recovered crash is quiet" true
    (S.quiet_after crash_recover <> None)

let test_schedule_random_is_quiet () =
  (* the generator's contract: every random schedule is provably quiet *)
  for seed = 1 to 20 do
    let sched =
      S.random ~rng:(Util.Rng.create ~seed:(Int64.of_int seed)) ~n:6 ~duration:0.4 ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d quiet" seed)
      true
      (S.quiet_after sched <> None)
  done

let test_schedule_shrink () =
  let sched =
    [
      { S.at = 0.1; action = S.Set_loss 0.2 };
      { S.at = 0.2; action = S.Crash 1 };
      { S.at = 0.3; action = S.Recover 1 };
    ]
  in
  let candidates = S.shrink_candidates sched in
  Alcotest.(check bool) "has candidates" true (candidates <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "strictly smaller" true (List.length c < List.length sched))
    candidates;
  Alcotest.(check (list int)) "singleton shrinks to empty only" [ 0 ]
    (List.map List.length (S.shrink_candidates [ List.hd sched ]))

(* --- strategy library ------------------------------------------------------- *)

let test_strategy_lookup () =
  List.iter
    (fun s ->
      match Core.Strategy.of_string (Core.Strategy.name s) with
      | Some found ->
          Alcotest.(check string) "roundtrip" (Core.Strategy.name s)
            (Core.Strategy.name found)
      | None -> Alcotest.fail ("of_string failed for " ^ Core.Strategy.name s))
    Core.Strategy.all;
  Alcotest.(check bool) "unknown" true (Core.Strategy.of_string "no-such" = None)

(* A machine driven by a strategy produces the shape the strategy
   declares: silent => Quiet, equivocate => per-receiver frames. *)
let strategy_machine strategy =
  let cfg = Core.Proto.default_config ~n:4 in
  let rng = Util.Rng.create ~seed:77L in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n:4 ~phases:cfg.max_phases in
  Core.Machine.create cfg ~keyring:keyrings.(3) ~rng
    ~behavior:(Core.Machine.Byzantine strategy) ~proposal:1 ()

let test_strategy_shapes () =
  (match Core.Machine.emit (strategy_machine Core.Strategy.silent) ~justify:false with
  | Core.Machine.Quiet -> ()
  | _ -> Alcotest.fail "silent should be Quiet");
  (match Core.Machine.emit (strategy_machine Core.Strategy.equivocate) ~justify:false with
  | Core.Machine.Per_receiver frames ->
      Alcotest.(check int) "one frame per other process" 3 (List.length frames);
      List.iter
        (fun (rx, (env : Core.Message.envelope)) ->
          let expected = if rx mod 2 = 0 then Core.Proto.V0 else Core.Proto.V1 in
          Alcotest.(check bool)
            (Printf.sprintf "value for rx %d" rx)
            true
            (Core.Proto.value_equal expected env.msg.value))
        frames
  | _ -> Alcotest.fail "equivocate should be Per_receiver");
  (match Core.Machine.emit (strategy_machine Core.Strategy.stale_replay) ~justify:false with
  | Core.Machine.Broadcast env ->
      Alcotest.(check int) "replays phase 1" 1 env.msg.phase
  | _ -> Alcotest.fail "stale_replay should be Broadcast")

let test_forged_signature_rejected () =
  (* every forged frame must die at authenticity validation *)
  match Core.Machine.emit (strategy_machine Core.Strategy.forge_sig) ~justify:false with
  | Core.Machine.Broadcast env ->
      let cfg = Core.Proto.default_config ~n:4 in
      let rng = Util.Rng.create ~seed:77L in
      let keyrings =
        Core.Keyring.setup (Util.Rng.split rng) ~n:4 ~phases:cfg.max_phases
      in
      Alcotest.(check bool) "rejected" false
        (Core.Keyring.check_message keyrings.(0) env.msg)
  | _ -> Alcotest.fail "forge_sig should broadcast"

(* --- sigma tightness (single synchronous round) ----------------------------- *)

(* At (n,k,t) points where the per-victim blocking cost equals k-2, the
   sigma-edge adversary with budget exactly sigma leaves fewer than k
   processes able to advance, while sigma-1 cannot block the last
   victim. Deterministic: the adversary's pattern is seed-independent. *)
let check_sigma_edge ~n ~k ~t ~byzantine =
  let sigma = Obs.Analyze.sigma ~n ~k ~t in
  let probe omissions seed =
    AR.single_round ~n ~k ~byzantine ~adversary:AR.Sigma_edge ~omissions
      ~seed:(Int64.of_int seed) ()
  in
  for seed = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "n=%d: sigma omissions stall (seed %d)" n seed)
      true
      (probe sigma seed < k);
    Alcotest.(check bool)
      (Printf.sprintf "n=%d: sigma-1 omissions cannot stall (seed %d)" n seed)
      true
      (probe (sigma - 1) seed >= k)
  done

let test_sigma_edge_n4 () = check_sigma_edge ~n:4 ~k:3 ~t:1 ~byzantine:[ 3 ]
let test_sigma_edge_n7 () = check_sigma_edge ~n:7 ~k:5 ~t:0 ~byzantine:[]

(* --- chaos harness ---------------------------------------------------------- *)

let test_chaos_clean_sweep () =
  let report = Harness.Chaos.run_chaos ~n:4 ~runs:12 ~seed:4242L () in
  Alcotest.(check int) "all runs executed" 12 report.runs;
  Alcotest.(check (list string)) "no violations" []
    (List.concat_map (fun (f : Harness.Chaos.failure) -> f.violations) report.failures);
  Alcotest.(check bool) "some schedules allowed the liveness check" true
    (report.liveness_checked > 0)

let test_chaos_detects_broken_machine () =
  (* the harness's own negative test: a machine that reports a flipped
     decision must be flagged on a fault-free unanimous run *)
  let report =
    Harness.Chaos.run_chaos ~n:4 ~bug:Harness.Chaos.Flip_reported_decision
      ~protocols:[ Harness.Runner.Turquois ] ~runs:4 ~seed:4242L ()
  in
  Alcotest.(check bool) "violations detected" true (report.failures <> []);
  List.iter
    (fun (f : Harness.Chaos.failure) ->
      Alcotest.(check bool) "agreement or validity named" true
        (List.exists
           (fun v ->
             String.length v >= 9
             && (String.sub v 0 9 = "agreement" || String.sub v 0 8 = "validity"))
           f.violations))
    report.failures

let test_chaos_deterministic () =
  let describe (r : Harness.Chaos.report) =
    Printf.sprintf "%d/%d/%d" r.runs r.liveness_checked (List.length r.failures)
  in
  let a = Harness.Chaos.run_chaos ~n:4 ~runs:6 ~seed:99L () in
  let b = Harness.Chaos.run_chaos ~n:4 ~runs:6 ~seed:99L () in
  Alcotest.(check string) "same seed, same report" (describe a) (describe b)

let test_chaos_shrinks_to_empty () =
  (* a schedule-independent bug must shrink to the empty schedule *)
  let report =
    Harness.Chaos.run_chaos ~n:4 ~bug:Harness.Chaos.Flip_reported_decision
      ~protocols:[ Harness.Runner.Turquois ] ~runs:2 ~seed:4242L ()
  in
  match report.failures with
  | [] -> Alcotest.fail "expected at least one failure"
  | f :: _ -> Alcotest.(check int) "minimal reproducer is empty" 0 (List.length f.shrunk)

(* --- runner integration ------------------------------------------------------ *)

let test_runner_strategy_safe () =
  (* every built-in strategy against the radio shell: safety must hold
     and the correct majority must still decide *)
  List.iter
    (fun strategy ->
      let r =
        Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:4
          ~dist:Harness.Runner.Divergent ~load:Net.Fault.Byzantine ~loss:0.0 ~strategy
          ~timeout:30.0 ~seed:31L ()
      in
      let name = Core.Strategy.name strategy in
      Alcotest.(check bool) (name ^ ": agreement") true r.agreement;
      Alcotest.(check bool) (name ^ ": all correct decide") false r.timed_out)
    Core.Strategy.all

let test_runner_schedule_applies () =
  (* a mid-run crash-and-recover schedule: faults are injected (visible
     in metrics) and the run still completes safely *)
  (* the run ends when every process has decided, so all entries must
     fire before that: the crash window itself holds the run open *)
  let schedule =
    [
      { S.at = 0.001; action = S.Crash 0 };
      { S.at = 0.002; action = S.Set_loss 0.2 };
      { S.at = 0.004; action = S.Set_loss 0.0 };
      { S.at = 0.03; action = S.Recover 0 };
    ]
  in
  let r =
    Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:4
      ~dist:Harness.Runner.Unanimous ~load:Net.Fault.Failure_free ~loss:0.0 ~schedule
      ~timeout:60.0 ~seed:17L ()
  in
  Alcotest.(check bool) "agreement" true r.agreement;
  Alcotest.(check bool) "completes" false r.timed_out;
  Alcotest.(check int) "all four injections counted" 4
    (Obs.Metrics.sum_counters r.metrics "fault.injected")

(* --- analyzer attributes stalls to injected faults ------------------------- *)

let test_analyze_attributes_faults () =
  let module T = Obs.Trace2 in
  let ev ~time ~node ~layer ~label fields = { T.time; node; layer; label; fields } in
  let phase ~time ~node p =
    ev ~time ~node ~layer:"turquois" ~label:"phase" [ ("phase", T.I p) ]
  in
  (* four quick phase windows then one long one: the last window stalls
     (>3x median) and overlaps both injected faults *)
  let events =
    [
      ev ~time:0.005 ~node:(-1) ~layer:"fault" ~label:"set_loss" [ ("p", T.F 0.5) ];
      phase ~time:0.00 ~node:0 1;
      phase ~time:0.01 ~node:0 2;
      phase ~time:0.02 ~node:0 3;
      phase ~time:0.03 ~node:0 4;
      ev ~time:0.035 ~node:(-1) ~layer:"fault" ~label:"crash" [ ("node", T.I 0) ];
      phase ~time:0.20 ~node:0 5;
    ]
  in
  let report = Obs.Analyze.analyze ~n:4 ~k:3 ~t:0 ~dropped:0 events in
  let contains sub =
    let ls = String.length sub and lr = String.length report in
    let rec go i = i + ls <= lr && (String.sub report i ls = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "stall detected" true (contains "STALL");
  Alcotest.(check bool)
    "loss overlay in force at window start" true
    (contains "    injected faults in force at window start: 0.005s loss 0.500\n");
  Alcotest.(check bool)
    "crash injected during the window" true
    (contains "    injected during the window: 0.035s crash p0\n")

(* The same attribution on the events Net.Schedule really writes: in
   this traced run phase 3 stalls from 6.2 ms to 257.5 ms, with the
   delay burst on p1, p3's crash and the jamming of p2 in force at the
   window's start and p3's recovery injected inside it. Phase 4's
   window exceeds sigma but closes in 4.7 ms, so it is not a stall. *)
let test_analyze_schedule_trace () =
  let schedule =
    [
      { S.at = 0.001; action = S.Delay_rx { rx = 1; delay = 0.004; until = 0.5 } };
      { S.at = 0.002; action = S.Crash 3 };
      { S.at = 0.003; action = S.Jam_rx { rx = 2; until = 0.3 } };
      { S.at = 0.2; action = S.Recover 3 };
    ]
  in
  Obs.Trace2.start ();
  ignore
    (Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:4
       ~dist:Harness.Runner.Divergent ~load:Net.Fault.Failure_free ~loss:0.0 ~schedule
       ~seed:11L ());
  let events = Obs.Trace2.events () in
  Obs.Trace2.stop ();
  Obs.Trace2.clear ();
  let traced label =
    List.length
      (List.filter (fun (e : Obs.Trace2.event) -> e.layer = "fault" && e.label = label) events)
  in
  Alcotest.(check int) "one crash event" 1 (traced "crash");
  Alcotest.(check int) "one recover event" 1 (traced "recover");
  let lines =
    List.map String.trim (String.split_on_char '\n' (Obs.Analyze.analyze ~dropped:0 events))
  in
  (* the ';'-separated entries of the first report line after [prefix] *)
  let entries prefix =
    match List.find_opt (String.starts_with ~prefix) lines with
    | None -> Alcotest.fail ("no report line " ^ prefix)
    | Some l ->
        let from = String.length prefix in
        List.map String.trim
          (String.split_on_char ';' (String.sub l from (String.length l - from)))
  in
  Alcotest.(check bool) "phase 3 stalls" true
    (List.exists (String.starts_with ~prefix:"phase 3 stalled for 251.3 ms") lines);
  Alcotest.(check (list string)) "faults in force at window start, in time order"
    [ "0.001s delay p1 +4.0ms until 0.500s"; "0.002s crash p3"; "0.003s jam p2 until 0.300s" ]
    (entries "injected faults in force at window start:");
  Alcotest.(check (list string)) "recovery listed once" [ "0.200s recover p3" ]
    (entries "injected during the window:");
  Alcotest.(check bool) "phase 4 exceeds sigma without stalling" true
    (List.mem
       "phase 4 exceeded sigma in 4.7 ms (median window 3.1 ms): 4 omissions (4.0/round) \
        exceed sigma = 3, but the window closed without stalling"
       lines)

let suite =
  ( "chaos",
    [
      Alcotest.test_case "schedule deterministic" `Quick test_schedule_random_deterministic;
      Alcotest.test_case "schedule quiet-after" `Quick test_schedule_quiet_after;
      Alcotest.test_case "random schedules quiet" `Quick test_schedule_random_is_quiet;
      Alcotest.test_case "schedule shrink" `Quick test_schedule_shrink;
      Alcotest.test_case "strategy lookup" `Quick test_strategy_lookup;
      Alcotest.test_case "strategy shapes" `Quick test_strategy_shapes;
      Alcotest.test_case "forged signature rejected" `Quick test_forged_signature_rejected;
      Alcotest.test_case "sigma edge tight n=4" `Quick test_sigma_edge_n4;
      Alcotest.test_case "sigma edge tight n=7" `Quick test_sigma_edge_n7;
      Alcotest.test_case "chaos clean sweep" `Slow test_chaos_clean_sweep;
      Alcotest.test_case "chaos detects broken machine" `Quick test_chaos_detects_broken_machine;
      Alcotest.test_case "chaos deterministic" `Slow test_chaos_deterministic;
      Alcotest.test_case "chaos shrinks to empty" `Quick test_chaos_shrinks_to_empty;
      Alcotest.test_case "runner strategies safe" `Slow test_runner_strategy_safe;
      Alcotest.test_case "runner schedule applies" `Quick test_runner_schedule_applies;
      Alcotest.test_case "analyze attributes faults" `Quick test_analyze_attributes_faults;
      Alcotest.test_case "analyze schedule trace" `Quick test_analyze_schedule_trace;
    ] )
