(* Tests for the open-loop workload generator: sanity of a single run,
   and the determinism contracts (same seed, -j N). *)

module W = Harness.Workload

let small_base =
  {
    (W.default ~n:4) with
    W.capacity = 8;
    window = 2;
    max_batch = 4;
    commands = 16;
    load = 40.0;
    seed = 7300L;
  }

let test_single_run_sanity () =
  let r = W.run small_base in
  Alcotest.(check int) "commands offered" 16 r.W.commands;
  Alcotest.(check bool) "some commands delivered" true (r.W.delivered_commands > 0);
  Alcotest.(check int) "every slot delivered" 8 (r.W.committed_slots + r.W.skipped_slots);
  Alcotest.(check bool) "finished before timeout" true (r.W.duration < small_base.W.timeout);
  Alcotest.(check bool) "positive latency" true (r.W.latency_p50 > 0.0);
  Alcotest.(check bool) "p99 at least p50" true (r.W.latency_p99 >= r.W.latency_p50)

let test_same_seed_same_result () =
  let a = W.run small_base in
  let b = W.run small_base in
  Alcotest.(check bool) "bit-identical rerun" true (a = b)

let test_bursty_matches_rate () =
  let r = W.run { small_base with W.arrival = W.Bursty 4 } in
  Alcotest.(check bool) "bursty delivers too" true (r.W.delivered_commands > 0)

let test_sweep_parallel_determinism () = Equiv.(check jobs workload_sweep)

let test_knee_detection () =
  let point load_point mean_throughput =
    {
      W.load_point;
      mean_throughput;
      mean_decisions_per_sec = 0.0;
      mean_p50 = 0.0;
      mean_p99 = 0.0;
      mean_delivered = 0.0;
      reps = 1;
    }
  in
  (* served at rate up to 40, saturated at 80 *)
  let points = [ point 20.0 19.8; point 40.0 38.0; point 80.0 41.0 ] in
  Alcotest.(check (option (float 1e-9))) "knee at 40" (Some 40.0) (W.knee points);
  Alcotest.(check (option (float 1e-9))) "all saturated" None
    (W.knee [ point 20.0 2.0 ]);
  Alcotest.(check bool) "render mentions knee" true
    (String.length (W.render_points points) > 0)

let test_rejects_bad_config () =
  Alcotest.check_raises "bad load" (Invalid_argument "Workload: load must be positive")
    (fun () -> ignore (W.run { small_base with W.load = 0.0 }));
  Alcotest.check_raises "bad n" (Invalid_argument "Workload: need n >= 4") (fun () ->
      ignore (W.run { small_base with W.n = 3 }))

let suite =
  ( "workload",
    [
      Alcotest.test_case "single run sanity" `Quick test_single_run_sanity;
      Alcotest.test_case "same seed same result" `Quick test_same_seed_same_result;
      Alcotest.test_case "bursty arrivals" `Quick test_bursty_matches_rate;
      Alcotest.test_case "sweep -j determinism" `Slow test_sweep_parallel_determinism;
      Alcotest.test_case "knee detection" `Quick test_knee_detection;
      Alcotest.test_case "bad config" `Quick test_rejects_bad_config;
    ] )
