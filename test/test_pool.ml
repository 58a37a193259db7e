(* Tests of the deterministic run pool and its determinism contract:
   seed-from-coordinates derivation, slot-indexed collection, and the
   bit-identical-across-jobs guarantee on the real sweep harness. *)

module P = Harness.Pool

(* --- Pool unit behaviour ---------------------------------------------------- *)

let test_map_identity () =
  let r = P.map ~jobs:4 ~tasks:100 (fun i -> i * i) in
  Alcotest.(check int) "length" 100 (Array.length r);
  Array.iteri (fun i v -> Alcotest.(check int) "slot" (i * i) v) r

let test_map_zero_tasks () =
  Alcotest.(check int) "empty" 0 (Array.length (P.map ~jobs:4 ~tasks:0 (fun i -> i)))

let test_map_more_jobs_than_tasks () =
  let r = P.map ~jobs:16 ~tasks:3 (fun i -> i + 1) in
  Alcotest.(check (array int)) "clamped" [| 1; 2; 3 |] r

let test_map_sequential_path () =
  (* jobs = 1 must not spawn and must still fill every slot in order *)
  let log = ref [] in
  let r =
    P.map ~jobs:1 ~tasks:5 (fun i ->
        log := i :: !log;
        i)
  in
  Alcotest.(check (list int)) "in-order execution" [ 0; 1; 2; 3; 4 ] (List.rev !log);
  Alcotest.(check (array int)) "slots" [| 0; 1; 2; 3; 4 |] r

let test_map_bad_args () =
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Pool.map: jobs < 1") (fun () ->
      ignore (P.map ~jobs:0 ~tasks:1 (fun i -> i)));
  Alcotest.check_raises "tasks < 0" (Invalid_argument "Pool.map: tasks < 0") (fun () ->
      ignore (P.map ~jobs:1 ~tasks:(-1) (fun i -> i)))

exception Task_failed of int

let test_map_exception_lowest_index () =
  (* several tasks fail; the caller must deterministically see the
     lowest-indexed failure regardless of which domain hit its task
     first *)
  for _ = 1 to 5 do
    match P.map ~jobs:4 ~tasks:50 (fun i -> if i mod 7 = 3 then raise (Task_failed i)) with
    | exception Task_failed i -> Alcotest.(check int) "lowest failing task" 3 i
    | _ -> Alcotest.fail "expected Task_failed"
  done

let test_map_list () =
  let r = P.map_list ~jobs:4 [ "a"; "bb"; "ccc" ] String.length in
  Alcotest.(check (list int)) "lengths in order" [ 1; 2; 3 ] r

let test_default_jobs_positive () =
  Alcotest.(check bool) "at least one" true (P.default_jobs () >= 1)

let test_map_scoped_isolates_metrics () =
  (* each task's counter lands in its own snapshot; the caller's
     registry is untouched *)
  Obs.Metrics.reset ();
  let r =
    P.map_scoped ~jobs:2 ~tasks:4 (fun i ->
        Obs.Metrics.incr ~by:(i + 1) "pool.test";
        i)
  in
  Array.iteri
    (fun i (v, snap) ->
      Alcotest.(check int) "value" i v;
      Alcotest.(check int) "own count" (i + 1)
        (Obs.Metrics.counter_value snap "pool.test"))
    r;
  Alcotest.(check int) "caller registry clean" 0
    (Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "pool.test")

(* --- seed derivation regression --------------------------------------------- *)

let test_run_seed_distinct_per_adversary () =
  (* the old additive scheme (base + omissions*1009 + run) fed both
     adversaries the same seed at every grid point, so their sweeps
     were correlated sample-for-sample *)
  let s adversary =
    Harness.Sweeps.run_seed ~base_seed:1000L ~adversary ~omissions:2 ~run:5
  in
  Alcotest.(check bool) "adversaries draw independent seeds" true
    (s Harness.Abstract_rounds.Random_omissions
    <> s Harness.Abstract_rounds.Target_victims)

let test_run_seed_no_grid_collisions () =
  (* the old scheme collided as soon as runs_per_point reached 1009:
     (omissions, run) = (0, 1009) and (1, 0) mapped to one seed *)
  let seen = Hashtbl.create 50000 in
  let collisions = ref 0 in
  List.iter
    (fun adversary ->
      for omissions = 0 to 3 do
        for run = 0 to 1100 do
          let seed = Harness.Sweeps.run_seed ~base_seed:1000L ~adversary ~omissions ~run in
          if Hashtbl.mem seen seed then incr collisions;
          Hashtbl.replace seen seed ()
        done
      done)
    [ Harness.Abstract_rounds.Random_omissions; Harness.Abstract_rounds.Target_victims ];
  Alcotest.(check int) "collision-free past runs_per_point = 1009" 0 !collisions

let test_rng_derive_order_sensitive () =
  let d coords = Util.Rng.derive ~base:42L coords in
  Alcotest.(check bool) "order matters" true (d [ 1; 2 ] <> d [ 2; 1 ]);
  Alcotest.(check bool) "stable" true (d [ 1; 2; 3 ] = d [ 1; 2; 3 ]);
  Alcotest.(check bool) "base matters" true
    (Util.Rng.derive ~base:1L [ 7 ] <> Util.Rng.derive ~base:2L [ 7 ])

(* --- determinism across jobs on the real harness (rows of test/equiv.ml) ----- *)

let test_sigma_sweep_identical_across_jobs () = Equiv.(check jobs sigma_sweep)
let test_run_cell_identical_across_jobs () = Equiv.(check jobs run_cell)
let test_chaos_identical_across_jobs () = Equiv.(check jobs chaos_batch)

let test_metrics_merge () =
  let snap counts =
    snd
      (Obs.Scope.with_run (fun () ->
           List.iter (fun (name, v) -> Obs.Metrics.incr ~by:v name) counts))
  in
  let merged =
    Obs.Metrics.merge [ snap [ ("a", 1); ("b", 10) ]; snap [ ("a", 2) ] ]
  in
  Alcotest.(check int) "a summed" 3 (Obs.Metrics.counter_value merged "a");
  Alcotest.(check int) "b kept" 10 (Obs.Metrics.counter_value merged "b")

let suite =
  ( "pool",
    [
      Alcotest.test_case "map identity" `Quick test_map_identity;
      Alcotest.test_case "map zero tasks" `Quick test_map_zero_tasks;
      Alcotest.test_case "jobs clamped to tasks" `Quick test_map_more_jobs_than_tasks;
      Alcotest.test_case "sequential path" `Quick test_map_sequential_path;
      Alcotest.test_case "bad args" `Quick test_map_bad_args;
      Alcotest.test_case "exception lowest index" `Quick test_map_exception_lowest_index;
      Alcotest.test_case "map_list" `Quick test_map_list;
      Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
      Alcotest.test_case "scoped metrics isolation" `Quick test_map_scoped_isolates_metrics;
      Alcotest.test_case "run_seed per adversary" `Quick test_run_seed_distinct_per_adversary;
      Alcotest.test_case "run_seed no collisions" `Quick test_run_seed_no_grid_collisions;
      Alcotest.test_case "derive order sensitive" `Quick test_rng_derive_order_sensitive;
      Alcotest.test_case "sweep identical across jobs" `Quick
        test_sigma_sweep_identical_across_jobs;
      Alcotest.test_case "cell identical across jobs" `Quick
        test_run_cell_identical_across_jobs;
      Alcotest.test_case "chaos identical across jobs" `Slow test_chaos_identical_across_jobs;
      Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    ] )
