(* Tests for keyring slicing, the multi-instance agreement service, and
   the adaptive tick policy. *)

module P = Core.Proto

let test_slice_signs_with_offset () =
  let rng = Util.Rng.create ~seed:400L in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n:4 ~phases:20 in
  let base = keyrings.(1) in
  let sliced = Core.Keyring.slice base ~offset:10 ~phases:5 in
  Alcotest.(check int) "slice phases" 5 (Core.Keyring.phases sliced);
  let proof = Core.Keyring.sign sliced ~phase:2 ~value:P.V1 ~origin:P.Deterministic in
  (* the slice's phase 2 is the base's phase 12 *)
  let receiver_slice = Core.Keyring.slice keyrings.(0) ~offset:10 ~phases:5 in
  Alcotest.(check bool) "slice accepts" true
    (Core.Keyring.check receiver_slice ~signer:1 ~phase:2 ~value:P.V1
       ~origin:P.Deterministic ~proof);
  Alcotest.(check bool) "base sees it at phase 12" true
    (Core.Keyring.check keyrings.(0) ~signer:1 ~phase:12 ~value:P.V1
       ~origin:P.Deterministic ~proof);
  Alcotest.(check bool) "base rejects at phase 2" false
    (Core.Keyring.check keyrings.(0) ~signer:1 ~phase:2 ~value:P.V1
       ~origin:P.Deterministic ~proof)

let test_slice_window_bounds () =
  let rng = Util.Rng.create ~seed:401L in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n:2 ~phases:10 in
  Alcotest.check_raises "beyond horizon"
    (Invalid_argument "Keyring.slice: window exceeds the key horizon") (fun () ->
      ignore (Core.Keyring.slice keyrings.(0) ~offset:6 ~phases:5));
  let s = Core.Keyring.slice keyrings.(0) ~offset:5 ~phases:5 in
  (* slices of slices compose *)
  let s2 = Core.Keyring.slice s ~offset:2 ~phases:3 in
  Alcotest.(check int) "nested slice phases" 3 (Core.Keyring.phases s2);
  (* checks outside the slice window are rejected *)
  let proof = Core.Keyring.sign keyrings.(1) ~phase:1 ~value:P.V0 ~origin:P.Deterministic in
  Alcotest.(check bool) "outside window" false
    (Core.Keyring.check s ~signer:1 ~phase:6 ~value:P.V0 ~origin:P.Deterministic ~proof)

let make_services ?(n = 4) ?(instances = 3) ?(per_instance = 30) ?(seed = 402L)
    ?(tick_policy = Core.Turquois.Fixed_tick) () =
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  Net.Radio.set_loss_prob radio 0.01;
  let cfg = { (P.default_config ~n) with max_phases = per_instance } in
  let keyrings =
    Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:(instances * per_instance)
  in
  let services =
    Array.init n (fun i ->
        let node = Net.Node.create engine radio ~id:i ~rng:(Util.Rng.split rng) in
        Core.Service.create node cfg ~keyring:keyrings.(i) ~instances ~tick_policy ())
  in
  (engine, services)

let test_service_sequential_instances () =
  let engine, services = make_services () in
  (* instance 0: all propose 1; instance 1: all propose 0; instance 2: mixed *)
  let proposals = [| [| 1; 1; 1; 1 |]; [| 0; 0; 0; 0 |]; [| 1; 0; 1; 0 |] |] in
  for a = 0 to 2 do
    ignore
      (Net.Engine.schedule engine ~delay:(float_of_int a *. 0.2) (fun () ->
           Array.iteri
             (fun i s -> Core.Service.propose s ~instance:a proposals.(a).(i))
             services))
  done;
  Net.Engine.run_while engine (fun () ->
      Net.Engine.now engine < 20.0
      && Array.exists (fun s -> Core.Service.decided_count s < 3) services);
  Array.iter
    (fun s -> Alcotest.(check int) "all instances decided" 3 (Core.Service.decided_count s))
    services;
  Alcotest.(check (option int)) "instance 0 -> 1" (Some 1)
    (Core.Service.decision services.(0) ~instance:0);
  Alcotest.(check (option int)) "instance 1 -> 0" (Some 0)
    (Core.Service.decision services.(0) ~instance:1);
  (* mixed instance: agreement across all nodes *)
  let v2 = Core.Service.decision services.(0) ~instance:2 in
  Array.iter
    (fun s -> Alcotest.(check (option int)) "instance 2 agreement" v2
        (Core.Service.decision s ~instance:2))
    services

let test_service_rejects_double_propose () =
  let engine, services = make_services () in
  Array.iter (fun s -> Core.Service.propose s ~instance:0 1) services;
  Alcotest.check_raises "double" (Invalid_argument "Service: instance 0 already proposed")
    (fun () -> Core.Service.propose services.(0) ~instance:0 1);
  Alcotest.check_raises "range" (Invalid_argument "Service: instance 9 out of range")
    (fun () -> Core.Service.propose services.(0) ~instance:9 1);
  Net.Engine.run engine ~until:1.0

let test_service_rejects_short_keyring () =
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:403L in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n:4 in
  let cfg = { (P.default_config ~n:4) with max_phases = 30 } in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n:4 ~phases:50 in
  let node = Net.Node.create engine radio ~id:0 ~rng:(Util.Rng.split rng) in
  Alcotest.check_raises "short keyring"
    (Invalid_argument "Service.create: keyring does not cover all instances") (fun () ->
      ignore (Core.Service.create node cfg ~keyring:keyrings.(0) ~instances:2 ()))

let test_service_retire_preserves_decision () =
  let engine, services = make_services () in
  Array.iter (fun s -> Core.Service.propose s ~instance:0 1) services;
  Net.Engine.run_while engine (fun () ->
      Net.Engine.now engine < 20.0
      && Array.exists (fun s -> Core.Service.decided_count s < 1) services);
  let decision = Core.Service.decision services.(0) ~instance:0 in
  Alcotest.(check (option int)) "decided before retire" (Some 1) decision;
  Core.Service.retire services.(0) ~instance:0;
  Alcotest.(check (option int)) "decision survives retire" (Some 1)
    (Core.Service.decision services.(0) ~instance:0);
  (* idempotent, and legal on idle instances too *)
  Core.Service.retire services.(0) ~instance:0;
  Core.Service.retire services.(0) ~instance:1;
  Alcotest.(check (option int)) "idle instance stays undecided" None
    (Core.Service.decision services.(0) ~instance:1);
  (* a retired instance can no longer be proposed *)
  Alcotest.check_raises "retired rejects propose"
    (Invalid_argument "Service: instance 0 already proposed") (fun () ->
      Core.Service.propose services.(0) ~instance:0 1)

let test_service_with_adaptive_ticks () =
  let engine, services =
    make_services ~seed:405L ~tick_policy:Core.Turquois.default_adaptive ()
  in
  Array.iteri (fun i s -> Core.Service.propose s ~instance:0 (i mod 2)) services;
  Net.Engine.run_while engine (fun () ->
      Net.Engine.now engine < 20.0
      && Array.exists (fun s -> Core.Service.decided_count s < 1) services);
  Array.iter
    (fun s ->
      Alcotest.(check bool) "decided" true (Core.Service.decision s ~instance:0 <> None))
    services

(* --- adaptive tick on plain Turquois ------------------------------------------ *)

let run_turquois_with ~tick_policy ~loss ~seed =
  let n = 4 in
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  Net.Radio.set_loss_prob radio loss;
  (* fail-stop-like stress: only a bare quorum of processes *)
  Net.Radio.set_down radio 3 true;
  let cfg = P.default_config ~n in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:cfg.max_phases in
  let decided = ref 0 in
  let instances =
    Array.init n (fun i ->
        let node = Net.Node.create engine radio ~id:i ~rng:(Util.Rng.split rng) in
        Core.Turquois.create node cfg ~keyring:keyrings.(i) ~tick_policy ~proposal:1 ())
  in
  Array.iteri
    (fun i p ->
      if i < 3 then begin
        Core.Turquois.on_decide p (fun ~value:_ ~phase:_ -> incr decided);
        Core.Turquois.start p
      end)
    instances;
  Net.Engine.run_while engine (fun () -> Net.Engine.now engine < 60.0 && !decided < 3);
  (!decided, Net.Engine.now engine)

let test_adaptive_tick_terminates () =
  (* with a bare quorum and heavy loss both pacing policies must reach a
     decision; which is faster is an empirical question the ablation
     benchmark answers, not an invariant *)
  for seed = 0 to 4 do
    let d_fixed, _ =
      run_turquois_with ~tick_policy:Core.Turquois.Fixed_tick ~loss:0.15
        ~seed:(Int64.of_int (500 + seed))
    in
    let d_adaptive, _ =
      run_turquois_with ~tick_policy:Core.Turquois.default_adaptive ~loss:0.15
        ~seed:(Int64.of_int (500 + seed))
    in
    Alcotest.(check int) "fixed decides" 3 d_fixed;
    Alcotest.(check int) "adaptive decides" 3 d_adaptive
  done

let test_adaptive_rejects_bad_params () =
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:406L in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n:4 in
  let cfg = P.default_config ~n:4 in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n:4 ~phases:cfg.max_phases in
  let node = Net.Node.create engine radio ~id:0 ~rng:(Util.Rng.split rng) in
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Turquois.create: bad adaptive tick parameters") (fun () ->
      ignore
        (Core.Turquois.create node cfg ~keyring:keyrings.(0)
           ~tick_policy:(Core.Turquois.Adaptive_tick { floor = 1e-3; factor = 1.5 })
           ~proposal:1 ()))

let suite =
  ( "service",
    [
      Alcotest.test_case "slice offset" `Quick test_slice_signs_with_offset;
      Alcotest.test_case "slice bounds" `Quick test_slice_window_bounds;
      Alcotest.test_case "sequential instances" `Quick test_service_sequential_instances;
      Alcotest.test_case "double propose" `Quick test_service_rejects_double_propose;
      Alcotest.test_case "short keyring" `Quick test_service_rejects_short_keyring;
      Alcotest.test_case "retire preserves decision" `Quick
        test_service_retire_preserves_decision;
      Alcotest.test_case "adaptive service" `Quick test_service_with_adaptive_ticks;
      Alcotest.test_case "adaptive terminates" `Slow test_adaptive_tick_terminates;
      Alcotest.test_case "adaptive params" `Quick test_adaptive_rejects_bad_params;
    ] )
