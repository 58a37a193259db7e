(* Byzantine attack: f = ⌊(n−1)/3⌋ compromised nodes run the adversarial
   strategy of the paper's §7.2 — flipped proposal values in CONVERGE and
   LOCK phases, ⊥ in DECIDE phases — while the correct majority must
   still agree on the value they all proposed (the validity property).

       dune exec examples/byzantine_attack.exe

   The example also prints the run's validation counters, showing the
   authenticity/semantic machinery filtering the attacker traffic. *)

let () =
  let n = 10 in
  let f = Net.Fault.max_f n in
  let byzantine = List.init f (fun i -> n - 1 - i) in
  Printf.printf "n=%d, Byzantine processes: %s\n\n" n
    (String.concat ", " (List.map string_of_int byzantine));

  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:4242L in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  Net.Radio.set_loss_prob radio 0.01;

  let cfg = Core.Proto.default_config ~n in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:cfg.max_phases in
  let instances =
    Array.init n (fun i ->
        let node = Net.Node.create engine radio ~id:i ~rng:(Util.Rng.split rng) in
        let behavior =
          if List.mem i byzantine then Core.Turquois.Attacker else Core.Turquois.Correct
        in
        (* every correct process proposes 1: validity requires the
           decision to be 1 no matter what the attackers do *)
        Core.Turquois.create node cfg ~keyring:keyrings.(i) ~behavior ~proposal:1 ())
  in

  let remaining = ref (n - f) in
  Array.iteri
    (fun i instance ->
      if not (List.mem i byzantine) then
        Core.Turquois.on_decide instance (fun ~value ~phase ->
            Printf.printf "t = %6.2f ms  process %d decided %d (phase %d)\n"
              (Net.Engine.now engine *. 1000.0) i value phase;
            decr remaining))
    instances;

  Array.iter Core.Turquois.start instances;
  Net.Engine.run_while engine (fun () -> !remaining > 0 && Net.Engine.now engine < 30.0);

  (* the metrics registry counts over every process since the program
     started, and this program runs exactly one execution *)
  let metrics = Obs.Metrics.snapshot () in
  let count ?labels name = Obs.Metrics.counter_value metrics ?labels name in
  let rejected rule = count ~labels:[ ("rule", rule) ] "validation.rejected" in
  let turquois = [ ("proto", "turquois") ] in
  Printf.printf
    "\nvalidation over all processes: %d messages passed, %d failed authenticity;\n\
     attacker traffic quarantined by semantic validation: %d phase, %d value and %d \
     status rejections\n\
     %d of %d broadcasts carried a justification bundle\n"
    (count "validation.accepted") (rejected "auth") (rejected "phase") (rejected "value")
    (rejected "status")
    (count ~labels:turquois "proto.justified")
    (count ~labels:turquois "proto.broadcasts");

  let decisions =
    List.filter_map
      (fun i ->
        if List.mem i byzantine then None
        else Core.Turquois.decision instances.(i))
      (List.init n (fun i -> i))
  in
  if List.length decisions = n - f && List.for_all (( = ) 1) decisions then
    Printf.printf
      "\nvalidity holds: all %d correct processes decided their common proposal (1).\n"
      (n - f)
  else failwith "validity violated — this must never happen"
