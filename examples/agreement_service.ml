(* Agreement service: a sequence of decisions over one key exchange.

       dune exec examples/agreement_service.exe

   Seven sensor nodes receive a stream of alarm reports; for each alarm
   every node votes whether its own reading confirms it (a noisy local
   observation), and the group runs one Turquois instance per alarm to
   agree on which alarms are real. All instances share a single
   pre-distributed one-time key array — the Section 6.1 optimization —
   and run concurrently on the same radio. *)

let () =
  let n = 7 in
  let alarms = 6 in
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:31337L in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  Net.Radio.set_loss_prob radio 0.02;

  (* per-instance phase budget 45; one key exchange covers all alarms *)
  let cfg = { (Core.Proto.default_config ~n) with max_phases = 45 } in
  let keyrings =
    Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:(alarms * cfg.max_phases)
  in
  let services =
    Array.init n (fun i ->
        let node = Net.Node.create engine radio ~id:i ~rng:(Util.Rng.split rng) in
        Core.Service.create node cfg ~keyring:keyrings.(i) ~instances:alarms
          ~tick_policy:Core.Turquois.default_adaptive ())
  in

  (* ground truth: alarms 0, 2, 3 are real; each node observes the truth
     with 80% accuracy *)
  let truth = [| 1; 0; 1; 1; 0; 0 |] in
  let obs_rng = Util.Rng.split rng in
  let observations =
    Array.init n (fun _ ->
        Array.init alarms (fun a ->
            if Util.Rng.bernoulli obs_rng 0.8 then truth.(a) else 1 - truth.(a)))
  in

  let decided = ref 0 in
  Array.iteri
    (fun i service ->
      Core.Service.on_decide service (fun ~instance ~value ->
          incr decided;
          if i = 0 then
            Printf.printf "t = %6.2f ms  alarm %d agreed %s (truth was %s)\n"
              (Net.Engine.now engine *. 1000.0)
              instance
              (if value = 1 then "REAL " else "false")
              (if truth.(instance) = 1 then "real" else "false")))
    services;

  (* alarms arrive 150 ms apart (the 2 Mb/s-era medium cannot carry many
     concurrent instances at 10 ms ticks); every node proposes its own
     observation *)
  for a = 0 to alarms - 1 do
    ignore
      (Net.Engine.schedule engine ~delay:(float_of_int a *. 0.150) (fun () ->
           Array.iteri
             (fun i service ->
               Core.Service.propose service ~instance:a observations.(i).(a))
             services))
  done;

  Net.Engine.run_while engine (fun () ->
      !decided < n * alarms && Net.Engine.now engine < 30.0);

  (* verify agreement across nodes per alarm *)
  let all_agree = ref true in
  for a = 0 to alarms - 1 do
    let values =
      Array.to_list services
      |> List.filter_map (fun s -> Core.Service.decision s ~instance:a)
    in
    match values with
    | v :: rest when List.for_all (( = ) v) rest && List.length values = n -> ()
    | _ -> all_agree := false
  done;
  Printf.printf "\n%d/%d instance decisions recorded, per-alarm agreement: %b\n" !decided
    (n * alarms) !all_agree;
  if not !all_agree then failwith "agreement violated"
