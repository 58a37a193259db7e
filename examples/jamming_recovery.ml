(* Jamming recovery: the motivating scenario of the paper's introduction —
   under a jamming attack every broadcast can be lost, yet Turquois must
   never violate safety, and must resume progress the moment the channel
   clears (the communication failure model allows whole rounds with all
   messages lost).

       dune exec examples/jamming_recovery.exe

   Seven emergency-response nodes run consensus; a jammer destroys every
   frame between t = 5 ms and t = 250 ms. The example shows that no
   process decides while the channel is jammed with conflicting
   proposals, that ticks keep retransmitting, and that all processes
   decide shortly after the jamming stops. *)

let () =
  let n = 7 in
  let jam_start = 0.005 and jam_end = 0.250 in
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:99L in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  Net.Radio.set_loss_prob radio 0.01;
  Net.Radio.jam radio ~from:jam_start ~until:jam_end;

  let cfg = Core.Proto.default_config ~n in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:cfg.max_phases in
  let instances =
    Array.init n (fun i ->
        let node = Net.Node.create engine radio ~id:i ~rng:(Util.Rng.split rng) in
        (* divergent proposals: the hard case for safety under jamming *)
        Core.Turquois.create node cfg ~keyring:keyrings.(i) ~proposal:(i mod 2) ())
  in

  let decisions_during_jam = ref 0 in
  let remaining = ref n in
  Array.iter
    (fun instance ->
      Core.Turquois.on_decide instance (fun ~value ~phase ->
          let now = Net.Engine.now engine in
          if now >= jam_start && now <= jam_end then incr decisions_during_jam;
          Printf.printf "t = %7.2f ms  process %d decided %d (phase %d)%s\n"
            (now *. 1000.0) (Core.Turquois.id instance) value phase
            (if now > jam_end then "  [channel clear]" else "");
          decr remaining))
    instances;

  Array.iter Core.Turquois.start instances;
  Printf.printf "jamming the channel from %.0f ms to %.0f ms...\n\n"
    (jam_start *. 1000.0) (jam_end *. 1000.0);
  Net.Engine.run_while engine (fun () -> !remaining > 0 && Net.Engine.now engine < 30.0);

  let stats = Net.Radio.stats radio in
  Printf.printf "\nframes destroyed by jamming: %d (of %d sent)\n" stats.jammed
    stats.frames_sent;
  Printf.printf "processes decided: %d/%d, all after the jam cleared: %b\n"
    (n - !remaining) n
    (!decisions_during_jam = 0);
  let decided =
    Array.to_list instances |> List.filter_map Core.Turquois.decision
  in
  match decided with
  | v :: rest when List.for_all (( = ) v) rest ->
      Printf.printf "agreement on %d despite losing every frame for %.0f ms.\n" v
        ((jam_end -. jam_start) *. 1000.0)
  | [] -> failwith "nobody decided"
  | _ -> failwith "disagreement — this must never happen"
