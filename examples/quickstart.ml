(* Quickstart: four nodes on a simulated 802.11b ad hoc network agree on
   a binary value with Turquois.

       dune exec examples/quickstart.exe

   This is the smallest complete use of the public API: build an engine,
   a radio, one node per process, distribute keys, start the protocol
   instances, and run the simulation until everyone has decided. *)

let () =
  let n = 4 in
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:2026L in

  (* the shared wireless medium, with 1% residual frame loss *)
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  Net.Radio.set_loss_prob radio 0.01;

  (* protocol configuration: f = 1 Byzantine tolerated, k = 3 must decide *)
  let cfg = Core.Proto.default_config ~n in
  Printf.printf "n=%d f=%d k=%d (tick every %.0f ms)\n\n" cfg.n cfg.f cfg.k
    (Core.Proto.tick_interval *. 1000.0);

  (* the key exchange of Section 6.1, run before the protocol starts *)
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:cfg.max_phases in

  (* one node and one protocol instance per process; processes 0 and 3
     propose 1, the others 0 *)
  let proposals = [| 1; 0; 0; 1 |] in
  let instances =
    Array.init n (fun i ->
        let node = Net.Node.create engine radio ~id:i ~rng:(Util.Rng.split rng) in
        Core.Turquois.create node cfg ~keyring:keyrings.(i) ~proposal:proposals.(i) ())
  in

  let remaining = ref n in
  Array.iter
    (fun instance ->
      Core.Turquois.on_decide instance (fun ~value ~phase ->
          Printf.printf "process %d decided %d at phase %d (t = %.2f ms)\n"
            (Core.Turquois.id instance) value phase
            (Net.Engine.now engine *. 1000.0);
          decr remaining))
    instances;

  Array.iter Core.Turquois.start instances;
  Net.Engine.run_while engine (fun () -> !remaining > 0 && Net.Engine.now engine < 10.0);

  let decisions =
    Array.to_list instances |> List.filter_map Core.Turquois.decision
  in
  match decisions with
  | v :: rest when List.for_all (( = ) v) rest ->
      Printf.printf "\nagreement reached on %d by all %d processes.\n" v
        (List.length decisions)
  | _ -> failwith "disagreement — this must never happen"
