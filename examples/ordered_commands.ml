(* Ordered command log: total order over an unreliable broadcast medium.

       dune exec examples/ordered_commands.exe

   Five responder nodes issue commands concurrently ("deploy team A",
   "close sector 3", ...). Without coordination each node would apply
   them in its own arrival order; here every command goes through the
   consensus-backed ordered log, so all nodes apply the identical
   sequence — the "order messages" coordination task from the paper's
   introduction, running over a 5%-lossy channel. *)

let () =
  let n = 5 in
  let capacity = 10 in
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:777L in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  Net.Radio.set_loss_prob radio 0.05;

  let cfg = { (Core.Proto.default_config ~n) with max_phases = 45 } in
  let keyrings =
    Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:(capacity * cfg.max_phases)
  in
  let logs =
    Array.init n (fun i ->
        let node = Net.Node.create engine radio ~id:i ~rng:(Util.Rng.split rng) in
        Core.Ordered_log.create node cfg ~keyring:keyrings.(i) ~capacity ())
  in

  (* node 0 watches its log; all nodes will have the identical one. A
     delivered payload is a length-prefixed batch of commands, possibly
     several when submissions queued up behind one proposer slot. *)
  let render_batch batch =
    match Core.Ordered_log.decode_batch batch with
    | [] -> "(empty batch)"
    | commands -> String.concat " + " (List.map Bytes.to_string commands)
  in
  Core.Ordered_log.on_deliver logs.(0) (fun ~slot ~payload ->
      Printf.printf "t = %7.2f ms  slot %d: %s\n"
        (Net.Engine.now engine *. 1000.0)
        slot
        (match payload with Some p -> render_batch p | None -> "(no command)"));

  Core.Ordered_log.submit logs.(0) (Bytes.of_string "deploy team A to north ridge");
  Core.Ordered_log.submit logs.(2) (Bytes.of_string "close sector 3");
  Core.Ordered_log.submit logs.(2) (Bytes.of_string "reopen sector 3");
  Core.Ordered_log.submit logs.(4) (Bytes.of_string "request medevac at grid 41");

  Array.iter Core.Ordered_log.start logs;
  Net.Engine.run_while engine (fun () ->
      Net.Engine.now engine < 30.0
      && Array.exists
           (fun log -> List.length (Core.Ordered_log.delivered log) < capacity)
           logs);

  (* verify all five nodes hold the same log *)
  let render log =
    String.concat "|"
      (List.map
         (fun (_, p) -> match p with Some b -> render_batch b | None -> "-")
         (Core.Ordered_log.delivered log))
  in
  let reference = render logs.(0) in
  Array.iteri
    (fun i log ->
      if render log <> reference then
        failwith (Printf.sprintf "node %d diverged — must never happen" i))
    logs;
  Printf.printf "\nall %d nodes applied the identical %d-slot command sequence.\n" n capacity
