type adversary = Random_omissions | Target_victims | Sigma_edge

type outcome = {
  deciders : int;
  rounds_to_k : int option;
  agreement : bool;
  validity : bool;
}

let sigma ~n ~k ~t =
  let cfg = { (Core.Proto.default_config ~n) with k } in
  Core.Proto.sigma cfg ~t

(* The suppressed (sender, receiver) pairs for one round, given the
   adversary's pattern and omission budget. [correct] is the id list of
   correct processes. *)
let choose_dropped ~rng ~adversary ~correct ~omissions =
  let c = List.length correct in
  let is_correct i = List.mem i correct in
  let correct_pairs =
    List.concat_map
      (fun s -> List.filter_map (fun r -> if r <> s then Some (s, r) else None) correct)
      correct
  in
  match adversary with
    | Random_omissions ->
        let pairs = Array.of_list correct_pairs in
        Util.Rng.shuffle rng pairs;
        let count = min omissions (Array.length pairs) in
        Array.to_list (Array.sub pairs 0 count)
    | Target_victims ->
        (* silence whole victims while the budget lasts, then starve the
           next process with the remainder *)
        let budget = ref omissions in
        let dropped = ref [] in
        let per_victim = c - 1 in
        List.iter
          (fun v ->
            if !budget >= per_victim && per_victim > 0 then begin
              List.iter
                (fun s -> if s <> v && is_correct s then dropped := (s, v) :: !dropped)
                correct;
              budget := !budget - per_victim
            end
            else if !budget > 0 then begin
              (* partial starvation of this process *)
              let incoming = List.filter (fun s -> s <> v && is_correct s) correct in
              List.iteri
                (fun idx s ->
                  if idx < !budget then dropped := (s, v) :: !dropped)
                incoming;
              budget := max 0 (!budget - List.length incoming)
            end)
          (List.rev correct);
        !dropped
    | Sigma_edge ->
        (* the formula-structured adversary: spend the budget in units of
           ⌈(n−t)/2⌉ drops against successive victims (the per-victim
           term of σ), remainder against the next one. At budget σ this
           blocks the quorums of exactly enough processes to sit on the
           liveness bound; at σ−1 the last victim still advances. *)
        let unit = (c + 1) / 2 in
        let budget = ref omissions in
        let dropped = ref [] in
        List.iter
          (fun v ->
            if !budget > 0 then begin
              let incoming = List.filter (fun s -> s <> v) correct in
              let take = min (min unit !budget) (List.length incoming) in
              List.iteri
                (fun idx s -> if idx < take then dropped := (s, v) :: !dropped)
                incoming;
              budget := !budget - take
            end)
          correct;
        !dropped

(* Key material for one abstract-rounds run. Profiling puts
   Keyring.setup (dominated by RSA keypair generation for the VK
   exchange) at ~95% of a run's host time, so the keys come from the
   deterministic per-(n, phases) cache — faithful to the paper's
   pre-distributed keys, like Runner's caches. The rng split is still
   consumed, keeping every downstream stream (machine rngs, drop
   patterns) where per-run key generation used to leave it. *)
let keyrings_for ~rng ~n ~phases =
  let (_ : Util.Rng.t) = Util.Rng.split rng in
  Runner.keyrings_for ~seed:(Util.Rng.derive ~base:0x7153A1L [ n; phases ]) ~n ~phases

let run ~n ~k ?(byzantine = []) ?(dist = Runner.Unanimous) ?(adversary = Random_omissions)
    ~omissions ~rounds ~seed () =
  let rng = Util.Rng.create ~seed in
  let cfg = { (Core.Proto.default_config ~n) with k; max_phases = 3 * rounds + 9 } in
  let keyrings = keyrings_for ~rng ~n ~phases:cfg.max_phases in
  let proposals = Runner.proposals dist ~n in
  (* the closure splits [rng]: application order must be pinned *)
  let machines =
    Util.Init.array n (fun i ->
        let behavior =
          if List.mem i byzantine then Core.Machine.Attacker else Core.Machine.Correct
        in
        Core.Machine.create cfg ~keyring:keyrings.(i) ~rng:(Util.Rng.split rng) ~behavior
          ~proposal:proposals.(i) ())
  in
  let correct = List.filter (fun i -> not (List.mem i byzantine)) (List.init n (fun i -> i)) in
  let is_correct i = not (List.mem i byzantine) in
  let choose_dropped () = choose_dropped ~rng ~adversary ~correct ~omissions in
  let decided_round = Array.make n None in
  let rounds_to_k = ref None in
  let round = ref 0 in
  let finished () = List.for_all (fun i -> decided_round.(i) <> None) correct in
  while !round < rounds && not (finished ()) do
    incr round;
    let dropped = choose_dropped () in
    let is_dropped s r = List.mem (s, r) dropped in
    (* broadcast phase: everyone emits (self-insertion happens in
       emit), then deliveries happen "simultaneously"; correct and
       Attacker machines only ever broadcast *)
    let transmissions = Array.map (fun m -> Core.Machine.emit m ~justify:true) machines in
    Array.iteri
      (fun s transmission ->
        match transmission with
        | Core.Machine.Quiet | Core.Machine.Per_receiver _ -> ()
        | Core.Machine.Broadcast env ->
            List.iter
              (fun r ->
                if r <> s then begin
                  let suppressed = is_correct s && is_correct r && is_dropped s r in
                  if not suppressed then begin
                    let events, _ = Core.Machine.handle machines.(r) env in
                    List.iter
                      (fun event ->
                        match event with
                        | Core.Machine.Decided _ when is_correct r ->
                            if decided_round.(r) = None then
                              decided_round.(r) <- Some !round
                        | Core.Machine.Decided _ | Core.Machine.Phase_changed _ -> ())
                      events
                  end
                end)
              (List.init n (fun i -> i)))
      transmissions;
    let deciders_now =
      List.length (List.filter (fun i -> decided_round.(i) <> None) correct)
    in
    if deciders_now >= k && !rounds_to_k = None then rounds_to_k := Some !round
  done;
  let deciders = List.length (List.filter (fun i -> decided_round.(i) <> None) correct) in
  let decisions =
    List.filter_map (fun i -> Core.Machine.decision machines.(i)) correct
  in
  let agreement =
    match decisions with [] -> true | v0 :: rest -> List.for_all (fun v -> v = v0) rest
  in
  let validity =
    match dist with
    | Runner.Unanimous -> List.for_all (fun v -> v = 1) decisions
    | Runner.Divergent -> true
  in
  { deciders; rounds_to_k = !rounds_to_k; agreement; validity }

(* --- externally-driven rounds (model-checker hook) ----------------------- *)

module Driven = struct
  type sim = {
    machines : Core.Machine.t array;
    correct : int list;
    byzantine : int list;
    dist : Runner.dist;
    mutable round : int;
  }

  (* Key material comes from the deterministic per-(n, phases) cache
     unconditionally: the checker enumerates thousands of sims and its
     results are key-independent, so there is no memo-off contract to
     honor here (unlike [run], whose rng stream predates the cache). *)
  let create ~n ~k ?(byzantine = []) ?(dist = Runner.Unanimous) ~horizon ~seed () =
    let rng = Util.Rng.create ~seed in
    let cfg = { (Core.Proto.default_config ~n) with k; max_phases = (3 * horizon) + 9 } in
    let keyrings =
      Runner.keyrings_for
        ~seed:(Util.Rng.derive ~base:0x7153A1L [ n; cfg.max_phases ])
        ~n ~phases:cfg.max_phases
    in
    let proposals = Runner.proposals dist ~n in
    (* the closure splits [rng]: application order must be pinned *)
    let machines =
      Util.Init.array n (fun i ->
          let behavior =
            if List.mem i byzantine then Core.Machine.Byzantine Core.Strategy.silent
            else Core.Machine.Correct
          in
          Core.Machine.create cfg ~keyring:keyrings.(i) ~rng:(Util.Rng.split rng) ~behavior
            ~proposal:proposals.(i) ())
    in
    let correct = List.filter (fun i -> not (List.mem i byzantine)) (List.init n (fun i -> i)) in
    { machines; correct; byzantine; dist; round = 0 }

  let clone sim =
    {
      machines = Array.map Core.Machine.clone sim.machines;
      correct = sim.correct;
      byzantine = sim.byzantine;
      dist = sim.dist;
      round = sim.round;
    }

  let step sim ~drops ~byz =
    sim.round <- sim.round + 1;
    let n = Array.length sim.machines in
    let is_dropped s r = List.mem (s, r) drops in
    (* everyone emits first (self-insertion happens inside emit), then
       deliveries happen "simultaneously"; Byzantine machines follow the
       round's scripted strategy, defaulting to silence (a crash) *)
    let transmissions =
      Util.Init.array n (fun i ->
          if List.mem i sim.byzantine then
            match List.assoc_opt i byz with
            | Some strategy -> Core.Machine.emit_as sim.machines.(i) ~strategy ~justify:true
            | None -> Core.Machine.Quiet
          else Core.Machine.emit sim.machines.(i) ~justify:true)
    in
    let deliver s r env =
      if r <> s && not (is_dropped s r) then
        ignore (Core.Machine.handle sim.machines.(r) env)
    in
    Array.iteri
      (fun s tx ->
        match tx with
        | Core.Machine.Quiet -> ()
        | Core.Machine.Broadcast env ->
            List.iter (fun r -> deliver s r env) (List.init n (fun i -> i))
        | Core.Machine.Per_receiver outs ->
            List.iter (fun (r, env) -> deliver s r env) outs)
      transmissions

  let round sim = sim.round
  let correct sim = sim.correct

  let decisions sim =
    List.filter_map
      (fun i ->
        match Core.Machine.decision sim.machines.(i) with
        | Some v -> Some (i, v)
        | None -> None)
      sim.correct

  let deciders sim = List.length (decisions sim)

  let advanced sim =
    List.length
      (List.filter (fun i -> Core.Machine.phase sim.machines.(i) > 1) sim.correct)

  (* Safety invariants over the current state; same clauses as the chaos
     harness, phrased over the abstract sim. *)
  let violations sim =
    let out = ref [] in
    let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
    let ds = decisions sim in
    (match ds with
    | [] -> ()
    | (_, v0) :: rest ->
        List.iter
          (fun (i, v) ->
            if v <> v0 then add "agreement: p%d decided %d, others %d" i v v0)
          rest);
    (match sim.dist with
    | Runner.Unanimous ->
        List.iter
          (fun (i, v) ->
            if v <> 1 then add "validity: p%d decided %d against unanimous 1" i v)
          ds
    | Runner.Divergent -> ());
    List.iter
      (fun (i, v) -> if v <> 0 && v <> 1 then add "integrity: p%d decided non-binary %d" i v)
      ds;
    List.rev !out

  (* Concatenated machine fingerprints: machines are positional, so the
     concatenation canonically identifies the whole group state. The
     round counter is deliberately excluded — a state revisited later in
     the walk has a future subtree contained in the first visit's. *)
  let fingerprint sim =
    let buf = Buffer.create 1024 in
    Array.iter
      (fun m ->
        Buffer.add_string buf (Core.Machine.fingerprint m);
        Buffer.add_char buf '\n')
      sim.machines;
    Buffer.contents buf
end

(* One synchronous round in isolation: who can still advance past phase
   1? No phase-2 traffic exists inside a single round, so the adoption
   rule cannot rescue a blocked victim — the probe measures exactly the
   quorum arithmetic the σ bound is about. Faulty processes are silent
   (the liveness bound's worst case). *)
let single_round ~n ~k ?(byzantine = []) ?(adversary = Sigma_edge) ~omissions ~seed () =
  let rng = Util.Rng.create ~seed in
  let cfg = { (Core.Proto.default_config ~n) with k; max_phases = 30 } in
  let keyrings = keyrings_for ~rng ~n ~phases:cfg.max_phases in
  (* the closure splits [rng]: application order must be pinned *)
  let machines =
    Util.Init.array n (fun i ->
        let behavior =
          if List.mem i byzantine then Core.Machine.Byzantine Core.Strategy.silent
          else Core.Machine.Correct
        in
        Core.Machine.create cfg ~keyring:keyrings.(i) ~rng:(Util.Rng.split rng) ~behavior
          ~proposal:1 ())
  in
  let correct = List.filter (fun i -> not (List.mem i byzantine)) (List.init n (fun i -> i)) in
  let dropped = choose_dropped ~rng ~adversary ~correct ~omissions in
  let is_dropped s r = List.mem (s, r) dropped in
  (* correct machines broadcast, silent ones stay quiet *)
  let transmissions = Array.map (fun m -> Core.Machine.emit m ~justify:true) machines in
  Array.iteri
    (fun s transmission ->
      match transmission with
      | Core.Machine.Quiet | Core.Machine.Per_receiver _ -> ()
      | Core.Machine.Broadcast env ->
          List.iter
            (fun r ->
              if r <> s && List.mem r correct && not (is_dropped s r) then
                ignore (Core.Machine.handle machines.(r) env))
            (List.init n (fun i -> i)))
    transmissions;
  List.length (List.filter (fun i -> Core.Machine.phase machines.(i) > 1) correct)
