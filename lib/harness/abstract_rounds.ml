type adversary = Random_omissions | Target_victims | Sigma_edge

type outcome = {
  deciders : int;
  rounds_to_k : int option;
  agreement : bool;
  validity : bool;
}

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

(* --- lockstep rounds: the one emit/deliver step -------------------------- *)

module Driven = struct
  type sim = {
    machines : Core.Machine.t array;
    correct : int list;
    byzantine : int list;
    dist : Runner.dist;
    mutable round : int;
  }

  (* Key material comes from the deterministic per-(n, phases) cache:
     callers enumerate thousands of sims, and every result is
     key-independent. *)
  let create ~n ~k ?(byzantine = []) ?(dist = Runner.Unanimous)
      ?(behavior = Core.Machine.Byzantine Core.Strategy.silent) ~horizon ~rng () =
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
          let behavior = if List.mem i byzantine then behavior else Core.Machine.Correct in
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
       round's scripted strategy, or their own behavior where [byz]
       names none *)
    let transmissions =
      Util.Init.array n (fun i ->
          match List.assoc_opt i byz with
          | Some strategy when List.mem i sim.byzantine ->
              Core.Machine.emit_as sim.machines.(i) ~strategy ~justify:true
          | Some _ | None -> Core.Machine.emit sim.machines.(i) ~justify:true)
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
  let machine sim i = sim.machines.(i)

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

  let violations sim =
    List.map Runner.breach_to_string (Runner.safety_violations ~dist:sim.dist (decisions sim))

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

(* --- drop choosers over Driven ------------------------------------------- *)

(* A seeded generator past its first split. That split once seeded
   per-run key generation; discarding it keeps every machine rng and
   drop pattern where those runs left them. *)
let rng_of_seed seed =
  let rng = Util.Rng.create ~seed in
  ignore (Util.Rng.split rng : Util.Rng.t);
  rng

let run ~n ~k ?(byzantine = []) ?(dist = Runner.Unanimous) ?(adversary = Random_omissions)
    ~omissions ~rounds ~seed () =
  let rng = rng_of_seed seed in
  let sim =
    Driven.create ~n ~k ~byzantine ~dist ~behavior:Core.Machine.Attacker ~horizon:rounds ~rng ()
  in
  let correct = Driven.correct sim in
  let rounds_to_k = ref None in
  while Driven.round sim < rounds && Driven.deciders sim < List.length correct do
    Driven.step sim ~drops:(choose_dropped ~rng ~adversary ~correct ~omissions) ~byz:[];
    if !rounds_to_k = None && Driven.deciders sim >= k then rounds_to_k := Some (Driven.round sim)
  done;
  let breaches = Runner.safety_violations ~dist (Driven.decisions sim) in
  {
    deciders = Driven.deciders sim;
    rounds_to_k = !rounds_to_k;
    agreement = Runner.agreement_holds breaches;
    validity = Runner.validity_holds breaches;
  }

(* One synchronous round in isolation: who can still advance past phase
   1? No phase-2 traffic exists inside a single round, so the adoption
   rule cannot rescue a blocked victim — the probe measures exactly the
   quorum arithmetic the σ bound is about. Faulty processes are silent
   (the liveness bound's worst case). *)
let single_round ~n ~k ?(byzantine = []) ?(adversary = Sigma_edge) ~omissions ~seed () =
  let rng = rng_of_seed seed in
  let sim = Driven.create ~n ~k ~byzantine ~horizon:1 ~rng () in
  Driven.step sim ~drops:(choose_dropped ~rng ~adversary ~correct:(Driven.correct sim) ~omissions)
    ~byz:[];
  Driven.advanced sim
