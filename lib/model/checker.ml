module Driven = Harness.Abstract_rounds.Driven

type config = {
  n : int;
  k : int;
  byzantine : int list;
  dist : Harness.Runner.dist;
  budget : int;
  exact_budget : bool;
  alphabet : Core.Strategy.t list;
  rounds : int;
  seed : int64;
  jobs : int;
  max_states : int;
}

let config ~n ?k ?byzantine ?dist ?budget ?exact_budget ?alphabet ?rounds ?seed ?jobs
    ?max_states () =
  let f = (n - 1) / 3 in
  let k = Option.value k ~default:(n - f) in
  let byzantine = Option.value byzantine ~default:(List.init f (fun i -> n - f + i)) in
  let t = List.length byzantine in
  let budget =
    Option.value budget ~default:(Core.Proto.sigma { (Core.Proto.default_config ~n) with k } ~t)
  in
  let alphabet = Option.value alphabet ~default:Core.Strategy.enumerable in
  List.iter
    (fun s ->
      if not (Core.Strategy.is_deterministic s) then
        invalid_arg
          (Printf.sprintf
             "Checker.config: strategy %s draws randomness; a memoized exhaustive walk over it \
              would be unsound"
             (Core.Strategy.name s)))
    alphabet;
  List.iter
    (fun i -> if i < 0 || i >= n then invalid_arg "Checker.config: byzantine id out of range")
    byzantine;
  if budget < 0 then invalid_arg "Checker.config: negative budget";
  {
    n;
    k;
    byzantine;
    dist = Option.value dist ~default:Harness.Runner.Unanimous;
    budget;
    exact_budget = Option.value exact_budget ~default:false;
    alphabet;
    rounds = Option.value rounds ~default:2;
    seed = Option.value seed ~default:0x51D6AL;
    jobs = Option.value jobs ~default:(Harness.Pool.default_jobs ());
    max_states = Option.value max_states ~default:2_000_000;
  }

type stats = {
  states : int;
  transitions : int;
  dedup_hits : int;
  frontier_peak : int;
  pruned : int;
  choices_per_round : int;
}

type outcome =
  | Safe of { worst : Codec.rounds_artifact; min_deciders : int; min_advanced : int }
  | Violation of Codec.rounds_artifact

type result = { outcome : outcome; stats : stats }

(* --- adversary choice enumeration ------------------------------------------- *)

type choice = { drops : (int * int) list; byz : (int * Core.Strategy.t) list }

let correct_pairs cfg =
  let correct = List.filter (fun i -> not (List.mem i cfg.byzantine)) (List.init cfg.n Fun.id) in
  Array.of_list
    (List.concat_map
       (fun s -> List.filter_map (fun r -> if r = s then None else Some (s, r)) correct)
       correct)

(* All size-[m] subsets of [arr], each ascending, emitted in lexicographic
   order of index sets. *)
let combinations arr m =
  let len = Array.length arr in
  if m > len then []
  else begin
    let out = ref [] in
    let rec go start m acc =
      if m = 0 then out := List.rev acc :: !out
      else
        for i = start to len - m do
          go (i + 1) (m - 1) (arr.(i) :: acc)
        done
    in
    go 0 m [];
    List.rev !out
  end

let rec cartesian = function
  | [] -> [ [] ]
  | xs :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun x -> List.map (fun tl -> x :: tl) tails) xs

let choices cfg =
  let pairs = correct_pairs cfg in
  let cap = min cfg.budget (Array.length pairs) in
  let sizes = if cfg.exact_budget then [ cap ] else List.init (cap + 1) Fun.id in
  let patterns = List.concat_map (combinations pairs) sizes in
  let byz_ids = List.sort_uniq compare cfg.byzantine in
  let assignments =
    if byz_ids = [] then [ [] ]
    else cartesian (List.map (fun i -> List.map (fun s -> (i, s)) cfg.alphabet) byz_ids)
  in
  Array.of_list
    (List.concat_map (fun p -> List.map (fun a -> { drops = p; byz = a }) assignments) patterns)

(* --- artifacts --------------------------------------------------------------- *)

let codec_round choice =
  { Codec.drops = choice.drops; byz = List.map (fun (i, s) -> (i, Core.Strategy.name s)) choice.byz }

let artifact cfg trail_rev expect note =
  {
    Codec.r_n = cfg.n;
    r_k = cfg.k;
    r_byzantine = cfg.byzantine;
    r_dist = cfg.dist;
    r_seed = cfg.seed;
    r_budget = cfg.budget;
    r_rounds = List.rev_map codec_round trail_rev;
    r_expect = expect;
    r_note = note;
  }

(* --- the walk ---------------------------------------------------------------- *)

type node = { sim : Driven.sim; trail : choice list (* reversed *) }

let digest sim = Bytes.to_string (Crypto.Sha256.digest_string (Driven.fingerprint sim))

let provenance cfg =
  Printf.sprintf "n=%d k=%d t=%d dist=%s budget=%d%s horizon=%d" cfg.n cfg.k
    (List.length cfg.byzantine)
    (Harness.Runner.dist_to_string cfg.dist)
    cfg.budget
    (if cfg.exact_budget then " (exact)" else "")
    cfg.rounds

let model_states = Obs.Metrics.counter "model.states"
let model_transitions = Obs.Metrics.counter "model.transitions"
let model_dedup_hits = Obs.Metrics.counter "model.dedup_hits"
let model_pruned = Obs.Metrics.counter "model.pruned"
let model_frontier_peak = Obs.Metrics.gauge "model.frontier_peak"

let check ?(log = ignore) cfg =
  let choices = choices cfg in
  let num_choices = Array.length choices in
  if num_choices = 0 then invalid_arg "Checker.check: empty adversary choice set";
  let states = ref 1 and transitions = ref 0 and dedup_hits = ref 0 in
  let frontier_peak = ref 1 and pruned = ref 0 in
  let warned = ref false in
  let violation = ref None in
  let root =
    {
      sim =
        Driven.create ~n:cfg.n ~k:cfg.k ~byzantine:cfg.byzantine ~dist:cfg.dist
          ~horizon:cfg.rounds ~rng:(Util.Rng.create ~seed:cfg.seed) ();
      trail = [];
    }
  in
  log
    (Printf.sprintf "modelcheck %s: %d adversary choices per round" (provenance cfg) num_choices);
  let frontier = ref [| root |] in
  let level = ref 0 in
  (* Nodes per parallel chunk: keep each Pool batch near 16k expansions so
     peak memory is bounded by the chunk, not the whole level. *)
  let chunk_nodes = max 1 (16384 / num_choices) in
  while !violation = None && !level < cfg.rounds && Array.length !frontier > 0 do
    incr level;
    let cur = !frontier in
    let next = ref [] in
    let next_len = ref 0 in
    (* Dedup is per level: a state reached at two different depths is kept at
       both — its horizon continuation differs with the remaining rounds, and
       stalled self-loop states are exactly the worst-case liveness witnesses
       the final frontier must retain. *)
    let seen = Hashtbl.create 1024 in
    let nchunks = (Array.length cur + chunk_nodes - 1) / chunk_nodes in
    let ci = ref 0 in
    while !violation = None && !ci < nchunks do
      let lo = !ci * chunk_nodes in
      let len = min chunk_nodes (Array.length cur - lo) in
      let results =
        Harness.Pool.map ~jobs:cfg.jobs ~tasks:(len * num_choices) (fun idx ->
            let node = cur.(lo + (idx / num_choices)) in
            let choice = choices.(idx mod num_choices) in
            let sim = Driven.clone node.sim in
            Driven.step sim ~drops:choice.drops ~byz:choice.byz;
            (sim, digest sim, Driven.violations sim))
      in
      Array.iteri
        (fun idx (sim, dg, vs) ->
          if !violation = None then begin
            incr transitions;
            let node = cur.(lo + (idx / num_choices)) in
            let choice = choices.(idx mod num_choices) in
            if vs <> [] then
              violation :=
                Some
                  (artifact cfg (choice :: node.trail) (Codec.Violations vs)
                     ("violating schedule: " ^ provenance cfg))
            else if Hashtbl.mem seen dg then incr dedup_hits
            else begin
              if Hashtbl.length seen < cfg.max_states then Hashtbl.replace seen dg ()
              else begin
                if not !warned then begin
                  warned := true;
                  log
                    (Printf.sprintf
                       "state cap %d reached at level %d: dedup is now lossy (duplicates may \
                        re-expand; results stay exact)"
                       cfg.max_states !level)
                end;
                incr pruned
              end;
              incr states;
              next := { sim; trail = choice :: node.trail } :: !next;
              incr next_len
            end
          end)
        results;
      incr ci
    done;
    let next_arr = Array.make !next_len root in
    List.iteri (fun i n -> next_arr.(!next_len - 1 - i) <- n) !next;
    if !next_len > !frontier_peak then frontier_peak := !next_len;
    if !violation = None then
      log
        (Printf.sprintf "level %d: %d distinct states (%d duplicates pruned)" !level !next_len
           !dedup_hits);
    frontier := next_arr
  done;
  let stats =
    {
      states = !states;
      transitions = !transitions;
      dedup_hits = !dedup_hits;
      frontier_peak = !frontier_peak;
      pruned = !pruned;
      choices_per_round = num_choices;
    }
  in
  Obs.Metrics.incr_by model_states stats.states;
  Obs.Metrics.incr_by model_transitions stats.transitions;
  Obs.Metrics.incr_by model_dedup_hits stats.dedup_hits;
  Obs.Metrics.incr_by model_pruned stats.pruned;
  Obs.Metrics.set model_frontier_peak (float_of_int stats.frontier_peak);
  match !violation with
  | Some art -> { outcome = Violation art; stats }
  | None ->
      let worst = ref None in
      let min_deciders = ref max_int and min_advanced = ref max_int in
      Array.iter
        (fun node ->
          let d = Driven.deciders node.sim and a = Driven.advanced node.sim in
          if d < !min_deciders then min_deciders := d;
          if a < !min_advanced then min_advanced := a;
          match !worst with
          | Some (bd, ba, _) when not ((d, a) < (bd, ba)) -> ()
          | _ -> worst := Some (d, a, node.trail))
        !frontier;
      let d, a, trail =
        match !worst with
        | Some w -> w
        | None -> (Driven.deciders root.sim, Driven.advanced root.sim, [])
      in
      let worst =
        artifact cfg trail
          (Codec.Stall { deciders = d; advanced = a })
          ("worst-case liveness schedule: " ^ provenance cfg)
      in
      { outcome = Safe { worst; min_deciders = !min_deciders; min_advanced = !min_advanced }; stats }
