type sigma_row = {
  omissions : int;
  adversary : Abstract_rounds.adversary;
  runs : int;
  k_reached : int;
  mean_rounds : float option;
  agreement_violations : int;
  validity_violations : int;
}

let adversary_index = function
  | Abstract_rounds.Random_omissions -> 0
  | Abstract_rounds.Target_victims -> 1
  | Abstract_rounds.Sigma_edge -> 2

(* Seeds derive from the grid coordinates alone. The old scheme,
   [base + omissions*1009 + run], collided across grid points as soon
   as [runs_per_point >= 1009] and — worse — ignored the adversary, so
   the two adversaries at one grid point replayed the *same* random
   streams and their comparison rows were correlated, not independent. *)
let run_seed ~base_seed ~adversary ~omissions ~run =
  Util.Rng.derive ~base:base_seed [ adversary_index adversary; omissions; run ]

let sigma_sweep_merged ~n ~k ?(byzantine = []) ?(dist = Runner.Divergent)
    ?(rounds = 120) ?(runs_per_point = 10) ?(beyond = 4) ?(base_seed = 4242L) ?jobs ()
    =
  let t = List.length byzantine in
  let bound = Core.Proto.sigma { (Core.Proto.default_config ~n) with k } ~t in
  let npoints = bound + beyond + 1 in
  let adversaries =
    [| Abstract_rounds.Random_omissions; Abstract_rounds.Target_victims |]
  in
  (* one pool task per (adversary, omission budget) grid point, indexed
     adversary-major so the row order matches the sequential output *)
  let row task =
    let adversary = adversaries.(task / npoints) in
    let omissions = task mod npoints in
    let successes = ref 0 in
    let rounds_acc = ref [] in
    let agreement_violations = ref 0 in
    let validity_violations = ref 0 in
    for run = 0 to runs_per_point - 1 do
      let seed = run_seed ~base_seed ~adversary ~omissions ~run in
      let outcome =
        Abstract_rounds.run ~n ~k ~byzantine ~dist ~adversary ~omissions ~rounds
          ~seed ()
      in
      (match outcome.rounds_to_k with
      | Some r ->
          incr successes;
          rounds_acc := float_of_int r :: !rounds_acc
      | None -> ());
      if not outcome.agreement then incr agreement_violations;
      if not outcome.validity then incr validity_violations
    done;
    {
      omissions;
      adversary;
      runs = runs_per_point;
      k_reached = !successes;
      mean_rounds =
        (match !rounds_acc with [] -> None | l -> Some (Util.Stats.mean l));
      agreement_violations = !agreement_violations;
      validity_violations = !validity_violations;
    }
  in
  let rows, snaps =
    Array.split (Pool.map_scoped ?jobs ~tasks:(Array.length adversaries * npoints) row)
  in
  (Array.to_list rows, Obs.Metrics.merge (Array.to_list snaps))

let sigma_sweep ~n ~k ?byzantine ?dist ?rounds ?runs_per_point ?beyond ?base_seed ?jobs
    () =
  fst
    (sigma_sweep_merged ~n ~k ?byzantine ?dist ?rounds ?runs_per_point ?beyond
       ?base_seed ?jobs ())

let adversary_to_string = function
  | Abstract_rounds.Random_omissions -> "random"
  | Abstract_rounds.Target_victims -> "targeted"
  | Abstract_rounds.Sigma_edge -> "sigma-edge"

let render_sigma ~n ~k ~t rows =
  let bound = Obs.Analyze.sigma ~n ~k ~t in
  let header = [ "omissions"; "adversary"; "k reached"; "mean rounds"; "safety" ] in
  let table_rows =
    List.map
      (fun row ->
        [
          Printf.sprintf "%d%s" row.omissions
            (if row.omissions = bound then "  (= sigma)" else "");
          adversary_to_string row.adversary;
          Printf.sprintf "%d/%d" row.k_reached row.runs;
          (match row.mean_rounds with Some m -> Printf.sprintf "%.1f" m | None -> "-");
          (if row.agreement_violations = 0 && row.validity_violations = 0 then "ok"
           else "VIOLATED");
        ])
      rows
  in
  Printf.sprintf
    "Liveness bound sweep: n=%d k=%d t=%d, sigma = ceil((n-t)/2)*(n-k-t)+k-2 = %d\n%s" n k
    t bound
    (Util.Tablefmt.render ~header ~rows:table_rows ())

type phase_row = {
  dist : Runner.dist;
  load : Net.Fault.load;
  samples : int;
  phase_stats : Util.Stats.summary;
  histogram : (int * int) list;
}

let phase_distribution ~n ?(reps = 30) ?(base_seed = 7000L) ?jobs ~loads () =
  List.concat_map
    (fun load ->
      List.map
        (fun dist ->
          let results =
            Pool.map ?jobs ~tasks:reps (fun rep ->
                let seed = Int64.add base_seed (Int64.of_int rep) in
                Runner.run ~protocol:Runner.Turquois ~n ~dist ~load ~seed ())
          in
          let phases = ref [] in
          Array.iter
            (fun (result : Runner.result) ->
              List.iter (fun (_, p) -> phases := p :: !phases) result.decision_phases)
            results;
          let counts = Hashtbl.create 16 in
          List.iter
            (fun p ->
              Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p)))
            !phases;
          let histogram =
            List.sort compare (Hashtbl.fold (fun p c acc -> (p, c) :: acc) counts [])
          in
          {
            dist;
            load;
            samples = List.length !phases;
            phase_stats = Util.Stats.summarize (List.map float_of_int !phases);
            histogram;
          })
        [ Runner.Unanimous; Runner.Divergent ])
    loads

let render_phases ~n rows =
  let header = [ "load"; "distribution"; "samples"; "mean phase"; "median"; "histogram" ] in
  let table_rows =
    List.map
      (fun row ->
        [
          Net.Fault.load_to_string row.load;
          Runner.dist_to_string row.dist;
          string_of_int row.samples;
          Printf.sprintf "%.2f" row.phase_stats.mean;
          Printf.sprintf "%.0f" row.phase_stats.median;
          String.concat " "
            (List.map (fun (p, c) -> Printf.sprintf "phi%d:%d" p c) row.histogram);
        ])
      rows
  in
  Printf.sprintf "Turquois decision phases (n=%d): unanimous runs decide in cycle 1 (phase 3),\ndivergent runs typically one cycle later (paper 7.3)\n%s"
    n
    (Util.Tablefmt.render ~header ~rows:table_rows ())

type ablation_row = {
  label : string;
  group : string;
  ab_samples : int;
  latency : Util.Stats.summary;
}

let ablations ~n ?(reps = 15) ?(base_seed = 9900L) ?jobs () =
  let collect ~group ~label ~load ~tick_policy ~auth_cost =
    let per_rep =
      Pool.map ?jobs ~tasks:reps (fun rep ->
          let seed = Int64.add base_seed (Int64.of_int rep) in
          let r =
            Runner.run ~protocol:Runner.Turquois ~n ~dist:Runner.Unanimous ~load ~tick_policy
              ~auth_cost ~timeout:60.0 ~seed ()
          in
          List.map (fun (_, latency) -> latency *. 1000.0) r.latencies)
    in
    let samples = Array.fold_left (fun acc l -> l @ acc) [] per_rep in
    { label; group; ab_samples = List.length samples; latency = Util.Stats.summarize samples }
  in
  [
    collect ~group:"authentication" ~label:"one-time hash signatures (paper)"
      ~load:Net.Fault.Failure_free ~tick_policy:Core.Turquois.Fixed_tick
      ~auth_cost:Core.Turquois.Onetime_cost;
    collect ~group:"authentication" ~label:"RSA sign/verify costs" ~load:Net.Fault.Failure_free
      ~tick_policy:Core.Turquois.Fixed_tick ~auth_cost:Core.Turquois.Rsa_cost;
    collect ~group:"pacing" ~label:"fixed 10 ms ticks (paper)" ~load:Net.Fault.Fail_stop
      ~tick_policy:Core.Turquois.Fixed_tick ~auth_cost:Core.Turquois.Onetime_cost;
    collect ~group:"pacing" ~label:"adaptive backoff-down ticks" ~load:Net.Fault.Fail_stop
      ~tick_policy:Core.Turquois.default_adaptive ~auth_cost:Core.Turquois.Onetime_cost;
  ]

let render_ablations ~n rows =
  let header = [ "design choice"; "variant"; "samples"; "latency (ms)" ] in
  let table_rows =
    List.map
      (fun row ->
        [
          row.group;
          row.label;
          string_of_int row.ab_samples;
          Util.Tablefmt.latency_cell ~mean:row.latency.mean ~ci:row.latency.ci95;
        ])
      rows
  in
  Printf.sprintf "Ablations (Turquois, n=%d)\n%s" n
    (Util.Tablefmt.render ~header ~rows:table_rows ())

type edge_row = {
  edge_n : int;
  edge_sigma : int;
  rate : float;
  edge : Util.Stats.summary;
  iid : Util.Stats.summary;
  edge_stalls : int;
  iid_stalls : int;
  edge_runs : int;
}

let sigma_edge_vs_loss ~ns ?(reps = 10) ?(base_seed = 1000L) () =
  let timeout = 10.0 in
  let censored_latencies (r : Runner.result) =
    List.map
      (fun i ->
        match List.assoc_opt i r.latencies with
        | Some l -> 1000.0 *. l
        | None -> 1000.0 *. timeout)
      r.correct
  in
  let stalls runs = List.length (List.filter (fun (r : Runner.result) -> r.timed_out) runs) in
  List.map
    (fun n ->
      let k = n - Net.Fault.max_f n in
      let run i ~loss_prob ?attach () =
        Runner.run ~protocol:Runner.Turquois ~n ~dist:Runner.Divergent
          ~load:Net.Fault.Failure_free ~loss:loss_prob ?attach ~timeout
          ~seed:(Int64.add base_seed (Int64.of_int (7000 + i)))
          ()
      in
      (* pass 1: the adaptive adversary, counting the drops it spends *)
      let edge_runs, drops =
        List.split
          (List.init reps (fun i ->
               let handle = ref None in
               let r =
                 run i ~loss_prob:0.0
                   ~attach:(fun radio ->
                     handle := Some (Net.Fault.sigma_edge radio ~n ~k ~t:0))
                   ()
               in
               (r, Option.fold ~none:0 ~some:Net.Fault.sigma_edge_drops !handle)))
      in
      let opportunities =
        List.fold_left (fun a (r : Runner.result) -> a + (r.frames_sent * (n - 1))) 0 edge_runs
      in
      let rate =
        if opportunities = 0 then 0.0
        else float_of_int (List.fold_left ( + ) 0 drops) /. float_of_int opportunities
      in
      (* pass 2: iid loss at the rate the adversary actually achieved *)
      let iid_runs = List.init reps (fun i -> run i ~loss_prob:rate ()) in
      {
        edge_n = n;
        edge_sigma = Obs.Analyze.sigma ~n ~k ~t:0;
        rate;
        edge = Util.Stats.summarize (List.concat_map censored_latencies edge_runs);
        iid = Util.Stats.summarize (List.concat_map censored_latencies iid_runs);
        edge_stalls = stalls edge_runs;
        iid_stalls = stalls iid_runs;
        edge_runs = reps;
      })
    ns

let render_sigma_edge rows =
  let header =
    [ "n"; "sigma"; "omission rate"; "sigma-edge"; "stalls"; "static loss"; "stalls" ]
  in
  let table_rows =
    List.map
      (fun row ->
        [
          string_of_int row.edge_n;
          string_of_int row.edge_sigma;
          Printf.sprintf "%.1f%%" (100.0 *. row.rate);
          Printf.sprintf "%.1f ms" row.edge.mean;
          Printf.sprintf "%d/%d" row.edge_stalls row.edge_runs;
          Printf.sprintf "%.1f ms" row.iid.mean;
          Printf.sprintf "%d/%d" row.iid_stalls row.edge_runs;
        ])
      rows
  in
  Printf.sprintf
    "Adaptive adversary (Turquois, divergent): sigma-edge omissions vs iid loss at the \
     same rate\n%s"
    (Util.Tablefmt.render ~header ~rows:table_rows ())
