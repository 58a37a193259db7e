type cell = {
  protocol : Runner.protocol;
  n : int;
  dist : Runner.dist;
  load : Net.Fault.load;
}

type cell_result = {
  cell : cell;
  summary : Util.Stats.summary;
  decided_fraction : float;
  phase_summary : Util.Stats.summary option;
  agreement_violations : int;
  validity_violations : int;
  timeouts : int;
}

let run_cell ?(reps = 50) ?(base_seed = 1000L) ?(timeout = 120.0) ?jobs cell =
  (* repetitions are independent and seeded by their index, so they run
     on the pool; the fold below walks results in slot (= rep) order,
     keeping every aggregate bit-identical to sequential execution *)
  let results =
    Pool.map ?jobs ~tasks:reps (fun rep ->
        let seed = Int64.add base_seed (Int64.of_int rep) in
        Runner.run ~protocol:cell.protocol ~n:cell.n ~dist:cell.dist ~load:cell.load
          ~timeout ~seed ())
  in
  let latencies = ref [] in
  let phases = ref [] in
  let deciders = ref 0 in
  let correct_total = ref 0 in
  let agreement_violations = ref 0 in
  let validity_violations = ref 0 in
  let timeouts = ref 0 in
  Array.iter
    (fun (result : Runner.result) ->
      List.iter (fun (_, l) -> latencies := (l *. 1000.0) :: !latencies) result.latencies;
      List.iter (fun (_, p) -> phases := float_of_int p :: !phases) result.decision_phases;
      deciders := !deciders + List.length result.latencies;
      correct_total := !correct_total + List.length result.correct;
      if not result.agreement then incr agreement_violations;
      if not result.validity then incr validity_violations;
      if result.timed_out then incr timeouts)
    results;
  if !latencies = [] then
    invalid_arg "Experiment.run_cell: no repetition produced a decision";
  {
    cell;
    summary = Util.Stats.summarize !latencies;
    decided_fraction = float_of_int !deciders /. float_of_int (max 1 !correct_total);
    phase_summary = (match !phases with [] -> None | ps -> Some (Util.Stats.summarize ps));
    agreement_violations = !agreement_violations;
    validity_violations = !validity_violations;
    timeouts = !timeouts;
  }

type table_options = {
  reps : int;
  group_sizes : int list;
  protocols : Runner.protocol list;
  base_seed : int64;
  timeout : float;
  progress : (string -> unit) option;
  jobs : int option;
}

let default_options =
  {
    reps = 50;
    group_sizes = Paper.group_sizes;
    protocols = [ Runner.Turquois; Runner.Abba; Runner.Bracha ];
    base_seed = 1000L;
    timeout = 120.0;
    progress = None;
    jobs = None;
  }

let table_number = function
  | Net.Fault.Failure_free -> 1
  | Net.Fault.Fail_stop -> 2
  | Net.Fault.Byzantine -> 3

let run_table ?(options = default_options) load =
  let cells = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun protocol ->
          List.iter
            (fun dist ->
              let cell = { protocol; n; dist; load } in
              (match options.progress with
              | Some report ->
                  report
                    (Printf.sprintf "table %d: %s n=%d %s (%d reps)" (table_number load)
                       (Runner.protocol_to_string protocol) n (Runner.dist_to_string dist)
                       options.reps)
              | None -> ());
              let result =
                run_cell ~reps:options.reps ~base_seed:options.base_seed
                  ~timeout:options.timeout ?jobs:options.jobs cell
              in
              cells := result :: !cells)
            [ Runner.Unanimous; Runner.Divergent ])
        options.protocols)
    options.group_sizes;
  List.rev !cells

let find results ~protocol ~n ~dist =
  List.find_opt
    (fun r -> r.cell.protocol = protocol && r.cell.n = n && r.cell.dist = dist)
    results

let header_for results =
  let protocols =
    List.sort_uniq compare (List.map (fun r -> r.cell.protocol) results)
  in
  (* keep the paper's column order *)
  let ordered =
    List.filter (fun p -> List.mem p protocols) [ Runner.Turquois; Runner.Abba; Runner.Bracha ]
  in
  ( ordered,
    "Group"
    :: List.concat_map
         (fun p ->
           let name = Runner.protocol_to_string p in
           [ name ^ " unan."; name ^ " diver." ])
         ordered )

let render_table load results =
  let protocols, header = header_for results in
  let sizes = List.sort_uniq compare (List.map (fun r -> r.cell.n) results) in
  let rows =
    List.map
      (fun n ->
        Printf.sprintf "n = %d" n
        :: List.concat_map
             (fun p ->
               List.map
                 (fun dist ->
                   match find results ~protocol:p ~n ~dist with
                   | Some r ->
                       Util.Tablefmt.latency_cell ~mean:r.summary.mean ~ci:r.summary.ci95
                   | None -> "-")
                 [ Runner.Unanimous; Runner.Divergent ])
             protocols)
      sizes
  in
  Printf.sprintf "Table %d (%s fault load): average latency ± 95%% CI (ms)\n%s"
    (table_number load)
    (Net.Fault.load_to_string load)
    (Util.Tablefmt.render ~header ~rows ())

let render_comparison load results =
  let protocols, _ = header_for results in
  let sizes = List.sort_uniq compare (List.map (fun r -> r.cell.n) results) in
  let header =
    [ "Cell"; "measured (ms)"; "paper (ms)"; "ratio" ]
  in
  let rows =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun p ->
            List.filter_map
              (fun dist ->
                match find results ~protocol:p ~n ~dist with
                | None -> None
                | Some r ->
                    let measured = r.summary.mean in
                    let name =
                      Printf.sprintf "%s n=%d %s" (Runner.protocol_to_string p) n
                        (Runner.dist_to_string dist)
                    in
                    let paper_cell, ratio =
                      match Paper.value ~load ~protocol:p ~n ~dist with
                      | Some (mean, ci) ->
                          ( Util.Tablefmt.latency_cell ~mean ~ci,
                            Printf.sprintf "%.2fx" (measured /. mean) )
                      | None -> ("-", "-")
                    in
                    Some
                      [
                        name;
                        Util.Tablefmt.latency_cell ~mean:measured ~ci:r.summary.ci95;
                        paper_cell;
                        ratio;
                      ])
              [ Runner.Unanimous; Runner.Divergent ])
          protocols)
      sizes
  in
  Printf.sprintf "Table %d vs paper\n%s" (table_number load)
    (Util.Tablefmt.render ~header ~rows ())
