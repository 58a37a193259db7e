(* turquois-lab: command-line front end for the reproduction experiments.

   Subcommands:
     tables     — regenerate the paper's Tables 1-3 (latency per fault load)
     sigma      — sweep the omission budget around the liveness bound
     phases     — decision-phase distributions (paper 7.3)
     ablations  — design-choice ablations and the sigma-edge adversary vs iid loss
     messages   — radio frames and bytes per consensus (message complexity)
     run        — one verbose consensus execution (or replay a saved reproducer)
     workload   — the pipelined consensus service under open-loop client load
     scaling    — Turquois vs sample-based consensus past n=16
     chaos      — randomized fault injection with invariant checking
     modelcheck — exhaustively check all adversary schedules of a small group
     analyze    — explain a run from its exported JSONL trace *)

open Cmdliner

let progress line = Printf.eprintf "  %s\n%!" line

(* --- tables -------------------------------------------------------------- *)

let load_of_table = function
  | 1 -> Net.Fault.Failure_free
  | 2 -> Net.Fault.Fail_stop
  | 3 -> Net.Fault.Byzantine
  | t -> invalid_arg (Printf.sprintf "no table %d (1, 2 or 3)" t)

let run_tables tables reps sizes seed timeout compare quiet jobs =
  let options =
    {
      Harness.Experiment.default_options with
      reps;
      group_sizes = sizes;
      base_seed = seed;
      timeout;
      progress = (if quiet then None else Some progress);
      jobs = Some jobs;
    }
  in
  List.iter
    (fun table ->
      let load = load_of_table table in
      let results = Harness.Experiment.run_table ~options load in
      print_string (Harness.Experiment.render_table load results);
      print_newline ();
      if compare then begin
        print_string (Harness.Experiment.render_comparison load results);
        print_newline ()
      end)
    tables;
  0

let tables_arg =
  let doc = "Which tables to regenerate (repeatable; default all three)." in
  Arg.(value & opt_all int [] & info [ "table"; "t" ] ~docv:"N" ~doc)

let reps_arg default =
  let doc = "Repetitions per cell (the paper uses 50)." in
  Arg.(value & opt int default & info [ "reps"; "r" ] ~docv:"REPS" ~doc)

let sizes_arg =
  let doc = "Group sizes to measure." in
  Arg.(value & opt (list int) Harness.Paper.group_sizes & info [ "sizes" ] ~docv:"N,..." ~doc)

let seed_arg =
  let doc = "Base seed; repetition i uses seed+i." in
  Arg.(value & opt int64 1000L & info [ "seed" ] ~docv:"SEED" ~doc)

let timeout_arg =
  let doc = "Per-run simulated-time limit in seconds." in
  Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let compare_arg =
  let doc = "Also print measured-vs-paper comparison tables." in
  Arg.(value & flag & info [ "compare"; "c" ] ~doc)

let quiet_arg =
  let doc = "Suppress per-cell progress on stderr." in
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for independent runs (default: available cores minus one). \
     Results are bit-identical for every value."
  in
  Arg.(value & opt int (Harness.Pool.default_jobs ()) & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let tables_cmd =
  let make tables reps sizes seed timeout compare quiet jobs =
    let tables = match tables with [] -> [ 1; 2; 3 ] | l -> l in
    run_tables tables reps sizes seed timeout compare quiet jobs
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's latency tables (Tables 1-3)")
    Term.(
      const make $ tables_arg $ reps_arg 50 $ sizes_arg $ seed_arg $ timeout_arg
      $ compare_arg $ quiet_arg $ jobs_arg)

(* --- sigma ---------------------------------------------------------------- *)

let run_sigma n k byz runs rounds beyond seed jobs =
  let k = match k with Some k -> k | None -> n - Net.Fault.max_f n in
  let byzantine = List.init byz (fun i -> n - 1 - i) in
  let rows =
    Harness.Sweeps.sigma_sweep ~n ~k ~byzantine ~runs_per_point:runs ~rounds ~beyond
      ~base_seed:seed ~jobs ()
  in
  print_string (Harness.Sweeps.render_sigma ~n ~k ~t:(List.length byzantine) rows);
  0

let sigma_cmd =
  let n_arg =
    Arg.(value & opt int 8 & info [ "n"; "size" ] ~docv:"N" ~doc:"Group size.")
  in
  let k_arg =
    Arg.(value & opt (some int) None & info [ "k" ] ~docv:"K" ~doc:"Processes required to decide (default n-f).")
  in
  let byz_arg =
    Arg.(value & opt int 0 & info [ "byzantine" ] ~docv:"T" ~doc:"Number of Byzantine processes.")
  in
  let runs_arg =
    Arg.(value & opt int 10 & info [ "runs" ] ~docv:"RUNS" ~doc:"Runs per sweep point.")
  in
  let rounds_arg =
    Arg.(value & opt int 120 & info [ "rounds" ] ~docv:"R" ~doc:"Round horizon per run.")
  in
  let beyond_arg =
    Arg.(value & opt int 4 & info [ "beyond" ] ~docv:"B" ~doc:"Sweep this far past sigma.")
  in
  Cmd.v
    (Cmd.info "sigma" ~doc:"Sweep omissions per round around the sigma liveness bound")
    Term.(
      const run_sigma $ n_arg $ k_arg $ byz_arg $ runs_arg $ rounds_arg $ beyond_arg
      $ seed_arg $ jobs_arg)

(* --- phases ---------------------------------------------------------------- *)

let run_phases n reps seed jobs =
  let rows =
    Harness.Sweeps.phase_distribution ~n ~reps ~base_seed:seed ~jobs
      ~loads:[ Net.Fault.Failure_free; Net.Fault.Byzantine ] ()
  in
  print_string (Harness.Sweeps.render_phases ~n rows);
  0

let phases_cmd =
  let n_arg = Arg.(value & opt int 10 & info [ "n"; "size" ] ~docv:"N" ~doc:"Group size.") in
  Cmd.v
    (Cmd.info "phases" ~doc:"Turquois decision-phase distributions (paper 7.3)")
    Term.(const run_phases $ n_arg $ reps_arg 30 $ seed_arg $ jobs_arg)

(* --- ablations --------------------------------------------------------------- *)

let run_ablations reps seed jobs =
  print_string
    (Harness.Sweeps.render_ablations ~n:10
       (Harness.Sweeps.ablations ~n:10 ~reps ~base_seed:seed ~jobs ()));
  print_newline ();
  print_string
    (Harness.Sweeps.render_sigma_edge
       (Harness.Sweeps.sigma_edge_vs_loss ~ns:[ 4; 7 ] ~reps ~base_seed:seed ()));
  0

let ablations_cmd =
  Cmd.v
    (Cmd.info "ablations"
       ~doc:
         "Design-choice ablations (authentication cost, retransmission pacing; Turquois, \
          n=10) and the sigma-edge omission adversary against iid loss at the same rate \
          (n=4 and n=7)")
    Term.(const run_ablations $ reps_arg 10 $ seed_arg $ jobs_arg)

(* --- messages ---------------------------------------------------------------- *)

let run_messages sizes reps seed =
  (* radio frames and bytes per consensus execution: the O(n^2) / O(n^3)
     message-complexity separation of Section 7 *)
  let header = [ "Group" ] @ List.concat_map (fun p -> [ p ^ " frames"; p ^ " kB" ])
      [ "Turquois"; "ABBA"; "Bracha" ] in
  let rows =
    List.map
      (fun n ->
        Printf.sprintf "n = %d" n
        :: List.concat_map
             (fun protocol ->
               let frames = ref [] and bytes = ref [] in
               for rep = 0 to reps - 1 do
                 let r =
                   Harness.Runner.run ~protocol ~n ~dist:Harness.Runner.Unanimous
                     ~load:Net.Fault.Failure_free
                     ~seed:(Int64.add seed (Int64.of_int rep)) ()
                 in
                 frames := float_of_int r.frames_sent :: !frames;
                 bytes := float_of_int r.bytes_sent :: !bytes
               done;
               [
                 Printf.sprintf "%.0f" (Util.Stats.mean !frames);
                 Printf.sprintf "%.1f" (Util.Stats.mean !bytes /. 1024.0);
               ])
             [ Harness.Runner.Turquois; Harness.Runner.Abba; Harness.Runner.Bracha ])
      sizes
  in
  print_string "Radio frames and kilobytes per failure-free unanimous consensus
";
  print_string (Util.Tablefmt.render ~header ~rows ());
  0

let messages_cmd =
  Cmd.v
    (Cmd.info "messages"
       ~doc:"Frames/bytes per consensus: the message-complexity separation")
    Term.(const run_messages $ sizes_arg $ reps_arg 5 $ seed_arg)

(* --- run ------------------------------------------------------------------- *)

let protocol_conv =
  let parse s =
    Option.to_result
      ~none:(`Msg (Printf.sprintf "unknown protocol %S" s))
      (Harness.Runner.protocol_of_string s)
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Harness.Runner.protocol_to_string p))

let load_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "failure-free" | "none" -> Ok Net.Fault.Failure_free
    | "fail-stop" | "crash" -> Ok Net.Fault.Fail_stop
    | "byzantine" | "byz" -> Ok Net.Fault.Byzantine
    | other -> Error (`Msg (Printf.sprintf "unknown fault load %S" other))
  in
  Arg.conv (parse, fun fmt l -> Format.pp_print_string fmt (Net.Fault.load_to_string l))

let run_replay file =
  match Model.Codec.load file with
  | Error msg ->
      Printf.eprintf "replay: %s\n" msg;
      1
  | Ok artifact ->
      Printf.printf "replay %s\n  %s\n" file (Model.Codec.describe artifact);
      let v = Model.Replay.run artifact in
      Printf.printf "  %s\n" v.detail;
      List.iter (fun s -> Printf.printf "    %s\n" s) v.violations;
      if v.ok then begin
        Printf.printf "  reproduced: outcome matches the artifact\n";
        0
      end
      else begin
        Printf.printf "  REPLAY MISMATCH: behavior changed since this artifact was extracted\n";
        1
      end

let run_single replay protocol n divergent load seed loss trace metrics trace_json profile
    sigma_edge =
  match replay with
  | Some file -> run_replay file
  | None ->
  let dist = if divergent then Harness.Runner.Divergent else Harness.Runner.Unanimous in
  if trace || trace_json <> None then Obs.Trace2.start ();
  if profile then Obs.Prof.enable ();
  let attach =
    if not sigma_edge then None
    else
      Some
        (fun radio ->
          let k = n - Net.Fault.max_f n in
          ignore (Net.Fault.sigma_edge radio ~n ~k ~t:0))
  in
  let result =
    Harness.Runner.run ~protocol ~n ~dist ~load ~loss ~seed ?attach ()
  in
  Printf.printf "%s n=%d %s %s (seed %Ld)\n" (Harness.Runner.protocol_to_string protocol) n
    (Harness.Runner.dist_to_string dist)
    (Net.Fault.load_to_string load)
    seed;
  Printf.printf "  decided: %d/%d correct processes, agreement=%b validity=%b%s\n"
    (List.length result.latencies) (List.length result.correct) result.agreement
    result.validity
    (if result.timed_out then " TIMED-OUT" else "");
  List.iter
    (fun (i, latency) ->
      let value = List.assoc i result.decisions in
      let phase = List.assoc i result.decision_phases in
      Printf.printf "  p%-2d -> %d  at phase/round %-3d latency %8.2f ms\n" i value phase
        (latency *. 1000.0))
    result.latencies;
  Printf.printf "  radio: %d frames, %d bytes, %.3f s simulated\n" result.frames_sent
    result.bytes_sent result.duration;
  if metrics then begin
    print_endline "\n--- metrics ---";
    print_string (Obs.Metrics.render_table result.metrics)
  end;
  if profile then begin
    print_endline "\n--- hot-path profile (host wall clock; simulated results unaffected) ---";
    print_string (Obs.Prof.render_table (Obs.Prof.snapshot ()));
    Obs.Prof.disable ()
  end;
  (match trace_json with
  | None -> ()
  | Some file ->
      let written = Obs.Trace2.export_file file in
      Printf.printf "\nwrote %d trace events to %s (%d dropped at the trace limit)\n" written
        file (Obs.Trace2.dropped ()));
  if trace then begin
    Obs.Trace2.stop ();
    print_endline "\n--- protocol-level trace (radio tx suppressed; use the Trace API for all) ---";
    print_string
      (Obs.Trace2.render ~filter:(fun e -> e.Obs.Trace2.layer <> "radio") ~max_events:400 ())
  end
  else if trace_json <> None then Obs.Trace2.stop ();
  0

let run_cmd =
  let protocol_arg =
    Arg.(value & opt protocol_conv Harness.Runner.Turquois
         & info [ "protocol"; "p" ] ~docv:"PROTO" ~doc:"turquois, abba or bracha.")
  in
  let n_arg = Arg.(value & opt int 7 & info [ "n"; "size" ] ~docv:"N" ~doc:"Group size.") in
  let divergent_arg =
    Arg.(value & flag & info [ "divergent" ] ~doc:"Divergent proposals (default unanimous).")
  in
  let load_arg =
    Arg.(value & opt load_conv Net.Fault.Failure_free
         & info [ "load" ] ~docv:"LOAD" ~doc:"failure-free, fail-stop or byzantine.")
  in
  let loss_arg =
    Arg.(value & opt float Net.Fault.benign_loss
         & info [ "loss" ] ~docv:"P" ~doc:"Per-receiver omission probability.")
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Dump the protocol event trace afterwards.")
  in
  let metrics_arg =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Print the per-run metrics table.")
  in
  let trace_json_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-json" ] ~docv:"FILE"
             ~doc:"Export the structured trace as JSONL to $(docv) (readable by the analyze subcommand).")
  in
  let profile_arg =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Print a hot-path span profile (decode, verify, MAC contention, engine \
                   pop, Vset tally) after the run. Host wall clock only; simulated \
                   results are bit-identical with or without it.")
  in
  let sigma_edge_arg =
    Arg.(value & flag
         & info [ "sigma-edge" ]
             ~doc:"Attach the sigma-edge omission adversary (worst-case Section 5 drop \
                   schedule at exactly the liveness bound).")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay a saved reproducer artifact (from modelcheck --out or chaos \
                   --repro-out) instead of a fresh run, verify it reproduces its recorded \
                   outcome, and exit non-zero on any mismatch. All other run options are \
                   ignored: the artifact pins the full configuration.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"One verbose consensus execution")
    Term.(
      const run_single $ replay_arg $ protocol_arg $ n_arg $ divergent_arg $ load_arg
      $ seed_arg $ loss_arg $ trace_arg $ metrics_arg $ trace_json_arg $ profile_arg
      $ sigma_edge_arg)

(* --- chaos ------------------------------------------------------------------ *)

let strategy_conv =
  let parse s =
    match Core.Strategy.of_string s with
    | Some strategy -> Ok strategy
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown strategy %S (known: %s)" s
               (String.concat ", " (List.map Core.Strategy.name Core.Strategy.all))))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Core.Strategy.name s))

let rec mkdirs dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* One replayable artifact per failure, under the model-checker codec so
   [run --replay] consumes chaos reproducers and modelcheck schedules
   alike. The expectation is re-measured on the minimal schedule (the
   recorded violations belong to the pre-shrink one); if shrinking ever
   overfit, the full schedule is written instead. *)
let write_repro dir ~n ~bug (f : Harness.Chaos.failure) =
  mkdirs dir;
  let strategy =
    Option.map (fun s -> Option.get (Core.Strategy.of_string s)) f.strategy
  in
  let check schedule =
    Harness.Chaos.check_schedule ~protocol:f.protocol ~n ~bug ~dist:f.dist ?strategy ~schedule
      ~seed:f.seed ()
  in
  let schedule, violations =
    match check f.shrunk with
    | [] -> (f.schedule, check f.schedule)
    | vs -> (f.shrunk, vs)
  in
  let artifact =
    Model.Codec.Radio
      {
        c_protocol = f.protocol;
        c_n = n;
        c_dist = f.dist;
        c_strategy = f.strategy;
        c_seed = f.seed;
        c_bug = bug <> Harness.Chaos.No_bug;
        c_schedule = schedule;
        c_expect = violations;
        c_note = Printf.sprintf "chaos run %d minimal reproducer" f.index;
      }
  in
  let path =
    Filename.concat dir
      (Printf.sprintf "chaos-%s-run%d.json"
         (String.lowercase_ascii (Harness.Runner.protocol_to_string f.protocol))
         f.index)
  in
  Model.Codec.save path artifact;
  Printf.printf "  wrote reproducer %s (replay: turquois_lab run --replay %s)\n" path path

let run_chaos runs seed n strategy broken with_sampled repro_out quiet jobs =
  let log = if quiet then fun _ -> () else progress in
  let bug = if broken then Harness.Chaos.Flip_reported_decision else Harness.Chaos.No_bug in
  let protocols =
    Harness.Chaos.default_protocols
    @ (if with_sampled then [ Harness.Runner.Sampled ] else [])
  in
  let report = Harness.Chaos.run_chaos ~n ~bug ?strategy ~protocols ~log ~jobs ~runs ~seed () in
  Printf.printf
    "chaos: %d run(s) x {%s}, seed %Ld, n=%d\n\
    \  liveness checkable on %d schedule(s); %d violation(s)\n"
    report.runs
    (String.concat ", " (List.map Harness.Runner.protocol_to_string protocols))
    seed n report.liveness_checked
    (List.length report.failures);
  List.iter
    (fun (f : Harness.Chaos.failure) ->
      Printf.printf
        "  VIOLATION run %d, %s, seed %Ld%s:\n    %s\n    minimal schedule: %s\n\
        \    replay: turquois_lab chaos --runs %d --seed %Ld%s\n"
        f.index
        (Harness.Runner.protocol_to_string f.protocol)
        f.seed
        (match f.strategy with Some s -> ", strategy " ^ s | None -> "")
        (String.concat "; " f.violations)
        (Net.Schedule.to_string f.shrunk) (f.index + 1) seed
        (match f.strategy with Some s -> " --strategy " ^ s | None -> ""))
    report.failures;
  (match repro_out with
  | Some dir -> List.iter (write_repro dir ~n ~bug) report.failures
  | None -> ());
  if report.failures = [] then 0 else 1

let chaos_cmd =
  let runs_arg =
    Arg.(value & opt int 50 & info [ "runs" ] ~docv:"RUNS" ~doc:"Randomized runs to execute.")
  in
  let n_arg =
    Arg.(value & opt int 4 & info [ "n"; "size" ] ~docv:"N" ~doc:"Group size per run.")
  in
  let strategy_arg =
    Arg.(value & opt (some strategy_conv) None
         & info [ "strategy" ] ~docv:"NAME"
             ~doc:"Pin every Byzantine run to one strategy (default: rotate through all).")
  in
  let broken_arg =
    Arg.(value & flag
         & info [ "broken-machine" ]
             ~doc:"Inject a deliberately broken machine (flipped reported decision); the \
                   harness must detect it and exit non-zero.")
  in
  let repro_out_arg =
    Arg.(value & opt (some string) None
         & info [ "repro-out" ] ~docv:"DIR"
             ~doc:"Write each failure's minimal schedule to $(docv) as a replayable \
                   artifact (one JSON file per failure) for run --replay.")
  in
  let with_sampled_arg =
    Arg.(value & flag
         & info [ "with-sampled" ]
             ~doc:"Also subject the sample-based probabilistic consensus to every \
                   schedule. Opt-in: its guarantees are probabilistic, so it rides \
                   along rather than gating the default rotation.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Randomized fault-injection runs with safety/liveness invariant checking")
    Term.(
      const run_chaos $ runs_arg $ seed_arg $ n_arg $ strategy_arg $ broken_arg
      $ with_sampled_arg $ repro_out_arg $ quiet_arg $ jobs_arg)

(* --- workload ---------------------------------------------------------------- *)

let arrival_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "poisson" -> Ok Harness.Workload.Poisson
    | s -> (
        match String.index_opt s ':' with
        | Some i when String.sub s 0 i = "burst" -> (
            match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
            | Some b when b > 0 -> Ok (Harness.Workload.Bursty b)
            | _ -> Error (`Msg "burst size must be a positive integer"))
        | _ -> Error (`Msg (Printf.sprintf "unknown arrival %S (poisson or burst:N)" s)))
  in
  let print fmt = function
    | Harness.Workload.Poisson -> Format.pp_print_string fmt "poisson"
    | Harness.Workload.Bursty b -> Format.fprintf fmt "burst:%d" b
  in
  Arg.conv (parse, print)

let run_workload n capacity window max_batch loads arrival commands cmd_bytes loss reps seed
    timeout jobs =
  match
    let base =
    {
      (Harness.Workload.default ~n) with
      capacity;
      window;
      max_batch;
      arrival;
      commands;
      cmd_bytes;
      loss;
      timeout;
      seed;
    }
  in
  (match loads with
  | [ load ] when reps = 1 ->
      (* Single point, single rep: the verbose per-run view. *)
      let r = Harness.Workload.run { base with load } in
      Printf.printf
        "workload n=%d capacity=%d window=%d batch<=%d %s load=%.1f cmd/s (seed %Ld)\n" n
        capacity window max_batch
        (match arrival with
        | Harness.Workload.Poisson -> "poisson"
        | Harness.Workload.Bursty b -> Printf.sprintf "burst:%d" b)
        load seed;
      Printf.printf "  delivered %d/%d commands over %.2f s simulated\n" r.delivered_commands
        r.commands r.duration;
      Printf.printf "  slots: %d committed, %d skipped (no-ops)\n" r.committed_slots
        r.skipped_slots;
      Printf.printf "  throughput %.1f cmd/s   decisions %.1f slots/s\n" r.throughput
        r.decisions_per_sec;
      Printf.printf "  latency p50 %.1f ms   p99 %.1f ms\n" (r.latency_p50 *. 1000.0)
        (r.latency_p99 *. 1000.0)
  | _ ->
      let points = Harness.Workload.sweep ~jobs ~base ~loads ~reps () in
      print_string (Harness.Workload.render_points points))
  with
  | () -> 0
  | exception Invalid_argument msg ->
      Printf.eprintf "turquois-lab: %s\n" msg;
      2

let workload_cmd =
  let n_arg = Arg.(value & opt int 4 & info [ "n"; "size" ] ~docv:"N" ~doc:"Group size.") in
  let capacity_arg =
    Arg.(value & opt int 24 & info [ "capacity" ] ~docv:"SLOTS" ~doc:"Total log slots.")
  in
  let window_arg =
    Arg.(
      value & opt int 1
      & info [ "window" ] ~docv:"W"
          ~doc:
            "Pipeline depth. On the contention-modeled medium, wider windows \
             trade airtime congestion for little throughput; 1-2 is usually \
             best.")
  in
  let max_batch_arg =
    Arg.(value & opt int 8 & info [ "max-batch" ] ~docv:"B" ~doc:"Commands per slot.")
  in
  let loads_arg =
    Arg.(value & opt (list float) [ 50.0 ]
         & info [ "load" ] ~docv:"CMD/S,..."
             ~doc:"Offered load point(s). One load with one rep prints a verbose \
                   single-run view; otherwise a sweep table with the saturation knee.")
  in
  let arrival_arg =
    Arg.(value & opt arrival_conv Harness.Workload.Poisson
         & info [ "arrival" ] ~docv:"KIND" ~doc:"poisson or burst:N.")
  in
  let commands_arg =
    Arg.(value & opt int 60 & info [ "commands" ] ~docv:"C" ~doc:"Commands injected per run.")
  in
  let cmd_bytes_arg =
    Arg.(value & opt int 16 & info [ "cmd-bytes" ] ~docv:"BYTES" ~doc:"Filler bytes per command.")
  in
  let loss_arg =
    Arg.(value & opt float 0.01
         & info [ "loss" ] ~docv:"P" ~doc:"Per-receiver omission probability.")
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Drive the pipelined consensus service with an open-loop client workload and \
          report sustained decisions, throughput versus offered load and command latency")
    Term.(
      const run_workload $ n_arg $ capacity_arg $ window_arg $ max_batch_arg $ loads_arg
      $ arrival_arg $ commands_arg $ cmd_bytes_arg $ loss_arg $ reps_arg 3 $ seed_arg
      $ timeout_arg $ jobs_arg)

(* --- scaling ------------------------------------------------------------------ *)

let run_scaling sizes turquois_cap radio_cap timeout seed jobs =
  match
    Harness.Scaling.sweep ~jobs ~ns:sizes ~turquois_cap ~radio_cap ~timeout ~seed ()
  with
  | points ->
      (* stdout is a deterministic function of the arguments (memory is
         JSON-only), so -j 1 and -j N outputs are byte-comparable *)
      print_string (Harness.Scaling.render points);
      0
  | exception Invalid_argument msg ->
      Printf.eprintf "turquois-lab: %s\n" msg;
      2

let scaling_cmd =
  let sizes_arg =
    Arg.(value & opt (list int) Harness.Scaling.default_ns
         & info [ "sizes" ] ~docv:"N,..." ~doc:"Group sizes to sweep.")
  in
  let turquois_cap_arg =
    Arg.(value & opt int 128
         & info [ "turquois-cap" ] ~docv:"N"
             ~doc:"Largest n at which the all-to-all Turquois baseline still runs \
                   (0 disables it).")
  in
  let radio_cap_arg =
    Arg.(value & opt int 256
         & info [ "radio-cap" ] ~docv:"N"
             ~doc:"Largest n at which the sampled protocol also runs over the \
                   contended 802.11b stack (0 disables that task).")
  in
  let timeout_arg =
    Arg.(value & opt float 30.0
         & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-point simulated-time limit.")
  in
  Cmd.v
    (Cmd.info "scaling"
       ~doc:
         "Scaling sweep past the paper's testbed: Turquois vs the sample-based \
          consensus at n = 16..1024, with latency, traffic, airtime and engine \
          high-water marks per point")
    Term.(
      const run_scaling $ sizes_arg $ turquois_cap_arg $ radio_cap_arg
      $ timeout_arg $ seed_arg $ jobs_arg)

(* --- modelcheck -------------------------------------------------------------- *)

let run_modelcheck n k byz budget exact rounds strategies divergent seed jobs max_states out
    quiet =
  let log = if quiet then fun _ -> () else progress in
  let byzantine = Option.map (fun t -> List.init t (fun i -> n - 1 - i)) byz in
  let dist = if divergent then Some Harness.Runner.Divergent else None in
  let cfg =
    Model.Checker.config ~n ?k ?byzantine ?dist ?budget ~exact_budget:exact
      ?alphabet:strategies ~rounds ~seed ~jobs ~max_states ()
  in
  let t = List.length cfg.byzantine in
  let sigma = Core.Proto.sigma { (Core.Proto.default_config ~n) with k = cfg.k } ~t in
  let result = Model.Checker.check ~log cfg in
  let s = result.stats in
  Printf.printf "modelcheck n=%d k=%d t=%d %s budget=%d%s rounds=%d (sigma=%d)\n" n cfg.k t
    (Harness.Runner.dist_to_string cfg.dist)
    cfg.budget
    (if cfg.exact_budget then " exact" else "")
    cfg.rounds sigma;
  Printf.printf
    "  explored %d states over %d transitions (%d choices/round, %d duplicates pruned, \
     frontier peak %d)\n"
    s.states s.transitions s.choices_per_round s.dedup_hits s.frontier_peak;
  if s.pruned > 0 then
    Printf.printf "  state cap %d exceeded: %d states kept without dedup (lossy)\n"
      cfg.max_states s.pruned;
  let save artifact =
    match out with
    | None -> ()
    | Some path ->
        Model.Codec.save path (Model.Codec.Rounds artifact);
        Printf.printf "  wrote %s (replay: turquois_lab run --replay %s)\n" path path
  in
  match result.outcome with
  | Violation artifact ->
      Printf.printf "  VIOLATION after %d round(s): %s\n"
        (List.length artifact.r_rounds)
        (match artifact.r_expect with
        | Model.Codec.Violations vs -> String.concat "; " vs
        | _ -> "");
      save artifact;
      1
  | Safe { worst; min_deciders; min_advanced } ->
      Printf.printf
        "  safety: agreement, validity and integrity hold on every reachable state\n";
      Printf.printf "  worst horizon state: deciders=%d advanced=%d (k=%d, min deciders %d, \
                     min advanced %d)\n"
        (match worst.r_expect with
        | Model.Codec.Stall { deciders; _ } -> deciders
        | _ -> 0)
        (match worst.r_expect with
        | Model.Codec.Stall { advanced; _ } -> advanced
        | _ -> 0)
        cfg.k min_deciders min_advanced;
      let correct = n - t in
      Printf.printf "  worst-case deliveries per round: [%s] of %d correct-pair transmissions\n"
        (String.concat "; "
           (List.map string_of_int (Model.Codec.delivered_per_round worst)))
        (correct * (correct - 1));
      save worst;
      0

let modelcheck_cmd =
  let n_arg =
    Arg.(value & opt int 4 & info [ "n"; "size" ] ~docv:"N" ~doc:"Group size.")
  in
  let k_arg =
    Arg.(value & opt (some int) None
         & info [ "k" ] ~docv:"K" ~doc:"Processes required to decide (default n-f).")
  in
  let byz_arg =
    Arg.(value & opt (some int) None
         & info [ "byzantine" ] ~docv:"T"
             ~doc:"Number of Byzantine processes (default f = (n-1)/3; the highest ids).")
  in
  let budget_arg =
    Arg.(value & opt (some int) None
         & info [ "budget" ] ~docv:"B"
             ~doc:"Per-round omission budget among correct pairs (default sigma).")
  in
  let exact_arg =
    Arg.(value & flag
         & info [ "exact-budget" ]
             ~doc:"Enumerate only omission patterns of exactly the budget size (sound for \
                   stall-witness search, much cheaper).")
  in
  let rounds_arg =
    Arg.(value & opt int 2 & info [ "rounds" ] ~docv:"R" ~doc:"Round horizon.")
  in
  let strategies_arg =
    Arg.(value & opt (some (list strategy_conv)) None
         & info [ "strategies" ] ~docv:"NAME,..."
             ~doc:"Byzantine per-round choice alphabet (default: every deterministic \
                   strategy). Per-round silence subsumes crash points.")
  in
  let divergent_arg =
    Arg.(value & flag & info [ "divergent" ] ~doc:"Divergent proposals (default unanimous).")
  in
  let max_states_arg =
    Arg.(value & opt int 2_000_000
         & info [ "max-states" ] ~docv:"S"
             ~doc:"Per-level dedup-table cap; past it dedup degrades to lossy (results \
                   stay exact, duplicates may re-expand).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the extracted schedule (the violation, or the worst-case \
                   liveness schedule) as a replayable artifact for run --replay.")
  in
  Cmd.v
    (Cmd.info "modelcheck"
       ~doc:
         "Exhaustively check every adversary schedule of a small group up to a round \
          horizon: prove safety or emit a violating schedule, and extract the worst-case \
          liveness schedule as a replayable artifact")
    Term.(
      const run_modelcheck $ n_arg $ k_arg $ byz_arg $ budget_arg $ exact_arg $ rounds_arg
      $ strategies_arg $ divergent_arg $ seed_arg $ jobs_arg $ max_states_arg $ out_arg
      $ quiet_arg)

(* --- analyze ---------------------------------------------------------------- *)

let run_analyze file n k t causal timeline require_causal =
  match Obs.Trace2.load_file file with
  | Error msg ->
      Printf.eprintf "analyze: %s\n" msg;
      1
  | Ok (events, skipped, dropped) ->
      if skipped > 0 then
        Printf.eprintf "analyze: skipped %d malformed line(s) in %s\n" skipped file;
      if events = [] then begin
        Printf.eprintf "analyze: no trace events in %s\n" file;
        1
      end
      else begin
        print_string (Obs.Analyze.analyze ?n ?k ?t ~dropped events);
        if timeline then begin
          print_newline ();
          print_string (Obs.Timeline.render ?n events)
        end;
        if causal || require_causal then begin
          print_newline ();
          print_string (Obs.Analyze.causal ?n ?k ?t events)
        end;
        if require_causal
           && Hashtbl.length (Obs.Causal.build events).Obs.Causal.sends = 0
        then begin
          Printf.eprintf "analyze: no causal message ids in %s (--require-causal)\n" file;
          1
        end
        else 0
      end

let analyze_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"JSONL trace produced by run --trace-json.")
  in
  let n_arg =
    Arg.(value & opt (some int) None
         & info [ "n" ] ~docv:"N" ~doc:"Override the group size recorded in the trace.")
  in
  let k_arg =
    Arg.(value & opt (some int) None
         & info [ "k" ] ~docv:"K" ~doc:"Override the decision threshold k.")
  in
  let t_arg =
    Arg.(value & opt (some int) None
         & info [ "t" ] ~docv:"T" ~doc:"Override the Byzantine count t.")
  in
  let causal_arg =
    Arg.(value & flag
         & info [ "causal" ]
             ~doc:"Also reconstruct the happens-before DAG: decision justification \
                   chains, and each stall window attributed to the dropped/jammed \
                   message ids the lagging receivers were missing.")
  in
  let timeline_arg =
    Arg.(value & flag
         & info [ "timeline" ]
             ~doc:"Also render a per-node ASCII Gantt (phase / decided / crashed \
                   intervals).")
  in
  let require_causal_arg =
    Arg.(value & flag
         & info [ "require-causal" ]
             ~doc:"Run the causal analysis and exit non-zero unless the trace carries \
                   causal message ids (tagged sends) — an exit-code gate for CI instead \
                   of grepping the report.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Reconstruct airtime, per-round timelines and a sigma stall report from a JSONL trace")
    Term.(
      const run_analyze $ file_arg $ n_arg $ k_arg $ t_arg $ causal_arg $ timeline_arg
      $ require_causal_arg)

let main_cmd =
  let doc = "Turquois (DSN 2010) reproduction laboratory" in
  Cmd.group (Cmd.info "turquois-lab" ~doc)
    [
      tables_cmd;
      sigma_cmd;
      phases_cmd;
      ablations_cmd;
      messages_cmd;
      run_cmd;
      workload_cmd;
      scaling_cmd;
      chaos_cmd;
      modelcheck_cmd;
      analyze_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
