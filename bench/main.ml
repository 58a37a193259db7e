(* The two regression gates. Each writes a fixed, deterministic slice of
   the benchmark surface to a committed document, and --compare re-runs
   a document with the parameters it records and diffs the two under
   Harness.Gate's rules:

     BENCH_baseline.json  the regression-gate grid (-j 1): host wall
                          clock of a sigma sweep, a table cell, a chaos
                          batch and a workload run, plus the traffic of
                          representative runs
     BENCH_scaling.json   the scaling sweep (Harness.Scaling)

       dune exec bench/main.exe -- --baseline-out BENCH_baseline.json
       dune exec bench/main.exe -- --scaling-out BENCH_scaling.json -j 1
       dune exec bench/main.exe -- --compare BENCH_baseline.json

   The paper's tables and the other reports are turquois_lab
   subcommands. *)

let seed = 1000L
let jobs = ref (Harness.Pool.default_jobs ())
let baseline_out = ref None
let scaling_out = ref None
let compare_against = ref None

let speclist =
  [
    ( "--baseline-out",
      Arg.String (fun f -> baseline_out := Some f),
      "FILE run the regression-gate grid (-j 1) and write its baseline to FILE" );
    ( "--scaling-out",
      Arg.String (fun f -> scaling_out := Some f),
      "FILE run the scaling sweep (Turquois vs sample-based consensus at \
       16/64/128/256/1024) and write its document to FILE" );
    ( "--compare",
      Arg.String (fun f -> compare_against := Some f),
      "FILE re-run the gate that wrote FILE with the parameters FILE records; exit 1 \
       when any field fails" );
    ( "-j",
      Arg.Set_int jobs,
      "N worker domains for the scaling sweep (default: cores minus one); results are \
       bit-identical for every N" );
    ("--jobs", Arg.Set_int jobs, "N same as -j");
  ]

(* The regression-gate grid (-j 1). Its wall-clock sections catch
   performance regressions; the traffic of its representative runs is
   bit-deterministic for a fixed seed, so any drift there signals a
   protocol behavior change: rebaseline deliberately with
   --baseline-out when that change is intentional. *)
let gate_grid ~seed =
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let n = 8 in
  let k = n - Net.Fault.max_f n in
  Harness.Runner.clear_key_cache ();
  let _, sweep_s =
    time (fun () ->
        Harness.Sweeps.sigma_sweep_merged ~n ~k ~runs_per_point:8 ~rounds:90 ~beyond:3
          ~base_seed:seed ~jobs:1 ())
  in
  let _, cell_s =
    time (fun () ->
        Harness.Experiment.run_cell ~reps:12 ~base_seed:seed ~jobs:1
          {
            Harness.Experiment.protocol = Harness.Runner.Turquois;
            n = 7;
            dist = Harness.Runner.Divergent;
            load = Net.Fault.Failure_free;
          })
  in
  let _, chaos_s = time (fun () -> Harness.Chaos.run_chaos ~n:4 ~runs:20 ~jobs:1 ~seed ()) in
  let wl, workload_s =
    time (fun () ->
        Harness.Workload.run
          {
            (Harness.Workload.default ~n:4) with
            capacity = 72;
            commands = 120;
            seed = Util.Rng.derive ~base:seed [ 71 ];
          })
  in
  let rep =
    Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:7
      ~dist:Harness.Runner.Divergent ~load:Net.Fault.Failure_free ~seed ()
  in
  let airtime =
    List.fold_left
      (fun acc (s : Obs.Metrics.sample) ->
        if s.name = "radio.airtime_s" then
          match s.value with
          | Obs.Metrics.Gauge g -> acc +. g
          | Obs.Metrics.Counter c -> acc +. float_of_int c
          | Obs.Metrics.Histogram _ -> acc
        else acc)
      0.0 rep.metrics
  in
  {
    Harness.Gate.seed;
    wall =
      [
        ("sigma_sweep_s", sweep_s);
        ("table_cell_s", cell_s);
        ("chaos_s", chaos_s);
        ("workload_s", workload_s);
      ];
    airtime =
      [
        ("frames_sent", float_of_int rep.frames_sent);
        ("bytes_sent", float_of_int rep.bytes_sent);
        ("airtime_s", airtime);
        ("sim_duration_s", rep.duration);
        ("workload_delivered", float_of_int wl.delivered_commands);
        ("workload_slots", float_of_int (wl.committed_slots + wl.skipped_slots));
        ("workload_sim_s", wl.duration);
      ];
  }

let scaling_sweep (d : Harness.Scaling.doc) =
  let points =
    Harness.Scaling.sweep ~jobs:!jobs ~ns:d.ns ~turquois_cap:d.turquois_cap
      ~radio_cap:d.radio_cap ~timeout:d.timeout ~seed:d.seed ()
  in
  print_string (Harness.Scaling.render points);
  { d with points }

let print_fields fields =
  List.iter
    (fun (f : Harness.Gate.field) -> Printf.printf "  %-28s %14.6g\n" f.key f.value)
    fields

let write file json =
  let oc = open_out file in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" file

let die file msg =
  Printf.eprintf "bench: %s: %s\n" file msg;
  exit 2

let run_compare file =
  let json =
    match
      Obs.Json.parse
        (In_channel.with_open_bin file In_channel.input_all)
    with
    | Ok json -> json
    | Error e -> die file e
  in
  let ok = function Ok doc -> doc | Error e -> die file e in
  let baseline, rerun =
    match Option.bind (Obs.Json.member "bench" json) Obs.Json.to_str with
    | Some "scaling" ->
        let base = ok (Harness.Scaling.of_json json) in
        Printf.printf "scaling gate: re-run the sweep of %s\n" file;
        let rerun = scaling_sweep base in
        (Harness.Scaling.fields base.points, Harness.Scaling.fields rerun.points)
    | _ ->
        let base = ok (Harness.Gate.of_json json) in
        Printf.printf "regression gate: re-run the grid of %s\n" file;
        let rerun = Harness.Gate.fields (gate_grid ~seed:base.seed) in
        print_fields rerun;
        (Harness.Gate.fields base, rerun)
  in
  match Harness.Gate.check ~baseline rerun with
  | [] -> Printf.printf "gate passed: %d fields against %s\n" (List.length rerun) file
  | failures ->
      List.iter (Printf.printf "  FAIL %s\n") failures;
      Printf.printf "gate failed: %d of %d fields against %s\n" (List.length failures)
        (List.length rerun) file;
      exit 1

let () =
  let usage = "bench/main.exe [--baseline-out FILE] [--scaling-out FILE] [--compare FILE]" in
  Arg.parse speclist
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    usage;
  if (!baseline_out, !scaling_out, !compare_against) = (None, None, None) then begin
    Arg.usage speclist usage;
    exit 2
  end;
  Option.iter
    (fun file ->
      let baseline = gate_grid ~seed in
      print_fields (Harness.Gate.fields baseline);
      write file (Harness.Gate.to_json baseline))
    !baseline_out;
  Option.iter
    (fun file ->
      (* Scaling's default grid and caps, with a 30 s simulated timeout *)
      write file
        (Harness.Scaling.to_json
           (scaling_sweep
              {
                ns = Harness.Scaling.default_ns;
                turquois_cap = 128;
                radio_cap = 256;
                timeout = 30.0;
                seed;
                points = [];
              })))
    !scaling_out;
  Option.iter run_compare !compare_against
