(* Observability tour: run one seeded consensus, print its metrics
   table, export the structured trace as JSONL, and feed that trace to
   the offline analyzer.

       dune exec examples/observability_tour.exe

   The same three steps are available from the CLI:

       turquois-lab run --protocol turquois -n 8 --metrics \
                        --trace-json /tmp/run.jsonl
       turquois-lab analyze /tmp/run.jsonl *)

let () =
  let n = 8 in
  let seed = 42L in

  (* 1. run one fail-stop divergent consensus with the trace sink on.
     Runner.run resets the metrics registry and clears the trace at the
     start of the repetition (Obs.Scope.with_run), so everything below
     belongs to exactly this run. *)
  Obs.Trace2.start ();
  let result =
    Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n
      ~dist:Harness.Runner.Divergent ~load:Net.Fault.Fail_stop ~seed ()
  in
  Obs.Trace2.stop ();

  Printf.printf "Turquois n=%d divergent fail-stop (seed %Ld): %d/%d decided in %.1f ms\n\n"
    n seed
    (List.length result.latencies)
    (List.length result.correct)
    (result.duration *. 1000.0);

  (* 2. the per-run metrics snapshot travels with the result *)
  print_endline "--- metrics ---";
  print_string (Obs.Metrics.render_table result.metrics);
  Printf.printf "\nprogrammatic access: %d frames on the air, %d accepted messages\n\n"
    (Obs.Metrics.sum_counters result.metrics "radio.tx")
    (Obs.Metrics.counter_value result.metrics "validation.accepted");

  (* 3. dump the structured trace as JSONL and analyze it offline *)
  let file = Filename.temp_file "observability_tour" ".jsonl" in
  let written = Obs.Trace2.export_file file in
  Printf.printf "--- trace: %d JSONL events in %s ---\n" written file;
  (match Obs.Trace2.events () with
  | e :: _ -> Printf.printf "first line: %s\n\n" (Obs.Trace2.to_jsonl_line e)
  | [] -> ());

  match Obs.Trace2.load_file file with
  | Error msg -> Printf.eprintf "reload failed: %s\n" msg
  | Ok (events, _skipped, dropped) ->
      print_string (Obs.Analyze.analyze ~dropped events);
      Sys.remove file
