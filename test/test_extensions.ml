(* Tests for the trace sink: off by default, bounded by its limit, and
   populated by an instrumented protocol run. *)

(* --- tracing ------------------------------------------------------------------ *)

let test_trace_off_by_default () =
  Obs.Trace2.clear ();
  Obs.Trace2.stop ();
  Obs.Trace2.emit ~time:1.0 ~node:0 ~layer:"x" ~label:"y" [];
  Alcotest.(check int) "nothing collected" 0 (List.length (Obs.Trace2.events ()))

let test_trace_collects_and_limits () =
  Obs.Trace2.start ~limit:5 ();
  for i = 0 to 9 do
    Obs.Trace2.emit ~time:(float_of_int i) ~node:i ~layer:"l" ~label:"e" []
  done;
  Obs.Trace2.stop ();
  Alcotest.(check int) "kept" 5 (List.length (Obs.Trace2.events ()));
  Alcotest.(check int) "dropped" 5 (Obs.Trace2.dropped ());
  let rendered = Obs.Trace2.render () in
  let needle = "5 dropped" in
  let rec mentions i =
    i + String.length needle <= String.length rendered
    && (String.sub rendered i (String.length needle) = needle || mentions (i + 1))
  in
  Alcotest.(check bool) "mentions drop" true (mentions 0);
  Obs.Trace2.clear ()

let test_trace_captures_protocol_run () =
  Obs.Trace2.start ();
  let r =
    Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:4 ~dist:Harness.Runner.Unanimous
      ~load:Net.Fault.Failure_free ~seed:77L ()
  in
  Obs.Trace2.stop ();
  Alcotest.(check bool) "run decided" true (List.length r.latencies = 4);
  let events = Obs.Trace2.events () in
  let decides =
    List.filter (fun e -> e.Obs.Trace2.layer = "turquois" && e.label = "decide") events
  in
  Alcotest.(check int) "four decide events" 4 (List.length decides);
  Alcotest.(check bool) "radio traffic traced" true
    (List.exists (fun e -> e.Obs.Trace2.layer = "radio") events);
  (* timestamps are nondecreasing *)
  let rec monotone = function
    | a :: (b :: _ as rest) -> a.Obs.Trace2.time <= b.Obs.Trace2.time && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone events);
  Obs.Trace2.clear ()

let suite =
  ( "extensions",
    [
      Alcotest.test_case "trace off" `Quick test_trace_off_by_default;
      Alcotest.test_case "trace limit" `Quick test_trace_collects_and_limits;
      Alcotest.test_case "trace protocol run" `Quick test_trace_captures_protocol_run;
    ] )
