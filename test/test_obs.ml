(* Tests for the observability subsystem: the labeled metrics registry,
   the structured Trace2 sink with JSONL round-trips, per-run scoping,
   the offline analyzer, and snapshot determinism across seeded runs. *)

(* every test owns the process-global sinks *)
let fresh () =
  Obs.Metrics.reset ();
  Obs.Trace2.stop ();
  Obs.Trace2.clear ()

(* --- metrics registry ------------------------------------------------------- *)

let test_counter_basics () =
  fresh ();
  let a = Obs.Metrics.counter "a" in
  Obs.Metrics.incr a;
  Obs.Metrics.incr_by a 4;
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check int) "accumulated" 5 (Obs.Metrics.counter_value snap "a");
  Alcotest.(check int) "absent is 0" 0 (Obs.Metrics.counter_value snap "nope")

let test_label_order_irrelevant () =
  fresh ();
  let xy = Obs.Metrics.counter "m" ~labels:[ ("x", "1"); ("y", "2") ] in
  let yx = Obs.Metrics.counter "m" ~labels:[ ("y", "2"); ("x", "1") ] in
  Obs.Metrics.incr xy;
  Obs.Metrics.incr yx;
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check int) "one series" 1 (List.length snap);
  Alcotest.(check int) "both updates landed" 2
    (Obs.Metrics.counter_value snap "m" ~labels:[ ("y", "2"); ("x", "1") ])

let test_distinct_labels_distinct_series () =
  fresh ();
  Obs.Metrics.incr (Obs.Metrics.counter "tx" ~labels:[ ("class", "bcast") ]);
  Obs.Metrics.incr_by (Obs.Metrics.counter "tx" ~labels:[ ("class", "ack") ]) 2;
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check int) "two series" 2 (List.length snap);
  Alcotest.(check int) "bcast" 1
    (Obs.Metrics.counter_value snap "tx" ~labels:[ ("class", "bcast") ]);
  Alcotest.(check int) "sum across labels" 3 (Obs.Metrics.sum_counters snap "tx")

(* a clash surfaces when the second declaration is made, before any run
   updates either series *)
let test_type_clash_rejected () =
  fresh ();
  ignore (Obs.Metrics.counter "series");
  Alcotest.check_raises "gauge on counter"
    (Invalid_argument "Metrics: series is a counter, not a gauge") (fun () ->
      ignore (Obs.Metrics.gauge "series"));
  ignore (Obs.Metrics.histogram "shaped" ~lo:0.0 ~hi:10.0 ~bins:10);
  Alcotest.check_raises "histogram of another shape"
    (Invalid_argument
       "Metrics: shaped is a histogram over [0, 10) in 10 bins, not a histogram over [0, 5) \
        in 10 bins") (fun () -> ignore (Obs.Metrics.histogram "shaped" ~lo:0.0 ~hi:5.0 ~bins:10));
  Alcotest.(check bool) "same declaration, same series" true
    (Obs.Metrics.histogram "shaped" ~lo:0.0 ~hi:10.0 ~bins:10
    == Obs.Metrics.histogram "shaped" ~lo:0.0 ~hi:10.0 ~bins:10)

let test_gauge_add () =
  fresh ();
  let airtime = Obs.Metrics.gauge "airtime" in
  Obs.Metrics.add airtime 0.25;
  Obs.Metrics.add airtime 0.5;
  let snap = Obs.Metrics.snapshot () in
  match Obs.Metrics.find snap "airtime" with
  | Some { value = Obs.Metrics.Gauge g; _ } ->
      Alcotest.(check (float 1e-9)) "accumulated" 0.75 g
  | _ -> Alcotest.fail "expected a gauge"

let test_histogram_binning () =
  fresh ();
  let h = Obs.Metrics.histogram "h" ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.5; 1.9; 9.9; -3.0; 42.0 ];
  let snap = Obs.Metrics.snapshot () in
  match Obs.Metrics.find snap "h" with
  | Some { value = Obs.Metrics.Histogram h; _ } ->
      Alcotest.(check int) "total counts all" 6 h.total;
      Alcotest.(check int) "bin 0" 2 h.counts.(0);
      (* -3.0 clamps into bin 0 *)
      Alcotest.(check int) "bin 1" 2 h.counts.(1);
      Alcotest.(check int) "last bin" 2 h.counts.(9)
      (* 42.0 clamps into the last bin *)
  | _ -> Alcotest.fail "expected a histogram"

let test_snapshot_isolation () =
  fresh ();
  let a = Obs.Metrics.counter "a" in
  Obs.Metrics.incr a;
  let before = Obs.Metrics.snapshot () in
  Obs.Metrics.incr_by a 10;
  Alcotest.(check int) "snapshot is immutable" 1 (Obs.Metrics.counter_value before "a");
  Obs.Metrics.reset ();
  Alcotest.(check int) "reset drops everything" 0
    (List.length (Obs.Metrics.snapshot ()));
  Alcotest.(check int) "old snapshot survives reset" 1
    (Obs.Metrics.counter_value before "a");
  (* a series re-enters on its next update, from zero, even when that
     update adds nothing *)
  Obs.Metrics.incr_by a 0;
  Alcotest.(check bool) "re-entered at 0" true
    (Obs.Metrics.snapshot ()
    = [ { Obs.Metrics.name = "a"; labels = []; value = Obs.Metrics.Counter 0 } ])

let test_with_run_scoping () =
  fresh ();
  Obs.Metrics.incr_by (Obs.Metrics.counter "leak") 99;
  let result, snap =
    Obs.Scope.with_run (fun () ->
        Obs.Metrics.incr (Obs.Metrics.counter "inside");
        "done")
  in
  Alcotest.(check string) "result passes through" "done" result;
  Alcotest.(check int) "pre-run counter wiped" 0 (Obs.Metrics.counter_value snap "leak");
  Alcotest.(check int) "in-run counter kept" 1 (Obs.Metrics.counter_value snap "inside")

(* --- JSON codec ------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Obs.Json.Obj
      [
        ("i", Obs.Json.Int 42);
        ("f", Obs.Json.Float 2.0);
        ("s", Obs.Json.String "quote\" slash\\ tab\t");
        ("b", Obs.Json.Bool true);
        ("n", Obs.Json.Null);
        ("l", Obs.Json.List [ Obs.Json.Int (-1); Obs.Json.Float 0.125 ]);
      ]
  in
  match Obs.Json.parse (Obs.Json.to_string doc) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
      Alcotest.(check bool) "structurally equal" true (parsed = doc);
      (* the int/float distinction survives the round-trip *)
      Alcotest.(check bool) "2.0 stays a float" true
        (Obs.Json.member "f" parsed = Some (Obs.Json.Float 2.0))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "nul"; "\"unterminated" ]

(* --- Trace2 + JSONL --------------------------------------------------------- *)

let test_trace2_event_roundtrip () =
  let e =
    {
      Obs.Trace2.time = 0.012;
      node = 3;
      layer = "radio";
      label = "tx";
      fields =
        [
          ("class", Obs.Trace2.S "bcast");
          ("bytes", Obs.Trace2.I 93);
          ("us", Obs.Trace2.F 676.4);
          ("collision", Obs.Trace2.B false);
        ];
    }
  in
  match Obs.Trace2.parse_line (Obs.Trace2.to_jsonl_line e) with
  | Error msg -> Alcotest.fail msg
  | Ok back -> Alcotest.(check bool) "event round-trips" true (back = e)

let test_trace2_limit_and_dropped () =
  fresh ();
  Obs.Trace2.start ~limit:3 ();
  for i = 1 to 5 do
    Obs.Trace2.emit ~time:(float_of_int i) ~node:0 ~layer:"l" ~label:"e"
      [ ("i", Obs.Trace2.I i) ]
  done;
  Alcotest.(check int) "kept" 3 (List.length (Obs.Trace2.events ()));
  Alcotest.(check int) "dropped" 2 (Obs.Trace2.dropped ());
  Obs.Trace2.stop ();
  Obs.Trace2.clear ()

let test_trace2_file_roundtrip () =
  fresh ();
  Obs.Trace2.start ();
  Obs.Trace2.emit ~time:0.5 ~node:(-1) ~layer:"run" ~label:"meta"
    [ ("n", Obs.Trace2.I 8); ("load", Obs.Trace2.S "fail-stop") ];
  Obs.Trace2.emit ~time:1.0 ~node:2 ~layer:"mac" ~label:"retry"
    [ ("attempt", Obs.Trace2.I 2) ];
  let file = Filename.temp_file "test_obs" ".jsonl" in
  let written = Obs.Trace2.export_file file in
  let original = Obs.Trace2.events () in
  Obs.Trace2.stop ();
  Obs.Trace2.clear ();
  (match Obs.Trace2.load_file file with
  | Error msg -> Alcotest.fail msg
  | Ok (events, skipped, _) ->
      Alcotest.(check int) "written count" 2 written;
      Alcotest.(check int) "no skipped lines" 0 skipped;
      Alcotest.(check bool) "events round-trip" true (events = original));
  Sys.remove file

let test_render_trailer () =
  fresh ();
  Obs.Trace2.start ~limit:4 ();
  for i = 1 to 6 do
    Obs.Trace2.emit ~time:(float_of_int i) ~node:i ~layer:"test" ~label:"ev" []
  done;
  let out = Obs.Trace2.render ~max_events:2 () in
  Alcotest.(check bool) "trailer shows hidden and dropped" true
    (let lines = String.split_on_char '\n' out in
     List.exists (fun l -> l = "(+2 more, 2 dropped)") lines);
  Obs.Trace2.stop ();
  Obs.Trace2.clear ()

(* --- end-to-end: instrumented run ------------------------------------------ *)

let run_once seed =
  Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:4
    ~dist:Harness.Runner.Divergent ~load:Net.Fault.Failure_free ~seed ()

let test_run_metrics_populated () =
  let r = run_once 7L in
  List.iter
    (fun metric ->
      Alcotest.(check bool) (metric ^ " > 0") true
        (Obs.Metrics.sum_counters r.metrics metric > 0))
    [ "radio.tx"; "mac.tx"; "validation.accepted"; "proto.broadcasts" ]

let test_run_metrics_deterministic () =
  let a = run_once 11L and b = run_once 11L and c = run_once 12L in
  Alcotest.(check bool) "same seed, same snapshot" true (a.metrics = b.metrics);
  Alcotest.(check bool) "different seed differs somewhere" true (c.metrics <> a.metrics)

let test_runs_do_not_leak () =
  fresh ();
  Obs.Metrics.incr_by (Obs.Metrics.counter "radio.tx" ~labels:[ ("class", "bcast") ]) 1_000_000;
  let r = run_once 3L in
  Alcotest.(check bool) "pre-existing counter was reset" true
    (Obs.Metrics.sum_counters r.metrics "radio.tx" < 1_000_000)

let test_analyze_reports_sigma () =
  fresh ();
  Obs.Trace2.start ();
  let r =
    Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:8
      ~dist:Harness.Runner.Divergent ~load:Net.Fault.Fail_stop ~seed:42L ()
  in
  let events = Obs.Trace2.events () in
  Obs.Trace2.stop ();
  Obs.Trace2.clear ();
  Alcotest.(check bool) "run decided" false r.timed_out;
  let report = Obs.Analyze.analyze ~dropped:0 events in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions sigma" true (contains "sigma" report);
  Alcotest.(check bool) "found the meta event" true (contains "fail-stop" report);
  Alcotest.(check bool) "per-phase timeline present" true (contains "timeline" report)

(* --- unlabeled and labeled series of one name ------------------------------ *)

let test_unlabeled_fast_path () =
  fresh ();
  let fast = Obs.Metrics.counter "fast" in
  Obs.Metrics.incr fast;
  Obs.Metrics.incr_by fast 2;
  Obs.Metrics.incr (Obs.Metrics.counter "fast" ~labels:[ ("class", "x") ]);
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check int) "unlabeled series" 3 (Obs.Metrics.counter_value snap "fast");
  Alcotest.(check int) "labeled series stays separate" 1
    (Obs.Metrics.counter_value snap "fast" ~labels:[ ("class", "x") ]);
  Alcotest.(check int) "sum sees both" 4 (Obs.Metrics.sum_counters snap "fast");
  Obs.Metrics.reset ();
  Alcotest.(check int) "reset clears labeled and unlabeled series" 0
    (List.length (Obs.Metrics.snapshot ()))

(* --- schema versioning ------------------------------------------------------- *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_schema_header_roundtrip () =
  fresh ();
  Obs.Trace2.start ();
  Obs.Trace2.emit ~time:1.0 ~node:0 ~layer:"mac" ~label:"retry" [];
  let file = Filename.temp_file "test_obs_schema" ".jsonl" in
  ignore (Obs.Trace2.export_file file);
  Obs.Trace2.stop ();
  Obs.Trace2.clear ();
  (* the header is on disk... *)
  let ic = open_in file in
  let first = input_line ic in
  close_in ic;
  Alcotest.(check bool) "header is the first line" true
    (contains "\"schema\"" first && contains "\"version\":3" first);
  (* ...but filtered from the loaded events *)
  (match Obs.Trace2.load_file file with
  | Error e -> Alcotest.fail e
  | Ok (events, _, _) ->
      Alcotest.(check int) "header filtered out" 1 (List.length events));
  Sys.remove file

(* a file cut short by the sink's limit says so: the header carries the
   drop count, and the analyzer names it with the span the file covers *)
let test_truncated_trace_reports_drops () =
  fresh ();
  Obs.Trace2.start ~limit:5 ();
  for i = 0 to 9 do
    Obs.Trace2.emit ~time:(float_of_int i *. 0.001) ~node:0 ~layer:"mac" ~label:"retry" []
  done;
  let file = Filename.temp_file "test_obs_truncated" ".jsonl" in
  ignore (Obs.Trace2.export_file file);
  Obs.Trace2.stop ();
  Obs.Trace2.clear ();
  (match Obs.Trace2.load_file file with
  | Error e -> Alcotest.fail e
  | Ok (events, _, dropped) ->
      Alcotest.(check int) "kept" 5 (List.length events);
      Alcotest.(check int) "dropped" 5 dropped;
      let report = Obs.Analyze.analyze ~dropped events in
      Alcotest.(check bool) "notice names the drops" true
        (contains "5 events dropped" report);
      Alcotest.(check bool) "notice names the span" true (contains "0.0-4.0 ms" report));
  Sys.remove file

let test_schema_version_mismatch_rejected () =
  let header =
    Obs.Trace2.to_jsonl_line
      {
        Obs.Trace2.time = 0.0;
        node = -1;
        layer = "trace";
        label = "schema";
        fields = [ ("version", Obs.Trace2.I 999) ];
      }
  in
  let file = Filename.temp_file "test_obs_badschema" ".jsonl" in
  let oc = open_out file in
  output_string oc (header ^ "\n");
  output_string oc
    "{\"t\":1.0,\"node\":0,\"layer\":\"mac\",\"label\":\"retry\",\"f\":{}}\n";
  close_out oc;
  (match Obs.Trace2.load_file file with
  | Ok _ -> Alcotest.fail "accepted a trace with a mismatched schema version"
  | Error msg ->
      Alcotest.(check bool) "error names both versions" true
        (contains "999" msg && contains "version 3" msg));
  Sys.remove file

(* --- causal DAG -------------------------------------------------------------- *)

let ev time node layer label fields =
  { Obs.Trace2.time; node; layer; label; fields }

let mid m = ("mid", Obs.Trace2.S m)

let test_causal_dag_and_chain () =
  (* p0 broadcasts m0.1.0; p1 hears it and broadcasts m1.2.0; p2 hears
     that and decides. p3 never receives m0.1.0 (omission). The decision
     chain of p2 must contain both messages; the one of p0 is empty. *)
  let events =
    [
      ev 0.010 0 "turquois" "broadcast" [ ("phase", Obs.Trace2.I 1); mid "m0.1.0" ];
      ev 0.012 0 "radio" "deliver" [ ("rx", Obs.Trace2.I 1); mid "m0.1.0" ];
      ev 0.013 0 "radio" "omission" [ ("rx", Obs.Trace2.I 3); mid "m0.1.0" ];
      ev 0.020 1 "turquois" "broadcast" [ ("phase", Obs.Trace2.I 2); mid "m1.2.0" ];
      ev 0.022 1 "radio" "deliver" [ ("rx", Obs.Trace2.I 2); mid "m1.2.0" ];
      ev 0.030 2 "turquois" "decide" [ ("value", Obs.Trace2.I 1) ];
    ]
  in
  let dag = Obs.Causal.build events in
  Alcotest.(check int) "two sends" 2 (Hashtbl.length dag.Obs.Causal.sends);
  Alcotest.(check int) "one drop" 1 (List.length dag.Obs.Causal.drops);
  let chain = Obs.Causal.decision_chain dag ~node:2 ~time:0.030 in
  Alcotest.(check (list string))
    "chain walks justifications transitively, send order"
    [ "m0.1.0"; "m1.2.0" ] chain;
  Alcotest.(check (list string)) "sender with no inputs has an empty chain" []
    (Obs.Causal.decision_chain dag ~node:0 ~time:0.030);
  Alcotest.(check bool) "describe_send names sender and phase" true
    (contains "(p0, phase 1," (Obs.Causal.describe_send dag "m0.1.0"))

let test_causal_attribution_cover () =
  (* lagging = {1;3}: a jammed send covers both at once and must win
     over the single-receiver omission; an out-of-window drop and a
     non-lagging receiver's drop must not appear *)
  let events =
    [
      ev 0.010 0 "turquois" "broadcast" [ ("phase", Obs.Trace2.I 3); mid "m0.3.0" ];
      ev 0.011 2 "turquois" "broadcast" [ ("phase", Obs.Trace2.I 3); mid "m2.3.0" ];
      ev 0.012 0 "radio" "jammed" [ mid "m0.3.0" ];
      ev 0.013 2 "radio" "omission" [ ("rx", Obs.Trace2.I 1); mid "m2.3.0" ];
      ev 0.014 2 "radio" "omission" [ ("rx", Obs.Trace2.I 2); mid "m2.3.0" ];
      ev 0.050 0 "radio" "omission" [ ("rx", Obs.Trace2.I 3); mid "m0.3.0" ];
    ]
  in
  let dag = Obs.Causal.build events in
  let chosen, uncovered =
    Obs.Causal.attribute dag ~lagging:[ 3; 1 ] ~from:0.0 ~until:0.020
  in
  Alcotest.(check (list int)) "every lagging receiver explained" [] uncovered;
  (match chosen with
  | (m, kind, covered) :: _ ->
      Alcotest.(check string) "widest cover first" "m0.3.0" m;
      Alcotest.(check string) "as a jam" "jammed" kind;
      Alcotest.(check (list int)) "covering both" [ 1; 3 ] covered
  | [] -> Alcotest.fail "expected a cover");
  let none, still =
    Obs.Causal.attribute dag ~lagging:[ 1; 3 ] ~from:0.030 ~until:0.040
  in
  Alcotest.(check bool) "empty window explains nothing" true
    (none = [] && still = [ 1; 3 ])

(* --- analyzer edge cases ----------------------------------------------------- *)

let well_formed name events =
  List.iter
    (fun (view, report) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s is well-formed" name view)
        true
        (String.length report > 0))
    [
      ("analyze", Obs.Analyze.analyze ~dropped:0 events);
      ("causal", Obs.Analyze.causal events);
      ("timeline", Obs.Timeline.render events);
    ]

let test_analyze_edge_cases () =
  (* empty trace *)
  well_formed "empty" [];
  (* fault-only trace: crashes, no protocol progress at all *)
  well_formed "fault-only"
    [
      ev 0.001 1 "fault" "crash" [ ("node", Obs.Trace2.I 1) ];
      ev 0.050 1 "fault" "recover" [ ("node", Obs.Trace2.I 1) ];
      ev 0.060 2 "fault" "crash" [ ("node", Obs.Trace2.I 2) ];
    ];
  (* phases but zero decisions *)
  well_formed "no decisions"
    [
      ev 0.0 (-1) "run" "meta"
        [ ("n", Obs.Trace2.I 4); ("load", Obs.Trace2.S "fail-stop") ];
      ev 0.010 0 "turquois" "phase" [ ("phase", Obs.Trace2.I 1) ];
      ev 0.020 1 "turquois" "phase" [ ("phase", Obs.Trace2.I 1) ];
      ev 0.040 0 "turquois" "phase" [ ("phase", Obs.Trace2.I 2) ];
    ]

let test_timeline_render_states () =
  let out =
    Obs.Timeline.render
      [
        ev 0.000 0 "turquois" "phase" [ ("phase", Obs.Trace2.I 1) ];
        ev 0.050 0 "turquois" "phase" [ ("phase", Obs.Trace2.I 2) ];
        ev 0.090 0 "turquois" "decide" [ ("value", Obs.Trace2.I 1) ];
        ev 0.001 1 "fault" "crash" [ ("node", Obs.Trace2.I 1) ];
        ev 0.100 1 "fault" "recover" [ ("node", Obs.Trace2.I 1) ];
      ]
  in
  Alcotest.(check bool) "row per node" true
    (contains "p0" out && contains "p1" out);
  Alcotest.(check bool) "phase digits and decide marker" true
    (contains "1" out && contains "2" out && contains "D" out);
  Alcotest.(check bool) "crash marker" true (contains "X" out);
  Alcotest.(check bool) "empty trace renders a notice" true
    (contains "no events" (Obs.Timeline.render []))

(* --- the fault vocabulary ------------------------------------------------------ *)

(* Every fault the injectors emit decodes back from its trace event to
   the fault that was emitted, and renders the same way. *)
let test_fault_events_roundtrip () =
  let module F = Obs.Fault_event in
  let faults =
    [
      F.Injected { at = 0.01; action = F.Crash 2 };
      F.Injected { at = 0.05; action = F.Recover 2 };
      F.Injected { at = 0.1; action = F.Set_loss 0.25 };
      F.Injected { at = 0.12; action = F.Set_rx_loss { rx = 1; p = 0.5 } };
      F.Injected { at = 0.15; action = F.Set_link_loss { tx = 0; rx = 3; p = 1.0 } };
      F.Injected { at = 0.2; action = F.Jam { until = 0.3 } };
      F.Injected { at = 0.32; action = F.Jam_rx { rx = 0; until = 0.4 } };
      F.Injected { at = 0.45; action = F.Delay_rx { rx = 2; delay = 0.02; until = 0.6 } };
      F.Sigma_edge { at = 0.0; budget = 3; round_s = 0.01; victims = [ 0; 1 ] };
    ]
  in
  fresh ();
  F.emit (List.hd faults);
  Alcotest.(check int) "nothing is traced while tracing is off" 0
    (List.length (Obs.Trace2.events ()));
  Obs.Trace2.start ();
  List.iter F.emit faults;
  let events = Obs.Trace2.events () in
  Obs.Trace2.stop ();
  Obs.Trace2.clear ();
  Alcotest.(check int) "one event per fault" (List.length faults) (List.length events);
  List.iter2
    (fun fault (e : Obs.Trace2.event) ->
      Alcotest.(check bool) (F.to_string fault ^ " decodes to itself") true
        (F.of_event e = Some fault);
      match F.of_event (Result.get_ok (Obs.Trace2.parse_line (Obs.Trace2.to_jsonl_line e))) with
      | Some back -> Alcotest.(check string) "through JSONL" (F.to_string fault) (F.to_string back)
      | None -> Alcotest.fail ("JSONL lost " ^ F.to_string fault))
    faults events;
  Alcotest.(check bool) "other layers decode to nothing" true
    (F.of_event (ev 0.0 0 "turquois" "crash" [ ("node", Obs.Trace2.I 0) ]) = None);
  (* the injectors write the same events: a schedule applied to a radio
     traces each entry as itself, crashes and recoveries included *)
  let schedule =
    List.filter_map (function F.Injected e -> Some e | F.Sigma_edge _ -> None) faults
  in
  let engine = Net.Engine.create () in
  let radio = Net.Radio.create engine (Util.Rng.create ~seed:1L) ~n:4 in
  Obs.Trace2.start ();
  Net.Schedule.apply radio schedule;
  Net.Engine.run engine;
  let traced = List.filter_map F.of_event (Obs.Trace2.events ()) in
  Obs.Trace2.stop ();
  Obs.Trace2.clear ();
  Alcotest.(check bool) "a schedule's events decode to its entries" true
    (traced = List.map (fun e -> F.Injected e) schedule)

(* In force at a time: the latest non-zero overlay per scope, crashes
   not yet recovered, open windows and the sigma-edge adversary, in
   time order. *)
let test_fault_in_force () =
  let module F = Obs.Fault_event in
  let inj at action = F.Injected { at; action } in
  let faults =
    [
      inj 0.01 (F.Set_loss 0.2);
      inj 0.02 (F.Crash 1);
      inj 0.03 (F.Set_rx_loss { rx = 2; p = 0.5 });
      inj 0.04 (F.Jam_rx { rx = 0; until = 0.2 });
      inj 0.05 (F.Set_loss 0.0);
      inj 0.06 (F.Delay_rx { rx = 3; delay = 0.001; until = 0.08 });
      inj 0.07 (F.Set_rx_loss { rx = 2; p = 0.7 });
      F.Sigma_edge { at = 0.0; budget = 1; round_s = 0.01; victims = [ 0 ] };
      inj 0.3 (F.Recover 1);
    ]
  in
  let at time = List.map F.to_string (F.in_force faults ~time) in
  Alcotest.(check (list string)) "at 100 ms"
    [
      "0.000s sigma-edge adversary (1 drops/round on p{0})";
      "0.020s crash p1";
      "0.040s jam p0 until 0.200s";
      "0.070s rx-loss p2 0.700";
    ]
    (at 0.1);
  Alcotest.(check (list string)) "at infinity"
    [ "0.000s sigma-edge adversary (1 drops/round on p{0})"; "0.070s rx-loss p2 0.700" ]
    (at Float.infinity)

(* A window that exceeds sigma but closes within the stall threshold is
   reported as exceeding sigma, next to the median, and not as a
   stall. *)
let test_stall_report_names_only_stalls () =
  let phase time p = ev time 0 "turquois" "phase" [ ("phase", Obs.Trace2.I p) ] in
  let omission time = ev time (-1) "radio" "omission" [ ("rx", Obs.Trace2.I 1) ] in
  let events =
    [ phase 0.0 1; phase 0.01 2 ]
    @ List.init 5 (fun i -> omission (0.011 +. (0.001 *. float_of_int i)))
    @ [ phase 0.02 3; phase 0.03 4; phase 0.04 5 ]
  in
  let report = Obs.Analyze.analyze ~n:4 ~k:3 ~t:0 ~dropped:0 events in
  Alcotest.(check bool) "reported as exceeding sigma" true
    (contains
       "  phase 2 exceeded sigma in 10.0 ms (median window 10.0 ms): 5 omissions (5.0/round) \
        exceed sigma = 3, but the window closed without stalling\n"
       report);
  Alcotest.(check bool) "not called stalled" false (contains "stalled" report)

(* --- end-to-end: sigma-edge stall attribution -------------------------------- *)

let test_causal_end_to_end_sigma_edge () =
  fresh ();
  Obs.Trace2.start ();
  let n = 8 in
  let attach radio =
    let k = n - Net.Fault.max_f n in
    ignore (Net.Fault.sigma_edge radio ~n ~k ~t:0)
  in
  let r =
    Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n
      ~dist:Harness.Runner.Divergent ~load:Net.Fault.Failure_free ~attach
      ~seed:42L ()
  in
  let events = Obs.Trace2.events () in
  Obs.Trace2.stop ();
  Obs.Trace2.clear ();
  Alcotest.(check bool) "run decided" false r.timed_out;
  let report = Obs.Analyze.causal events in
  Alcotest.(check bool) "sends were tagged" false
    (contains "Causal analysis: 0 tagged sends" report);
  Alcotest.(check bool) "justification chains present" true
    (contains "Decision justification" report);
  (* the sigma-edge adversary drops concrete messages; the stall report
     must name at least one lost mid on a causal path *)
  Alcotest.(check bool) "a dropped message id is named" true
    (contains "lost it to" report || contains "lost in window" report)

(* The causal-smoke run ([run -n 8 --divergent --sigma-edge]) replaces
   no frame, so its causal report must read as it did before sends that
   never went on the air were marked: SHA-256 recorded before then. *)
let test_causal_report_pinned () =
  fresh ();
  Obs.Trace2.start ();
  let n = 8 in
  let attach radio = ignore (Net.Fault.sigma_edge radio ~n ~k:(n - Net.Fault.max_f n) ~t:0) in
  ignore
    (Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n ~dist:Harness.Runner.Divergent
       ~load:Net.Fault.Failure_free ~attach ~seed:1000L ());
  let events = Obs.Trace2.events () in
  Obs.Trace2.stop ();
  Obs.Trace2.clear ();
  Alcotest.(check bool) "no replaced frames" false
    (List.exists (fun (e : Obs.Trace2.event) -> e.label = "replaced") events);
  Alcotest.(check string) "report digest"
    "e98cdb6761e05e7c3ee6caeb3c38fa8117723d36ea3493df63bfa7163333cf24"
    (Crypto.Sha256.hex_digest_string (Obs.Analyze.causal events))

(* A broadcast superseded in the MAC queue never goes on the air; the
   trace says so once per replacement, naming the replaced frame, and
   the causal DAG keeps the sends no transmission carried. *)
let test_mac_replacement_traced () =
  fresh ();
  Obs.Trace2.start ();
  let r =
    Harness.Runner.run ~protocol:Harness.Runner.Turquois ~n:16
      ~dist:Harness.Runner.Divergent ~load:Net.Fault.Byzantine ~seed:1000L ()
  in
  let events = Obs.Trace2.events () and dropped = Obs.Trace2.dropped () in
  Obs.Trace2.stop ();
  Obs.Trace2.clear ();
  Alcotest.(check int) "under the sink limit" 0 dropped;
  let replaced =
    List.filter (fun (e : Obs.Trace2.event) -> e.layer = "mac" && e.label = "replaced") events
  in
  let counted = Obs.Metrics.counter_value r.metrics "mac.replaced" in
  Alcotest.(check bool) "the run replaces frames" true (counted > 0);
  Alcotest.(check int) "one event per replacement" counted (List.length replaced);
  List.iter
    (fun (e : Obs.Trace2.event) ->
      Alcotest.(check bool) "names the replaced frame" true
        (List.mem_assoc "tag" e.fields && List.mem_assoc "mid" e.fields))
    replaced;
  (* a replacement by identical bytes names the new send's own mid and
     lost nothing; the rest never went on the air *)
  let dag = Obs.Causal.build events in
  let on_air =
    List.filter_map
      (fun (e : Obs.Trace2.event) ->
        if e.layer = "radio" && e.label = "tx" then List.assoc_opt "mid" e.fields else None)
      events
  in
  Alcotest.(check int) "sends never on the air" 16 (List.length dag.never_on_air);
  List.iter
    (fun (r : Obs.Causal.replaced) ->
      Alcotest.(check bool) (r.rp_mid ^ " is a known send") true (Hashtbl.mem dag.sends r.rp_mid);
      Alcotest.(check bool) (r.rp_mid ^ " has no tx") false
        (List.mem (Obs.Trace2.S r.rp_mid) on_air);
      Alcotest.(check bool) (r.rp_mid ^ " is marked") true
        (String.ends_with ~suffix:", never on the air)" (Obs.Causal.describe_send dag r.rp_mid)))
    dag.never_on_air;
  Alcotest.(check bool) "the causal report lists them" true
    (contains "never on the air (superseded in the MAC queue): " (Obs.Analyze.causal events))

let test_analyze_sigma_formula () =
  (* n=8 k=6 t=0: ceil(8/2)*(8-6) + 6 - 2 = 12, and it must match Proto *)
  Alcotest.(check int) "analyzer sigma" 12 (Obs.Analyze.sigma ~n:8 ~k:6 ~t:0);
  let cfg = Core.Proto.default_config ~n:8 in
  Alcotest.(check int) "matches Proto.sigma" (Core.Proto.sigma cfg ~t:0)
    (Obs.Analyze.sigma ~n:8 ~k:cfg.Core.Proto.k ~t:0)

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter basics" `Quick test_counter_basics;
      Alcotest.test_case "label order irrelevant" `Quick test_label_order_irrelevant;
      Alcotest.test_case "distinct labels distinct series" `Quick
        test_distinct_labels_distinct_series;
      Alcotest.test_case "type clash rejected" `Quick test_type_clash_rejected;
      Alcotest.test_case "gauge add" `Quick test_gauge_add;
      Alcotest.test_case "histogram binning" `Quick test_histogram_binning;
      Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
      Alcotest.test_case "with_run scoping" `Quick test_with_run_scoping;
      Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
      Alcotest.test_case "trace2 event roundtrip" `Quick test_trace2_event_roundtrip;
      Alcotest.test_case "trace2 limit and dropped" `Quick test_trace2_limit_and_dropped;
      Alcotest.test_case "trace2 file roundtrip" `Quick test_trace2_file_roundtrip;
      Alcotest.test_case "render trailer" `Quick test_render_trailer;
      Alcotest.test_case "run metrics populated" `Quick test_run_metrics_populated;
      Alcotest.test_case "run metrics deterministic" `Quick test_run_metrics_deterministic;
      Alcotest.test_case "runs do not leak" `Quick test_runs_do_not_leak;
      Alcotest.test_case "analyze reports sigma" `Quick test_analyze_reports_sigma;
      Alcotest.test_case "analyze sigma formula" `Quick test_analyze_sigma_formula;
      Alcotest.test_case "unlabeled metrics fast path" `Quick test_unlabeled_fast_path;
      Alcotest.test_case "schema header roundtrip" `Quick test_schema_header_roundtrip;
      Alcotest.test_case "truncated trace reports drops" `Quick
        test_truncated_trace_reports_drops;
      Alcotest.test_case "schema version mismatch rejected" `Quick
        test_schema_version_mismatch_rejected;
      Alcotest.test_case "causal dag and chain" `Quick test_causal_dag_and_chain;
      Alcotest.test_case "causal attribution cover" `Quick test_causal_attribution_cover;
      Alcotest.test_case "analyze edge cases" `Quick test_analyze_edge_cases;
      Alcotest.test_case "timeline render states" `Quick test_timeline_render_states;
      Alcotest.test_case "fault events roundtrip" `Quick test_fault_events_roundtrip;
      Alcotest.test_case "fault in force" `Quick test_fault_in_force;
      Alcotest.test_case "stall report names only stalls" `Quick
        test_stall_report_names_only_stalls;
      Alcotest.test_case "causal end-to-end under sigma-edge" `Quick
        test_causal_end_to_end_sigma_edge;
      Alcotest.test_case "causal report pinned" `Quick test_causal_report_pinned;
      Alcotest.test_case "mac replacement traced" `Quick test_mac_replacement_traced;
    ] )
