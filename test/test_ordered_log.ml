(* Tests for the pipelined totally-ordered command log: agreement,
   batching, payload authentication (forged frames, equivocating
   proposers), timer quiescence, and bounded memory. *)

let setup ?(n = 4) ?(capacity = 8) ?(loss = 0.01) ?(seed = 910L) ?(window = 1)
    ?(max_batch = 64) ?payload_grace () =
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  Net.Radio.set_loss_prob radio loss;
  let cfg = { (Core.Proto.default_config ~n) with max_phases = 45 } in
  let keyrings =
    Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:(capacity * cfg.max_phases)
  in
  let nodes =
    Array.init n (fun i -> Net.Node.create engine radio ~id:i ~rng:(Util.Rng.split rng))
  in
  let logs =
    Array.init n (fun i ->
        Core.Ordered_log.create nodes.(i) cfg ~keyring:keyrings.(i) ~capacity ~window
          ~max_batch ?payload_grace ())
  in
  (engine, nodes, logs)

let run_until engine logs ~slots ~horizon =
  Net.Engine.run_while engine (fun () ->
      Net.Engine.now engine < horizon
      && Array.exists (fun log -> Core.Ordered_log.delivered_count log < slots) logs)

(* a committed slot's batch rendered as its commands joined with "," *)
let payloads_of log =
  List.map
    (fun (slot, payload) ->
      ( slot,
        Option.map
          (fun batch ->
            String.concat ","
              (List.map Bytes.to_string (Core.Ordered_log.decode_batch batch)))
          payload ))
    (Core.Ordered_log.delivered log)

let test_everyone_gets_same_log () =
  let engine, _, logs = setup () in
  (* processes 0..3 each submit one message; slots rotate 0,1,2,3,... *)
  Array.iteri
    (fun i log -> Core.Ordered_log.submit log (Bytes.of_string (Printf.sprintf "from-%d" i)))
    logs;
  Array.iter Core.Ordered_log.start logs;
  run_until engine logs ~slots:4 ~horizon:30.0;
  let reference = payloads_of logs.(0) in
  Alcotest.(check bool) "4 slots" true (List.length reference >= 4);
  Array.iter
    (fun log ->
      let mine = payloads_of log in
      let shared = min (List.length mine) (List.length reference) in
      List.iteri
        (fun i (slot, payload) ->
          if i < shared then begin
            let rslot, rpayload = List.nth reference i in
            Alcotest.(check int) "same slot" rslot slot;
            Alcotest.(check (option string)) "same payload" rpayload payload
          end)
        mine)
    logs;
  (* the four submissions all appear, in proposer order *)
  List.iteri
    (fun slot (s, payload) ->
      Alcotest.(check int) "slot number" slot s;
      if slot < 4 then
        Alcotest.(check (option string)) "content" (Some (Printf.sprintf "from-%d" slot)) payload)
    (List.filteri (fun i _ -> i < 4) reference)

let test_silent_proposers_are_skipped () =
  let engine, _, logs = setup ~seed:911L () in
  (* only process 2 submits; slots 0, 1 (and 3) must be skipped *)
  Core.Ordered_log.submit logs.(2) (Bytes.of_string "lonely");
  Array.iter Core.Ordered_log.start logs;
  run_until engine logs ~slots:3 ~horizon:30.0;
  let log = payloads_of logs.(0) in
  Alcotest.(check bool) "slot 0 skipped" true (List.assoc 0 log = None);
  Alcotest.(check bool) "slot 1 skipped" true (List.assoc 1 log = None);
  Alcotest.(check (option string)) "slot 2 committed" (Some "lonely") (List.assoc 2 log)

let test_multiple_rounds_per_proposer () =
  let engine, _, logs = setup ~capacity:8 ~seed:912L ~max_batch:1 () in
  (* batching off: process 1's two messages go to its slots 1 and 5 *)
  Core.Ordered_log.submit logs.(1) (Bytes.of_string "first");
  Core.Ordered_log.submit logs.(1) (Bytes.of_string "second");
  Array.iter Core.Ordered_log.start logs;
  run_until engine logs ~slots:6 ~horizon:40.0;
  let log = payloads_of logs.(3) in
  Alcotest.(check (option string)) "slot 1" (Some "first") (List.assoc 1 log);
  Alcotest.(check (option string)) "slot 5" (Some "second") (List.assoc 5 log)

let test_batching_packs_one_slot () =
  let engine, _, logs = setup ~capacity:4 ~seed:915L () in
  (* batching on: five commands from process 1 share slot 1 *)
  for i = 0 to 4 do
    Core.Ordered_log.submit logs.(1) (Bytes.of_string (Printf.sprintf "c%d" i))
  done;
  Array.iter Core.Ordered_log.start logs;
  run_until engine logs ~slots:4 ~horizon:30.0;
  let log = payloads_of logs.(2) in
  Alcotest.(check (option string)) "slot 1 batch" (Some "c0,c1,c2,c3,c4") (List.assoc 1 log)

let test_order_under_loss () =
  let engine, _, logs = setup ~loss:0.15 ~seed:913L () in
  Array.iteri
    (fun i log ->
      Core.Ordered_log.submit log (Bytes.of_string (Printf.sprintf "m%d" i)))
    logs;
  Array.iter Core.Ordered_log.start logs;
  run_until engine logs ~slots:4 ~horizon:60.0;
  (* agreement on the common prefix across all processes *)
  let reference = payloads_of logs.(0) in
  Array.iter
    (fun log ->
      let mine = payloads_of log in
      let shared = min (List.length mine) (List.length reference) in
      for i = 0 to shared - 1 do
        Alcotest.(check bool) "prefix agreement" true
          (List.nth mine i = List.nth reference i)
      done)
    logs;
  Alcotest.(check bool) "made progress" true (List.length reference >= 4)

let test_pipelined_window_delivers_in_order () =
  let engine, _, logs =
    setup ~capacity:8 ~window:4 ~loss:0.15 ~seed:916L ~max_batch:1 ()
  in
  (* W=4 under loss: slots decide out of order, delivery must not *)
  Array.iteri
    (fun i log ->
      Core.Ordered_log.submit log (Bytes.of_string (Printf.sprintf "a%d" i));
      Core.Ordered_log.submit log (Bytes.of_string (Printf.sprintf "b%d" i)))
    logs;
  Array.iter Core.Ordered_log.start logs;
  run_until engine logs ~slots:8 ~horizon:90.0;
  Array.iter
    (fun log ->
      let mine = Core.Ordered_log.delivered log in
      Alcotest.(check (list int)) "slots in order"
        (List.init (List.length mine) Fun.id)
        (List.map fst mine))
    logs;
  let reference = payloads_of logs.(0) in
  Alcotest.(check int) "all slots delivered" 8 (List.length reference);
  Array.iter
    (fun log -> Alcotest.(check bool) "same log" true (payloads_of log = reference))
    logs

(* Regression for the payload-injection bug: a non-proposer broadcasts
   a payload frame for someone else's slot. Before the src check the
   forged bytes were stored and committed; now the slot must skip
   (its real proposer stays silent) and no process may deliver the
   forged content. *)
let test_forged_payload_rejected () =
  let engine, nodes, logs = setup ~capacity:4 ~loss:0.0 ~seed:917L () in
  (* process 1 submits nothing for slot 0 (owned by 0) but forges its payload *)
  Core.Ordered_log.submit logs.(2) (Bytes.of_string "honest");
  Array.iter Core.Ordered_log.start logs;
  let forged =
    Core.Ordered_log.encode_payload_frame ~slot:0
      (Core.Ordered_log.encode_batch [ Bytes.of_string "evil" ])
  in
  ignore
    (Net.Engine.schedule engine ~delay:0.001 (fun () ->
         Net.Node.broadcast nodes.(1)
           ~port:(Core.Ordered_log.payload_port logs.(1))
           forged));
  run_until engine logs ~slots:4 ~horizon:30.0;
  Array.iter
    (fun log ->
      let mine = payloads_of log in
      Alcotest.(check (option string)) "slot 0 skipped" None (List.assoc 0 mine);
      Alcotest.(check (option string)) "slot 2 honest" (Some "honest") (List.assoc 2 mine))
    logs

(* An equivocating proposer unicasts batch A to two processes and batch
   B to the third, then echoes A. The ready certificate can only form
   for one digest, and its attached-batch recovery converges the victim:
   every honest process delivers identical bytes. *)
let test_equivocating_proposer_cannot_split_the_log () =
  let engine, nodes, logs = setup ~capacity:4 ~loss:0.0 ~seed:918L () in
  (* node 0 is Byzantine: drive its frames by hand, never start its log *)
  let honest = [ 1; 2; 3 ] in
  Core.Ordered_log.submit logs.(1) (Bytes.of_string "h1");
  List.iter (fun i -> Core.Ordered_log.start logs.(i)) honest;
  let port = Core.Ordered_log.payload_port logs.(1) in
  let batch_a = Core.Ordered_log.encode_batch [ Bytes.of_string "A" ] in
  let batch_b = Core.Ordered_log.encode_batch [ Bytes.of_string "B" ] in
  ignore
    (Net.Engine.schedule engine ~delay:0.001 (fun () ->
         Net.Node.unicast nodes.(0) ~dst:1 ~port
           (Core.Ordered_log.encode_payload_frame ~slot:0 batch_a);
         Net.Node.unicast nodes.(0) ~dst:2 ~port
           (Core.Ordered_log.encode_payload_frame ~slot:0 batch_a);
         Net.Node.unicast nodes.(0) ~dst:3 ~port
           (Core.Ordered_log.encode_payload_frame ~slot:0 batch_b)));
  ignore
    (Net.Engine.schedule engine ~delay:0.004 (fun () ->
         Net.Node.broadcast nodes.(0) ~port
           (Core.Ordered_log.encode_echo_frame ~slot:0
              ~digest:(Core.Ordered_log.batch_digest batch_a))));
  Net.Engine.run_while engine (fun () ->
      Net.Engine.now engine < 30.0
      && List.exists (fun i -> Core.Ordered_log.delivered_count logs.(i) < 4) honest);
  let reference = payloads_of logs.(1) in
  Alcotest.(check (option string)) "slot 0 carries A" (Some "A") (List.assoc 0 reference);
  List.iter
    (fun i ->
      Alcotest.(check bool) "identical delivered bytes" true
        (payloads_of logs.(i) = reference))
    honest

(* Regression for the timer leak: after every slot has an outcome and
   the payload grace expires, the log must stop re-arming its tick so
   the engine drains to zero pending events. *)
let test_timers_quiesce_when_log_finishes () =
  let engine, _, logs = setup ~capacity:4 ~seed:919L ~payload_grace:0.5 () in
  Array.iteri
    (fun i log -> Core.Ordered_log.submit log (Bytes.of_string (Printf.sprintf "q%d" i)))
    logs;
  Array.iter Core.Ordered_log.start logs;
  run_until engine logs ~slots:4 ~horizon:30.0;
  Array.iter
    (fun log -> Alcotest.(check int) "all delivered" 4 (Core.Ordered_log.delivered_count log))
    logs;
  (* graces and consensus linger tails are well under this horizon *)
  Net.Engine.run engine ~until:(Net.Engine.now engine +. 10.0);
  Alcotest.(check int) "engine drained" 0 (Net.Engine.pending engine)

let test_memory_stays_bounded_by_window () =
  let window = 2 in
  let engine, _, logs =
    setup ~capacity:12 ~window ~seed:920L ~max_batch:1 ~payload_grace:0.3 ()
  in
  Array.iter
    (fun log ->
      for i = 0 to 2 do
        Core.Ordered_log.submit log (Bytes.of_string (Printf.sprintf "x%d" i))
      done)
    logs;
  Array.iter Core.Ordered_log.start logs;
  run_until engine logs ~slots:12 ~horizon:90.0;
  (* let rebroadcast graces expire so proposer payloads get pruned too *)
  Net.Engine.run engine ~until:(Net.Engine.now engine +. 5.0);
  Array.iter
    (fun log ->
      Alcotest.(check int) "all delivered" 12 (Core.Ordered_log.delivered_count log);
      let m = Core.Ordered_log.mem_stats log in
      Alcotest.(check bool) "payload entries bounded" true
        (m.Core.Ordered_log.payload_entries <= window);
      Alcotest.(check bool) "vote entries bounded" true
        (m.Core.Ordered_log.vote_entries <= 2 * window * 4);
      Alcotest.(check bool) "outcome entries bounded" true
        (m.Core.Ordered_log.outcome_entries <= window);
      Alcotest.(check bool) "proposed entries bounded" true
        (m.Core.Ordered_log.proposed_entries <= window);
      Alcotest.(check int) "no live timers" 0 m.Core.Ordered_log.timer_entries)
    logs

let test_rejects_bad_capacity () =
  let engine = Net.Engine.create () in
  ignore engine;
  let rng = Util.Rng.create ~seed:914L in
  let radio = Net.Radio.create (Net.Engine.create ()) (Util.Rng.split rng) ~n:4 in
  let cfg = { (Core.Proto.default_config ~n:4) with max_phases = 45 } in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n:4 ~phases:45 in
  let node = Net.Node.create (Net.Engine.create ()) radio ~id:0 ~rng:(Util.Rng.split rng) in
  Alcotest.check_raises "capacity 0" (Invalid_argument "Ordered_log.create: capacity must be positive")
    (fun () -> ignore (Core.Ordered_log.create node cfg ~keyring:keyrings.(0) ~capacity:0 ()));
  Alcotest.check_raises "window 0" (Invalid_argument "Ordered_log.create: window must be positive")
    (fun () ->
      ignore (Core.Ordered_log.create node cfg ~keyring:keyrings.(0) ~capacity:1 ~window:0 ()))

let suite =
  ( "ordered-log",
    [
      Alcotest.test_case "same log everywhere" `Quick test_everyone_gets_same_log;
      Alcotest.test_case "silent proposers skipped" `Quick test_silent_proposers_are_skipped;
      Alcotest.test_case "multiple rounds" `Quick test_multiple_rounds_per_proposer;
      Alcotest.test_case "batching packs one slot" `Quick test_batching_packs_one_slot;
      Alcotest.test_case "order under loss" `Slow test_order_under_loss;
      Alcotest.test_case "pipelined window in order" `Slow test_pipelined_window_delivers_in_order;
      Alcotest.test_case "forged payload rejected" `Quick test_forged_payload_rejected;
      Alcotest.test_case "equivocation cannot split log" `Quick
        test_equivocating_proposer_cannot_split_the_log;
      Alcotest.test_case "timers quiesce" `Quick test_timers_quiesce_when_log_finishes;
      Alcotest.test_case "memory bounded by window" `Slow test_memory_stays_bounded_by_window;
      Alcotest.test_case "bad capacity" `Quick test_rejects_bad_capacity;
    ] )
