(* Rule-by-rule tests of the semantic validation of Section 6.2, using
   hand-built V sets. Configuration n=4 f=1: quorum needs >=3 distinct
   senders, half-quorum >=2. *)

module P = Core.Proto
module V = Core.Validation

let cfg = P.default_config ~n:4

let mk ?(sender = 0) ~phase ?(value = P.V1) ?(origin = P.Deterministic)
    ?(status = P.Undecided) () =
  { Core.Message.sender; phase; value; origin; status; proof = Bytes.empty }

let vset_of msgs =
  let v = Core.Vset.create ~n:4 in
  List.iter (fun m -> ignore (Core.Vset.add v m)) msgs;
  v

let is_valid v m = V.is_valid cfg v m
let check name expected v m = Alcotest.(check bool) name expected (is_valid v m)

(* quorum of phase-p messages with the given values, from senders 0.. *)
let quorum_at ?(start_sender = 0) ~phase values =
  List.mapi (fun i value -> mk ~sender:(start_sender + i) ~phase ~value ()) values

let test_phase1_always_valid () =
  let v = vset_of [] in
  check "v1" true v (mk ~phase:1 ~value:P.V1 ());
  check "v0" true v (mk ~phase:1 ~value:P.V0 ())

let test_phase1_rejects_bot_and_coin () =
  let v = vset_of [] in
  check "bot at 1" false v (mk ~phase:1 ~value:P.Vbot ());
  check "coin at 1" false v (mk ~phase:1 ~origin:P.Random ())

let test_phase_needs_previous_quorum () =
  let empty = vset_of [] in
  check "no support" false empty (mk ~phase:2 ());
  let two = vset_of (quorum_at ~phase:1 [ P.V1; P.V1 ]) in
  check "2 < quorum" false two (mk ~phase:2 ());
  let three = vset_of (quorum_at ~phase:1 [ P.V1; P.V1; P.V1 ]) in
  check "3 suffices" true three (mk ~phase:2 ~value:P.V1 ())

let test_phase_beyond_horizon () =
  let v = vset_of [] in
  Alcotest.(check bool) "beyond key horizon" false
    (is_valid v (mk ~phase:(cfg.max_phases + 1) ()))

let test_lock_value_support () =
  (* LOCK message (phase 2): value needs >= 2 supporters at phase 1 *)
  let v = vset_of (quorum_at ~phase:1 [ P.V1; P.V1; P.V0 ]) in
  check "v1 has 2" true v (mk ~phase:2 ~value:P.V1 ());
  check "v0 has 1" false v (mk ~phase:2 ~value:P.V0 ());
  check "bot never in lock" false v (mk ~phase:2 ~value:P.Vbot ())

let test_decide_value_support () =
  (* DECIDE message (phase 3): binary value needs >= 3 at phase 2 *)
  let base = quorum_at ~phase:1 [ P.V1; P.V1; P.V1; P.V0 ] in
  let v = vset_of (base @ quorum_at ~phase:2 [ P.V1; P.V1; P.V1 ]) in
  check "quorum for v1" true v (mk ~phase:3 ~value:P.V1 ());
  check "v0 unsupported" false v (mk ~phase:3 ~value:P.V0 ());
  let v2 = vset_of (base @ quorum_at ~phase:2 [ P.V1; P.V1; P.V0 ]) in
  check "2 of 3 not enough" false v2 (mk ~phase:3 ~value:P.V1 ())

let test_decide_bot_needs_phase1_split () =
  (* bot at phase 3 needs >= 2 zeros AND >= 2 ones at phase 1 *)
  let split = quorum_at ~phase:1 [ P.V0; P.V0; P.V1; P.V1 ] in
  let lock = quorum_at ~phase:2 [ P.V1; P.V1; P.V0 ] in
  let v = vset_of (split @ lock) in
  check "split justifies bot" true v (mk ~phase:3 ~value:P.Vbot ());
  let unsplit = quorum_at ~phase:1 [ P.V1; P.V1; P.V1; P.V0 ] in
  let v2 = vset_of (unsplit @ lock) in
  check "no split, no bot" false v2 (mk ~phase:3 ~value:P.Vbot ())

let check_value name expected v m =
  Alcotest.(check bool) name expected (V.check_value cfg v m = Ok ())

let check_status name expected v m =
  Alcotest.(check bool) name expected (V.check_status cfg v m = Ok ())

let test_converge_deterministic_support () =
  (* CONVERGE message (phase 4, deterministic): needs quorum for v at
     phase 2 (value rule in isolation) *)
  let history =
    quorum_at ~phase:1 [ P.V1; P.V1; P.V1 ]
    @ quorum_at ~phase:2 [ P.V1; P.V1; P.V1 ]
    @ quorum_at ~phase:3 [ P.V1; P.V1; P.V1 ]
  in
  let v = vset_of history in
  check_value "deterministic v1" true v (mk ~phase:4 ~value:P.V1 ());
  check_value "deterministic v0" false v (mk ~phase:4 ~value:P.V0 ());
  (* and the full check passes for the state an honest decided process
     would actually broadcast *)
  check "decided v1 fully valid" true v (mk ~phase:4 ~value:P.V1 ~status:P.Decided ())

let test_converge_random_needs_bot_quorum () =
  (* coin value at phase 4: needs quorum of bot at phase 3 *)
  let history =
    quorum_at ~phase:1 [ P.V0; P.V0; P.V1; P.V1 ]
    @ quorum_at ~phase:2 [ P.V0; P.V0; P.V1 ]
    @ quorum_at ~phase:3 [ P.Vbot; P.Vbot; P.Vbot ]
  in
  let v = vset_of history in
  check "coin justified" true v (mk ~phase:4 ~value:P.V0 ~origin:P.Random ());
  check "coin either value" true v (mk ~phase:4 ~value:P.V1 ~origin:P.Random ());
  let partial =
    quorum_at ~phase:1 [ P.V0; P.V0; P.V1; P.V1 ]
    @ quorum_at ~phase:2 [ P.V0; P.V0; P.V1 ]
    @ quorum_at ~phase:3 [ P.Vbot; P.Vbot; P.V0 ]
  in
  let v2 = vset_of partial in
  check "2 bots not enough" false v2 (mk ~phase:4 ~value:P.V0 ~origin:P.Random ())

let test_status_undecided_early_free () =
  let v = vset_of (quorum_at ~phase:1 [ P.V1; P.V1; P.V1 ]) in
  check "undecided phase 2" true v (mk ~phase:2 ~value:P.V1 ~status:P.Undecided ())

let test_status_decided_needs_quorum () =
  let unanimous =
    quorum_at ~phase:1 [ P.V1; P.V1; P.V1 ]
    @ quorum_at ~phase:2 [ P.V1; P.V1; P.V1 ]
    @ quorum_at ~phase:3 [ P.V1; P.V1; P.V1 ]
  in
  let v = vset_of unanimous in
  check "decided v1 at 4" true v (mk ~phase:4 ~value:P.V1 ~status:P.Decided ());
  check "decided v0 at 4" false v (mk ~phase:4 ~value:P.V0 ~status:P.Decided ());
  check "decided bot" false v (mk ~phase:4 ~value:P.Vbot ~status:P.Decided ())

let test_status_decided_never_before_phase_4 () =
  let v =
    vset_of
      (quorum_at ~phase:1 [ P.V1; P.V1; P.V1 ] @ quorum_at ~phase:2 [ P.V1; P.V1; P.V1 ])
  in
  check "phase 3 decided impossible" false v (mk ~phase:3 ~value:P.V1 ~status:P.Decided ())

let test_status_undecided_after_unanimity_rejected () =
  (* after a unanimous history no honest process is undecided at phase 4;
     a Byzantine claim must be rejected *)
  let unanimous =
    quorum_at ~phase:1 [ P.V1; P.V1; P.V1 ]
    @ quorum_at ~phase:2 [ P.V1; P.V1; P.V1 ]
    @ quorum_at ~phase:3 [ P.V1; P.V1; P.V1 ]
  in
  let v = vset_of unanimous in
  check "undecided rejected" false v (mk ~phase:4 ~value:P.V1 ~status:P.Undecided ())

let test_status_undecided_with_split_witness () =
  (* the paper's rule: 0/1 split at the highest LOCK phase below phi *)
  let split_history =
    quorum_at ~phase:1 [ P.V0; P.V0; P.V1; P.V1 ]
    @ quorum_at ~phase:2 [ P.V0; P.V0; P.V1; P.V1 ]
    @ quorum_at ~phase:3 [ P.V1; P.V1; P.V1 ]
  in
  let v = vset_of split_history in
  check_status "split witness accepted" true v (mk ~phase:4 ~value:P.V1 ~status:P.Undecided ())

let test_status_undecided_with_bot_witness () =
  (* the transitive witness: a valid bot at the highest DECIDE phase *)
  let history =
    quorum_at ~phase:1 [ P.V0; P.V0; P.V1; P.V1 ]
    @ quorum_at ~phase:2 [ P.V1; P.V1; P.V0 ]
    @ quorum_at ~phase:3 [ P.V1; P.V1; P.Vbot ]
  in
  let v = vset_of history in
  (* only one V0 at the lock phase: the paper's split rule fails, the
     bot witness saves the honest message *)
  check_status "bot witness accepted" true v (mk ~phase:4 ~value:P.V1 ~status:P.Undecided ())

(* one failure per rule: the rendered reason keeps its wording, and the
   verdict lands in [validation.rejected] under that rule's label *)
let test_verdict_reasons () =
  let unanimous =
    quorum_at ~phase:1 [ P.V1; P.V1; P.V1 ]
    @ quorum_at ~phase:2 [ P.V1; P.V1; P.V1 ]
    @ quorum_at ~phase:3 [ P.V1; P.V1; P.V1 ]
  in
  List.iter
    (fun (rule, v, m, reason) ->
      let verdict, snap = Obs.Scope.with_run (fun () -> V.semantic_check cfg v m) in
      match verdict with
      | Ok () -> Alcotest.fail ("expected a " ^ rule ^ " failure")
      | Error failure ->
          Alcotest.(check string) (rule ^ " reason") reason (V.describe failure);
          Alcotest.(check string) (rule ^ " rule") rule (V.rule_name (V.rule failure));
          Alcotest.(check int) (rule ^ " label") 1
            (Obs.Metrics.counter_value snap ~labels:[ ("rule", rule) ] "validation.rejected");
          Alcotest.(check int) (rule ^ " counted once") 1
            (Obs.Metrics.sum_counters snap "validation.rejected"))
    [
      ("phase", vset_of [], mk ~phase:5 (), "phase 5: only 0 messages at phase 4");
      ( "value",
        vset_of (quorum_at ~phase:1 [ P.V1; P.V1; P.V0 ]),
        mk ~phase:2 ~value:P.V0 (),
        "lock value 0: 1 supporters at phase 1" );
      ( "status",
        vset_of unanimous,
        mk ~phase:4 ~value:P.V1 ~status:P.Undecided (),
        "undecided at phase 4: split at 2 is 0/3 and no bot witness" );
    ];
  let verdict, snap =
    Obs.Scope.with_run (fun () -> V.semantic_check cfg (vset_of []) (mk ~phase:1 ()))
  in
  (match verdict with
  | Ok () -> ()
  | Error failure -> Alcotest.fail ("expected valid: " ^ V.describe failure));
  Alcotest.(check int) "accepted" 1 (Obs.Metrics.counter_value snap "validation.accepted")

(* the closed forms against the defining descent: largest p < phi of the
   right kind, 0 when none exists — exhaustively for phi = 1..200 *)
let test_helper_phases_closed_form () =
  let highest_below ~kind phi =
    let rec descend p =
      if p < 1 then 0 else if P.kind_of_phase p = kind then p else descend (p - 1)
    in
    descend (phi - 1)
  in
  for phi = 1 to 200 do
    Alcotest.(check int)
      (Printf.sprintf "lock below %d" phi)
      (highest_below ~kind:P.Lock phi)
      (V.highest_lock_phase_below phi);
    Alcotest.(check int)
      (Printf.sprintf "decide below %d" phi)
      (highest_below ~kind:P.Decide phi)
      (V.highest_decide_phase_below phi)
  done

let test_helper_phases () =
  Alcotest.(check int) "lock below 4" 2 (V.highest_lock_phase_below 4);
  Alcotest.(check int) "lock below 6" 5 (V.highest_lock_phase_below 6);
  Alcotest.(check int) "lock below 2" 0 (V.highest_lock_phase_below 2);
  Alcotest.(check int) "decide below 4" 3 (V.highest_decide_phase_below 4);
  Alcotest.(check int) "decide below 7" 6 (V.highest_decide_phase_below 7);
  Alcotest.(check int) "decide below 3" 0 (V.highest_decide_phase_below 3)

(* property: validation is monotone — adding messages never invalidates *)
let qcheck_monotone =
  let gen_msgs =
    QCheck.Gen.(
      list_size (int_range 0 20)
        (let* sender = int_range 0 3 in
         let* phase = int_range 1 6 in
         let* value = oneofl [ P.V0; P.V1; P.Vbot ] in
         return (mk ~sender ~phase ~value ())))
  in
  QCheck.Test.make ~name:"validation monotone in V" ~count:200
    (QCheck.make
       (QCheck.Gen.pair gen_msgs
          QCheck.Gen.(
            let* phase = int_range 1 6 in
            let* value = oneofl [ P.V0; P.V1; P.Vbot ] in
            let* origin = oneofl [ P.Deterministic; P.Random ] in
            let* status = oneofl [ P.Undecided; P.Decided ] in
            return (mk ~phase ~value ~origin ~status ()))))
    (fun (msgs, candidate) ->
      (* keep one message per (sender, phase) so the small V is a subset
         of the big one (Vset keeps first-added per slot) *)
      let seen = Hashtbl.create 16 in
      let msgs =
        List.filter
          (fun (m : Core.Message.t) ->
            if Hashtbl.mem seen (m.sender, m.phase) then false
            else begin
              Hashtbl.add seen (m.sender, m.phase) ();
              true
            end)
          msgs
      in
      let half = List.filteri (fun i _ -> i mod 2 = 0) msgs in
      let v_small = vset_of half in
      let v_big = vset_of msgs in
      (* valid under fewer messages implies valid under more *)
      (not (is_valid v_small candidate)) || is_valid v_big candidate)

let suite =
  ( "validation",
    [
      Alcotest.test_case "phase 1 valid" `Quick test_phase1_always_valid;
      Alcotest.test_case "phase 1 restrictions" `Quick test_phase1_rejects_bot_and_coin;
      Alcotest.test_case "phase quorum" `Quick test_phase_needs_previous_quorum;
      Alcotest.test_case "phase horizon" `Quick test_phase_beyond_horizon;
      Alcotest.test_case "lock value" `Quick test_lock_value_support;
      Alcotest.test_case "decide value" `Quick test_decide_value_support;
      Alcotest.test_case "decide bot split" `Quick test_decide_bot_needs_phase1_split;
      Alcotest.test_case "converge deterministic" `Quick test_converge_deterministic_support;
      Alcotest.test_case "converge random" `Quick test_converge_random_needs_bot_quorum;
      Alcotest.test_case "undecided early" `Quick test_status_undecided_early_free;
      Alcotest.test_case "decided quorum" `Quick test_status_decided_needs_quorum;
      Alcotest.test_case "decided phase bound" `Quick test_status_decided_never_before_phase_4;
      Alcotest.test_case "undecided after unanimity" `Quick
        test_status_undecided_after_unanimity_rejected;
      Alcotest.test_case "undecided split witness" `Quick test_status_undecided_with_split_witness;
      Alcotest.test_case "undecided bot witness" `Quick test_status_undecided_with_bot_witness;
      Alcotest.test_case "verdict reasons" `Quick test_verdict_reasons;
      Alcotest.test_case "helper phases" `Quick test_helper_phases;
      Alcotest.test_case "helper phases closed form" `Quick test_helper_phases_closed_form;
      QCheck_alcotest.to_alcotest qcheck_monotone;
    ] )
