(* Tests of the pure protocol machine: scripted transitions and
   randomized safety properties in the abstract (transport-free) model. *)

module P = Core.Proto
module M = Core.Machine

(* the frame a machine broadcasts now, if any: these tests build only
   correct and Attacker machines, which never send per-receiver frames *)
let broadcast m ~justify =
  match M.emit m ~justify with M.Broadcast env -> Some env | M.Quiet | M.Per_receiver _ -> None

let make_group ?(n = 4) ?(seed = 300L) ?(proposals = [| 1; 1; 1; 1 |]) ?(byzantine = []) () =
  let rng = Util.Rng.create ~seed in
  let cfg = { (P.default_config ~n) with max_phases = 60 } in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:60 in
  let machines =
    Array.init n (fun i ->
        let behavior = if List.mem i byzantine then M.Attacker else M.Correct in
        M.create cfg ~keyring:keyrings.(i) ~rng:(Util.Rng.split rng) ~behavior
          ~proposal:proposals.(i) ())
  in
  (cfg, machines)

(* one lossless synchronous round: everyone broadcasts with justification,
   everyone receives everything *)
let round machines =
  let envelopes = Array.map (fun m -> broadcast m ~justify:true) machines in
  Array.iteri
    (fun s env ->
      match env with
      | None -> ()
      | Some env ->
          Array.iteri (fun r m -> if r <> s then ignore (M.handle m env)) machines)
    envelopes

let test_initial_state () =
  let _, machines = make_group () in
  Array.iteri
    (fun i m ->
      Alcotest.(check int) "id" i (M.id m);
      Alcotest.(check int) "phase 1" 1 (M.phase m);
      Alcotest.(check bool) "undecided" true (M.current_status m = P.Undecided);
      Alcotest.(check (option int)) "no decision" None (M.decision m))
    machines

let test_rejects_bad_proposal () =
  let rng = Util.Rng.create ~seed:1L in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n:4 ~phases:12 in
  Alcotest.check_raises "proposal 2" (Invalid_argument "Proto.value_of_bit: 2") (fun () ->
      ignore
        (M.create
           { (P.default_config ~n:4) with max_phases = 12 }
           ~keyring:keyrings.(0) ~rng ~proposal:2 ()))

let test_unanimous_decides_phase_3 () =
  let _, machines = make_group () in
  (* three lossless rounds: CONVERGE, LOCK, DECIDE *)
  round machines;
  round machines;
  round machines;
  Array.iter
    (fun m ->
      Alcotest.(check (option int)) "decided 1" (Some 1) (M.decision m);
      Alcotest.(check (option int)) "at phase 3" (Some 3) (M.decision_phase m))
    machines

let test_unanimous_zero () =
  let _, machines = make_group ~proposals:[| 0; 0; 0; 0 |] () in
  for _ = 1 to 3 do round machines done;
  Array.iter (fun m -> Alcotest.(check (option int)) "decided 0" (Some 0) (M.decision m)) machines

let test_divergent_agreement () =
  let _, machines = make_group ~seed:301L ~proposals:[| 1; 0; 1; 0 |] () in
  let rounds = ref 0 in
  while Array.exists (fun m -> M.decision m = None) machines && !rounds < 40 do
    round machines;
    incr rounds
  done;
  let decisions = Array.to_list machines |> List.filter_map M.decision in
  Alcotest.(check int) "all decided" 4 (List.length decisions);
  (match decisions with
  | v :: rest -> List.iter (fun d -> Alcotest.(check int) "agreement" v d) rest
  | [] -> ());
  Alcotest.(check bool) "within a few cycles" true (!rounds <= 12)

let test_validity_under_attack () =
  (* all correct propose 1; the attacker must not change the outcome *)
  let _, machines = make_group ~n:4 ~seed:302L ~byzantine:[ 3 ] () in
  let correct = [ 0; 1; 2 ] in
  let rounds = ref 0 in
  while List.exists (fun i -> M.decision machines.(i) = None) correct && !rounds < 40 do
    round machines;
    incr rounds
  done;
  List.iter
    (fun i -> Alcotest.(check (option int)) "validity" (Some 1) (M.decision machines.(i)))
    correct

let test_adoption_catches_up () =
  (* process 3 misses every message for 3 rounds, then receives one
     justified envelope from a decided process and adopts *)
  let _, machines = make_group ~seed:303L () in
  let laggard = machines.(3) in
  let rest = [ machines.(0); machines.(1); machines.(2) ] in
  for _ = 1 to 3 do
    let envelopes = List.map (fun m -> (M.id m, broadcast m ~justify:true)) rest in
    List.iter
      (fun (s, env) ->
        match env with
        | None -> ()
        | Some env ->
            List.iter (fun m -> if M.id m <> s then ignore (M.handle m env)) rest)
      envelopes
  done;
  Alcotest.(check (option int)) "others decided" (Some 1) (M.decision machines.(0));
  Alcotest.(check int) "laggard still at 1" 1 (M.phase laggard);
  (* one justified message is enough to adopt the decided state *)
  (match broadcast machines.(0) ~justify:true with
  | Some env ->
      let events, _ = M.handle laggard env in
      Alcotest.(check bool) "decided event" true
        (List.exists (function M.Decided _ -> true | M.Phase_changed _ -> false) events)
  | None -> Alcotest.fail "no broadcast");
  Alcotest.(check (option int)) "laggard decided" (Some 1) (M.decision laggard)

let test_key_horizon_exhaustion () =
  let rng = Util.Rng.create ~seed:304L in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n:4 ~phases:4 in
  let cfg = { (P.default_config ~n:4) with max_phases = 4 } in
  let m = M.create cfg ~keyring:keyrings.(0) ~rng ~proposal:1 () in
  Alcotest.(check bool) "phase 1 ok" true (broadcast m ~justify:false <> None)

let test_attacker_message_content () =
  let _, machines = make_group ~byzantine:[ 0 ] () in
  match broadcast machines.(0) ~justify:false with
  | Some env ->
      (* attacker in a CONVERGE phase flips its value (all propose 1) *)
      Alcotest.(check bool) "flipped" true (P.value_equal env.msg.value P.V0)
  | None -> Alcotest.fail "no broadcast"

let test_stats_accumulate () =
  let (), metrics = Obs.Scope.with_run (fun () -> round (snd (make_group ()))) in
  (* every machine admits the other three's phase-1 messages *)
  Alcotest.(check int) "accepted all" 12 (Obs.Metrics.counter_value metrics "validation.accepted");
  Alcotest.(check int) "no auth failures" 0
    (Obs.Metrics.counter_value metrics ~labels:[ ("rule", "auth") ] "validation.rejected")

(* The bundle rule as the code ships it: a correct machine's justified
   bundle is its V set at phi-1, phi-2 and phi-3 plus its deciding
   quorum, one entry per (sender, phase). Checked on the bundle every
   correct machine is about to emit, in lossy lockstep walks against
   the whole strategy alphabet. A second emit with no input in between
   is built from the V set the first left behind, the machine's own
   message included: a deciding quorum at phi that was short of a full
   quorum must now ship that message. *)
let test_bundle_shape () =
  let module D = Harness.Abstract_rounds.Driven in
  let rounds = 24 in
  let checked = ref 0 and deciding = ref 0 and reemits = ref 0 and bad = ref [] in
  let check_bundle ~where m (env : Core.Message.envelope) =
    incr checked;
    let phi = env.msg.phase in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (e : Core.Message.t) ->
        if e.phase >= phi - 3 && e.phase < phi then ()
        else if Some e.phase = M.decision_phase m then incr deciding
        else bad := Printf.sprintf "%s: entry at phase %d" where e.phase :: !bad;
        if Hashtbl.mem seen (e.sender, e.phase) then
          bad := Printf.sprintf "%s: second entry of p%d" where e.sender :: !bad;
        Hashtbl.replace seen (e.sender, e.phase) ())
      env.justification
  in
  let check_reemit ~where ~quorum m (first : Core.Message.envelope) second =
    let phi = first.msg.phase in
    let at_phi (env : Core.Message.envelope) =
      List.filter (fun (e : Core.Message.t) -> e.phase = phi) env.justification
    in
    if M.decision_phase m = Some phi && List.length (at_phi first) < quorum then begin
      incr reemits;
      match second with
      | Some (env : Core.Message.envelope)
        when List.exists (Core.Message.header_equal env.msg) (at_phi env) -> ()
      | Some _ | None ->
          bad := Printf.sprintf "%s: re-emit at phase %d lacks its own message" where phi :: !bad
    end
  in
  List.iter
    (fun (n, byzantine) ->
      let quorum = ((n + Net.Fault.max_f n) / 2) + 1 in
      for seed = 1 to 6 do
        let rng = Util.Rng.create ~seed:(Int64.of_int seed) in
        let sim =
          D.create ~n ~k:(n - Net.Fault.max_f n) ~byzantine ~dist:Harness.Runner.Divergent
            ~horizon:rounds ~rng ()
        in
        for round = 1 to rounds do
          List.iter
            (fun i ->
              let where =
                Printf.sprintf "n=%d t=%d seed %d round %d p%d" n (List.length byzantine) seed
                  round i
              in
              let m = M.clone (D.machine sim i) in
              Option.iter
                (fun env ->
                  check_bundle ~where m env;
                  check_reemit ~where ~quorum m env (broadcast m ~justify:true))
                (broadcast m ~justify:true))
            (D.correct sim);
          let byz =
            List.map
              (fun b ->
                (b, List.nth Core.Strategy.all ((round + b) mod List.length Core.Strategy.all)))
              byzantine
          in
          let drops =
            List.concat_map
              (fun s ->
                List.filter_map
                  (fun r -> if r <> s && Util.Rng.int rng 4 = 0 then Some (s, r) else None)
                  (List.init n Fun.id))
              (List.init n Fun.id)
          in
          D.step sim ~drops ~byz
        done
      done)
    [ (4, []); (4, [ 3 ]); (7, [ 5; 6 ]) ];
  Alcotest.(check (list string)) "entries outside the rule" [] (List.rev !bad);
  Alcotest.(check bool) "bundles checked" true (!checked > 0);
  Alcotest.(check bool) "deciding quorums outside the window" true (!deciding > 0);
  Alcotest.(check bool) "short deciding quorums re-emitted" true (!reemits > 0)

let test_same_state_detection () =
  let _, machines = make_group () in
  Alcotest.(check bool) "before any broadcast" false
    (M.same_state_as_last_broadcast machines.(0));
  ignore (broadcast machines.(0) ~justify:false);
  Alcotest.(check bool) "unchanged state" true (M.same_state_as_last_broadcast machines.(0))

(* --- randomized safety: agreement and validity hold under arbitrary
       omission patterns and Byzantine attackers ----------------------------- *)

let run_random_schedule ~n ~byzantine ~proposals ~drop_prob ~rounds ~seed =
  let rng = Util.Rng.create ~seed in
  let cfg = { (P.default_config ~n) with max_phases = 3 * rounds + 9 } in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:cfg.max_phases in
  let machines =
    Array.init n (fun i ->
        let behavior = if List.mem i byzantine then M.Attacker else M.Correct in
        M.create cfg ~keyring:keyrings.(i) ~rng:(Util.Rng.split rng) ~behavior
          ~proposal:proposals.(i) ())
  in
  for _ = 1 to rounds do
    let envelopes = Array.map (fun m -> broadcast m ~justify:(Util.Rng.bool rng)) machines in
    (* deliver in random order with random omissions *)
    let deliveries = ref [] in
    Array.iteri
      (fun s env ->
        match env with
        | None -> ()
        | Some env ->
            Array.iteri
              (fun r _ ->
                if r <> s && not (Util.Rng.bernoulli rng drop_prob) then
                  deliveries := (r, env) :: !deliveries)
              machines)
      envelopes;
    let order = Array.of_list !deliveries in
    Util.Rng.shuffle rng order;
    Array.iter (fun (r, env) -> ignore (M.handle machines.(r) env)) order
  done;
  machines

let qcheck_safety_random_schedules =
  QCheck.Test.make ~name:"agreement+validity under random omissions" ~count:40
    QCheck.(
      triple (int_range 0 1000000)
        (int_range 0 60) (* drop percentage *)
        (oneofl [ (4, [ 3 ]); (4, []); (7, [ 5; 6 ]); (7, []) ]))
    (fun (seed, drop_pct, (n, byzantine)) ->
      let rng = Util.Rng.create ~seed:(Int64.of_int seed) in
      let proposals = Array.init n (fun _ -> Util.Rng.coin rng) in
      let machines =
        run_random_schedule ~n ~byzantine ~proposals
          ~drop_prob:(float_of_int drop_pct /. 100.0)
          ~rounds:25
          ~seed:(Int64.of_int (seed + 1))
      in
      let correct = List.filter (fun i -> not (List.mem i byzantine)) (List.init n Fun.id) in
      let decisions = List.filter_map (fun i -> M.decision machines.(i)) correct in
      let agreement =
        match decisions with [] -> true | v :: rest -> List.for_all (( = ) v) rest
      in
      let validity =
        let proposed = List.map (fun i -> proposals.(i)) correct in
        match List.sort_uniq compare proposed with
        | [ v ] -> List.for_all (( = ) v) decisions
        | _ -> true
      in
      agreement && validity)

let qcheck_liveness_lossless =
  QCheck.Test.make ~name:"lossless schedules decide quickly" ~count:25
    QCheck.(pair (int_range 0 100000) (oneofl [ 4; 5; 7 ]))
    (fun (seed, n) ->
      let rng = Util.Rng.create ~seed:(Int64.of_int seed) in
      let proposals = Array.init n (fun _ -> Util.Rng.coin rng) in
      let machines =
        run_random_schedule ~n ~byzantine:[] ~proposals ~drop_prob:0.0 ~rounds:30
          ~seed:(Int64.of_int (seed + 7))
      in
      Array.for_all (fun m -> M.decision m <> None) machines)

(* --- compact wire path ------------------------------------------------------ *)

(* The delta-compressed wire path must be observation-equivalent to the
   plain one: the same scripted network executed through
   encode_envelope/handle_wire with compression off and on has to
   produce bit-identical machine states round for round. Each sender
   transmits every frame twice — a stuck re-broadcast within the same
   phase — so the second copy actually exercises the Ref entries. *)
let test_compact_wire_equivalence () =
  let universe compact =
    M.with_compact compact (fun () ->
        let _, machines = make_group ~seed:905L ~proposals:[| 1; 0; 1; 0 |] () in
        let trace = ref [] in
        let rounds = ref 0 in
        while Array.exists (fun m -> M.decision m = None) machines && !rounds < 40 do
          let envelopes = Array.map (fun m -> broadcast m ~justify:true) machines in
          Array.iteri
            (fun s env ->
              match env with
              | None -> ()
              | Some env ->
                  let frames =
                    [ M.encode_envelope machines.(s) env;
                      M.encode_envelope machines.(s) env ]
                  in
                  Array.iteri
                    (fun r m ->
                      if r <> s then
                        List.iter
                          (fun b ->
                            ignore (M.handle_wire m (Core.Msgstore.decode (M.store m) b)))
                          frames)
                    machines)
            envelopes;
          incr rounds;
          trace := List.map M.fingerprint (Array.to_list machines) :: !trace
        done;
        (List.rev !trace, List.map M.decision (Array.to_list machines)))
  in
  let trace_plain, dec_plain = universe false in
  let trace_compact, dec_compact = universe true in
  Alcotest.(check bool) "round-for-round fingerprints" true (trace_plain = trace_compact);
  Alcotest.(check (list (option int))) "decisions" dec_plain dec_compact;
  Alcotest.(check bool) "all decided" true (List.for_all Option.is_some dec_plain)

(* Sender-side framing: first justified frame of a phase is a keyframe
   (all entries full), repeats ship 8-byte references and reuse the
   cached wire bytes, and every keyframe_every-th encode re-ships the
   bundle in full so a receiver that missed the keyframe recovers. A
   receiver that cannot resolve a reference drops just that entry and
   counts it. *)
let test_compact_framing_and_unresolved_refs () =
  M.with_compact true (fun () ->
      let _, machines = make_group ~seed:906L ~proposals:[| 1; 0; 1; 0 |] () in
      (* a receiver that has authenticated nothing yet *)
      let receiver = M.clone machines.(1) in
      round machines;
      (* everyone is now past phase 1, so justified envelopes are nonempty *)
      let sender = machines.(0) in
      let env =
        match broadcast sender ~justify:true with
        | Some env -> env
        | None -> Alcotest.fail "expected a broadcast"
      in
      Alcotest.(check bool) "justification nonempty" true
        (env.Core.Message.justification <> []);
      let f = Array.init 5 (fun _ -> M.encode_envelope sender env) in
      let entries b = (Core.Message.decode_wire b).Core.Message.wjust in
      let is_ref = function Core.Message.Ref _ -> true | Core.Message.Full _ -> false in
      Alcotest.(check bool) "frame 1 is a keyframe" true
        (List.for_all (fun e -> not (is_ref e)) (entries f.(0)));
      Alcotest.(check bool) "frame 2 is all references" true
        (List.for_all is_ref (entries f.(1)));
      Alcotest.(check bool) "frame 2 is smaller" true
        (Bytes.length f.(1) < Bytes.length f.(0));
      Alcotest.(check bool) "frames 3-4 reuse the cached bytes" true
        (Bytes.equal f.(1) f.(2) && Bytes.equal f.(1) f.(3));
      Alcotest.(check bool) "frame 5 is the next keyframe" true
        (List.for_all (fun e -> not (is_ref e)) (entries f.(4)));
      (* the receiver never authenticated any of the referenced
         messages: the all-reference frame must drop the bundle *)
      let unresolved () =
        Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "compact.unresolved"
      in
      let before = unresolved () in
      ignore (M.handle_wire receiver (Core.Msgstore.decode (M.store receiver) f.(1)));
      Alcotest.(check int) "every reference dropped and counted"
        (before + List.length (entries f.(1)))
        (unresolved ());
      (* the keyframe's full entries authenticate; replaying the
         reference frame afterwards resolves every entry *)
      ignore (M.handle_wire receiver (Core.Msgstore.decode (M.store receiver) f.(4)));
      let after_keyframe = unresolved () in
      ignore (M.handle_wire receiver (Core.Msgstore.decode (M.store receiver) f.(1)));
      Alcotest.(check int) "references resolve after the keyframe" after_keyframe
        (unresolved ()))

(* A compact reference resolves only to a message the receiver
   authenticated itself. A Byzantine sender ships a full entry with a
   forged proof, then a frame whose reference names it: the reference
   must count as unresolved instead of reaching the authenticity check
   again. K distinct forged entries from that sender leave the
   receiver's resolvable set exactly as it was. *)
let test_forged_full_never_resolvable () =
  let _, machines = make_group ~seed:907L () in
  let receiver = machines.(1) in
  let valid =
    match broadcast machines.(3) ~justify:false with
    | Some env -> env.Core.Message.msg
    | None -> Alcotest.fail "expected a broadcast"
  in
  let forged k = { valid with Core.Message.phase = 2; proof = Bytes.make 32 (Char.chr k) } in
  let deliver wjust =
    let b = Core.Message.encode_wire { Core.Message.wmsg = valid; wjust } in
    ignore (M.handle_wire receiver (Core.Msgstore.decode (M.store receiver) b))
  in
  let counter ?labels name =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) ?labels name
  in
  let rejected0 = counter ~labels:[ ("rule", "auth") ] "validation.rejected" in
  let rejected () = counter ~labels:[ ("rule", "auth") ] "validation.rejected" - rejected0 in
  deliver [ Core.Message.Full (forged 0) ];
  Alcotest.(check int) "the forged full entry fails authentication" 1 (rejected ());
  let resolvable = M.resolvable receiver in
  let unresolved = counter "compact.unresolved" in
  deliver [ Core.Message.Ref (Core.Message.msg_digest (forged 0)) ];
  Alcotest.(check int) "the reference to it is unresolved" (unresolved + 1)
    (counter "compact.unresolved");
  Alcotest.(check int) "and never re-checked" 1 (rejected ());
  let k = 16 in
  for i = 1 to k do
    deliver [ Core.Message.Full (forged i) ]
  done;
  Alcotest.(check int) "every forged entry rejected" (1 + k) (rejected ());
  Alcotest.(check int) "resolvable set unchanged" resolvable (M.resolvable receiver)

let suite =
  ( "machine",
    [
      Alcotest.test_case "initial state" `Quick test_initial_state;
      Alcotest.test_case "bad proposal" `Quick test_rejects_bad_proposal;
      Alcotest.test_case "unanimous phase 3" `Quick test_unanimous_decides_phase_3;
      Alcotest.test_case "unanimous zero" `Quick test_unanimous_zero;
      Alcotest.test_case "divergent agreement" `Quick test_divergent_agreement;
      Alcotest.test_case "validity under attack" `Quick test_validity_under_attack;
      Alcotest.test_case "adoption catch-up" `Quick test_adoption_catches_up;
      Alcotest.test_case "key horizon" `Quick test_key_horizon_exhaustion;
      Alcotest.test_case "attacker content" `Quick test_attacker_message_content;
      Alcotest.test_case "stats" `Quick test_stats_accumulate;
      Alcotest.test_case "bundle shape" `Quick test_bundle_shape;
      Alcotest.test_case "same state detection" `Quick test_same_state_detection;
      Alcotest.test_case "compact wire equivalence" `Quick test_compact_wire_equivalence;
      Alcotest.test_case "compact framing/unresolved" `Quick
        test_compact_framing_and_unresolved_refs;
      Alcotest.test_case "forged full never resolvable" `Quick
        test_forged_full_never_resolvable;
      QCheck_alcotest.to_alcotest qcheck_safety_random_schedules;
      QCheck_alcotest.to_alcotest qcheck_liveness_lossless;
    ] )
