(* End-to-end protocol tests over the full simulated network stack, for
   Turquois and both baselines, across the paper's fault loads. *)

type outcome = {
  decided : (int * int * float) list; (* id, value, time *)
  correct : int list;
  duration : float;
}

let run_protocol ~protocol ~n ~proposals ~byz ~crash ~loss ?(jam = []) ~seed ~horizon () =
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  Net.Radio.set_loss_prob radio loss;
  List.iter (fun (a, b) -> Net.Radio.jam radio ~from:a ~until:b) jam;
  List.iter (fun i -> Net.Radio.set_down radio i true) crash;
  let nodes =
    Array.init n (fun id -> Net.Node.create engine radio ~id ~rng:(Util.Rng.split rng))
  in
  let decided = ref [] in
  let correct =
    List.filter (fun i -> not (List.mem i byz) && not (List.mem i crash)) (List.init n Fun.id)
  in
  let record i value = decided := (i, value, Net.Engine.now engine) :: !decided in
  let starts = ref [] in
  (match protocol with
  | `Turquois ->
      let cfg = Core.Proto.default_config ~n in
      let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:cfg.max_phases in
      Array.iteri
        (fun i node ->
          let behavior = if List.mem i byz then Core.Turquois.Attacker else Core.Turquois.Correct in
          let p = Core.Turquois.create node cfg ~keyring:keyrings.(i) ~behavior ~proposal:proposals.(i) () in
          if List.mem i correct then Core.Turquois.on_decide p (fun ~value ~phase:_ -> record i value);
          if not (List.mem i crash) then starts := (fun () -> Core.Turquois.start p) :: !starts)
        nodes
  | `Bracha ->
      let f = Net.Fault.max_f n in
      Array.iteri
        (fun i node ->
          let behavior = if List.mem i byz then Baselines.Bracha.Attacker else Baselines.Bracha.Correct in
          let p = Baselines.Bracha.create node ~n ~f ~behavior ~proposal:proposals.(i) () in
          if List.mem i correct then Baselines.Bracha.on_decide p (fun ~value ~round:_ -> record i value);
          if not (List.mem i crash) then starts := (fun () -> Baselines.Bracha.start p) :: !starts)
        nodes
  | `Abba ->
      let f = Net.Fault.max_f n in
      let keys = Baselines.Abba.setup_keys (Util.Rng.split rng) ~n ~f in
      Array.iteri
        (fun i node ->
          let behavior = if List.mem i byz then Baselines.Abba.Attacker else Baselines.Abba.Correct in
          let p = Baselines.Abba.create node ~keys ~behavior ~proposal:proposals.(i) () in
          if List.mem i correct then Baselines.Abba.on_decide p (fun ~value ~round:_ -> record i value);
          if not (List.mem i crash) then starts := (fun () -> Baselines.Abba.start p) :: !starts)
        nodes);
  List.iter (fun start -> start ()) !starts;
  Net.Engine.run_while engine (fun () ->
      Net.Engine.now engine < horizon && List.length !decided < List.length correct);
  { decided = List.rev !decided; correct; duration = Net.Engine.now engine }

let check_agreement name outcome =
  match outcome.decided with
  | [] -> ()
  | (_, v0, _) :: rest ->
      List.iter (fun (_, v, _) -> Alcotest.(check int) (name ^ ": agreement") v0 v) rest

let check_all_decided name outcome =
  Alcotest.(check int)
    (name ^ ": all correct decided")
    (List.length outcome.correct) (List.length outcome.decided);
  check_agreement name outcome

let check_validity name expected outcome =
  List.iter (fun (_, v, _) -> Alcotest.(check int) (name ^ ": validity") expected v) outcome.decided

let unanimous n = Array.make n 1
let divergent n = Array.init n (fun i -> i mod 2)

(* --- Turquois ---------------------------------------------------------------- *)

let test_turquois_basic () =
  let o = run_protocol ~protocol:`Turquois ~n:4 ~proposals:(unanimous 4) ~byz:[] ~crash:[]
      ~loss:0.01 ~seed:1L ~horizon:30.0 () in
  check_all_decided "turquois" o;
  check_validity "turquois" 1 o;
  Alcotest.(check bool) "fast" true (o.duration < 0.1)

let test_turquois_divergent () =
  let o = run_protocol ~protocol:`Turquois ~n:7 ~proposals:(divergent 7) ~byz:[] ~crash:[]
      ~loss:0.01 ~seed:2L ~horizon:30.0 () in
  check_all_decided "turquois divergent" o

let test_turquois_failstop () =
  let o = run_protocol ~protocol:`Turquois ~n:7 ~proposals:(unanimous 7) ~byz:[] ~crash:[ 5; 6 ]
      ~loss:0.01 ~seed:3L ~horizon:30.0 () in
  check_all_decided "turquois fail-stop" o;
  check_validity "turquois fail-stop" 1 o

let test_turquois_byzantine_unanimous () =
  let o = run_protocol ~protocol:`Turquois ~n:7 ~proposals:(unanimous 7) ~byz:[ 5; 6 ] ~crash:[]
      ~loss:0.01 ~seed:4L ~horizon:30.0 () in
  check_all_decided "turquois byz" o;
  check_validity "turquois byz" 1 o

let test_turquois_byzantine_divergent () =
  let o = run_protocol ~protocol:`Turquois ~n:10 ~proposals:(divergent 10) ~byz:[ 7; 8; 9 ]
      ~crash:[] ~loss:0.01 ~seed:5L ~horizon:60.0 () in
  check_all_decided "turquois byz divergent" o

let test_turquois_heavy_loss () =
  let o = run_protocol ~protocol:`Turquois ~n:4 ~proposals:(divergent 4) ~byz:[] ~crash:[]
      ~loss:0.25 ~seed:6L ~horizon:60.0 () in
  check_all_decided "turquois heavy loss" o

let test_turquois_jamming_safety () =
  (* a long jam delays but never corrupts the outcome *)
  let o = run_protocol ~protocol:`Turquois ~n:4 ~proposals:(unanimous 4) ~byz:[] ~crash:[]
      ~loss:0.01 ~jam:[ (0.0, 0.2) ] ~seed:7L ~horizon:30.0 () in
  check_all_decided "turquois jam" o;
  check_validity "turquois jam" 1 o;
  List.iter
    (fun (_, _, t) -> Alcotest.(check bool) "decided after jam" true (t > 0.2))
    o.decided

let test_turquois_n16 () =
  let o = run_protocol ~protocol:`Turquois ~n:16 ~proposals:(divergent 16) ~byz:[] ~crash:[]
      ~loss:0.01 ~seed:8L ~horizon:60.0 () in
  check_all_decided "turquois n16" o

let test_turquois_total_loss_no_decision () =
  (* with 100% loss nobody can decide — but nothing crashes either *)
  let o = run_protocol ~protocol:`Turquois ~n:4 ~proposals:(unanimous 4) ~byz:[] ~crash:[]
      ~loss:1.0 ~seed:9L ~horizon:2.0 () in
  Alcotest.(check int) "no decisions" 0 (List.length o.decided)

(* --- Bracha -------------------------------------------------------------------- *)

let test_bracha_basic () =
  let o = run_protocol ~protocol:`Bracha ~n:4 ~proposals:(unanimous 4) ~byz:[] ~crash:[]
      ~loss:0.01 ~seed:10L ~horizon:60.0 () in
  check_all_decided "bracha" o;
  check_validity "bracha" 1 o

let test_bracha_divergent () =
  let o = run_protocol ~protocol:`Bracha ~n:4 ~proposals:(divergent 4) ~byz:[] ~crash:[]
      ~loss:0.01 ~seed:11L ~horizon:60.0 () in
  check_all_decided "bracha divergent" o

let test_bracha_failstop () =
  let o = run_protocol ~protocol:`Bracha ~n:7 ~proposals:(unanimous 7) ~byz:[] ~crash:[ 5; 6 ]
      ~loss:0.01 ~seed:12L ~horizon:60.0 () in
  check_all_decided "bracha fail-stop" o;
  check_validity "bracha fail-stop" 1 o

let test_bracha_byzantine () =
  let o = run_protocol ~protocol:`Bracha ~n:7 ~proposals:(unanimous 7) ~byz:[ 5; 6 ] ~crash:[]
      ~loss:0.01 ~seed:13L ~horizon:120.0 () in
  check_all_decided "bracha byz" o;
  check_validity "bracha byz" 1 o

(* --- ABBA ---------------------------------------------------------------------- *)

let test_abba_basic () =
  let o = run_protocol ~protocol:`Abba ~n:4 ~proposals:(unanimous 4) ~byz:[] ~crash:[]
      ~loss:0.01 ~seed:14L ~horizon:60.0 () in
  check_all_decided "abba" o;
  check_validity "abba" 1 o

let test_abba_divergent () =
  let o = run_protocol ~protocol:`Abba ~n:7 ~proposals:(divergent 7) ~byz:[] ~crash:[]
      ~loss:0.01 ~seed:15L ~horizon:60.0 () in
  check_all_decided "abba divergent" o

let test_abba_failstop () =
  let o = run_protocol ~protocol:`Abba ~n:7 ~proposals:(unanimous 7) ~byz:[] ~crash:[ 5; 6 ]
      ~loss:0.01 ~seed:16L ~horizon:60.0 () in
  check_all_decided "abba fail-stop" o;
  check_validity "abba fail-stop" 1 o

let test_abba_byzantine () =
  let o = run_protocol ~protocol:`Abba ~n:7 ~proposals:(divergent 7) ~byz:[ 5; 6 ] ~crash:[]
      ~loss:0.01 ~seed:17L ~horizon:120.0 () in
  check_all_decided "abba byz" o

(* --- cross-protocol comparisons -------------------------------------------------- *)

let test_relative_latency_ordering () =
  (* the paper's headline: Turquois is fastest, Bracha slowest *)
  let mean_latency protocol seed =
    let o = run_protocol ~protocol ~n:7 ~proposals:(unanimous 7) ~byz:[] ~crash:[]
        ~loss:0.01 ~seed ~horizon:120.0 () in
    Alcotest.(check int) "all decided" 5 (List.length o.decided |> min 5 |> max 5);
    List.fold_left (fun acc (_, _, t) -> acc +. t) 0.0 o.decided
    /. float_of_int (List.length o.decided)
  in
  let turquois = mean_latency `Turquois 20L in
  let abba = mean_latency `Abba 21L in
  let bracha = mean_latency `Bracha 22L in
  Alcotest.(check bool) "turquois < abba" true (turquois < abba);
  Alcotest.(check bool) "abba < bracha" true (abba < bracha);
  Alcotest.(check bool) "order of magnitude" true (bracha > 10.0 *. turquois)

let suite =
  ( "protocols-e2e",
    [
      Alcotest.test_case "turquois basic" `Quick test_turquois_basic;
      Alcotest.test_case "turquois divergent" `Quick test_turquois_divergent;
      Alcotest.test_case "turquois fail-stop" `Quick test_turquois_failstop;
      Alcotest.test_case "turquois byz unanimous" `Quick test_turquois_byzantine_unanimous;
      Alcotest.test_case "turquois byz divergent" `Slow test_turquois_byzantine_divergent;
      Alcotest.test_case "turquois heavy loss" `Quick test_turquois_heavy_loss;
      Alcotest.test_case "turquois jamming" `Quick test_turquois_jamming_safety;
      Alcotest.test_case "turquois n16" `Slow test_turquois_n16;
      Alcotest.test_case "turquois total loss" `Quick test_turquois_total_loss_no_decision;
      Alcotest.test_case "bracha basic" `Quick test_bracha_basic;
      Alcotest.test_case "bracha divergent" `Quick test_bracha_divergent;
      Alcotest.test_case "bracha fail-stop" `Quick test_bracha_failstop;
      Alcotest.test_case "bracha byzantine" `Slow test_bracha_byzantine;
      Alcotest.test_case "abba basic" `Quick test_abba_basic;
      Alcotest.test_case "abba divergent" `Quick test_abba_divergent;
      Alcotest.test_case "abba fail-stop" `Quick test_abba_failstop;
      Alcotest.test_case "abba byzantine" `Slow test_abba_byzantine;
      Alcotest.test_case "latency ordering" `Slow test_relative_latency_ordering;
    ] )
