(* Remaining unit surfaces: table formatting, the CPU cost model, the
   datagram header, and the decision-certificate recovery path. *)

(* --- Tablefmt ----------------------------------------------------------- *)

let test_table_render () =
  let s =
    Util.Tablefmt.render ~header:[ "a"; "b" ]
      ~rows:[ [ "x"; "1" ]; [ "longer"; "22" ] ]
      ()
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "has border" true (List.exists (fun l -> l <> "" && l.[0] = '+') lines);
  (* all non-empty lines are equally wide *)
  let widths = List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines in
  Alcotest.(check bool) "rectangular" true
    (List.for_all (( = ) (List.hd widths)) widths)

let test_table_pads_short_rows () =
  let s = Util.Tablefmt.render ~header:[ "a"; "b"; "c" ] ~rows:[ [ "only-one" ] ] () in
  Alcotest.(check bool) "renders" true (String.length s > 0)

(* a "mean ± ci" cell is wider in bytes than on screen: every line of
   the box must still span the same number of code points *)
let test_table_display_width () =
  let s =
    Util.Tablefmt.render ~header:[ "variant"; "latency (ms)" ]
      ~rows:
        [ [ "paper"; Util.Tablefmt.latency_cell ~mean:10.28 ~ci:0.2 ]; [ "ascii"; "20.41" ] ]
      ()
  in
  let code_points l =
    String.fold_left (fun n c -> if Char.code c land 0xC0 <> 0x80 then n + 1 else n) 0 l
  in
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (code_points l))
      (String.split_on_char '\n' s)
  in
  Alcotest.(check (list int)) "every line equally wide"
    (List.map (fun _ -> List.hd widths) widths)
    widths

let test_latency_cell () =
  Alcotest.(check string) "format" "12.35 ± 1.20" (Util.Tablefmt.latency_cell ~mean:12.345 ~ci:1.2)

(* --- Cost model ----------------------------------------------------------- *)

let test_cost_monotone_in_size () =
  Alcotest.(check bool) "sha grows" true
    (Net.Cost.sha256 ~bytes_len:10_000 > Net.Cost.sha256 ~bytes_len:10);
  Alcotest.(check bool) "hmac > 2 sha" true
    (Net.Cost.hmac ~bytes_len:100 > 2.0 *. Net.Cost.sha256 ~bytes_len:100)

let test_cost_hierarchy () =
  (* the relationships the paper's design exploits *)
  Alcotest.(check bool) "onetime check is micro-scale" true (Net.Cost.onetime_check < 10.0e-6);
  Alcotest.(check bool) "rsa sign >> rsa verify" true
    (Net.Cost.rsa_sign > 10.0 *. Net.Cost.rsa_verify);
  Alcotest.(check bool) "rsa verify >> hash" true
    (Net.Cost.rsa_verify > 100.0 *. Net.Cost.onetime_check);
  Alcotest.(check bool) "coin share verify > create unit" true
    (Net.Cost.coin_share_verify > Net.Cost.modexp);
  Alcotest.(check (float 1e-12)) "combine linear" (3.0 *. Net.Cost.modexp)
    (Net.Cost.coin_combine ~shares:3)

(* --- datagram framing -------------------------------------------------------- *)

let test_datagram_header_constant () =
  Alcotest.(check int) "IP+UDP" 28 Net.Datagram.header_bytes

let test_mac_constants () =
  Alcotest.(check (float 1e-12)) "slot" 20.0e-6 Net.Mac.Const.slot;
  Alcotest.(check (float 1e-12)) "sifs" 10.0e-6 Net.Mac.Const.sifs;
  Alcotest.(check (float 1e-12)) "difs" 50.0e-6 Net.Mac.Const.difs;
  Alcotest.(check bool) "difs = sifs + 2 slots" true
    (Float.abs (Net.Mac.Const.difs -. (Net.Mac.Const.sifs +. (2.0 *. Net.Mac.Const.slot)))
    < 1e-12);
  Alcotest.(check int) "cw doubles to max" 1023 Net.Mac.Const.cw_max

(* --- decision certificate ------------------------------------------------------ *)

let test_certificate_rescues_deep_laggard () =
  (* three processes decide and advance far beyond the laggard's reach;
     the laggard cannot replay the validation chain but must still decide
     from a quorum of authentic decided claims *)
  let n = 4 in
  let rng = Util.Rng.create ~seed:700L in
  let cfg = { (Core.Proto.default_config ~n) with max_phases = 60 } in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:60 in
  let machines =
    Array.init n (fun i ->
        Core.Machine.create cfg ~keyring:keyrings.(i) ~rng:(Util.Rng.split rng) ~proposal:1 ())
  in
  let fast = [ machines.(0); machines.(1); machines.(2) ] in
  (* ten lossless rounds among the fast three: they decide at phase 3 and
     keep advancing to ~phase 13 *)
  for _ = 1 to 10 do
    let transmissions = List.map (fun m -> (Core.Machine.id m, Core.Machine.emit m ~justify:true)) fast in
    List.iter
      (fun (s, tx) ->
        match tx with
        | Core.Machine.Quiet | Core.Machine.Per_receiver _ -> ()
        | Core.Machine.Broadcast env ->
            List.iter (fun m -> if Core.Machine.id m <> s then ignore (Core.Machine.handle m env)) fast)
      transmissions
  done;
  List.iter
    (fun m -> Alcotest.(check (option int)) "fast decided" (Some 1) (Core.Machine.decision m))
    fast;
  Alcotest.(check bool) "fast ran ahead" true (Core.Machine.phase machines.(0) > 8);
  let laggard = machines.(3) in
  Alcotest.(check int) "laggard at phase 1" 1 (Core.Machine.phase laggard);
  (* deliver one CURRENT envelope from each fast process, without the
     full history: with bundles reaching only three phases back the
     chain is not replayable, but three decided claims form a quorum *)
  List.iter
    (fun m ->
      match Core.Machine.emit m ~justify:true with
      | Core.Machine.Broadcast env -> ignore (Core.Machine.handle laggard env)
      | Core.Machine.Quiet | Core.Machine.Per_receiver _ -> Alcotest.fail "no broadcast")
    fast;
  Alcotest.(check (option int)) "laggard decided by certificate" (Some 1)
    (Core.Machine.decision laggard)

let test_certificate_needs_quorum () =
  (* f decided claims alone (possible forgeries) must not trigger it *)
  let n = 4 in
  let rng = Util.Rng.create ~seed:701L in
  let cfg = { (Core.Proto.default_config ~n) with max_phases = 60 } in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:60 in
  let machines =
    Array.init n (fun i ->
        Core.Machine.create cfg ~keyring:keyrings.(i) ~rng:(Util.Rng.split rng) ~proposal:1 ())
  in
  let fast = [ machines.(0); machines.(1); machines.(2) ] in
  for _ = 1 to 10 do
    let transmissions = List.map (fun m -> (Core.Machine.id m, Core.Machine.emit m ~justify:true)) fast in
    List.iter
      (fun (s, tx) ->
        match tx with
        | Core.Machine.Quiet | Core.Machine.Per_receiver _ -> ()
        | Core.Machine.Broadcast env ->
            List.iter (fun m -> if Core.Machine.id m <> s then ignore (Core.Machine.handle m env)) fast)
      transmissions
  done;
  let laggard = machines.(3) in
  (* a single decided claim: below the quorum of 3 *)
  (match Core.Machine.emit machines.(0) ~justify:false with
  | Core.Machine.Broadcast env -> ignore (Core.Machine.handle laggard env)
  | Core.Machine.Quiet | Core.Machine.Per_receiver _ -> Alcotest.fail "no broadcast");
  Alcotest.(check (option int)) "one claim is not enough" None (Core.Machine.decision laggard)

let suite =
  ( "misc-units",
    [
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "table short rows" `Quick test_table_pads_short_rows;
      Alcotest.test_case "table display width" `Quick test_table_display_width;
      Alcotest.test_case "latency cell" `Quick test_latency_cell;
      Alcotest.test_case "cost monotone" `Quick test_cost_monotone_in_size;
      Alcotest.test_case "cost hierarchy" `Quick test_cost_hierarchy;
      Alcotest.test_case "datagram header" `Quick test_datagram_header_constant;
      Alcotest.test_case "mac constants" `Quick test_mac_constants;
      Alcotest.test_case "certificate rescue" `Quick test_certificate_rescues_deep_laggard;
      Alcotest.test_case "certificate quorum" `Quick test_certificate_needs_quorum;
    ] )

(* --- robustness and determinism ----------------------------------------------- *)

let test_malformed_frames_ignored () =
  (* Garbage payloads, unicast and broadcast from p0 to four ports of
     p1: a plain listener, which is handed each payload as sent; a
     reliable link without and with authentication, which must drop
     every one (no delivery, no acknowledgment) and count it; and an
     unbound port. Nothing may raise. The last payload is a
     well-formed data segment (kind 0, seq 0) whose message list is
     truncated. *)
  let truncated_list =
    let w = Util.Codec.W.create () in
    Util.Codec.W.u8 w 0;
    Util.Codec.W.u32 w 0;
    Util.Codec.W.bytes_lp w (Bytes.of_string "\xff\xff\xff");
    Util.Codec.W.contents w
  in
  let rng = Util.Rng.create ~seed:720L in
  let garbage =
    [
      Bytes.empty;
      Bytes.make 1 '\xff';
      Bytes.make 200 '\x00';
      Bytes.of_string "not a frame at all";
      Util.Rng.bytes rng 64;
      truncated_list;
    ]
  in
  let (heard, got), metrics =
    Obs.Scope.with_run (fun () ->
        let engine = Net.Engine.create () in
        let radio = Net.Radio.create engine (Util.Rng.split rng) ~n:2 in
        let nodes =
          Array.init 2 (fun id -> Net.Node.create engine radio ~id ~rng:(Util.Rng.split rng))
        in
        let heard = ref [] and got = ref 0 in
        Net.Node.listen nodes.(1) ~port:3 (fun ~src:_ p -> heard := Bytes.to_string p :: !heard);
        List.iter
          (fun (port, auth) ->
            let rl =
              Net.Rlink.create engine (Net.Node.datagram nodes.(1)) (Net.Node.cpu nodes.(1)) ~auth
                ~port ()
            in
            Net.Rlink.on_receive rl (fun ~src:_ _ -> incr got))
          [ (4, false); (5, true) ];
        List.iteri
          (fun i payload ->
            ignore
              (Net.Engine.schedule engine ~delay:(float_of_int i *. 0.01) (fun () ->
                   List.iter
                     (fun port ->
                       Net.Node.unicast nodes.(0) ~dst:1 ~port payload;
                       Net.Node.broadcast nodes.(0) ~port payload)
                     [ 3; 4; 5; 6 ])))
          garbage;
        Net.Engine.run engine;
        (!heard, !got))
  in
  let sent = List.length garbage in
  Alcotest.(check int) "nothing delivered" 0 got;
  Alcotest.(check (list string)) "listener handed each payload as sent"
    (List.sort compare (List.concat_map (fun p -> [ Bytes.to_string p; Bytes.to_string p ]) garbage))
    (List.sort compare heard);
  Alcotest.(check int) "every segment counted" (2 * 2 * sent)
    (Obs.Metrics.counter_value metrics "rlink.malformed");
  (* p0's four unicasts per payload and p1's MAC ACKs: no segment
     acknowledged *)
  Alcotest.(check int) "no rlink acknowledgment" (4 * sent)
    (Obs.Metrics.counter_value metrics ~labels:[ ("class", "ucast") ] "radio.tx")

let test_turquois_ignores_garbage_datagrams () =
  (* well-formed MAC/UDP framing around a garbage consensus payload *)
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:721L in
  let n = 4 in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  let cfg = Core.Proto.default_config ~n in
  let keyrings = Core.Keyring.setup (Util.Rng.split rng) ~n ~phases:cfg.max_phases in
  let nodes = Array.init n (fun id -> Net.Node.create engine radio ~id ~rng:(Util.Rng.split rng)) in
  let decided = ref 0 in
  let procs =
    Array.init n (fun i ->
        Core.Turquois.create nodes.(i) cfg ~keyring:keyrings.(i) ~proposal:1 ())
  in
  Array.iter (fun p -> Core.Turquois.on_decide p (fun ~value:_ ~phase:_ -> incr decided)) procs;
  Array.iter Core.Turquois.start procs;
  (* node 3 also spews garbage onto the consensus port every 2 ms *)
  for i = 1 to 10 do
    ignore
      (Net.Engine.schedule engine ~delay:(float_of_int i *. 0.002) (fun () ->
           Net.Node.broadcast nodes.(3) ~port:443 (Util.Rng.bytes rng 40)))
  done;
  Net.Engine.run_while engine (fun () -> Net.Engine.now engine < 10.0 && !decided < n);
  Alcotest.(check int) "all decide despite garbage" n !decided

let test_rlink_recovers_after_blackout () =
  (* total loss long enough to exhaust MAC retries; the transport's RTO
     must recover once the channel returns *)
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:722L in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n:2 in
  let a = Net.Node.create engine radio ~id:0 ~rng:(Util.Rng.split rng) in
  let b = Net.Node.create engine radio ~id:1 ~rng:(Util.Rng.split rng) in
  let rla = Net.Rlink.create engine (Net.Node.datagram a) (Net.Node.cpu a) ~port:9 () in
  let rlb = Net.Rlink.create engine (Net.Node.datagram b) (Net.Node.cpu b) ~port:9 () in
  let got = ref [] in
  Net.Rlink.on_receive rlb (fun ~src:_ p -> got := Bytes.to_string p :: !got);
  Net.Radio.set_loss_prob radio 1.0;
  Net.Rlink.send rla ~dst:1 (Bytes.of_string "through the storm");
  ignore
    (Net.Engine.schedule engine ~delay:3.0 (fun () -> Net.Radio.set_loss_prob radio 0.0));
  Net.Engine.run engine ~until:60.0;
  Alcotest.(check (list string)) "recovered" [ "through the storm" ] !got;
  Alcotest.(check bool) "rto retransmissions happened" true
    (Net.Rlink.stats_retransmissions rla > 0)

let test_baseline_determinism () =
  let run protocol =
    let r =
      Harness.Runner.run ~protocol ~n:4 ~dist:Harness.Runner.Divergent
        ~load:Net.Fault.Failure_free ~seed:723L ()
    in
    (r.latencies, r.decisions)
  in
  List.iter
    (fun protocol ->
      Alcotest.(check bool) "same run twice" true (run protocol = run protocol))
    [ Harness.Runner.Bracha; Harness.Runner.Abba ]

let qcheck_vset_count_consistency =
  QCheck.Test.make ~name:"vset counts are consistent" ~count:150
    QCheck.(
      list_of_size (QCheck.Gen.int_range 0 30)
        (triple (int_range 0 4) (int_range 1 9) (int_range 0 2)))
    (fun entries ->
      let v = Core.Vset.create ~n:5 in
      List.iter
        (fun (sender, phase, value) ->
          ignore
            (Core.Vset.add v
               {
                 Core.Message.sender;
                 phase;
                 value = Core.Proto.value_of_int value;
                 origin = Core.Proto.Deterministic;
                 status = Core.Proto.Undecided;
                 proof = Bytes.empty;
               }))
        entries;
      (* reference model: per (sender, phase), the set of distinct values
         stored (Vset keeps one copy per value — equivocated extras) *)
      let model : (int * int, Core.Proto.value list) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (sender, phase, value) ->
          let value = Core.Proto.value_of_int value in
          let seen = Option.value ~default:[] (Hashtbl.find_opt model (sender, phase)) in
          if not (List.exists (Core.Proto.value_equal value) seen) then
            Hashtbl.replace model (sender, phase) (value :: seen))
        entries;
      let senders_at phase =
        List.filter (fun s -> Hashtbl.mem model (s, phase)) (List.init 5 (fun s -> s))
      in
      let copies_at phase =
        List.fold_left
          (fun acc s ->
            acc + List.length (Option.value ~default:[] (Hashtbl.find_opt model (s, phase))))
          0 (senders_at phase)
      in
      List.for_all
        (fun phase ->
          (* count_phase counts distinct senders; count_value counts
             senders with any copy of that value; messages_at returns
             every stored copy *)
          Core.Vset.count_phase v ~phase = List.length (senders_at phase)
          && List.length (Core.Vset.messages_at v ~phase) = copies_at phase
          && List.for_all
               (fun value ->
                 Core.Vset.count_value v ~phase ~value
                 = List.length
                     (List.filter
                        (fun s ->
                          List.exists (Core.Proto.value_equal value)
                            (Option.value ~default:[] (Hashtbl.find_opt model (s, phase))))
                        (senders_at phase)))
               [ Core.Proto.V0; Core.Proto.V1; Core.Proto.Vbot ])
        (List.init 9 (fun i -> i + 1))
      && Core.Vset.size v
         = List.fold_left
             (fun acc phase -> acc + copies_at phase)
             0
             (List.init 9 (fun i -> i + 1)))

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "malformed frames" `Quick test_malformed_frames_ignored;
        Alcotest.test_case "garbage datagrams" `Quick test_turquois_ignores_garbage_datagrams;
        Alcotest.test_case "rlink blackout recovery" `Quick test_rlink_recovers_after_blackout;
        Alcotest.test_case "baseline determinism" `Slow test_baseline_determinism;
        QCheck_alcotest.to_alcotest qcheck_vset_count_consistency;
      ] )
