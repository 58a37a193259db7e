(* Tests for the scalable subsystem: engine high-water marks,
   deterministic samplers, the abstract medium, and the sample-based
   broadcast/consensus protocols. *)

let test_engine_peaks () =
  let engine = Net.Engine.create () in
  let h = Net.Engine.schedule engine ~delay:1.0 (fun () -> ()) in
  ignore (Net.Engine.schedule engine ~delay:2.0 (fun () -> ()));
  ignore (Net.Engine.schedule engine ~delay:3.0 (fun () -> ()));
  Alcotest.(check int) "live peak" 3 (Net.Engine.live_peak engine);
  Net.Engine.cancel engine h;
  Net.Engine.run ~until:2.5 engine;
  Alcotest.(check int) "live after" 1 (Net.Engine.pending engine);
  ignore (Net.Engine.schedule engine ~delay:1.0 (fun () -> ()));
  Alcotest.(check int) "pending counts the new event" 2 (Net.Engine.pending engine);
  Alcotest.(check int) "peak sticks" 3 (Net.Engine.live_peak engine);
  for _ = 1 to 3 do
    ignore (Net.Engine.schedule engine ~delay:1.0 (fun () -> ()))
  done;
  Alcotest.(check int) "peak moves" 5 (Net.Engine.live_peak engine);
  Alcotest.(check bool) "queued peak >= live peak" true
    (Net.Engine.queued_peak engine >= Net.Engine.live_peak engine)

(* --- sampler ------------------------------------------------------------ *)

let test_sampler_deterministic () =
  let s1 = Scale.Sampler.create ~seed:42L ~n:64 in
  let s2 = Scale.Sampler.create ~seed:42L ~n:64 in
  for owner = 0 to 63 do
    Alcotest.(check (array int))
      (Printf.sprintf "owner %d" owner)
      (Scale.Sampler.sample s1 ~owner ~tag:3 ~k:8)
      (Scale.Sampler.sample s2 ~owner ~tag:3 ~k:8)
  done;
  let s3 = Scale.Sampler.create ~seed:43L ~n:64 in
  let differs = ref false in
  for owner = 0 to 63 do
    if
      Scale.Sampler.sample s1 ~owner ~tag:3 ~k:8
      <> Scale.Sampler.sample s3 ~owner ~tag:3 ~k:8
    then differs := true
  done;
  Alcotest.(check bool) "seed matters" true !differs

let test_sampler_shape () =
  let s = Scale.Sampler.create ~seed:7L ~n:20 in
  for owner = 0 to 19 do
    let sample = Scale.Sampler.sample s ~owner ~tag:0 ~k:6 in
    Alcotest.(check int) "size" 6 (Array.length sample);
    Array.iter
      (fun p ->
        Alcotest.(check bool) "no self" true (p <> owner);
        Alcotest.(check bool) "in range" true (p >= 0 && p < 20))
      sample;
    let sorted = List.sort_uniq compare (Array.to_list sample) in
    Alcotest.(check int) "distinct" 6 (List.length sorted)
  done;
  (* k larger than the peer population clamps *)
  let all = Scale.Sampler.sample s ~owner:0 ~tag:1 ~k:100 in
  Alcotest.(check int) "clamped to n-1" 19 (Array.length all)

let test_sampler_inverse () =
  let s = Scale.Sampler.create ~seed:11L ~n:32 in
  let tag = 5 and k = 7 in
  for node = 0 to 31 do
    let senders = Scale.Sampler.incoming s ~node ~tag ~k in
    Array.iter
      (fun owner ->
        Alcotest.(check bool) "inverse sound" true
          (Scale.Sampler.in_sample s ~owner ~tag ~k node))
      senders;
    for owner = 0 to 31 do
      if Scale.Sampler.in_sample s ~owner ~tag ~k node then
        Alcotest.(check bool) "inverse complete" true
          (Array.exists (fun x -> x = owner) senders)
    done
  done

(* --- medium ------------------------------------------------------------- *)

let test_medium_shared_payload () =
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:5L in
  let medium = Scale.Medium.create engine rng ~n:8 () in
  let payload = Bytes.of_string "shared-envelope" in
  let received = ref [] in
  for node = 1 to 7 do
    Scale.Medium.set_handler medium ~node (fun ~src:_ bytes ->
        received := bytes :: !received)
  done;
  for dst = 1 to 7 do
    Scale.Medium.send medium ~src:0 ~dst payload
  done;
  Net.Engine.run engine;
  Alcotest.(check int) "all delivered" 7 (List.length !received);
  List.iter
    (fun bytes ->
      Alcotest.(check bool) "physically shared buffer" true (bytes == payload))
    !received;
  Alcotest.(check int) "in flight drained" 0 (Scale.Medium.in_flight medium);
  Alcotest.(check int) "in-flight peak" 7 (Scale.Medium.in_flight_peak medium);
  let stats = Scale.Medium.stats medium in
  Alcotest.(check int) "delivered stat" 7 stats.delivered;
  Alcotest.(check bool) "airtime accounted" true (stats.airtime > 0.0)

let test_medium_deterministic () =
  let run () =
    let engine = Net.Engine.create () in
    let rng = Util.Rng.create ~seed:9L in
    let medium = Scale.Medium.create engine rng ~n:16 ~loss:0.2 () in
    let log = ref [] in
    for node = 0 to 15 do
      Scale.Medium.set_handler medium ~node (fun ~src bytes ->
          log := (node, src, Bytes.to_string bytes) :: !log)
    done;
    for src = 0 to 15 do
      for dst = 0 to 15 do
        if src <> dst then
          Scale.Medium.send medium ~src ~dst
            (Bytes.of_string (Printf.sprintf "%d->%d" src dst))
      done
    done;
    Net.Engine.run engine;
    (List.rev !log, (Scale.Medium.stats medium).dropped)
  in
  let log1, dropped1 = run () in
  let log2, dropped2 = run () in
  Alcotest.(check bool) "same delivery order" true (log1 = log2);
  Alcotest.(check int) "same losses" dropped1 dropped2;
  Alcotest.(check bool) "loss actually bites" true (dropped1 > 0)

(* --- MAC shared envelope ------------------------------------------------ *)

let test_mac_shared_envelope () =
  (* the radio hands every receiver the same frame, so every receiver
     must be handed the sender's own payload buffer *)
  let n = 6 in
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:77L in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  let macs =
    Array.init n (fun id -> Net.Mac.create engine radio ~id ~rng:(Util.Rng.split rng))
  in
  let received = ref [] in
  Array.iteri
    (fun i mac ->
      if i > 0 then
        Net.Mac.on_deliver mac (fun ~src:_ ~port:_ payload -> received := payload :: !received))
    macs;
  let sent = Bytes.of_string "one-envelope-per-transmission" in
  Net.Mac.send_broadcast macs.(0) ~port:0 sent;
  Net.Engine.run engine;
  Alcotest.(check int) "everyone heard it" (n - 1) (List.length !received);
  List.iter
    (fun payload -> Alcotest.(check bool) "the sender's own buffer" true (payload == sent))
    !received

let test_datagram_shared_payload () =
  (* the datagram twin of the MAC case: every receiver of a broadcast or
     a unicast is handed the sender's own payload buffer *)
  let n = 6 in
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:78L in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  let macs =
    Array.init n (fun id -> Net.Mac.create engine radio ~id ~rng:(Util.Rng.split rng))
  in
  let dgs = Array.map (Net.Datagram.create engine) macs in
  let received = Array.make n [] in
  Array.iteri
    (fun i dg ->
      if i > 0 then
        Net.Datagram.listen dg ~port:9 (fun ~src:_ payload ->
            received.(i) <- payload :: received.(i)))
    dgs;
  let sent = Bytes.of_string "one-datagram-per-transmission" in
  Net.Datagram.send dgs.(0) ~dst:`Broadcast ~port:9 sent;
  Net.Engine.run engine;
  let heard = List.concat (Array.to_list received) in
  Alcotest.(check int) "everyone heard it" (n - 1) (List.length heard);
  List.iter
    (fun payload -> Alcotest.(check bool) "the sender's own buffer" true (payload == sent))
    heard;
  let unicast = Bytes.of_string "point-to-point" in
  Net.Datagram.send dgs.(1) ~dst:(`Node 2) ~port:9 unicast;
  Net.Engine.run engine;
  (match received.(2) with
  | payload :: _ ->
      Alcotest.(check bool) "unicast: the sender's own buffer" true (payload == unicast)
  | [] -> Alcotest.fail "unicast lost");
  Alcotest.(check int) "unicast reaches only its destination" 1 (List.length received.(3));
  (* the MAC dispatch table is indexed by node id *)
  let rejects what id =
    match Net.Mac.create engine radio ~id ~rng:(Util.Rng.split rng) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "Mac.create accepted %s id %d" what id
  in
  rejects "a duplicate" 3;
  rejects "an out-of-range" n;
  rejects "a negative" (-1)

(* --- sample-based consensus --------------------------------------------- *)

(* The harness sizes the contended-radio tick from the encoded vote
   frame: kind byte + varint phase + value byte = 3 bytes for any phase
   below 128. Pin it so a codec change that silently grows the frame
   also revisits the channel-capacity math. *)
let test_state_frame_bytes_pinned () =
  Alcotest.(check int) "vote frame bytes" 3 Scale.Sampled.state_frame_bytes

let sampled_net ~n ~loss ~seed ~proposal ~behavior =
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed in
  let medium = Scale.Medium.create engine (Util.Rng.split rng) ~n ~loss () in
  let net = Scale.Transport.of_medium medium in
  let sampler = Scale.Sampler.create ~seed:(Util.Rng.derive ~base:seed [ 1 ]) ~n in
  let coin_seed = Util.Rng.derive ~base:seed [ 2 ] in
  let nodes =
    Array.init n (fun id ->
        Scale.Sampled.create net sampler ~id ~coin_seed ~behavior:(behavior id)
          ~proposal:(proposal id) ())
  in
  (engine, nodes)

let check_sampled_agreement ~n ~engine ~nodes ~faulty =
  Net.Engine.run engine;
  let decisions =
    Array.to_list nodes
    |> List.filteri (fun i _ -> not (faulty i))
    |> List.map (fun node -> Scale.Sampled.decision node)
  in
  let honest = List.length decisions in
  let decided = List.filter_map Fun.id decisions in
  Alcotest.(check int)
    (Printf.sprintf "all %d honest nodes decide (n=%d)" honest n)
    honest (List.length decided);
  match decided with
  | v :: rest ->
      List.iter (fun v' -> Alcotest.(check int) "agreement" v v') rest;
      v
  | [] -> Alcotest.fail "nobody decided"

let test_sampled_validity () =
  (* unanimous proposals must win even with lossy links *)
  let n = 64 in
  let engine, nodes =
    sampled_net ~n ~loss:0.02 ~seed:404L
      ~proposal:(fun _ -> 1)
      ~behavior:(fun _ -> Scale.Sampled.Correct)
  in
  Array.iter Scale.Sampled.start nodes;
  let v = check_sampled_agreement ~n ~engine ~nodes ~faulty:(fun _ -> false) in
  Alcotest.(check int) "validity" 1 v

let test_sampled_agreement_byzantine () =
  let n = 64 in
  let faulty i = i < 6 in
  let engine, nodes =
    sampled_net ~n ~loss:0.02 ~seed:777L
      ~proposal:(fun i -> i land 1)
      ~behavior:(fun i ->
        if i < 2 then Scale.Sampled.Attacker
        else if i < 4 then Scale.Sampled.Equivocator
        else if i < 6 then Scale.Sampled.Silent
        else Scale.Sampled.Correct)
  in
  Array.iter Scale.Sampled.start nodes;
  ignore (check_sampled_agreement ~n ~engine ~nodes ~faulty)

let test_sampled_over_nodes () =
  (* same protocol, carried by the radio/MAC unicast stack *)
  let n = 8 in
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:15L in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  let stacks =
    Array.init n (fun id -> Net.Node.create engine radio ~id ~rng:(Util.Rng.split rng))
  in
  let net = Scale.Transport.of_nodes stacks ~port:443 in
  let sampler = Scale.Sampler.create ~seed:21L ~n in
  (* contended 802.11b unicast delivers slower than the abstract
     medium: give each phase time to land *)
  let nodes =
    Array.init n (fun id ->
        Scale.Sampled.create net sampler ~id ~coin_seed:99L ~tick:0.5 ~proposal:(id land 1) ())
  in
  Array.iter Scale.Sampled.start nodes;
  ignore (check_sampled_agreement ~n ~engine ~nodes ~faulty:(fun _ -> false))

let suite =
  ( "scale",
    [
      Alcotest.test_case "engine high-water marks" `Quick test_engine_peaks;
      Alcotest.test_case "sampler deterministic" `Quick test_sampler_deterministic;
      Alcotest.test_case "sampler shape" `Quick test_sampler_shape;
      Alcotest.test_case "sampler inverse" `Quick test_sampler_inverse;
      Alcotest.test_case "medium shared payload" `Quick test_medium_shared_payload;
      Alcotest.test_case "medium deterministic" `Quick test_medium_deterministic;
      Alcotest.test_case "mac shared envelope" `Quick test_mac_shared_envelope;
      Alcotest.test_case "datagram shared payload" `Quick test_datagram_shared_payload;
      Alcotest.test_case "state frame bytes pinned" `Quick test_state_frame_bytes_pinned;
      Alcotest.test_case "sampled validity" `Quick test_sampled_validity;
      Alcotest.test_case "sampled agreement, byzantine mix" `Quick
        test_sampled_agreement_byzantine;
      Alcotest.test_case "sampled over radio/MAC stack" `Quick test_sampled_over_nodes;
    ] )
