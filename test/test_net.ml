(* Tests for the wireless substrate: radio, MAC, datagram, reliable link,
   fault loads. *)

let make_radio ?(n = 4) ?(seed = 1L) () =
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  (engine, rng, radio)

(* --- radio ------------------------------------------------------------------ *)

(* a broadcast data frame from [src] carrying [s] *)
let frame ~src s =
  { Net.Radio.src; dst = 0xFFFF; seq = 0; ack = false; port = 0; payload = Bytes.of_string s }

let test_radio_delivers_to_all_but_sender () =
  let engine, _, radio = make_radio () in
  let received = ref [] in
  Net.Radio.on_receive radio (fun receiver ~sender frame ->
      Alcotest.(check int) "sender" 0 sender;
      Alcotest.(check string) "frame" "ping" (Bytes.to_string frame.Net.Radio.payload);
      received := receiver :: !received);
  Net.Radio.transmit radio ~sender:0 ~duration:0.001 (frame ~src:0 "ping");
  Net.Engine.run engine;
  Alcotest.(check (list int)) "receivers" [ 1; 2; 3 ] (List.sort compare !received)

let test_radio_collision_corrupts_both () =
  let engine, _, radio = make_radio () in
  let received = ref 0 in
  Net.Radio.on_receive radio (fun _ ~sender:_ _ -> incr received);
  Net.Radio.transmit radio ~sender:0 ~duration:0.001 (frame ~src:0 "a");
  Net.Radio.transmit radio ~sender:1 ~duration:0.001 (frame ~src:1 "b");
  Net.Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 !received;
  Alcotest.(check bool) "collisions counted" true ((Net.Radio.stats radio).collisions >= 2)

let test_radio_sequential_no_collision () =
  let engine, _, radio = make_radio () in
  let received = ref 0 in
  Net.Radio.on_receive radio (fun _ ~sender:_ _ -> incr received);
  Net.Radio.transmit radio ~sender:0 ~duration:0.001 (frame ~src:0 "a");
  ignore
    (Net.Engine.schedule engine ~delay:0.002 (fun () ->
         Net.Radio.transmit radio ~sender:1 ~duration:0.001 (frame ~src:1 "b")));
  Net.Engine.run engine;
  Alcotest.(check int) "both delivered to 3 receivers each" 6 !received

let test_radio_loss_probability () =
  let engine, _, radio = make_radio ~n:2 ~seed:3L () in
  Net.Radio.set_loss_prob radio 0.5;
  let received = ref 0 in
  Net.Radio.on_receive radio (fun _ ~sender:_ _ -> incr received);
  for i = 0 to 999 do
    ignore
      (Net.Engine.schedule engine ~delay:(float_of_int i *. 0.01) (fun () ->
           Net.Radio.transmit radio ~sender:0 ~duration:0.001 (frame ~src:0 "x")))
  done;
  Net.Engine.run engine;
  Alcotest.(check bool) "about half lost" true (!received > 400 && !received < 600)

let test_radio_down_node () =
  let engine, _, radio = make_radio () in
  Net.Radio.set_down radio 2 true;
  Alcotest.(check bool) "is_down" true (Net.Radio.is_down radio 2);
  let received = ref [] in
  Net.Radio.on_receive radio (fun receiver ~sender:_ _ -> received := receiver :: !received);
  Net.Radio.transmit radio ~sender:0 ~duration:0.001 (frame ~src:0 "x");
  (* down sender transmits nothing *)
  Net.Radio.transmit radio ~sender:2 ~duration:0.001 (frame ~src:2 "y");
  Net.Engine.run engine;
  Alcotest.(check (list int)) "down node neither receives nor sends" [ 1; 3 ]
    (List.sort compare !received)

let test_radio_jamming () =
  let engine, _, radio = make_radio () in
  Net.Radio.jam radio ~from:0.0 ~until:0.010;
  let received = ref 0 in
  Net.Radio.on_receive radio (fun _ ~sender:_ _ -> incr received);
  Net.Radio.transmit radio ~sender:0 ~duration:0.001 (frame ~src:0 "x");
  ignore
    (Net.Engine.schedule engine ~delay:0.020 (fun () ->
         Net.Radio.transmit radio ~sender:0 ~duration:0.001 (frame ~src:0 "y")));
  Net.Engine.run engine;
  Alcotest.(check int) "only post-jam frame arrives" 3 !received;
  Alcotest.(check int) "jam stat" 1 (Net.Radio.stats radio).jammed

let test_radio_carrier_sense () =
  let engine, _, radio = make_radio () in
  Alcotest.(check bool) "idle initially" false (Net.Radio.busy radio);
  Net.Radio.transmit radio ~sender:0 ~duration:0.005 (frame ~src:0 "x");
  Alcotest.(check bool) "busy during" true (Net.Radio.busy radio);
  let checked = ref false in
  ignore
    (Net.Engine.schedule engine ~delay:0.006 (fun () ->
         checked := true;
         Alcotest.(check bool) "idle after" false (Net.Radio.busy radio)));
  Net.Engine.run engine;
  Alcotest.(check bool) "ran" true !checked

let test_radio_idle_subscription () =
  let engine, _, radio = make_radio () in
  Net.Radio.transmit radio ~sender:0 ~duration:0.004 (frame ~src:0 "x");
  let notified_at = ref (-1.0) in
  Net.Radio.subscribe_idle radio (fun () -> notified_at := Net.Engine.now engine);
  Net.Engine.run engine;
  Alcotest.(check (float 1e-9)) "at end of tx" 0.004 !notified_at

(* --- MAC ---------------------------------------------------------------------- *)

let test_mac_airtime_math () =
  (* broadcast: long preamble + (payload+36)*8 bits at 11 Mb/s *)
  let expected = 192.0e-6 +. (float_of_int ((100 + 36) * 8) /. 11.0e6) in
  Alcotest.(check (float 1e-12)) "broadcast" expected
    (Net.Mac.airtime_broadcast ~payload_bytes:100);
  let expected_u = 96.0e-6 +. (float_of_int ((100 + 36) * 8) /. 11.0e6) in
  Alcotest.(check (float 1e-12)) "unicast" expected_u
    (Net.Mac.airtime_unicast ~payload_bytes:100)

let make_macs ?(n = 3) ?(seed = 9L) () =
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  let macs =
    Array.init n (fun id -> Net.Mac.create engine radio ~id ~rng:(Util.Rng.split rng))
  in
  (engine, radio, macs)

let test_mac_broadcast_delivery () =
  let engine, _, macs = make_macs () in
  let got = ref [] in
  Array.iter
    (fun mac ->
      Net.Mac.on_deliver mac (fun ~src ~port payload ->
          got := (Net.Mac.id mac, (src, port), Bytes.to_string payload) :: !got))
    macs;
  Net.Mac.send_broadcast macs.(0) ~port:5 (Bytes.of_string "hello");
  Net.Engine.run engine;
  Alcotest.(check (list (triple int (pair int int) string)))
    "both others, with the port" [ (1, (0, 5), "hello"); (2, (0, 5), "hello") ] (List.sort compare !got)

(* A unicast with its ACK, then a broadcast, sent through the datagram
   layer so the frames carry what every run's frames carry. On the
   medium a data frame counts 13 bytes of MAC record, 32 of datagram
   header and the payload; an ACK counts 13. Airtime is computed on the
   datagram: payload + 32. *)
let test_mac_unicast_acked () =
  let (radio, got), metrics =
    Obs.Scope.with_run (fun () ->
        let engine = Net.Engine.create () in
        let rng = Util.Rng.create ~seed:9L in
        let radio = Net.Radio.create engine (Util.Rng.split rng) ~n:3 in
        let nodes =
          Array.init 3 (fun id -> Net.Node.create engine radio ~id ~rng:(Util.Rng.split rng))
        in
        let got = ref [] in
        Net.Node.listen nodes.(1) ~port:7 (fun ~src payload ->
            got := (src, Bytes.to_string payload) :: !got);
        Net.Node.unicast nodes.(0) ~dst:1 ~port:7 (Bytes.of_string "direct");
        Net.Engine.run engine;
        Alcotest.(check (list (pair int string))) "delivered once" [ (0, "direct") ] !got;
        (* data frame + ACK frame *)
        Alcotest.(check int) "two frames" 2 (Net.Radio.stats radio).frames_sent;
        Net.Node.broadcast nodes.(0) ~port:7 (Bytes.of_string "hello");
        Net.Engine.run engine;
        (radio, !got))
  in
  Alcotest.(check (list (pair int string)))
    "broadcast delivered" [ (0, "hello"); (0, "direct") ] got;
  let bytes cls = Obs.Metrics.counter_value metrics ~labels:[ ("class", cls) ] "radio.bytes" in
  Alcotest.(check int) "ucast bytes" (6 + 45) (bytes "ucast");
  Alcotest.(check int) "ack bytes" 13 (bytes "ack");
  Alcotest.(check int) "bcast bytes" (5 + 45) (bytes "bcast");
  Alcotest.(check int) "bytes sent" (51 + 13 + 50) (Net.Radio.stats radio).bytes_sent;
  let airtime cls =
    match Obs.Metrics.find metrics ~labels:[ ("class", cls) ] "radio.airtime_s" with
    | Some { value = Obs.Metrics.Gauge s; _ } -> s
    | Some _ | None -> Float.nan
  in
  Alcotest.(check (float 0.0)) "ucast airtime"
    (Net.Mac.airtime_unicast ~payload_bytes:(6 + 32))
    (airtime "ucast");
  Alcotest.(check (float 0.0)) "ack airtime" Net.Mac.ack_airtime (airtime "ack");
  Alcotest.(check (float 0.0)) "bcast airtime"
    (Net.Mac.airtime_broadcast ~payload_bytes:(5 + 32))
    (airtime "bcast")

let test_mac_unicast_retransmits_under_loss () =
  let engine, radio, macs = make_macs ~seed:17L () in
  Net.Radio.set_loss_prob radio 0.4;
  let delivered = ref 0 in
  Net.Mac.on_deliver macs.(1) (fun ~src:_ ~port:_ _ -> incr delivered);
  for _ = 1 to 20 do
    Net.Mac.send_unicast macs.(0) ~dst:1 ~port:0 (Bytes.of_string "retry me")
  done;
  Net.Engine.run engine;
  (* 40% loss with 7 retries: all should arrive, exactly once each *)
  Alcotest.(check int) "all delivered despite loss" 20 !delivered;
  Alcotest.(check bool) "more frames than messages" true
    ((Net.Radio.stats radio).frames_sent > 40)

let test_mac_unicast_drop_after_retry_limit () =
  let engine, radio, macs = make_macs () in
  Net.Radio.set_loss_prob radio 1.0;
  let dropped = ref [] in
  Net.Mac.on_drop macs.(0) (fun ~dst payload ->
      dropped := (dst, Bytes.to_string payload) :: !dropped);
  Net.Mac.send_unicast macs.(0) ~dst:1 ~port:0 (Bytes.of_string "doomed");
  Net.Engine.run engine ~until:10.0;
  Alcotest.(check (list (pair int string))) "reported" [ (1, "doomed") ] !dropped

let test_mac_queue_drains_in_order () =
  let engine, _, macs = make_macs () in
  let got = ref [] in
  Net.Mac.on_deliver macs.(1) (fun ~src:_ ~port:_ payload -> got := Bytes.to_string payload :: !got);
  for i = 0 to 9 do
    Net.Mac.send_unicast macs.(0) ~dst:1 ~port:0 (Bytes.of_string (string_of_int i))
  done;
  Alcotest.(check bool) "queued" true (Net.Mac.queue_length macs.(0) > 0);
  Net.Engine.run engine;
  Alcotest.(check (list string)) "in order"
    [ "0"; "1"; "2"; "3"; "4"; "5"; "6"; "7"; "8"; "9" ]
    (List.rev !got)

let test_mac_contention_eventually_delivers () =
  (* all three stations transmit simultaneously: backoff must resolve it *)
  let engine, _, macs = make_macs ~seed:23L () in
  let delivered = ref 0 in
  Array.iter (fun mac -> Net.Mac.on_deliver mac (fun ~src:_ ~port:_ _ -> incr delivered)) macs;
  Array.iter (fun mac -> Net.Mac.send_broadcast mac ~port:0 (Bytes.of_string "storm")) macs;
  Net.Engine.run engine;
  (* each broadcast reaches the other two unless a rare collision occurs;
     with three stations and CW 31 most must get through *)
  Alcotest.(check bool) "most delivered" true (!delivered >= 4)

let test_mac_radio_collected () =
  (* nothing outside a finished run may keep its radio reachable: the
     MAC dispatch table lives with the radio, not in a global list *)
  let finished_run () =
    let engine, radio, macs = make_macs () in
    Net.Mac.send_broadcast macs.(0) ~port:0 (Bytes.of_string "bye");
    Net.Engine.run engine;
    let w = Weak.create 1 in
    Weak.set w 0 (Some radio);
    w
  in
  let w = (Sys.opaque_identity finished_run) () in
  Gc.full_major ();
  Alcotest.(check bool) "radio collected" false (Weak.check w 0)

(* Two MACs start DIFS at the same instant S, and an outside
   transmission is scheduled between them for exactly S + DIFS. In
   (time, seq) order the first MAC's DIFS check runs before that
   transmission and the second's after it, so the second must find the
   medium busy and defer. Had the two checks run side by side, the
   second, with no backoff slot left to count, would transmit into the
   outside frame. *)
let test_mac_difs_end_after_outside_transmit () =
  let engine = Net.Engine.create () in
  let radio = Net.Radio.create engine (Util.Rng.create ~seed:5L) ~n:4 in
  (* a MAC whose first backoff draw satisfies [p] *)
  let mac id p =
    let first_draw seed = Util.Rng.int (Util.Rng.create ~seed) (Net.Mac.Const.cw_min + 1) in
    let rec seed_where s = if p (first_draw s) then s else seed_where (Int64.succ s) in
    Net.Mac.create engine radio ~id ~rng:(Util.Rng.create ~seed:(seed_where 1L))
  in
  let a = mac 0 (fun slots -> slots > 0) and b = mac 1 (fun slots -> slots = 0) in
  let c = mac 2 (fun _ -> true) in
  let got = ref [] in
  Net.Mac.on_deliver c (fun ~src ~port:_ payload -> got := (src, Bytes.to_string payload) :: !got);
  ignore
    (Net.Engine.at engine ~time:0.001 (fun () ->
         Net.Mac.send_broadcast a ~port:0 (Bytes.of_string "a");
         ignore
           (Net.Engine.at engine
              ~time:(Net.Engine.now engine +. Net.Mac.Const.difs)
              (fun () ->
                (* addressed to p3, which runs no MAC: no MAC delivers it *)
                Net.Radio.transmit radio ~sender:3 ~duration:0.0005
                  { (frame ~src:3 "outside") with dst = 3 }));
         Net.Mac.send_broadcast b ~port:0 (Bytes.of_string "b")));
  Net.Engine.run engine;
  Alcotest.(check int) "no collision" 0 (Net.Radio.stats radio).collisions;
  Alcotest.(check (list (pair int string)))
    "both MAC frames arrive" [ (0, "a"); (1, "b") ] (List.sort compare !got)

(* Every frame a run puts on the air, hashed: its start time (exact, as
   %h), sender, size, class and whether it started into a collision.
   Between them the runs reach broadcast replacement (the Byzantine
   Turquois run replaces 45 queued frames), rlink unicasts with ACKs and
   retries, 128 contenders on one medium, and receive delays, a crash
   and jamming. How the MAC schedules its contention may change; when
   and what it transmits may not. Recorded before contention was
   batched. *)
let tx_digest run =
  Obs.Trace2.start ~limit:1_000_000 ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace2.stop ();
      Obs.Trace2.clear ())
    (fun () ->
      ignore (run ());
      Alcotest.(check int) "trace complete" 0 (Obs.Trace2.dropped ());
      let b = Buffer.create 65536 in
      List.iter
        (fun (e : Obs.Trace2.event) ->
          if e.layer = "radio" && e.label = "tx" then
            let f = e.fields in
            Printf.bprintf b "%h %d %d %s %b\n" e.time e.node
              (Option.get (Obs.Trace2.field_int f "bytes"))
              (Option.get (Obs.Trace2.field_str f "class"))
              (List.assoc "collision" f = Obs.Trace2.B true))
        (Obs.Trace2.events ());
      Crypto.Sha256.hex_digest_string (Buffer.contents b))

let test_mac_trajectories_pinned () =
  let module R = Harness.Runner in
  let runs =
    [
      ( "turquois n=16 divergent byzantine",
        "6e7cbd84253f43d1667d46b632413cf0577bf3fa04a266506bfe954b82c7c5a8",
        fun () ->
          R.run ~protocol:R.Turquois ~n:16 ~dist:R.Divergent ~load:Net.Fault.Byzantine
            ~seed:1000L () );
      ( "bracha n=10 loss 5%",
        "bbe966bed15d91029602619ff07e5aef81c6da27b97594194c5b1248bd5d4de9",
        fun () ->
          R.run ~protocol:R.Bracha ~n:10 ~dist:R.Unanimous ~load:Net.Fault.Failure_free
            ~loss:0.05 ~seed:7L () );
      ( "sampled n=128",
        "07b2eb481b9a044c600ea169fbbf47cf5cfaca4480ef9715eef9bf01b6053ba1",
        fun () ->
          R.run ~protocol:R.Sampled ~n:128 ~dist:R.Unanimous ~load:Net.Fault.Failure_free
            ~seed:7L () );
      ( "turquois n=4 delay, crash, jam",
        "5a4b2510f1ca4ce7bc85f6c0c463bd2bf0d0afba061de89d5581f7e503741a49",
        fun () ->
          let schedule =
            Net.Schedule.
              [
                { at = 0.001; action = Delay_rx { rx = 1; delay = 0.004; until = 0.5 } };
                { at = 0.002; action = Crash 3 };
                { at = 0.003; action = Jam_rx { rx = 2; until = 0.3 } };
                { at = 0.2; action = Recover 3 };
              ]
          in
          R.run ~protocol:R.Turquois ~n:4 ~dist:R.Divergent ~load:Net.Fault.Failure_free ~loss:0.0
            ~schedule ~seed:11L () );
    ]
  in
  List.iter (fun (name, want, run) -> Alcotest.(check string) name want (tx_digest run)) runs

(* --- datagram ------------------------------------------------------------------- *)

let make_nodes ?(n = 3) ?(seed = 31L) () =
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  let nodes =
    Array.init n (fun id -> Net.Node.create engine radio ~id ~rng:(Util.Rng.split rng))
  in
  (engine, radio, nodes)

let test_datagram_port_dispatch () =
  let engine, _, nodes = make_nodes () in
  let port7 = ref [] and port9 = ref [] in
  Net.Node.listen nodes.(1) ~port:7 (fun ~src:_ p -> port7 := Bytes.to_string p :: !port7);
  Net.Node.listen nodes.(1) ~port:9 (fun ~src:_ p -> port9 := Bytes.to_string p :: !port9);
  Net.Node.unicast nodes.(0) ~dst:1 ~port:7 (Bytes.of_string "seven");
  Net.Node.unicast nodes.(0) ~dst:1 ~port:9 (Bytes.of_string "nine");
  Net.Node.unicast nodes.(0) ~dst:1 ~port:11 (Bytes.of_string "dropped");
  Net.Engine.run engine;
  Alcotest.(check (list string)) "port 7" [ "seven" ] !port7;
  Alcotest.(check (list string)) "port 9" [ "nine" ] !port9

let test_datagram_broadcast_loopback () =
  let engine, _, nodes = make_nodes () in
  let got = ref [] in
  Array.iter
    (fun node ->
      Net.Node.listen node ~port:5 (fun ~src p ->
          got := (Net.Node.id node, src, Bytes.to_string p) :: !got))
    nodes;
  Net.Node.broadcast nodes.(2) ~port:5 (Bytes.of_string "all");
  Net.Engine.run engine;
  Alcotest.(check (list (triple int int string)))
    "everyone including the sender"
    [ (0, 2, "all"); (1, 2, "all"); (2, 2, "all") ]
    (List.sort compare !got)

let test_node_timers () =
  let engine, _, nodes = make_nodes () in
  let fired = ref [] in
  ignore
    (Net.Node.set_timer nodes.(0) ~delay:0.5 (fun () ->
         fired := Net.Engine.now engine :: !fired));
  let cancelled = Net.Node.set_timer nodes.(0) ~delay:0.7 (fun () -> fired := 99.0 :: !fired) in
  Net.Node.cancel_timer nodes.(0) cancelled;
  Net.Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "only the live timer" [ 0.5 ] !fired

(* --- reliable link ------------------------------------------------------------------ *)

let make_rlinks ?(loss = 0.0) ?(auth = false) ?(seed = 37L) () =
  let engine, radio, nodes = make_nodes ~n:2 ~seed () in
  Net.Radio.set_loss_prob radio loss;
  let mk node =
    Net.Rlink.create engine (Net.Node.datagram node) (Net.Node.cpu node) ~auth ~port:20 ()
  in
  (engine, mk nodes.(0), mk nodes.(1))

let test_rlink_ordered_delivery () =
  let engine, a, b = make_rlinks () in
  let got = ref [] in
  Net.Rlink.on_receive b (fun ~src payload ->
      Alcotest.(check int) "src" 0 src;
      got := Bytes.to_string payload :: !got);
  for i = 0 to 29 do
    Net.Rlink.send a ~dst:1 (Bytes.of_string (Printf.sprintf "m%02d" i))
  done;
  Net.Engine.run engine;
  Alcotest.(check (list string)) "in order"
    (List.init 30 (Printf.sprintf "m%02d"))
    (List.rev !got)

let test_rlink_reliable_under_heavy_loss () =
  let engine, a, b = make_rlinks ~loss:0.45 ~seed:41L () in
  let got = ref [] in
  Net.Rlink.on_receive b (fun ~src:_ payload -> got := Bytes.to_string payload :: !got);
  for i = 0 to 49 do
    Net.Rlink.send a ~dst:1 (Bytes.of_string (Printf.sprintf "x%02d" i))
  done;
  Net.Engine.run engine ~until:120.0;
  Alcotest.(check (list string)) "all arrive in order"
    (List.init 50 (Printf.sprintf "x%02d"))
    (List.rev !got)

let test_rlink_bidirectional () =
  let engine, a, b = make_rlinks () in
  let at_a = ref [] and at_b = ref [] in
  Net.Rlink.on_receive a (fun ~src:_ p -> at_a := Bytes.to_string p :: !at_a);
  Net.Rlink.on_receive b (fun ~src:_ p -> at_b := Bytes.to_string p :: !at_b);
  Net.Rlink.send a ~dst:1 (Bytes.of_string "to-b");
  Net.Rlink.send b ~dst:0 (Bytes.of_string "to-a");
  Net.Engine.run engine;
  Alcotest.(check (list string)) "a got" [ "to-a" ] !at_a;
  Alcotest.(check (list string)) "b got" [ "to-b" ] !at_b

let test_rlink_authenticated () =
  let engine, a, b = make_rlinks ~auth:true () in
  let got = ref 0 in
  Net.Rlink.on_receive b (fun ~src:_ _ -> incr got);
  for _ = 1 to 5 do
    Net.Rlink.send a ~dst:1 (Bytes.of_string "authenticated")
  done;
  Net.Engine.run engine;
  Alcotest.(check int) "all delivered" 5 !got

let test_rlink_large_messages () =
  let engine, a, b = make_rlinks () in
  let big = Bytes.init 5000 (fun i -> Char.chr (i mod 256)) in
  let got = ref None in
  Net.Rlink.on_receive b (fun ~src:_ p -> got := Some p);
  Net.Rlink.send a ~dst:1 big;
  Net.Engine.run engine;
  match !got with
  | Some p -> Alcotest.(check bool) "intact" true (Bytes.equal p big)
  | None -> Alcotest.fail "not delivered"

let qcheck_rlink_random_loss =
  QCheck.Test.make ~name:"rlink delivers in order under random loss" ~count:15
    QCheck.(pair (int_range 1 30) (int_range 0 35))
    (fun (msgs, loss_pct) ->
      let engine, a, b =
        make_rlinks ~loss:(float_of_int loss_pct /. 100.0)
          ~seed:(Int64.of_int ((msgs * 131) + loss_pct))
          ()
      in
      let got = ref [] in
      Net.Rlink.on_receive b (fun ~src:_ p -> got := Bytes.to_string p :: !got);
      for i = 0 to msgs - 1 do
        Net.Rlink.send a ~dst:1 (Bytes.of_string (string_of_int i))
      done;
      Net.Engine.run engine ~until:300.0;
      List.rev !got = List.init msgs string_of_int)

(* --- fault windows ------------------------------------------------------------------------ *)

(* Applies [schedule] to a bare n=4 radio, then has p0 send one short
   frame every 1 ms from 1 ms to 100 ms; the receive time of each frame
   at p1 and at p2, by send time in ms. *)
let receptions schedule =
  let engine, _, radio = make_radio ~seed:13L () in
  Net.Schedule.apply radio schedule;
  let at = Array.make_matrix 4 101 Float.nan in
  Net.Radio.on_receive radio (fun receiver ~sender:_ frame ->
      at.(receiver).(int_of_string (Bytes.to_string frame.Net.Radio.payload)) <- Net.Engine.now engine);
  for ms = 1 to 100 do
    ignore
      (Net.Engine.at engine ~time:(float_of_int ms *. 1e-3) (fun () ->
           Net.Radio.transmit radio ~sender:0 ~duration:1e-4 (frame ~src:0 (string_of_int ms))))
  done;
  Net.Engine.run engine;
  fun rx ms -> at.(rx).(ms)

(* how many of the frames sent from [from] to [until] ms reached [rx] *)
let received rx ~from ~until got =
  List.length
    (List.filter (fun ms -> not (Float.is_nan (got rx ms))) (List.init (until - from + 1) (( + ) from)))

(* Ending a jamming window restores the receiver's own loss overlay,
   which Fault_event.in_force still reports, rather than erasing it. *)
let test_jam_rx_end_keeps_rx_loss () =
  let got =
    receptions
      Net.Schedule.
        [
          { at = 0.0005; action = Set_rx_loss { rx = 1; p = 0.5 } };
          { at = 0.0015; action = Jam_rx { rx = 1; until = 0.0105 } };
        ]
  in
  Alcotest.(check int) "jammed p1 receives nothing" 0 (received 1 ~from:2 ~until:10 got);
  let after = received 1 ~from:11 ~until:100 got in
  Alcotest.(check bool)
    (Printf.sprintf "p1 loses about half after the jam (%d of 90 received)" after)
    true
    (after > 25 && after < 65);
  Alcotest.(check int) "p2 unaffected" 100 (received 2 ~from:1 ~until:100 got)

(* A receiver stays jammed until its last window closes. *)
let test_jam_rx_windows_overlap () =
  let got =
    receptions
      Net.Schedule.
        [
          { at = 0.0005; action = Jam_rx { rx = 1; until = 0.0305 } };
          { at = 0.0015; action = Jam_rx { rx = 1; until = 0.0105 } };
        ]
  in
  Alcotest.(check int) "jammed until the outer window closes" 0 (received 1 ~from:1 ~until:30 got);
  Alcotest.(check int) "receives after it" 70 (received 1 ~from:31 ~until:100 got)

(* While delay windows overlap, the one opened last applies; when it
   closes the receiver falls back to the one still open, and to no delay
   once that closes too. *)
let test_delay_rx_windows_overlap () =
  let got =
    receptions
      Net.Schedule.
        [
          { at = 0.0005; action = Delay_rx { rx = 1; delay = 0.004; until = 0.0505 } };
          { at = 0.0015; action = Delay_rx { rx = 1; delay = 0.002; until = 0.0105 } };
        ]
  in
  let lag ms = Float.round ((got 1 ms -. got 2 ms) *. 1e6) in
  Alcotest.(check (float 0.0)) "outer window alone" 4000.0 (lag 1);
  Alcotest.(check (float 0.0)) "inner window opened last" 2000.0 (lag 5);
  Alcotest.(check (float 0.0)) "back to the outer window" 4000.0 (lag 20);
  Alcotest.(check (float 0.0)) "no window left" 0.0 (lag 60)

(* --- fault loads ----------------------------------------------------------------------- *)

let test_fault_max_f () =
  List.iter
    (fun (n, expected) -> Alcotest.(check int) (Printf.sprintf "n=%d" n) expected (Net.Fault.max_f n))
    [ (4, 1); (7, 2); (10, 3); (13, 4); (16, 5) ]

let test_fault_sets () =
  Alcotest.(check (list int)) "failure-free empty" []
    (Net.Fault.faulty_set ~n:7 Net.Fault.Failure_free);
  Alcotest.(check (list int)) "fail-stop top ids" [ 6; 5 ]
    (Net.Fault.faulty_set ~n:7 Net.Fault.Fail_stop);
  Alcotest.(check bool) "is_faulty" true (Net.Fault.is_faulty ~n:7 Net.Fault.Byzantine 6);
  Alcotest.(check bool) "not faulty" false (Net.Fault.is_faulty ~n:7 Net.Fault.Byzantine 0)

let test_fault_apply_crashes () =
  let engine = Net.Engine.create () in
  let radio = Net.Radio.create engine (Util.Rng.create ~seed:1L) ~n:7 in
  Net.Fault.apply_crashes radio ~n:7 Net.Fault.Fail_stop;
  Alcotest.(check bool) "crashed" true (Net.Radio.is_down radio 6);
  Alcotest.(check bool) "alive" false (Net.Radio.is_down radio 0);
  (* Byzantine processes stay up *)
  let radio2 = Net.Radio.create engine (Util.Rng.create ~seed:2L) ~n:7 in
  Net.Fault.apply_crashes radio2 ~n:7 Net.Fault.Byzantine;
  Alcotest.(check bool) "byzantine not down" false (Net.Radio.is_down radio2 6)

let suite =
  ( "net",
    [
      Alcotest.test_case "radio delivery" `Quick test_radio_delivers_to_all_but_sender;
      Alcotest.test_case "radio collision" `Quick test_radio_collision_corrupts_both;
      Alcotest.test_case "radio sequential" `Quick test_radio_sequential_no_collision;
      Alcotest.test_case "radio loss" `Quick test_radio_loss_probability;
      Alcotest.test_case "radio down node" `Quick test_radio_down_node;
      Alcotest.test_case "radio jamming" `Quick test_radio_jamming;
      Alcotest.test_case "radio carrier sense" `Quick test_radio_carrier_sense;
      Alcotest.test_case "radio idle subscription" `Quick test_radio_idle_subscription;
      Alcotest.test_case "mac airtime" `Quick test_mac_airtime_math;
      Alcotest.test_case "mac broadcast" `Quick test_mac_broadcast_delivery;
      Alcotest.test_case "mac unicast ack" `Quick test_mac_unicast_acked;
      Alcotest.test_case "mac retransmit" `Quick test_mac_unicast_retransmits_under_loss;
      Alcotest.test_case "mac retry limit" `Quick test_mac_unicast_drop_after_retry_limit;
      Alcotest.test_case "mac fifo queue" `Quick test_mac_queue_drains_in_order;
      Alcotest.test_case "mac contention" `Quick test_mac_contention_eventually_delivers;
      Alcotest.test_case "mac radio collected" `Quick test_mac_radio_collected;
      Alcotest.test_case "mac difs end after outside transmit" `Quick
        test_mac_difs_end_after_outside_transmit;
      Alcotest.test_case "mac trajectories pinned" `Quick test_mac_trajectories_pinned;
      Alcotest.test_case "datagram ports" `Quick test_datagram_port_dispatch;
      Alcotest.test_case "datagram loopback" `Quick test_datagram_broadcast_loopback;
      Alcotest.test_case "node timers" `Quick test_node_timers;
      Alcotest.test_case "rlink ordered" `Quick test_rlink_ordered_delivery;
      Alcotest.test_case "rlink heavy loss" `Quick test_rlink_reliable_under_heavy_loss;
      Alcotest.test_case "rlink bidirectional" `Quick test_rlink_bidirectional;
      Alcotest.test_case "rlink authenticated" `Quick test_rlink_authenticated;
      Alcotest.test_case "rlink large messages" `Quick test_rlink_large_messages;
      QCheck_alcotest.to_alcotest qcheck_rlink_random_loss;
      Alcotest.test_case "jam end keeps rx loss" `Quick test_jam_rx_end_keeps_rx_loss;
      Alcotest.test_case "jam windows overlap" `Quick test_jam_rx_windows_overlap;
      Alcotest.test_case "delay windows overlap" `Quick test_delay_rx_windows_overlap;
      Alcotest.test_case "fault max_f" `Quick test_fault_max_f;
      Alcotest.test_case "fault sets" `Quick test_fault_sets;
      Alcotest.test_case "fault crashes" `Quick test_fault_apply_crashes;
    ] )

(* --- randomized MAC invariants ------------------------------------------------ *)

(* under arbitrary loss: no payload is delivered twice, none vanishes
   (each is delivered or reported dropped — possibly both, when the
   data frame succeeded but its final ACK was lost, exactly as in real
   802.11), and deliveries preserve send order *)
let qcheck_mac_exactly_once =
  QCheck.Test.make ~name:"mac unicast at-most-once, no loss, in-order" ~count:20
    QCheck.(triple (int_range 1 25) (int_range 0 60) int64)
    (fun (messages, loss_pct, seed) ->
      let engine = Net.Engine.create () in
      let rng = Util.Rng.create ~seed in
      let radio = Net.Radio.create engine (Util.Rng.split rng) ~n:2 in
      Net.Radio.set_loss_prob radio (float_of_int loss_pct /. 100.0);
      let a = Net.Mac.create engine radio ~id:0 ~rng:(Util.Rng.split rng) in
      let b = Net.Mac.create engine radio ~id:1 ~rng:(Util.Rng.split rng) in
      let delivered = ref [] in
      let dropped = ref [] in
      Net.Mac.on_deliver b (fun ~src:_ ~port:_ payload ->
          delivered := Bytes.to_string payload :: !delivered);
      Net.Mac.on_drop a (fun ~dst:_ payload -> dropped := Bytes.to_string payload :: !dropped);
      for i = 0 to messages - 1 do
        Net.Mac.send_unicast a ~dst:1 ~port:0 (Bytes.of_string (string_of_int i))
      done;
      Net.Engine.run engine ~until:600.0;
      let delivered = List.rev !delivered in
      let dropped = List.rev !dropped in
      let expected = List.init messages string_of_int in
      let covered m = List.mem m delivered || List.mem m dropped in
      let no_duplicates l = List.length (List.sort_uniq compare l) = List.length l in
      let in_order l =
        let rec go last = function
          | [] -> true
          | x :: rest -> int_of_string x > last && go (int_of_string x) rest
        in
        go (-1) l
      in
      List.for_all covered expected && no_duplicates delivered && in_order delivered)

(* radio conservation: sent = delivered + omissions + (collided and
   jammed frames accounted separately); no phantom deliveries *)
let qcheck_radio_conservation =
  QCheck.Test.make ~name:"radio delivery conservation" ~count:30
    QCheck.(pair (int_range 1 40) int64)
    (fun (frames, seed) ->
      let (stats, received), metrics =
        Obs.Scope.with_run (fun () ->
            let engine = Net.Engine.create () in
            let rng = Util.Rng.create ~seed in
            let radio = Net.Radio.create engine (Util.Rng.split rng) ~n:3 in
            Net.Radio.set_loss_prob radio 0.3;
            let received = ref 0 in
            Net.Radio.on_receive radio (fun _ ~sender:_ _ -> incr received);
            (* spaced transmissions: no collisions by construction *)
            for i = 0 to frames - 1 do
              ignore
                (Net.Engine.schedule engine ~delay:(float_of_int i *. 0.01) (fun () ->
                     Net.Radio.transmit radio ~sender:(i mod 3) ~duration:0.001
                       (frame ~src:(i mod 3) "x")))
            done;
            Net.Engine.run engine;
            (Net.Radio.stats radio, !received))
      in
      let delivered = Obs.Metrics.counter_value metrics "radio.delivered" in
      stats.frames_sent = frames
      && received = delivered
      && delivered + Obs.Metrics.counter_value metrics "radio.omissions" = 2 * frames
      && stats.collisions = 0)

let suite =
  ( fst suite,
    snd suite
    @ [
        QCheck_alcotest.to_alcotest qcheck_mac_exactly_once;
        QCheck_alcotest.to_alcotest qcheck_radio_conservation;
      ] )
