type protocol = Turquois | Bracha | Abba | Sampled

let protocol_to_string = function
  | Turquois -> "Turquois"
  | Bracha -> "Bracha"
  | Abba -> "ABBA"
  | Sampled -> "Sampled"

type dist = Unanimous | Divergent

let dist_to_string = function Unanimous -> "unanimous" | Divergent -> "divergent"

let proposals dist ~n =
  match dist with
  | Unanimous -> Array.make n 1
  | Divergent -> Array.init n (fun i -> i mod 2)

type result = {
  latencies : (int * float) list;
  decisions : (int * int) list;
  decision_phases : (int * int) list;
  correct : int list;
  agreement : bool;
  validity : bool;
  duration : float;
  timed_out : bool;
  frames_sent : int;
  bytes_sent : int;
  airtime : float;
  events_live_peak : int;
  events_queued_peak : int;
  metrics : Obs.Metrics.snapshot;
}

(* Key material caches — the paper generates and distributes all keys
   before the experiments start, so reusing them across repetitions is
   faithful (and keeps the simulation fast). Generation is seeded
   deterministically (per dedicated seed, group size and horizon), so
   the caches are domain-local: each pool worker derives bit-identical
   keys instead of racing on a shared table. The caches carry no
   metrics and deliberately survive run scopes — an order-dependent
   hit pattern inside run metrics would break the -j 1 vs -j N
   merged-metrics equality. *)
let turquois_keys : (int64 * int * int, Core.Keyring.t array) Hashtbl.t Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let abba_keys : (int, Baselines.Abba.group_keys) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let key_phases = 300

let keyrings_for ~seed ~n ~phases =
  let cache = Domain.DLS.get turquois_keys in
  let key = (seed, n, phases) in
  match Hashtbl.find_opt cache key with
  | Some k -> k
  | None ->
      let k = Core.Keyring.setup (Util.Rng.create ~seed) ~n ~phases () in
      Hashtbl.add cache key k;
      k

let turquois_keyrings ~n =
  keyrings_for ~seed:(Int64.of_int (0x7153 + n)) ~n ~phases:key_phases

let abba_group_keys ~n =
  let cache = Domain.DLS.get abba_keys in
  match Hashtbl.find_opt cache n with
  | Some k -> k
  | None ->
      let rng = Util.Rng.create ~seed:(Int64.of_int (0xabba + n)) in
      let k = Baselines.Abba.setup_keys rng ~n ~f:(Net.Fault.max_f n) () in
      Hashtbl.add cache n k;
      k

let clear_key_cache () =
  Hashtbl.reset (Domain.DLS.get turquois_keys);
  Hashtbl.reset (Domain.DLS.get abba_keys)

(* Start offsets model the signaling machine's 1-byte UDP broadcast:
   one frame airtime plus small per-node reception jitter. *)
let start_time rng =
  Net.Mac.airtime_broadcast ~payload_bytes:29 +. Util.Rng.float rng 200.0e-6

let run_body ~protocol ~n ~dist ~load ~conditions ~strategy ~schedule ~attach ~timeout
    ~seed () =
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n in
  Net.Fault.apply_conditions radio conditions;
  Net.Fault.apply_crashes radio ~n load;
  (match schedule with None -> () | Some s -> Net.Schedule.apply radio s);
  (match attach with None -> () | Some f -> f radio);
  let faulty = Net.Fault.faulty_set ~n load in
  let crashed = match load with Net.Fault.Fail_stop -> faulty | _ -> [] in
  let byzantine = match load with Net.Fault.Byzantine -> faulty | _ -> [] in
  let f = Net.Fault.max_f n in
  Obs.Trace2.emit ~time:0.0 ~node:(-1) ~layer:"run" ~label:"meta"
    [
      ("protocol", Obs.Trace2.S (protocol_to_string protocol));
      ("n", Obs.Trace2.I n);
      ("f", Obs.Trace2.I f);
      ("k", Obs.Trace2.I (n - f));
      ("t", Obs.Trace2.I (List.length byzantine));
      ("dist", Obs.Trace2.S (dist_to_string dist));
      ("load", Obs.Trace2.S (Net.Fault.load_to_string load));
      ("seed", Obs.Trace2.S (Int64.to_string seed));
      ("tick_s", Obs.Trace2.F (Core.Proto.default_config ~n).Core.Proto.tick_interval);
      ("loss_prob", Obs.Trace2.F conditions.Net.Fault.loss_prob);
      ("crashed", Obs.Trace2.S (String.concat "," (List.map string_of_int crashed)));
    ];
  let correct =
    List.filter (fun i -> not (List.mem i faulty)) (List.init n (fun i -> i))
  in
  let proposals = proposals dist ~n in
  (* both closures draw from [rng]: application order must be pinned *)
  let nodes =
    Util.Init.array n (fun id -> Net.Node.create engine radio ~id ~rng:(Util.Rng.split rng))
  in
  let starts = Util.Init.array n (fun _ -> start_time rng) in
  let decide_time : (int, float) Hashtbl.t = Hashtbl.create n in
  let decide_value : (int, int) Hashtbl.t = Hashtbl.create n in
  let decide_phase : (int, int) Hashtbl.t = Hashtbl.create n in
  let record i value phase =
    if not (Hashtbl.mem decide_time i) then begin
      Hashtbl.replace decide_time i (Net.Engine.now engine -. starts.(i));
      Hashtbl.replace decide_value i value;
      Hashtbl.replace decide_phase i phase
    end
  in
  let launch i (start : unit -> unit) =
    if not (List.mem i crashed) then
      ignore (Net.Engine.at engine ~time:starts.(i) start)
  in
  (match protocol with
  | Turquois ->
      let cfg = { (Core.Proto.default_config ~n) with max_phases = key_phases } in
      let keyrings = turquois_keyrings ~n in
      (* the fixed 10 ms tick is faithful to the paper's n <= 16
         prototype but floods the medium at larger n; the MAC-aware
         policy paces each node's rebroadcasts from the airtime its
         phases are observed to consume *)
      let tick_policy = Core.Turquois.default_mac_aware in
      Array.iteri
        (fun i node ->
          let behavior =
            if List.mem i byzantine then
              match strategy with
              | Some s -> Core.Turquois.Byzantine s
              | None -> Core.Turquois.Attacker
            else Core.Turquois.Correct
          in
          let p =
            Core.Turquois.create node cfg ~keyring:keyrings.(i) ~behavior ~tick_policy
              ~proposal:proposals.(i) ()
          in
          if not (List.mem i byzantine) then
            Core.Turquois.on_decide p (fun ~value ~phase -> record i value phase);
          launch i (fun () -> Core.Turquois.start p))
        nodes
  | Bracha ->
      let f = Net.Fault.max_f n in
      Array.iteri
        (fun i node ->
          let behavior =
            if List.mem i byzantine then Baselines.Bracha.Attacker
            else Baselines.Bracha.Correct
          in
          let p =
            Baselines.Bracha.create node ~n ~f ~behavior ~proposal:proposals.(i) ()
          in
          if not (List.mem i byzantine) then
            Baselines.Bracha.on_decide p (fun ~value ~round -> record i value round);
          launch i (fun () -> Baselines.Bracha.start p))
        nodes
  | Abba ->
      let keys = abba_group_keys ~n in
      Array.iteri
        (fun i node ->
          let behavior =
            if List.mem i byzantine then Baselines.Abba.Attacker else Baselines.Abba.Correct
          in
          let p = Baselines.Abba.create node ~keys ~behavior ~proposal:proposals.(i) () in
          if not (List.mem i byzantine) then
            Baselines.Abba.on_decide p (fun ~value ~round -> record i value round);
          launch i (fun () -> Baselines.Abba.start p))
        nodes
  | Sampled ->
      (* sample-based probabilistic consensus over the same radio/MAC
         stack; the sampler and shared coin are public randomness
         derived from the run seed, identical at every node *)
      let net = Scale.Transport.of_nodes nodes ~port:443 in
      let sampler = Scale.Sampler.create ~seed:(Util.Rng.derive ~base:seed [ 0x5a ]) ~n in
      let coin_seed = Util.Rng.derive ~base:seed [ 0xc017 ] in
      (* the default tick is sized for the abstract medium; contended
         802.11b unicast needs whole phases — n * sample_size frames
         sharing one channel — to fit between re-pushes. Each frame's
         channel cost is its data airtime (actual vote-frame size plus
         the UDP/IP header and its length prefix) plus the fixed DCF
         overhead: SIFS, the ACK, DIFS and the average initial
         backoff. *)
      let cfg0 = Scale.Sampled.default_config ~n in
      let tick =
        let datagram_bytes =
          (* u16 port + padded header + length-prefixed payload *)
          Net.Datagram.header_bytes + 1 + Scale.Sampled.state_frame_bytes
        in
        let per_frame =
          Net.Mac.airtime_unicast ~payload_bytes:datagram_bytes
          +. Net.Mac.Const.sifs +. Net.Mac.ack_airtime +. Net.Mac.Const.difs
          +. (float_of_int Net.Mac.Const.cw_min /. 2.0 *. Net.Mac.Const.slot)
        in
        let frames = float_of_int (n * cfg0.Scale.Sampled.sample_size) in
        Float.max 0.25 (1.5 *. frames *. per_frame)
      in
      let cfg = { cfg0 with tick } in
      Array.iteri
        (fun i _node ->
          let behavior =
            if List.mem i byzantine then
              match strategy with
              | Some s when Core.Strategy.name s = "equivocate" ->
                  Scale.Sampled.Equivocator
              | _ -> Scale.Sampled.Attacker
            else Scale.Sampled.Correct
          in
          let p =
            Scale.Sampled.create net sampler cfg ~id:i ~coin_seed ~behavior
              ~proposal:proposals.(i) ()
          in
          if not (List.mem i byzantine) then
            Scale.Sampled.on_decide p (fun ~value ~phase -> record i value phase);
          launch i (fun () -> Scale.Sampled.start p))
        nodes);
  let all_correct_decided () =
    List.for_all (fun i -> Hashtbl.mem decide_time i) correct
  in
  Net.Engine.run_while engine (fun () ->
      Net.Engine.now engine < timeout && not (all_correct_decided ()));
  let timed_out = not (all_correct_decided ()) in
  let latencies = List.filter_map (fun i -> Option.map (fun l -> (i, l)) (Hashtbl.find_opt decide_time i)) correct in
  let decisions = List.filter_map (fun i -> Option.map (fun v -> (i, v)) (Hashtbl.find_opt decide_value i)) correct in
  let decision_phases = List.filter_map (fun i -> Option.map (fun p -> (i, p)) (Hashtbl.find_opt decide_phase i)) correct in
  let agreement =
    match decisions with
    | [] -> true
    | (_, v0) :: rest -> List.for_all (fun (_, v) -> v = v0) rest
  in
  let validity =
    match dist with
    | Unanimous -> List.for_all (fun (_, v) -> v = 1) decisions
    | Divergent -> true
  in
  let radio_stats = Net.Radio.stats radio in
  Obs.Metrics.set "engine.events_live" (float_of_int (Net.Engine.pending engine));
  Obs.Metrics.set "engine.live_peak" (float_of_int (Net.Engine.live_peak engine));
  Obs.Metrics.set "engine.queued_peak" (float_of_int (Net.Engine.queued_peak engine));
  {
    latencies;
    decisions;
    decision_phases;
    correct;
    agreement;
    validity;
    duration = Net.Engine.now engine;
    timed_out;
    frames_sent = radio_stats.frames_sent;
    bytes_sent = radio_stats.bytes_sent;
    airtime = radio_stats.airtime;
    events_live_peak = Net.Engine.live_peak engine;
    events_queued_peak = Net.Engine.queued_peak engine;
    metrics = [];
  }

let run ~protocol ~n ~dist ~load ?(conditions = Net.Fault.benign_conditions) ?strategy
    ?schedule ?attach ?(timeout = 120.0) ~seed () =
  (* each repetition starts from zeroed sinks: a leaked counter or
     stale trace from the previous run would poison its successor *)
  let result, metrics =
    Obs.Scope.with_run
      (run_body ~protocol ~n ~dist ~load ~conditions ~strategy ~schedule ~attach
         ~timeout ~seed)
  in
  { result with metrics }
