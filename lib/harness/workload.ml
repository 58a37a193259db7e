type arrival = Poisson | Bursty of int

type config = {
  n : int;
  capacity : int;
  window : int;
  max_batch : int;
  load : float;
  arrival : arrival;
  commands : int;
  cmd_bytes : int;
  loss : float;
  payload_wait : float;
  noop_wait : float;
  timeout : float;
  seed : int64;
}

let default ~n =
  {
    n;
    capacity = 24;
    window = 1;
    max_batch = 8;
    load = 50.0;
    arrival = Poisson;
    commands = 60;
    cmd_bytes = 16;
    loss = 0.01;
    payload_wait = 0.3;
    noop_wait = 0.12;
    timeout = 120.0;
    seed = 7100L;
  }

type result = {
  offered_load : float;
  commands : int;
  delivered_commands : int;
  committed_slots : int;
  skipped_slots : int;
  duration : float;
  throughput : float;
  decisions_per_sec : float;
  latency_p50 : float;
  latency_p99 : float;
}

let validate (c : config) =
  if c.n < 4 then invalid_arg "Workload: need n >= 4";
  if c.capacity < 1 then invalid_arg "Workload: capacity must be positive";
  if c.window < 1 then invalid_arg "Workload: window must be positive";
  if c.max_batch < 1 then invalid_arg "Workload: max_batch must be positive";
  if c.load <= 0.0 then invalid_arg "Workload: load must be positive";
  if c.commands < 1 then invalid_arg "Workload: commands must be positive";
  if c.cmd_bytes < 1 then invalid_arg "Workload: cmd_bytes must be positive";
  (match c.arrival with
  | Poisson -> ()
  | Bursty b -> if b < 1 then invalid_arg "Workload: burst must be positive");
  if c.loss < 0.0 || c.loss >= 1.0 then invalid_arg "Workload: loss must be in [0,1)";
  if c.payload_wait <= 0.0 then invalid_arg "Workload: payload_wait must be positive";
  if c.noop_wait <= 0.0 then invalid_arg "Workload: noop_wait must be positive";
  if c.timeout <= 0.0 then invalid_arg "Workload: timeout must be positive"

(* a command is its global id plus filler up to [cmd_bytes] *)
let encode_command ~id ~size =
  let w = Util.Codec.W.create ~capacity:(8 + size) () in
  Util.Codec.W.varint w id;
  for _ = 1 to size do
    Util.Codec.W.u8 w 0xAB
  done;
  Util.Codec.W.contents w

let command_id raw = Util.Codec.R.varint (Util.Codec.R.of_bytes raw)

(* Open-loop arrival times at [load] commands/sec: Poisson draws one
   exponential gap per command; Bursty [b] drops commands in groups of
   b separated by exponential gaps with mean b/load, so the long-run
   rate matches the Poisson case at equal [load]. *)
let arrival_times (c : config) rng =
  let gap_rng = Util.Rng.split rng in
  let times = Array.make c.commands 0.0 in
  let t = ref 0.0 in
  for k = 0 to c.commands - 1 do
    (match c.arrival with
    | Poisson -> t := !t +. Util.Rng.exponential gap_rng ~mean:(1.0 /. c.load)
    | Bursty burst ->
        if k mod burst = 0 then
          t := !t +. Util.Rng.exponential gap_rng ~mean:(float_of_int burst /. c.load));
    times.(k) <- !t
  done;
  times

let cmd_latency = Obs.Metrics.histogram ~lo:0.0 ~hi:10.0 ~bins:64 "workload.cmd.latency_s"
let cmds_delivered = Obs.Metrics.counter "workload.cmd.delivered"

let run_inner (c : config) =
  validate c;
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:c.seed in
  let radio = Net.Radio.create engine (Util.Rng.split rng) ~n:c.n in
  Net.Radio.set_loss_prob radio c.loss;
  let cfg = { (Core.Proto.default_config ~n:c.n) with max_phases = 45 } in
  (* keys depend on geometry only, so the cache is shared across loads
     and reps of a sweep *)
  let keyrings =
    Runner.keyrings_for
      ~seed:(Util.Rng.derive ~base:7002L [ c.n; c.capacity ])
      ~n:c.n
      ~phases:(c.capacity * cfg.Core.Proto.max_phases)
  in
  let logs =
    Util.Init.array c.n (fun i ->
        let node = Net.Node.create engine radio ~id:i ~rng:(Util.Rng.split rng) in
        Core.Ordered_log.create node cfg ~keyring:keyrings.(i) ~capacity:c.capacity
          ~window:c.window ~max_batch:c.max_batch ~payload_wait:c.payload_wait
          ~noop_wait:c.noop_wait ~help_retention:c.capacity ~retain_deliveries:false ())
  in
  let submit_time = arrival_times c rng in
  let latencies = ref [] in
  let delivered_commands = ref 0 in
  let committed = ref 0 in
  let skipped = ref 0 in
  let last_delivery = ref 0.0 in
  Array.iteri
    (fun i log ->
      Core.Ordered_log.on_deliver log (fun ~slot:_ ~payload ->
          match payload with
          | None -> if i = 0 then incr skipped
          | Some batch ->
              if i = 0 then incr committed;
              if i = 0 then last_delivery := Net.Engine.now engine;
              List.iter
                (fun cmd ->
                    let id = command_id cmd in
                    if id mod c.n = i then begin
                      let latency = Net.Engine.now engine -. submit_time.(id) in
                      latencies := latency :: !latencies;
                      Obs.Metrics.observe cmd_latency latency
                    end;
                    if i = 0 then incr delivered_commands)
                (Core.Ordered_log.decode_batch batch)))
    logs;
  Array.iter Core.Ordered_log.start logs;
  for id = 0 to c.commands - 1 do
    ignore
      (Net.Engine.at engine ~time:submit_time.(id) (fun () ->
           Core.Ordered_log.submit logs.(id mod c.n)
             (encode_command ~id ~size:c.cmd_bytes)))
  done;
  Net.Engine.run_while engine (fun () ->
      Net.Engine.now engine < c.timeout
      && Array.exists
           (fun log -> Core.Ordered_log.delivered_count log < c.capacity)
           logs);
  let duration = Net.Engine.now engine in
  let safe_div a b = if b > 0.0 then a /. b else 0.0 in
  let lats = List.sort compare !latencies in
  let pct p = if lats = [] then 0.0 else Util.Stats.percentile lats p in
  Obs.Metrics.incr_by cmds_delivered !delivered_commands;
  {
    offered_load = c.load;
    commands = c.commands;
    delivered_commands = !delivered_commands;
    committed_slots = !committed;
    skipped_slots = !skipped;
    duration;
    (* measured to the last command delivery, so trailing empty slots
       being skipped do not dilute the sustained rate *)
    throughput = safe_div (float_of_int !delivered_commands) !last_delivery;
    decisions_per_sec =
      safe_div (float_of_int (Core.Ordered_log.delivered_count logs.(0))) duration;
    latency_p50 = pct 0.5;
    latency_p99 = pct 0.99;
  }

let run c = fst (Obs.Scope.with_run (fun () -> run_inner c))

(* --- offered-load sweep ----------------------------------------------------- *)

type point = {
  load_point : float;
  mean_throughput : float;
  mean_decisions_per_sec : float;
  mean_p50 : float;
  mean_p99 : float;
  mean_delivered : float;
  reps : int;
}

let sweep ?jobs ~base ~loads ~reps () =
  if reps < 1 then invalid_arg "Workload.sweep: reps must be positive";
  if loads = [] then invalid_arg "Workload.sweep: need at least one load";
  let loads_a = Array.of_list loads in
  let nloads = Array.length loads_a in
  let results =
    Pool.map ?jobs ~tasks:(nloads * reps) (fun idx ->
        let li = idx / reps and rep = idx mod reps in
        run
          {
            base with
            load = loads_a.(li);
            seed = Util.Rng.derive ~base:base.seed [ li; rep ];
          })
  in
  List.init nloads (fun li ->
      let of_rep rep = results.((li * reps) + rep) in
      let mean f =
        let sum = ref 0.0 in
        for rep = 0 to reps - 1 do
          sum := !sum +. f (of_rep rep)
        done;
        !sum /. float_of_int reps
      in
      {
        load_point = loads_a.(li);
        mean_throughput = mean (fun r -> r.throughput);
        mean_decisions_per_sec = mean (fun r -> r.decisions_per_sec);
        mean_p50 = mean (fun r -> r.latency_p50);
        mean_p99 = mean (fun r -> r.latency_p99);
        mean_delivered = mean (fun r -> float_of_int r.delivered_commands);
        reps;
      })

let knee points =
  List.fold_left
    (fun acc p ->
      if p.mean_throughput >= 0.9 *. p.load_point then
        match acc with
        | Some best when best >= p.load_point -> acc
        | Some _ | None -> Some p.load_point
      else acc)
    None points

let render_points points =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "offered(cmd/s)  throughput  decisions/s   p50(ms)   p99(ms)  delivered\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%14.1f  %10.1f  %11.1f  %8.1f  %8.1f  %9.1f\n" p.load_point
           p.mean_throughput p.mean_decisions_per_sec (1e3 *. p.mean_p50)
           (1e3 *. p.mean_p99) p.mean_delivered))
    points;
  (match knee points with
  | Some k -> Buffer.add_string buf (Printf.sprintf "saturation knee: %.1f cmd/s\n" k)
  | None -> Buffer.add_string buf "saturation knee: below the lowest offered load\n");
  Buffer.contents buf
