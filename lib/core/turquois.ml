type tick_policy =
  | Fixed_tick
  | Adaptive_tick of { floor : float; factor : float }
  | Mac_aware of { floor : float; headroom : float; cap : float }

let default_adaptive = Adaptive_tick { floor = 2.5e-3; factor = 0.5 }

(* headroom 0.25: rebroadcast about four times per phase's worth of
   observed channel occupancy — often enough to recover from collision
   loss, rare enough never to outrun the medium *)
let default_mac_aware = Mac_aware { floor = 2.5e-3; headroom = 0.25; cap = 0.5 }

type auth_cost = Onetime_cost | Rsa_cost

type behavior = Machine.behavior =
  | Correct
  | Attacker
  | Byzantine of Strategy.t

type t = {
  node : Net.Node.t;
  machine : Machine.t;
  port : int;
  tick_policy : tick_policy;
  auth_cost : auth_cost;
  linger_ticks : int;
  mutable stuck_ticks : int;
  mutable ticks_since_decision : int;
  mutable current_tick : float;
  (* cumulative radio airtime at this node's last phase change — the
     Mac_aware policy derives its tick from the delta *)
  mutable airtime_mark : float;
  mutable tick_handle : Net.Engine.handle option;
  mutable started : bool;
  mutable decide_cb : (value:int -> phase:int -> unit) option;
}

let id t = Net.Node.id t.node
let phase t = Machine.phase t.machine
let decision t = Machine.decision t.machine
let on_decide t f = t.decide_cb <- Some f

let create node cfg ~keyring ?(behavior = Correct) ?(port = 443)
    ?(tick_policy = Fixed_tick) ?(linger_ticks = 50) ?(auth_cost = Onetime_cost)
    ~proposal () =
  if Keyring.owner keyring <> Net.Node.id node then
    invalid_arg "Turquois.create: keyring owner does not match node id";
  (match tick_policy with
  | Fixed_tick -> ()
  | Adaptive_tick { floor; factor } ->
      if floor <= 0.0 || factor <= 0.0 || factor >= 1.0 then
        invalid_arg "Turquois.create: bad adaptive tick parameters"
  | Mac_aware { floor; headroom; cap } ->
      if floor <= 0.0 || headroom <= 0.0 || cap < floor then
        invalid_arg "Turquois.create: bad mac-aware tick parameters");
  let machine =
    Machine.create cfg ~keyring ~rng:(Net.Node.rng node) ~behavior ~proposal ()
  in
  {
    node;
    machine;
    port;
    tick_policy;
    auth_cost;
    linger_ticks;
    stuck_ticks = 0;
    ticks_since_decision = 0;
    current_tick = Proto.tick_interval;
    airtime_mark = 0.0;
    tick_handle = None;
    started = false;
    decide_cb = None;
  }

let proto = [ ("proto", "turquois") ]
let broadcasts = Obs.Metrics.counter ~labels:proto "proto.broadcasts"
let msgs_sent = Obs.Metrics.counter ~labels:proto "proto.msgs_sent"
let justified = Obs.Metrics.counter ~labels:proto "proto.justified"
let equivocations = Obs.Metrics.counter ~labels:proto "proto.equivocations"
let ticks = Obs.Metrics.counter ~labels:proto "proto.ticks"
let phase_changes = Obs.Metrics.counter ~labels:proto "proto.phase_changes"
let decisions = Obs.Metrics.counter ~labels:proto "proto.decisions"

let count_broadcast t (envelope : Message.envelope) =
  (match t.auth_cost with
  | Onetime_cost -> ()  (* signing reveals a precomputed key: free *)
  | Rsa_cost -> Net.Node.charge t.node Net.Cost.rsa_sign);
  Obs.Metrics.incr broadcasts;
  Obs.Metrics.incr msgs_sent;
  if envelope.justification <> [] then Obs.Metrics.incr justified

let broadcast_state t ~justify =
  match Machine.emit t.machine ~justify with
  | Machine.Quiet -> ()  (* key horizon exhausted, or a silent strategy *)
  | Machine.Broadcast envelope ->
      count_broadcast t envelope;
      let bytes = Machine.encode_envelope t.machine envelope in
      if Obs.Trace2.enabled () then begin
        (* causal id minted at the broadcast site; the radio looks it up
           on the payload its frames carry, so its events name the
           message *)
        let mid = Obs.Causal.next_send ~sender:(id t) ~phase:envelope.msg.Message.phase in
        Obs.Causal.register bytes mid;
        Obs.Trace2.emit ~time:(Net.Engine.now (Net.Node.engine t.node)) ~node:(id t)
          ~layer:"turquois" ~label:"broadcast"
          [
            ("msg", Obs.Trace2.S (Message.describe envelope.msg));
            ("phase", Obs.Trace2.I envelope.msg.Message.phase);
            ("justifying", Obs.Trace2.I (List.length envelope.justification));
            ("mid", Obs.Trace2.S mid);
          ]
      end;
      (* a queued-but-unsent frame of the same flavor is superseded in
         place: under contention the newest state replaces the stale
         one instead of queueing behind it. Plain and justified frames
         get distinct tags — a plain rebroadcast must never evict a
         queued justification bundle. *)
      let tag =
        (2 * t.port) + if envelope.Message.justification = [] then 0 else 1
      in
      Net.Node.broadcast_latest t.node ~tag ~port:t.port bytes
  | Machine.Per_receiver frames ->
      (* equivocation: ship each receiver its private copy as a unicast
         so nobody overhears the contradicting frame. The copies fall
         into a few content classes (e.g. V0 to evens, V1 to odds), so
         each distinct envelope is encoded once and the bytes shared:
         every receiver of a copy is handed that one buffer, which no
         layer writes to *)
      let encoded : (Message.envelope * bytes) list ref = ref [] in
      let encode_once (envelope : Message.envelope) =
        match List.find_opt (fun (e, _) -> e = envelope) !encoded with
        | Some (_, bytes) -> bytes
        | None ->
            let bytes = Message.encode envelope in
            if Obs.Trace2.enabled () then
              Obs.Causal.register bytes
                (Obs.Causal.next_send ~sender:(id t)
                   ~phase:envelope.msg.Message.phase);
            encoded := (envelope, bytes) :: !encoded;
            bytes
      in
      List.iter
        (fun (rx, (envelope : Message.envelope)) ->
          count_broadcast t envelope;
          Obs.Metrics.incr equivocations;
          let bytes = encode_once envelope in
          if Obs.Trace2.enabled () then
            Obs.Trace2.emit ~time:(Net.Engine.now (Net.Node.engine t.node)) ~node:(id t)
              ~layer:"turquois" ~label:"equivocate"
              ([
                 ("to", Obs.Trace2.I rx);
                 ("msg", Obs.Trace2.S (Message.describe envelope.msg));
               ]
              @ Obs.Causal.mid_field bytes);
          Net.Node.unicast t.node ~dst:rx ~port:t.port bytes)
        frames

let rec arm_tick t =
  (match t.tick_handle with
  | Some h ->
      Net.Node.cancel_timer t.node h;
      t.tick_handle <- None
  | None -> ());
  let handle = Net.Node.set_timer t.node ~delay:t.current_tick (fun () -> on_tick t) in
  t.tick_handle <- Some handle

and on_tick t =
  (* after deciding, linger to help slower processes, then go quiet *)
  if Machine.decision t.machine <> None then
    t.ticks_since_decision <- t.ticks_since_decision + 1;
  if t.ticks_since_decision <= t.linger_ticks then begin
    Obs.Metrics.incr ticks;
    (* same state as the previous broadcast? then the optimistic small
       message was not enough — attach the justification (Section 6.2).
       Justified frames are an order of magnitude longer than plain
       ones, so while stuck we alternate justified and plain
       rebroadcasts: sixteen stations all shipping bundles every 10 ms
       would saturate the medium and collapse under collisions. *)
    let stuck = Machine.same_state_as_last_broadcast t.machine in
    if stuck then t.stuck_ticks <- t.stuck_ticks + 1 else t.stuck_ticks <- 0;
    let justify = stuck && t.stuck_ticks mod 2 = 1 in
    (match t.tick_policy with
    | Fixed_tick -> ()
    | Mac_aware _ -> ()  (* paced from observed airtime at phase changes *)
    | Adaptive_tick { floor; factor } ->
        t.current_tick <-
          (if stuck then Float.max floor (t.current_tick *. factor)
           else Proto.tick_interval));
    broadcast_state t ~justify;
    arm_tick t
  end

let react t events =
  let phase_changed = ref false in
  List.iter
    (fun event ->
      match event with
      | Machine.Phase_changed p ->
          phase_changed := true;
          Obs.Metrics.incr phase_changes;
          if Obs.Trace2.enabled () then
            Obs.Trace2.emit ~time:(Net.Engine.now (Net.Node.engine t.node)) ~node:(id t)
              ~layer:"turquois" ~label:"phase" [ ("phase", Obs.Trace2.I p) ]
      | Machine.Decided { value; phase } -> begin
          Obs.Metrics.incr decisions;
          if Obs.Trace2.enabled () then
            Obs.Trace2.emit ~time:(Net.Engine.now (Net.Node.engine t.node)) ~node:(id t)
              ~layer:"turquois" ~label:"decide"
              [ ("value", Obs.Trace2.I value); ("phase", Obs.Trace2.I phase) ];
          match t.decide_cb with Some f -> f ~value ~phase | None -> ()
        end)
    events;
  if !phase_changed then begin
    (* a phase change triggers an immediate clock tick (§7.1) and, for
       the adaptive policies, resets the pacing *)
    (match t.tick_policy with
    | Fixed_tick | Adaptive_tick _ -> t.current_tick <- Proto.tick_interval
    | Mac_aware { floor; headroom; cap } ->
        (* the channel occupancy this phase took to clear is the best
           available estimate of how long the next one will take: pace
           the rebroadcast clock as a fraction of it *)
        let air = (Net.Radio.stats (Net.Mac.radio (Net.Node.mac t.node))).Net.Radio.airtime in
        let observed = air -. t.airtime_mark in
        t.airtime_mark <- air;
        (* adapt upward only: the policy exists to stop rebroadcasts
           from outrunning a busy medium at large n, never to tick
           faster than the configured (paper-faithful) interval — so
           small-n timing is identical to [Fixed_tick] *)
        let lo = Float.max floor Proto.tick_interval in
        if observed > 0.0 then
          t.current_tick <- Float.min cap (Float.max lo (headroom *. observed)));
    broadcast_state t ~justify:false;
    arm_tick t
  end

let on_datagram t ~src:_ payload =
  (* broadcast deliveries re-materialize the same payload bytes at each
     receiver; the run's message store memoizes the decode *)
  match Msgstore.decode (Machine.store t.machine) payload with
  | exception (Util.Codec.Malformed _ | Util.Codec.Truncated) -> ()
  | frame ->
      let events, auth_checks = Machine.handle_wire t.machine frame in
      let per_check =
        match t.auth_cost with
        | Onetime_cost -> Net.Cost.onetime_check
        | Rsa_cost -> Net.Cost.rsa_verify
      in
      Net.Node.charge t.node (float_of_int auth_checks *. per_check);
      react t events

let start t =
  if not t.started then begin
    t.started <- true;
    Net.Node.listen t.node ~port:t.port (fun ~src payload -> on_datagram t ~src payload);
    broadcast_state t ~justify:false;
    arm_tick t
  end

let stop t =
  match t.tick_handle with
  | Some h ->
      Net.Node.cancel_timer t.node h;
      t.tick_handle <- None
  | None -> ()
