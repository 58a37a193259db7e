module Const = struct
  let slot = 20.0e-6
  let sifs = 10.0e-6
  let difs = 50.0e-6
  let plcp_overhead = 192.0e-6
  let plcp_short = 96.0e-6
  let basic_rate = 2.0e6
  let data_rate = 11.0e6
  let cw_min = 31
  let cw_max = 1023
  let retry_limit = 7
  let ack_bytes = 14
  let header_bytes = 36
end

let broadcast_dst = 0xFFFF

(* Broadcast frames use the long preamble (802.11b's conservative
   multicast PHY header) but the 11 Mb/s payload rate — the testbed
   configuration the paper's n=16 latencies imply: at the 2 Mb/s basic
   rate sixteen 10 ms-tick broadcasters already saturate the channel.
   MAC ACKs stay at the basic rate; unicast data uses the short
   preamble. *)
let airtime ~plcp ~rate ~bytes = plcp +. (float_of_int (8 * bytes) /. rate)

let airtime_broadcast ~payload_bytes =
  airtime ~plcp:Const.plcp_overhead ~rate:Const.data_rate
    ~bytes:(payload_bytes + Const.header_bytes)

let airtime_unicast ~payload_bytes =
  airtime ~plcp:Const.plcp_short ~rate:Const.data_rate
    ~bytes:(payload_bytes + Const.header_bytes)

let ack_airtime = airtime ~plcp:Const.plcp_short ~rate:Const.basic_rate ~bytes:Const.ack_bytes

(* a frame class's series in both layers: [mac.tx] here, [radio.*] on
   the medium *)
type frame_class = { radio_class : Radio.frame_class; mac_tx : Obs.Metrics.counter }

let frame_class name =
  {
    radio_class = Radio.frame_class name;
    mac_tx = Obs.Metrics.counter ~labels:[ ("class", name) ] "mac.tx";
  }

let bcast_class = frame_class "bcast"
let ucast_class = frame_class "ucast"
let ack_class = frame_class "ack"
let backoff_slots = Obs.Metrics.counter "mac.backoff_slots"
let difs_waits = Obs.Metrics.counter "mac.difs_waits"
let drops = Obs.Metrics.counter "mac.drops"
let retries = Obs.Metrics.counter "mac.retries"
let replacements = Obs.Metrics.counter "mac.replaced"

type pending = {
  mutable frame : Radio.frame;  (* a replacement swaps its port and payload *)
  tag : int;  (* replacement class for queued broadcasts; -1 = never *)
  mutable retries : int;
  mutable cw : int;
}

let is_broadcast p = p.frame.dst = broadcast_dst

type t = {
  engine : Engine.t;
  radio : Radio.t;
  node_id : int;
  rng : Util.Rng.t;
  contention : contention;
  queue : pending Queue.t;
  mutable current : pending option;
  mutable remaining_slots : int;  (* frozen backoff survives across busy periods *)
  mutable awaiting_ack : Engine.handle option;
  mutable generation : int;       (* invalidates stale scheduled continuations *)
  mutable next_seq : int;
  mutable deliver : (src:int -> port:int -> bytes -> unit) option;
  mutable dropped : (dst:int -> bytes -> unit) option;
  seen : (int * int, unit) Hashtbl.t; (* (src, seq) dedup for retransmitted unicast *)
}

(* What the MACs of one radio share: the dispatch table, and the
   batches their carrier-sense checks run in. *)
and contention = {
  macs : t option array;
  mutable joinable : batch;  (* the batch opened last; members join it while it may run them *)
  mutable spare : batch list;  (* fired batches, reused with their arrays *)
}

(* The checks at the end of one sensing period, all started at
   [start]: member [i] runs if its generation is still [gens.(i)]. *)
and batch = {
  mutable start : float;
  mutable period : period;
  mutable members : t array;
  mutable gens : int array;
  mutable count : int;
  fire : unit -> unit;  (* the batch's engine action *)
}

and period = Difs | Slot  (* a DIFS, or one backoff slot *)

(* joins nothing, as its start is NaN *)
let no_batch =
  { start = Float.nan; period = Difs; members = [||]; gens = [||]; count = 0; fire = ignore }

let join b t =
  if b.count = Array.length b.members then begin
    let cap = max 8 (2 * b.count) in
    let members = Array.make cap t and gens = Array.make cap 0 in
    Array.blit b.members 0 members 0 b.count;
    Array.blit b.gens 0 gens 0 b.count;
    b.members <- members;
    b.gens <- gens
  end;
  b.members.(b.count) <- t;
  b.gens.(b.count) <- t.generation;
  b.count <- b.count + 1

let id t = t.node_id
let radio t = t.radio
let on_deliver t f = t.deliver <- Some f
let on_drop t f = t.dropped <- Some f
let queue_length t = Queue.length t.queue + match t.current with Some _ -> 1 | None -> 0

(* --- transmission pipeline -------------------------------------------- *)

let rec start_contention t =
  match t.current with
  | None -> begin
      match Queue.take_opt t.queue with
      | None -> ()
      | Some p ->
          t.current <- Some p;
          t.remaining_slots <- Util.Rng.int t.rng (p.cw + 1);
          Obs.Metrics.incr_by backoff_slots t.remaining_slots;
          wait_for_idle t
    end
  | Some _ -> wait_for_idle t

and wait_for_idle t =
  let gen = t.generation in
  if Radio.busy t.radio then
    Radio.subscribe_idle t.radio (fun () -> if t.generation = gen then wait_for_idle t)
  else begin
    (* sense for DIFS; abort if anything starts meanwhile *)
    Obs.Metrics.incr difs_waits;
    sense t Difs
  end

and countdown t = if t.remaining_slots <= 0 then transmit_current t else sense t Slot

(* Checks at the end of [period] whether the medium stayed idle from
   now on. The check joins the batch opened last when that batch senses
   the same period from the same start and its action is still the
   engine's most recently scheduled one: the check's own action would
   then have run right behind the batch's members, so running it as the
   next member keeps the (time, seq) order. Otherwise the check opens a
   batch. *)
and sense t period =
  let c = t.contention and start = Engine.now t.engine in
  let b = c.joinable in
  if b.start = start && b.period = period && Engine.last_is t.engine b.fire then join b t
  else begin
    let b =
      match c.spare with
      | b :: rest ->
          c.spare <- rest;
          b
      | [] -> new_batch c
    in
    b.start <- start;
    b.period <- period;
    b.count <- 0;
    join b t;
    c.joinable <- b;
    let delay = match period with Difs -> Const.difs | Slot -> Const.slot in
    ignore (Engine.schedule t.engine ~delay b.fire)
  end

and new_batch c =
  let rec b = { no_batch with fire = (fun () -> fire c b) } in
  b

(* Each live member counts its slot down, or leaves backoff for
   [wait_for_idle], on the medium as it finds it. *)
and fire c b =
  for i = 0 to b.count - 1 do
    let t = b.members.(i) in
    if t.generation = b.gens.(i) then
      if Radio.idle_since t.radio b.start then begin
        (match b.period with Difs -> () | Slot -> t.remaining_slots <- t.remaining_slots - 1);
        countdown t
      end
      else wait_for_idle t
  done;
  c.spare <- b :: c.spare

and transmit_current t =
  match t.current with
  | None -> ()
  | Some p ->
      let sp = Obs.Prof.start () in
      let gen = t.generation in
      let payload_bytes = Radio.datagram_bytes p.frame.payload in
      let duration, cls =
        if is_broadcast p then (airtime_broadcast ~payload_bytes, bcast_class)
        else (airtime_unicast ~payload_bytes, ucast_class)
      in
      Obs.Metrics.incr cls.mac_tx;
      Radio.transmit t.radio ~kind:cls.radio_class ~sender:t.node_id ~duration p.frame;
      if is_broadcast p then
        (* fire and forget: done at end of airtime *)
        ignore
          (Engine.schedule t.engine ~delay:duration (fun () ->
               if t.generation = gen then begin
                 t.current <- None;
                 t.generation <- t.generation + 1;
                 start_contention t
               end))
      else begin
        let timeout = duration +. Const.sifs +. ack_airtime +. (2.0 *. Const.slot) in
        let handle =
          Engine.schedule t.engine ~delay:timeout (fun () ->
              if t.generation = gen then handle_ack_timeout t)
        in
        t.awaiting_ack <- Some handle
      end;
      Obs.Prof.stop Obs.Prof.mac_contention sp

and handle_ack_timeout t =
  match t.current with
  | None -> ()
  | Some p ->
      t.awaiting_ack <- None;
      p.retries <- p.retries + 1;
      if p.retries > Const.retry_limit then begin
        Obs.Metrics.incr drops;
        if Obs.Trace2.enabled () then
          Obs.Trace2.emit ~time:(Engine.now t.engine) ~node:t.node_id ~layer:"mac"
            ~label:"drop"
            ([ ("dst", Obs.Trace2.I p.frame.dst); ("retries", Obs.Trace2.I Const.retry_limit) ]
            @ Obs.Causal.mid_field p.frame.payload);
        t.current <- None;
        t.generation <- t.generation + 1;
        (match t.dropped with Some f -> f ~dst:p.frame.dst p.frame.payload | None -> ());
        start_contention t
      end
      else begin
        Obs.Metrics.incr retries;
        if Obs.Trace2.enabled () then
          Obs.Trace2.emit ~time:(Engine.now t.engine) ~node:t.node_id ~layer:"mac"
            ~label:"retry"
            [ ("attempt", Obs.Trace2.I (p.retries + 1)); ("cw", Obs.Trace2.I p.cw) ];
        p.cw <- min ((2 * (p.cw + 1)) - 1) Const.cw_max;
        t.generation <- t.generation + 1;
        t.remaining_slots <- Util.Rng.int t.rng (p.cw + 1);
        Obs.Metrics.incr_by backoff_slots t.remaining_slots;
        wait_for_idle t
      end

let handle_ack t seq =
  match t.current with
  | Some p when (not (is_broadcast p)) && p.frame.seq = seq ->
      (match t.awaiting_ack with
      | Some h ->
          Engine.cancel t.engine h;
          t.awaiting_ack <- None
      | None -> ());
      t.current <- None;
      t.generation <- t.generation + 1;
      start_contention t
  | Some _ | None -> ()

let send_ack t ~dst ~seq =
  let frame = { Radio.src = t.node_id; dst; seq; ack = true; port = 0; payload = Bytes.empty } in
  ignore
    (Engine.schedule t.engine ~delay:Const.sifs (fun () ->
         Obs.Metrics.incr ack_class.mac_tx;
         Radio.transmit t.radio ~kind:ack_class.radio_class ~sender:t.node_id
           ~duration:ack_airtime frame))

let deliver t (frame : Radio.frame) =
  match t.deliver with Some f -> f ~src:frame.src ~port:frame.port frame.payload | None -> ()

let receive t (frame : Radio.frame) =
  if frame.ack then (if frame.dst = t.node_id then handle_ack t frame.seq)
  else if frame.dst = broadcast_dst then deliver t frame
  else if frame.dst = t.node_id then begin
    send_ack t ~dst:frame.src ~seq:frame.seq;
    if not (Hashtbl.mem t.seen (frame.src, frame.seq)) then begin
      Hashtbl.add t.seen (frame.src, frame.seq) ();
      deliver t frame
    end
  end

(* Shared state: the radio has a single receive callback, so the first
   MAC created on a radio installs a dispatcher over the radio's MACs,
   indexed by node id, and the contention batches they share. Both are
   attached to the radio itself rather than kept in a global registry,
   so a finished run's radio and MACs become garbage together. *)
type Radio.attachment += Contention of contention

let install_contention radio =
  let macs = Array.make (Radio.size radio) None in
  let c = { macs; joinable = no_batch; spare = [] } in
  Radio.attach radio (Contention c);
  Radio.on_receive radio (fun receiver ~sender:_ frame ->
      match macs.(receiver) with Some mac -> receive mac frame | None -> ());
  c

let create engine radio ~id ~rng =
  let contention =
    match Radio.attachment radio with
    | Some (Contention c) -> c
    | Some _ | None -> install_contention radio
  in
  let macs = contention.macs in
  if id < 0 || id >= Array.length macs then
    invalid_arg
      (Printf.sprintf "Mac.create: id %d outside the radio's 0..%d" id (Array.length macs - 1));
  if Option.is_some macs.(id) then
    invalid_arg (Printf.sprintf "Mac.create: a MAC for node %d already exists" id);
  let t =
    {
      engine;
      radio;
      node_id = id;
      rng;
      contention;
      queue = Queue.create ();
      current = None;
      remaining_slots = 0;
      awaiting_ack = None;
      generation = 0;
      next_seq = 0;
      deliver = None;
      dropped = None;
      seen = Hashtbl.create 64;
    }
  in
  macs.(id) <- Some t;
  t

let enqueue t p =
  Queue.add p t.queue;
  if t.current = None then begin
    t.generation <- t.generation + 1;
    start_contention t
  end

let send t ~dst ~tag ~port payload =
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  enqueue t
    {
      frame = { src = t.node_id; dst; seq; ack = false; port; payload };
      tag;
      retries = 0;
      cw = Const.cw_min;
    }

let send_broadcast t ~port payload = send t ~dst:broadcast_dst ~tag:(-1) ~port payload
let send_unicast t ~dst ~port payload = send t ~dst ~tag:(-1) ~port payload

let send_broadcast_replacing t ~tag ~port payload =
  (* A queued (not yet in service) broadcast of the same class is
     superseded in place instead of queueing behind it: under contention
     the queue would otherwise grow a backlog of stale frames, each
     costing full airtime to deliver information the replacement already
     carries. The in-service frame is never touched — its backoff and
     airtime are already committed. The replaced frame never goes on the
     air, which the trace records under its own mid. *)
  let replaced = ref false in
  Queue.iter
    (fun p ->
      if (not !replaced) && is_broadcast p && p.tag = tag then begin
        if Obs.Trace2.enabled () then
          Obs.Trace2.emit ~time:(Engine.now t.engine) ~node:t.node_id ~layer:"mac"
            ~label:"replaced"
            (("tag", Obs.Trace2.I tag) :: Obs.Causal.mid_field p.frame.payload);
        p.frame <- { p.frame with port; payload };
        replaced := true
      end)
    t.queue;
  if !replaced then Obs.Metrics.incr replacements
  else send t ~dst:broadcast_dst ~tag ~port payload
