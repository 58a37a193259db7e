type transmission = {
  tx_sender : int;
  tx_start : float;
  tx_finish : float;
  mutable corrupted : bool;
}

type stats = {
  mutable frames_sent : int;
  mutable collisions : int;
  mutable jammed : int;
  mutable bytes_sent : int;
  mutable airtime : float;
}

type attachment = ..

type frame_class = {
  class_name : string;
  tx : Obs.Metrics.counter;
  bytes : Obs.Metrics.counter;
  airtime_s : Obs.Metrics.gauge;
}

let frame_class name =
  let labels = [ ("class", name) ] in
  {
    class_name = name;
    tx = Obs.Metrics.counter ~labels "radio.tx";
    bytes = Obs.Metrics.counter ~labels "radio.bytes";
    airtime_s = Obs.Metrics.gauge ~labels "radio.airtime_s";
  }

let data_class = frame_class "data"
let collisions = Obs.Metrics.counter "radio.collisions"
let frame_us = Obs.Metrics.histogram ~lo:0.0 ~hi:4000.0 ~bins:20 "radio.frame_us"
let jammed_frames = Obs.Metrics.counter "radio.jammed"
let omissions = Obs.Metrics.counter "radio.omissions"
let delivered_frames = Obs.Metrics.counter "radio.delivered"

type t = {
  engine : Engine.t;
  rng : Util.Rng.t;
  n : int;
  down : bool array;
  mutable loss_prob : float;
  rx_loss : float array;                  (* per-receiver omission overlay *)
  link_loss : (int * int, float) Hashtbl.t;  (* (tx, rx) omission overlay *)
  rx_delay : float array;                 (* extra delivery latency per receiver *)
  mutable filter : (now:float -> tx:int -> rx:int -> bool) option;
  mutable jam_windows : (float * float) list;
  mutable ongoing : transmission list;
  mutable busy_end : float;  (* end of latest transmission ever started *)
  mutable idle_waiters : (unit -> unit) list;
  mutable receive : (int -> sender:int -> bytes -> unit) option;
  mutable attachment : attachment option;
  stats : stats;
  omission_by_rx : Obs.Metrics.counter array;
}

let create engine rng ~n =
  {
    engine;
    rng;
    n;
    down = Array.make n false;
    loss_prob = 0.0;
    rx_loss = Array.make n 0.0;
    link_loss = Hashtbl.create 16;
    rx_delay = Array.make n 0.0;
    filter = None;
    jam_windows = [];
    ongoing = [];
    busy_end = 0.0;
    idle_waiters = [];
    receive = None;
    attachment = None;
    stats =
      {
        frames_sent = 0;
        collisions = 0;
        jammed = 0;
        bytes_sent = 0;
        airtime = 0.0;
      };
    omission_by_rx =
      Array.init n (fun rx ->
          Obs.Metrics.counter ~labels:[ ("rx", "p" ^ string_of_int rx) ] "radio.omission_by_rx");
  }

let check_prob name p = if p < 0.0 || p > 1.0 then invalid_arg name

let set_loss_prob t p =
  check_prob "Radio.set_loss_prob" p;
  t.loss_prob <- p

let set_rx_loss t ~rx p =
  check_prob "Radio.set_rx_loss" p;
  t.rx_loss.(rx) <- p

let set_link_loss t ~tx ~rx p =
  check_prob "Radio.set_link_loss" p;
  if p = 0.0 then Hashtbl.remove t.link_loss (tx, rx)
  else Hashtbl.replace t.link_loss (tx, rx) p

let set_rx_delay t ~rx d =
  if d < 0.0 then invalid_arg "Radio.set_rx_delay";
  t.rx_delay.(rx) <- d

let set_filter t f = t.filter <- f

let set_down t i v =
  if t.down.(i) <> v then begin
    t.down.(i) <- v;
    Obs.Trace2.emit ~time:(Engine.now t.engine) ~node:i ~layer:"radio"
      ~label:(if v then "down" else "up") []
  end

let is_down t i = t.down.(i)
let engine t = t.engine
let size t = t.n
let jam t ~from ~until = t.jam_windows <- (from, until) :: t.jam_windows
let on_receive t f = t.receive <- Some f
let attachment t = t.attachment
let attach t a = t.attachment <- Some a
let busy t = t.busy_end > Engine.now t.engine
let idle_since t s = t.busy_end <= s
let stats t = t.stats

let subscribe_idle t f =
  if not (busy t) then ignore (Engine.schedule t.engine ~delay:0.0 f)
  else t.idle_waiters <- f :: t.idle_waiters

let notify_idle_if_clear t =
  if not (busy t) && t.idle_waiters <> [] then begin
    let waiters = List.rev t.idle_waiters in
    t.idle_waiters <- [];
    List.iter (fun f -> ignore (Engine.schedule t.engine ~delay:0.0 f)) waiters
  end

let overlaps_jam t start finish =
  List.exists (fun (a, b) -> start < b && finish > a) t.jam_windows

let transmit t ?(kind = data_class) ~sender ~duration frame =
  if sender < 0 || sender >= t.n then invalid_arg "Radio.transmit: bad sender";
  if duration <= 0.0 then invalid_arg "Radio.transmit: bad duration";
  if t.down.(sender) then ()
  else begin
    let now = Engine.now t.engine in
    let finish = now +. duration in
    let tx = { tx_sender = sender; tx_start = now; tx_finish = finish; corrupted = false } in
    (* prune finished transmissions; overlapping ones corrupt both ways *)
    t.ongoing <- List.filter (fun o -> o.tx_finish > now) t.ongoing;
    List.iter
      (fun o ->
        if not o.corrupted then begin
          t.stats.collisions <- t.stats.collisions + 1;
          Obs.Metrics.incr collisions
        end;
        o.corrupted <- true;
        if not tx.corrupted then begin
          tx.corrupted <- true;
          t.stats.collisions <- t.stats.collisions + 1;
          Obs.Metrics.incr collisions
        end)
      t.ongoing;
    t.ongoing <- tx :: t.ongoing;
    t.busy_end <- Float.max t.busy_end finish;
    t.stats.frames_sent <- t.stats.frames_sent + 1;
    t.stats.bytes_sent <- t.stats.bytes_sent + Bytes.length frame;
    t.stats.airtime <- t.stats.airtime +. duration;
    Obs.Metrics.incr kind.tx;
    Obs.Metrics.incr_by kind.bytes (Bytes.length frame);
    Obs.Metrics.add kind.airtime_s duration;
    Obs.Metrics.observe frame_us (duration *. 1e6);
    let mid =
      if not (Obs.Trace2.enabled ()) then []
      else begin
        let mid = Obs.Causal.mid_field frame in
        Obs.Trace2.emit ~time:now ~node:sender ~layer:"radio" ~label:"tx"
          ([
             ("class", Obs.Trace2.S kind.class_name);
             ("bytes", Obs.Trace2.I (Bytes.length frame));
             ("us", Obs.Trace2.F (duration *. 1e6));
             ("collision", Obs.Trace2.B tx.corrupted);
           ]
          @ mid);
        mid
      end
    in
    ignore
      (Engine.at t.engine ~time:finish (fun () ->
           t.ongoing <- List.filter (fun o -> o.tx_finish > Engine.now t.engine) t.ongoing;
           let jammed = overlaps_jam t tx.tx_start tx.tx_finish in
           if jammed then begin
             t.stats.jammed <- t.stats.jammed + 1;
             Obs.Metrics.incr jammed_frames;
             Obs.Trace2.emit ~time:(Engine.now t.engine) ~node:sender ~layer:"radio"
               ~label:"jammed" mid
           end;
           if (not tx.corrupted) && not jammed then begin
             match t.receive with
             | None -> ()
             | Some deliver ->
                 let now = Engine.now t.engine in
                 let delivered = ref 0 and omitted = ref 0 in
                 for receiver = 0 to t.n - 1 do
                   if receiver <> sender && not t.down.(receiver) then begin
                     (* independent overlays: global, per-receiver, per-link;
                        then the adversarial filter. An absent link draws
                        nothing, so the table is only probed when set. *)
                     let omit =
                       Util.Rng.bernoulli t.rng t.loss_prob
                       || (t.rx_loss.(receiver) > 0.0
                          && Util.Rng.bernoulli t.rng t.rx_loss.(receiver))
                       || (Hashtbl.length t.link_loss > 0
                          &&
                          match Hashtbl.find_opt t.link_loss (sender, receiver) with
                          | Some p -> Util.Rng.bernoulli t.rng p
                          | None -> false)
                       ||
                       match t.filter with
                       | Some f -> f ~now ~tx:sender ~rx:receiver
                       | None -> false
                     in
                     if omit then begin
                       incr omitted;
                       Obs.Metrics.incr t.omission_by_rx.(receiver);
                       if Obs.Trace2.enabled () then
                         Obs.Trace2.emit ~time:now ~node:sender
                           ~layer:"radio" ~label:"omission"
                           (("rx", Obs.Trace2.I receiver) :: mid)
                     end
                     else begin
                       incr delivered;
                       (* deliver edges only matter to the causal DAG, and
                          only data frames carry mids — skip the bare ones *)
                       if mid <> [] then
                         Obs.Trace2.emit ~time:now ~node:sender ~layer:"radio"
                           ~label:"deliver"
                           (("rx", Obs.Trace2.I receiver) :: mid);
                       let extra = t.rx_delay.(receiver) in
                       if extra > 0.0 then
                         ignore
                           (Engine.schedule t.engine ~delay:extra (fun () ->
                                if not t.down.(receiver) then
                                  deliver receiver ~sender frame))
                       else deliver receiver ~sender frame
                     end
                   end
                 done;
                 (* one registry update per transmission, not per receiver *)
                 if !omitted > 0 then Obs.Metrics.incr_by omissions !omitted;
                 if !delivered > 0 then Obs.Metrics.incr_by delivered_frames !delivered
           end;
           notify_idle_if_clear t))
  end
