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

type frame = { src : int; dst : int; seq : int; ack : bool; port : int; payload : bytes }

(* the lengths of the byte layouts the stack models (radio.mli); no
   layer writes them out *)
let datagram_bytes payload = 32 + Bytes.length payload
let frame_bytes f = if f.ack then 13 else 13 + datagram_bytes f.payload

type attachment = ..
type delay_window = { delay : float }

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
  rx_jams : int array;                    (* open jamming windows per receiver *)
  link_loss : (int * int, float) Hashtbl.t;  (* (tx, rx) omission overlay *)
  rx_delays : delay_window list array;    (* open delay windows per receiver, latest first *)
  mutable filter : (now:float -> tx:int -> rx:int -> bool) option;
  mutable jam_windows : (float * float) list;
  mutable ongoing : transmission list;
  mutable busy_end : float;  (* end of latest transmission ever started *)
  mutable idle_waiters : (unit -> unit) list;
  mutable receive : (int -> sender:int -> frame -> unit) option;
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
    rx_jams = Array.make n 0;
    link_loss = Hashtbl.create 16;
    rx_delays = Array.make n [];
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

(* Each window closes by its own action at [until], scheduled as it
   opens. *)
let jam_rx t ~rx ~until =
  t.rx_jams.(rx) <- t.rx_jams.(rx) + 1;
  ignore (Engine.at t.engine ~time:until (fun () -> t.rx_jams.(rx) <- t.rx_jams.(rx) - 1))

let delay_rx t ~rx ~delay ~until =
  if delay < 0.0 then invalid_arg "Radio.delay_rx";
  let w = { delay } in
  t.rx_delays.(rx) <- w :: t.rx_delays.(rx);
  ignore
    (Engine.at t.engine ~time:until (fun () ->
         t.rx_delays.(rx) <- List.filter (fun o -> o != w) t.rx_delays.(rx)))

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

(* One action wakes every waiter, in subscription order: the order one
   action per waiter, scheduled back to back, would run them in. *)
let notify_idle_if_clear t =
  if not (busy t) && t.idle_waiters <> [] then begin
    let waiters = List.rev t.idle_waiters in
    t.idle_waiters <- [];
    ignore (Engine.schedule t.engine ~delay:0.0 (fun () -> List.iter (fun f -> f ()) waiters))
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
    let bytes = frame_bytes frame in
    t.stats.frames_sent <- t.stats.frames_sent + 1;
    t.stats.bytes_sent <- t.stats.bytes_sent + bytes;
    t.stats.airtime <- t.stats.airtime +. duration;
    Obs.Metrics.incr kind.tx;
    Obs.Metrics.incr_by kind.bytes bytes;
    Obs.Metrics.add kind.airtime_s duration;
    Obs.Metrics.observe frame_us (duration *. 1e6);
    let mid =
      if not (Obs.Trace2.enabled ()) then []
      else begin
        let mid = Obs.Causal.mid_field frame.payload in
        Obs.Trace2.emit ~time:now ~node:sender ~layer:"radio" ~label:"tx"
          ([
             ("class", Obs.Trace2.S kind.class_name);
             ("bytes", Obs.Trace2.I bytes);
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
                     (* independent overlays: global, per-receiver (1 while
                        the receiver is jammed), per-link; then the
                        adversarial filter. An absent link draws nothing,
                        so the table is only probed when set. *)
                     let rx_loss =
                       if t.rx_jams.(receiver) > 0 then 1.0 else t.rx_loss.(receiver)
                     in
                     let omit =
                       Util.Rng.bernoulli t.rng t.loss_prob
                       || (rx_loss > 0.0 && Util.Rng.bernoulli t.rng rx_loss)
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
                       match t.rx_delays.(receiver) with
                       | { delay } :: _ when delay > 0.0 ->
                           ignore
                             (Engine.schedule t.engine ~delay (fun () ->
                                  if not t.down.(receiver) then
                                    deliver receiver ~sender frame))
                       | _ -> deliver receiver ~sender frame
                     end
                   end
                 done;
                 (* one registry update per transmission, not per receiver *)
                 if !omitted > 0 then Obs.Metrics.incr_by omissions !omitted;
                 if !delivered > 0 then Obs.Metrics.incr_by delivered_frames !delivered
           end;
           notify_idle_if_clear t))
  end
