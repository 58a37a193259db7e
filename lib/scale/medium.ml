(* Scalable abstract message medium.

   The DCF radio pays O(n) simulation work per receiver per frame —
   faithful at n = 16, hopeless at n = 1024. This medium models a
   generic lossy datagram network instead: per-message iid loss, a
   base propagation latency plus uniform jitter, and airtime accounted
   with the 802.11b unicast formula so byte costs stay comparable with
   the radio runs.

   Deliveries are quantized onto a grid of [quantum] seconds, and all
   messages landing on one grid tick share a single engine event: the
   tick's cell queues one [{src; dst; payload}] record per message. A
   payload sent to many receivers is delivered by reference to each of
   them instead of per-receiver copies. *)

type msg = { src : int; dst : int; payload : bytes }

type stats = {
  mutable msgs_sent : int;
  mutable bytes_sent : int;
  mutable airtime : float;
  mutable delivered : int;
  mutable dropped : int;
}

type t = {
  engine : Net.Engine.t;
  rng : Util.Rng.t;
  n : int;
  loss : float;
  pending : (int, msg list ref) Hashtbl.t; (* grid tick -> messages, newest first *)
  mutable in_flight : int;
  mutable in_flight_peak : int;
  handlers : (src:int -> bytes -> unit) option array;
  stats : stats;
}

(* base propagation latency, uniform jitter on top of it, and the
   delivery grid, all in seconds *)
let latency = 2.0e-3
let jitter = 1.0e-3
let quantum = 5.0e-4

let create engine rng ~n ?(loss = 0.0) () =
  if n < 2 then invalid_arg "Medium.create: need n >= 2";
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Medium.create: loss must be in [0,1)";
  {
    engine;
    rng;
    n;
    loss;
    pending = Hashtbl.create 64;
    in_flight = 0;
    in_flight_peak = 0;
    handlers = Array.make n None;
    stats = { msgs_sent = 0; bytes_sent = 0; airtime = 0.0; delivered = 0; dropped = 0 };
  }

let engine t = t.engine
let stats t = t.stats
let set_handler t ~node f = t.handlers.(node) <- Some f
let in_flight t = t.in_flight
let in_flight_peak t = t.in_flight_peak

let flush t tick =
  match Hashtbl.find_opt t.pending tick with
  | None -> ()
  | Some cell ->
      Hashtbl.remove t.pending tick;
      (* newest-first list: reverse to deliver in send order *)
      List.iter
        (fun { src; dst; payload } ->
          t.in_flight <- t.in_flight - 1;
          t.stats.delivered <- t.stats.delivered + 1;
          match t.handlers.(dst) with Some f -> f ~src payload | None -> ())
        (List.rev !cell)

let send t ~src ~dst payload =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Medium.send: bad endpoint";
  let len = Bytes.length payload in
  t.stats.msgs_sent <- t.stats.msgs_sent + 1;
  t.stats.bytes_sent <- t.stats.bytes_sent + len;
  t.stats.airtime <- t.stats.airtime +. Net.Mac.airtime_unicast ~payload_bytes:len;
  if Util.Rng.bernoulli t.rng t.loss then t.stats.dropped <- t.stats.dropped + 1
  else begin
    let delay = latency +. Util.Rng.float t.rng jitter in
    let tick = int_of_float ((Net.Engine.now t.engine +. delay) /. quantum) + 1 in
    let m = { src; dst; payload } in
    t.in_flight <- t.in_flight + 1;
    if t.in_flight > t.in_flight_peak then t.in_flight_peak <- t.in_flight;
    match Hashtbl.find_opt t.pending tick with
    | Some cell -> cell := m :: !cell
    | None ->
        Hashtbl.add t.pending tick (ref [ m ]);
        ignore
          (Net.Engine.at t.engine ~time:(float_of_int tick *. quantum) (fun () ->
               flush t tick))
  end
