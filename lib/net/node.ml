type t = {
  node_id : int;
  engine : Engine.t;
  node_rng : Util.Rng.t;
  node_cpu : Cpu.t;
  node_mac : Mac.t;
  node_dg : Datagram.t;
}

let create engine radio ~id ~rng =
  let node_cpu = Cpu.create engine in
  let node_mac = Mac.create engine radio ~id ~rng:(Util.Rng.split rng) in
  let node_dg = Datagram.create engine node_mac in
  { node_id = id; engine; node_rng = rng; node_cpu; node_mac; node_dg }

let id t = t.node_id
let engine t = t.engine
let rng t = t.node_rng
let cpu t = t.node_cpu
let datagram t = t.node_dg
let mac t = t.node_mac
let charge t cost = Cpu.charge t.node_cpu cost
let broadcast t ~port payload = Datagram.send t.node_dg ~dst:`Broadcast ~port payload
let broadcast_latest t ?tag ~port payload = Datagram.send_latest t.node_dg ?tag ~port payload
let unicast t ~dst ~port payload = Datagram.send t.node_dg ~dst:(`Node dst) ~port payload

let listen t ~port handler =
  Datagram.listen t.node_dg ~port (fun ~src payload ->
      Cpu.enqueue t.node_cpu (fun () ->
          Cpu.charge t.node_cpu Cost.per_message_overhead;
          handler ~src payload))

let unlisten t ~port = Datagram.unlisten t.node_dg ~port

let set_timer t ~delay callback =
  Engine.schedule t.engine ~delay (fun () -> Cpu.enqueue t.node_cpu callback)

let cancel_timer t handle = Engine.cancel t.engine handle
