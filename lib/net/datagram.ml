let header_bytes = 28

type t = {
  engine : Engine.t;
  mac_layer : Mac.t;
  handlers : (int, src:int -> bytes -> unit) Hashtbl.t;
}

let dispatch t ~src ~port payload =
  match Hashtbl.find_opt t.handlers port with
  | Some handler -> handler ~src payload
  | None -> ()

let create engine mac_layer =
  let t = { engine; mac_layer; handlers = Hashtbl.create 8 } in
  Mac.on_deliver mac_layer (fun ~src ~port payload -> dispatch t ~src ~port payload);
  t

(* loopback copy, delayed by the frame's airtime *)
let loop_back t ~port payload =
  let delay = Mac.airtime_broadcast ~payload_bytes:(Radio.datagram_bytes payload) in
  let self = Mac.id t.mac_layer in
  ignore (Engine.schedule t.engine ~delay (fun () -> dispatch t ~src:self ~port payload))

let send t ~dst ~port payload =
  match dst with
  | `Node node -> Mac.send_unicast t.mac_layer ~dst:node ~port payload
  | `Broadcast ->
      Mac.send_broadcast t.mac_layer ~port payload;
      loop_back t ~port payload

let send_latest t ?tag ~port payload =
  (* default tag is the port: one waiting frame per port, refreshed in
     place while it queues for the medium. Callers with several
     mutually non-superseding frame flavors on one port pass their own
     tags. *)
  let tag = match tag with Some x -> x | None -> port in
  Mac.send_broadcast_replacing t.mac_layer ~tag ~port payload;
  loop_back t ~port payload

let listen t ~port handler = Hashtbl.replace t.handlers port handler
let unlisten t ~port = Hashtbl.remove t.handlers port
let mac t = t.mac_layer
