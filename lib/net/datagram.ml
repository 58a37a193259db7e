let header_bytes = 28

type t = {
  engine : Engine.t;
  mac_layer : Mac.t;
  handlers : (int, src:int -> bytes -> unit) Hashtbl.t;
}

let encode ~port payload =
  let w = Util.Codec.W.create ~capacity:(8 + Bytes.length payload + header_bytes) () in
  Util.Codec.W.u16 w port;
  (* pad to the real IP+UDP header size so frame airtime is faithful *)
  Util.Codec.W.bytes w (Bytes.make (header_bytes - 2) '\000');
  Util.Codec.W.bytes_lp w payload;
  Util.Codec.W.contents w

let decode raw =
  let r = Util.Codec.R.of_bytes raw in
  let port = Util.Codec.R.u16 r in
  let (_ : bytes) = Util.Codec.R.bytes r (header_bytes - 2) in
  let payload = Util.Codec.R.bytes_lp r in
  Util.Codec.R.expect_end r;
  (port, payload)

(* One-entry decode cache keyed on the physical raw buffer. The MAC
   hands every receiver of one transmission the same buffer, so a
   broadcast's n-1 deliveries decode it once and share one payload,
   immutable like the raw bytes it came from. A malformed buffer raises
   on every delivery and never enters the cache. Domain-local, like the
   runs that fill it; the sentinel key is a fresh buffer no MAC ever
   delivers. *)
type shared = { mutable raw : bytes; mutable port : int; mutable payload : bytes }

let shared_key =
  Domain.DLS.new_key (fun () -> { raw = Bytes.create 0; port = 0; payload = Bytes.empty })

let decode_shared raw =
  let c = Domain.DLS.get shared_key in
  if raw != c.raw then begin
    let port, payload = decode raw in
    c.raw <- raw;
    c.port <- port;
    c.payload <- payload
  end;
  c

let dispatch t ~src ~port payload =
  match Hashtbl.find_opt t.handlers port with
  | Some handler -> handler ~src payload
  | None -> ()

let create engine mac_layer =
  let t = { engine; mac_layer; handlers = Hashtbl.create 8 } in
  Mac.on_deliver mac_layer (fun ~src raw ->
      match decode_shared raw with
      | exception (Util.Codec.Malformed _ | Util.Codec.Truncated) -> ()
      | c -> dispatch t ~src ~port:c.port c.payload);
  t

let send t ~dst ~port payload =
  let raw = encode ~port payload in
  if Obs.Trace2.enabled () then Obs.Causal.alias ~from:payload raw;
  match dst with
  | `Node node -> Mac.send_unicast t.mac_layer ~dst:node raw
  | `Broadcast ->
      Mac.send_broadcast t.mac_layer raw;
      (* loopback copy, delayed by the frame's airtime *)
      let delay = Mac.airtime_broadcast ~payload_bytes:(Bytes.length raw) in
      let self = Mac.id t.mac_layer in
      ignore
        (Engine.schedule t.engine ~delay (fun () -> dispatch t ~src:self ~port payload))

let send_latest t ?tag ~port payload =
  let raw = encode ~port payload in
  if Obs.Trace2.enabled () then Obs.Causal.alias ~from:payload raw;
  (* default tag is the port: one waiting frame per port, refreshed in
     place while it queues for the medium. Callers with several
     mutually non-superseding frame flavors on one port pass their own
     tags. *)
  let tag = match tag with Some x -> x | None -> port in
  Mac.send_broadcast_replacing t.mac_layer ~tag raw;
  let delay = Mac.airtime_broadcast ~payload_bytes:(Bytes.length raw) in
  let self = Mac.id t.mac_layer in
  ignore (Engine.schedule t.engine ~delay (fun () -> dispatch t ~src:self ~port payload))

let listen t ~port handler = Hashtbl.replace t.handlers port handler
let unlisten t ~port = Hashtbl.remove t.handlers port
let mac t = t.mac_layer
