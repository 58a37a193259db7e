(* Shared secret for the HMAC channels. Transport-level forgery is not
   part of the threat model being measured (Byzantine behaviour lives in
   the protocols); the key exists so that the authentication *work* is
   performed and charged like IPSec AH would. *)
let channel_key = Bytes.of_string "turquois-sim-ipsec-ah-shared-key"

let window = 8 (* outstanding segments per destination *)
let min_rto = 0.2
let max_rto = 10.0
let tag_len = 32

type segment_kind = Seg_data | Seg_ack

type unacked = { u_payload : bytes; u_sent_at : float; u_transmissions : int }

type sender_state = {
  s_dst : int;
  mutable next_seq : int;
  mutable base : int;
  mutable dupacks : int;
  pending : bytes Queue.t;          (* not yet admitted to the window *)
  unacked : (int, unacked) Hashtbl.t;
  mutable srtt : float option;
  mutable rttvar : float;
  mutable rto : float;
  mutable timer : Engine.handle option;
}

type receiver_state = {
  mutable expected : int;
  out_of_order : (int, bytes list) Hashtbl.t;
  (* delayed-ACK state: in-order segments not yet acknowledged, and the
     pending delayed-ACK timer *)
  mutable unacked_segments : int;
  mutable ack_timer : Engine.handle option;
}

type t = {
  engine : Engine.t;
  dg : Datagram.t;
  cpu : Cpu.t;
  auth : bool;
  port : int;
  senders : (int, sender_state) Hashtbl.t;
  receivers : (int, receiver_state) Hashtbl.t;
  mutable deliver : (src:int -> bytes -> unit) option;
  mutable retransmissions : int;
}

let encode_segment t ~kind ~seq payload =
  let w = Util.Codec.W.create ~capacity:(48 + Bytes.length payload) () in
  Util.Codec.W.u8 w (match kind with Seg_data -> 0 | Seg_ack -> 1);
  Util.Codec.W.u32 w seq;
  Util.Codec.W.bytes_lp w payload;
  let body = Util.Codec.W.contents w in
  if not t.auth then body
  else begin
    let tag = Crypto.Hmac.mac ~key:channel_key body in
    Bytes.cat body tag
  end

let unpack_messages payload =
  let r = Util.Codec.R.of_bytes payload in
  let rec go acc = if Util.Codec.R.at_end r then List.rev acc else go (Util.Codec.R.bytes_lp r :: acc) in
  go []

(* [Some (kind, seq, messages)], an ACK's messages empty; [None] for a
   segment whose tag, layout or message list does not check, which is
   neither acknowledged nor delivered. *)
let decode_segment t raw =
  let body, ok =
    if not t.auth then (raw, true)
    else begin
      let len = Bytes.length raw in
      if len < tag_len then (raw, false)
      else begin
        let body = Bytes.sub raw 0 (len - tag_len) in
        let tag = Bytes.sub raw (len - tag_len) tag_len in
        (body, Crypto.Hmac.verify ~key:channel_key body ~tag)
      end
    end
  in
  if not ok then None
  else
    match
      let r = Util.Codec.R.of_bytes body in
      let kind =
        match Util.Codec.R.u8 r with
        | 0 -> Seg_data
        | 1 -> Seg_ack
        | _ -> raise (Util.Codec.Malformed "segment kind")
      in
      let seq = Util.Codec.R.u32 r in
      let payload = Util.Codec.R.bytes_lp r in
      Util.Codec.R.expect_end r;
      (kind, seq, match kind with Seg_data -> unpack_messages payload | Seg_ack -> [])
    with
    | result -> Some result
    | exception (Util.Codec.Malformed _ | Util.Codec.Truncated) -> None

let sender_state t dst =
  match Hashtbl.find_opt t.senders dst with
  | Some s -> s
  | None ->
      let s =
        {
          s_dst = dst;
          next_seq = 0;
          base = 0;
          dupacks = 0;
          pending = Queue.create ();
          unacked = Hashtbl.create 16;
          srtt = None;
          rttvar = 0.0;
          rto = min_rto;
          timer = None;
        }
      in
      Hashtbl.add t.senders dst s;
      s

let receiver_state t src =
  match Hashtbl.find_opt t.receivers src with
  | Some r -> r
  | None ->
      let r =
        { expected = 0; out_of_order = Hashtbl.create 16; unacked_segments = 0; ack_timer = None }
      in
      Hashtbl.add t.receivers src r;
      r

let charge_segment_cost t bytes_len =
  Cpu.charge t.cpu Cost.per_message_overhead;
  if t.auth then Cpu.charge t.cpu (Cost.hmac ~bytes_len)

let tx_segments = Obs.Metrics.counter "rlink.tx_segments"
let retransmits = Obs.Metrics.counter "rlink.retransmits"
let rtos = Obs.Metrics.counter "rlink.rto"
let rx_segments = Obs.Metrics.counter "rlink.rx_segments"
let malformed = Obs.Metrics.counter "rlink.malformed"

let transmit_segment t s ~seq payload ~fresh =
  let raw = encode_segment t ~kind:Seg_data ~seq payload in
  if Obs.Trace2.enabled () then Obs.Causal.alias ~from:payload raw;
  charge_segment_cost t (Bytes.length raw);
  Obs.Metrics.incr tx_segments;
  if not fresh then begin
    t.retransmissions <- t.retransmissions + 1;
    Obs.Metrics.incr retransmits;
    if Obs.Trace2.enabled () then
      Obs.Trace2.emit ~time:(Engine.now t.engine) ~node:(Mac.id (Datagram.mac t.dg))
        ~layer:"rlink" ~label:"retransmit"
        ([ ("dst", Obs.Trace2.I s.s_dst); ("seq", Obs.Trace2.I seq) ]
        @ Obs.Causal.mid_field payload)
  end;
  Datagram.send t.dg ~dst:(`Node s.s_dst) ~port:t.port raw

let rec arm_timer t s =
  (match s.timer with
  | Some h ->
      Engine.cancel t.engine h;
      s.timer <- None
  | None -> ());
  if Hashtbl.length s.unacked > 0 then begin
    let handle = Engine.schedule t.engine ~delay:s.rto (fun () -> on_rto t s) in
    s.timer <- Some handle
  end

and on_rto t s =
  s.timer <- None;
  match Hashtbl.find_opt s.unacked s.base with
  | None -> arm_timer t s
  | Some u ->
      Obs.Metrics.incr rtos;
      Hashtbl.replace s.unacked s.base
        { u with u_transmissions = u.u_transmissions + 1; u_sent_at = Engine.now t.engine };
      transmit_segment t s ~seq:s.base u.u_payload ~fresh:false;
      s.rto <- Float.min (2.0 *. s.rto) max_rto;
      arm_timer t s

(* Nagle-style coalescing: drain as many queued messages as fit below
   the segment-size cap into one segment, so bursts of small protocol
   messages to the same peer share frames the way real TCP streams do. *)
let segment_cap = 1200

let pack_messages s =
  let w = Util.Codec.W.create ~capacity:256 () in
  let count = ref 0 in
  let first = ref None in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt s.pending with
    | Some payload
      when !count = 0 || Util.Codec.W.length w + Bytes.length payload + 4 <= segment_cap ->
        ignore (Queue.pop s.pending);
        if !first = None then first := Some payload;
        Util.Codec.W.bytes_lp w payload;
        incr count
    | Some _ | None -> continue := false
  done;
  if !count = 0 then None
  else begin
    let seg = Util.Codec.W.contents w in
    (* a segment can coalesce several protocol messages; carry the first
       one's causal id — enough to tie retransmits/drops to the stream *)
    (match !first with
    | Some p when Obs.Trace2.enabled () -> Obs.Causal.alias ~from:p seg
    | _ -> ());
    Some seg
  end

let fill_window t s =
  let continue = ref true in
  while !continue do
    if s.next_seq < s.base + window && not (Queue.is_empty s.pending) then begin
      match pack_messages s with
      | None -> continue := false
      | Some payload ->
          let seq = s.next_seq in
          s.next_seq <- seq + 1;
          Hashtbl.replace s.unacked seq
            { u_payload = payload; u_sent_at = Engine.now t.engine; u_transmissions = 1 };
          transmit_segment t s ~seq payload ~fresh:true
    end
    else continue := false
  done;
  arm_timer t s

let update_rtt s sample =
  match s.srtt with
  | None ->
      s.srtt <- Some sample;
      s.rttvar <- sample /. 2.0;
      s.rto <- Float.max min_rto (sample +. (4.0 *. s.rttvar))
  | Some srtt ->
      let err = sample -. srtt in
      s.rttvar <- (0.75 *. s.rttvar) +. (0.25 *. Float.abs err);
      s.srtt <- Some (srtt +. (0.125 *. err));
      s.rto <-
        Float.max min_rto
          (Float.min max_rto ((srtt +. (0.125 *. err)) +. (4.0 *. s.rttvar)))

let handle_ack t s ackno =
  if ackno > s.base then begin
    (* Karn: only sample RTT from segments transmitted exactly once *)
    let now = Engine.now t.engine in
    for seq = s.base to ackno - 1 do
      (match Hashtbl.find_opt s.unacked seq with
      | Some u when u.u_transmissions = 1 -> update_rtt s (now -. u.u_sent_at)
      | Some _ | None -> ());
      Hashtbl.remove s.unacked seq
    done;
    s.base <- ackno;
    s.dupacks <- 0;
    fill_window t s
  end
  else if ackno = s.base && Hashtbl.length s.unacked > 0 then begin
    s.dupacks <- s.dupacks + 1;
    if s.dupacks = 3 then begin
      s.dupacks <- 0;
      match Hashtbl.find_opt s.unacked s.base with
      | Some u ->
          Hashtbl.replace s.unacked s.base
            { u with u_transmissions = u.u_transmissions + 1; u_sent_at = Engine.now t.engine };
          transmit_segment t s ~seq:s.base u.u_payload ~fresh:false;
          arm_timer t s
      | None -> ()
    end
  end

let delayed_ack_interval = 2.0e-3

let send_ack_now t r ~dst =
  r.unacked_segments <- 0;
  (match r.ack_timer with
  | Some h ->
      Engine.cancel t.engine h;
      r.ack_timer <- None
  | None -> ());
  let raw = encode_segment t ~kind:Seg_ack ~seq:r.expected Bytes.empty in
  charge_segment_cost t (Bytes.length raw);
  Datagram.send t.dg ~dst:(`Node dst) ~port:t.port raw

(* TCP-style delayed ACK: acknowledge every second in-order segment
   immediately, otherwise after a short delay; out-of-order arrivals are
   acknowledged at once so the sender's fast retransmit still works. *)
let schedule_ack t r ~dst ~in_order =
  if not in_order then send_ack_now t r ~dst
  else begin
    r.unacked_segments <- r.unacked_segments + 1;
    if r.unacked_segments >= 2 then send_ack_now t r ~dst
    else if r.ack_timer = None then
      r.ack_timer <-
        Some
          (Engine.schedule t.engine ~delay:delayed_ack_interval (fun () ->
               r.ack_timer <- None;
               send_ack_now t r ~dst))
  end

let handle_data t ~src seq messages =
  Obs.Metrics.incr rx_segments;
  let r = receiver_state t src in
  let deliver_segment messages =
    match t.deliver with
    | Some f -> List.iter (fun m -> Cpu.enqueue t.cpu (fun () -> f ~src m)) messages
    | None -> ()
  in
  if seq = r.expected then begin
    r.expected <- r.expected + 1;
    deliver_segment messages;
    (* drain any buffered successors *)
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt r.out_of_order r.expected with
      | Some p ->
          Hashtbl.remove r.out_of_order r.expected;
          r.expected <- r.expected + 1;
          deliver_segment p
      | None -> continue := false
    done;
    schedule_ack t r ~dst:src ~in_order:true
  end
  else begin
    if seq > r.expected then Hashtbl.replace r.out_of_order seq messages;
    schedule_ack t r ~dst:src ~in_order:false
  end

let create engine dg cpu ?(auth = false) ~port () =
  let t =
    {
      engine;
      dg;
      cpu;
      auth;
      port;
      senders = Hashtbl.create 8;
      receivers = Hashtbl.create 8;
      deliver = None;
      retransmissions = 0;
    }
  in
  Datagram.listen dg ~port (fun ~src raw ->
      charge_segment_cost t (Bytes.length raw);
      match decode_segment t raw with
      | None -> Obs.Metrics.incr malformed
      | Some (Seg_ack, ackno, _) -> handle_ack t (sender_state t src) ackno
      | Some (Seg_data, seq, messages) -> handle_data t ~src seq messages);
  t

let send t ~dst payload =
  let s = sender_state t dst in
  Queue.add payload s.pending;
  fill_window t s

let on_receive t f = t.deliver <- Some f
let stats_retransmissions t = t.retransmissions
