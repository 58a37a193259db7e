(* Payload frames travel on [payload_port]; slot s's consensus instance
   runs on [base_port + s] through the shared Service. Up to [window]
   slots are open concurrently at each process (a pipeline); delivery
   stays in slot order via the [next_deliver] cursor. A slot's payload
   is a batch of submitted commands, and its SHA-256 digest is bound by
   an echo/ready exchange (Bracha-style) so that an equivocating
   proposer cannot make two honest processes deliver different bytes
   for the same committed slot:

     - the proposer broadcasts PAYLOAD(slot, digest, batch);
     - a process that holds the proposer's payload broadcasts
       ECHO(slot, digest), once;
     - more than (n+f)/2 distinct ECHO senders for one digest trigger
       READY(slot, digest) — with the batch attached when held;
     - f+1 READYs amplify (send READY without having echoed);
     - 2f+1 READYs certify the digest: quorum intersection means at
       most one digest per slot can ever be certified.

   A slot that decides 1 delivers only when the certified digest and a
   matching batch are both present; payload bytes from anyone other
   than the proposer are adopted only when backed by f+1 READYs for
   their digest, which closes the payload-injection hole. *)

type slot_outcome = Committed of bytes | Committed_awaiting_payload | Skipped

type mem_stats = {
  payload_entries : int;
  vote_entries : int;  (* echo + ready senders across retained slots *)
  outcome_entries : int;
  proposed_entries : int;
  timer_entries : int;  (* rebroadcast graces + commit retries + help marks *)
}

type t = {
  node : Net.Node.t;
  cfg : Proto.config;
  service : Service.t;
  capacity : int;
  window : int;
  max_batch : int;
  payload_wait : float;
  noop_wait : float;
  payload_grace : float;
  payload_port : int;
  pending : bytes Queue.t;                    (* my submitted commands *)
  proposed : (int, unit) Hashtbl.t;           (* slots we already voted on *)
  payloads : (int, bytes * bytes) Hashtbl.t;  (* slot -> (batch, digest) *)
  echoes : (int, (int, bytes) Hashtbl.t) Hashtbl.t;  (* slot -> sender -> digest *)
  readys : (int, (int, bytes) Hashtbl.t) Hashtbl.t;
  my_echo : (int, bytes) Hashtbl.t;           (* digest I echoed, per slot *)
  my_ready : (int, bytes) Hashtbl.t;
  certs : (int, bytes) Hashtbl.t;             (* slot -> certified digest *)
  noops : (int, unit) Hashtbl.t;              (* proposer announced nothing-to-send *)
  outcomes : (int, slot_outcome) Hashtbl.t;   (* decided slots *)
  claims : (int, (int, bool) Hashtbl.t) Hashtbl.t;
      (* slot -> sender -> claimed outcome, from peers that delivered it *)
  rebroadcast : (int, float) Hashtbl.t;       (* my proposer slots: grace deadline *)
  retry : (int, float) Hashtbl.t;       (* committed-but-undelivered: retry deadline *)
  help : (int, unit) Hashtbl.t;         (* delivered slots a straggler asked about *)
  tell : (int, unit) Hashtbl.t;   (* delivered slots whose outcome a straggler needs *)
  outcome_bits : Bytes.t;  (* delivered slots: bit set = committed (1 bit/slot) *)
  help_retention : int;    (* delivered slots kept around for stragglers *)
  mutable next_open : int;
  mutable open_undecided : int;
  mutable next_deliver : int;
  mutable pruned_below : int;          (* per-slot state below this slot is gone *)
  mutable delivery_count : int;
  mutable deliveries : (int * bytes option) list;  (* newest first *)
  mutable deliver_cb : (slot:int -> payload:bytes option -> unit) option;
  retain_deliveries : bool;
  mutable tick_armed : bool;
  mutable head_armed : int;  (* head slot whose pacing timer is set; -1 none *)
  mutable started : bool;
}

let n t = t.cfg.Proto.n
let me t = Net.Node.id t.node
let now t = Net.Engine.now (Net.Node.engine t.node)
let proposer_of t slot = slot mod n t
let next_deliver t = t.next_deliver
let delivered_count t = t.delivery_count
let payload_port t = t.payload_port
let on_deliver t f = t.deliver_cb <- Some f
let delivered t = List.rev t.deliveries

let mem_stats t =
  let inner tbl = Hashtbl.fold (fun _ s acc -> acc + Hashtbl.length s) tbl 0 in
  {
    payload_entries = Hashtbl.length t.payloads;
    vote_entries = inner t.echoes + inner t.readys;
    outcome_entries = Hashtbl.length t.outcomes;
    proposed_entries = Hashtbl.length t.proposed;
    timer_entries =
      Hashtbl.length t.rebroadcast + Hashtbl.length t.retry + Hashtbl.length t.help;
  }

let base_port = 15000

let create node cfg ~keyring ~capacity ?(window = 1) ?(max_batch = 64)
    ?(payload_wait = 0.050) ?(noop_wait = 0.020) ?(payload_grace = 2.0)
    ?help_retention ?(retain_deliveries = true) () =
  if capacity < 1 then invalid_arg "Ordered_log.create: capacity must be positive";
  if window < 1 then invalid_arg "Ordered_log.create: window must be positive";
  if max_batch < 1 then invalid_arg "Ordered_log.create: max_batch must be positive";
  let help_retention =
    match help_retention with
    | None -> window
    | Some r ->
        if r < 1 then invalid_arg "Ordered_log.create: help_retention must be positive";
        max r window
  in
  (* short linger: with many concurrent instances the default 50-tick
     tail traffic of each decided slot would congest the next ones *)
  let service =
    Service.create node cfg ~keyring ~instances:capacity ~base_port ~linger_ticks:10 ()
  in
  {
    node;
    cfg;
    service;
    capacity;
    window;
    max_batch;
    payload_wait;
    noop_wait;
    payload_grace;
    payload_port = base_port - 1;
    pending = Queue.create ();
    proposed = Hashtbl.create 32;
    payloads = Hashtbl.create 32;
    echoes = Hashtbl.create 32;
    readys = Hashtbl.create 32;
    my_echo = Hashtbl.create 32;
    my_ready = Hashtbl.create 32;
    certs = Hashtbl.create 32;
    noops = Hashtbl.create 32;
    outcomes = Hashtbl.create 32;
    claims = Hashtbl.create 8;
    rebroadcast = Hashtbl.create 8;
    retry = Hashtbl.create 8;
    help = Hashtbl.create 8;
    tell = Hashtbl.create 8;
    outcome_bits = Bytes.make ((capacity + 7) / 8) '\000';
    help_retention;
    next_open = 0;
    open_undecided = 0;
    next_deliver = 0;
    pruned_below = 0;
    delivery_count = 0;
    deliveries = [];
    deliver_cb = None;
    retain_deliveries;
    tick_armed = false;
    head_armed = -1;
    started = false;
  }

(* --- batch and frame codecs ------------------------------------------------ *)

let encode_batch commands =
  let w = Util.Codec.W.create () in
  Util.Codec.W.varint w (List.length commands);
  List.iter (Util.Codec.W.bytes_lp w) commands;
  Util.Codec.W.contents w

let decode_batch raw =
  let r = Util.Codec.R.of_bytes raw in
  let count = Util.Codec.R.varint r in
  if count < 0 || count > Bytes.length raw then
    raise (Util.Codec.Malformed "batch count out of range");
  let commands = Util.Init.list count (fun _ -> Util.Codec.R.bytes_lp r) in
  Util.Codec.R.expect_end r;
  commands

let batch_digest batch = Crypto.Sha256.digest batch

(* encode_batch [] is the single byte varint-0 *)
let batch_is_empty batch = Bytes.length batch = 1 && Bytes.get batch 0 = '\000'

type frame =
  | Payload of { slot : int; digest : bytes; batch : bytes }
  | Echo of { slot : int; digest : bytes }
  | Ready of { slot : int; digest : bytes; batch : bytes option }
  | Pull of { slot : int }
      (* "I am stuck at [slot] — somebody re-ship its certificate, or
         tell me how it was decided." Without it a process that commits
         purely off consensus-phase traffic has no vote of its own to
         retransmit and no way to solicit the batch, and a process whose
         instance never decided has no way to learn the outcome once its
         peers retire the instance — either way the head stalls forever. *)
  | Outcome of { slot : int; committed : bool }
      (* a delivered slot's decision, answered to a Pull; f+1 matching
         claims from distinct senders contain an honest one, so a
         straggler can adopt the outcome without re-running consensus *)

(* a proposer re-ships its batch every tick of the grace window: the
   digest it already holds is passed in, not recomputed *)
let encode_payload ~slot ~digest batch =
  let w = Util.Codec.W.create ~capacity:(48 + Bytes.length batch) () in
  Util.Codec.W.u8 w 0;
  Util.Codec.W.varint w slot;
  Util.Codec.W.bytes_lp w digest;
  Util.Codec.W.bytes_lp w batch;
  Util.Codec.W.contents w

let encode_payload_frame ~slot batch = encode_payload ~slot ~digest:(batch_digest batch) batch

let encode_echo_frame ~slot ~digest =
  let w = Util.Codec.W.create ~capacity:(40 + Bytes.length digest) () in
  Util.Codec.W.u8 w 1;
  Util.Codec.W.varint w slot;
  Util.Codec.W.bytes_lp w digest;
  Util.Codec.W.contents w

let encode_ready_frame ~slot ~digest batch =
  let attach_len = match batch with Some b -> Bytes.length b | None -> 0 in
  let w = Util.Codec.W.create ~capacity:(48 + Bytes.length digest + attach_len) () in
  Util.Codec.W.u8 w 2;
  Util.Codec.W.varint w slot;
  Util.Codec.W.bytes_lp w digest;
  (match batch with
  | Some b ->
      Util.Codec.W.u8 w 1;
      Util.Codec.W.bytes_lp w b
  | None -> Util.Codec.W.u8 w 0);
  Util.Codec.W.contents w

let encode_pull_frame ~slot =
  let w = Util.Codec.W.create ~capacity:16 () in
  Util.Codec.W.u8 w 3;
  Util.Codec.W.varint w slot;
  Util.Codec.W.bytes_lp w Bytes.empty;
  Util.Codec.W.contents w

let encode_outcome_frame ~slot ~committed =
  let w = Util.Codec.W.create ~capacity:16 () in
  Util.Codec.W.u8 w 4;
  Util.Codec.W.varint w slot;
  Util.Codec.W.bytes_lp w Bytes.empty;
  Util.Codec.W.u8 w (if committed then 1 else 0);
  Util.Codec.W.contents w

let decode_frame raw =
  let r = Util.Codec.R.of_bytes raw in
  let kind = Util.Codec.R.u8 r in
  let slot = Util.Codec.R.varint r in
  let digest = Util.Codec.R.bytes_lp r in
  let frame =
    match kind with
    | 0 ->
        let batch = Util.Codec.R.bytes_lp r in
        Payload { slot; digest; batch }
    | 1 -> Echo { slot; digest }
    | 2 ->
        let batch =
          match Util.Codec.R.u8 r with
          | 0 -> None
          | 1 -> Some (Util.Codec.R.bytes_lp r)
          | b -> raise (Util.Codec.Malformed (Printf.sprintf "ready attach flag %d" b))
        in
        Ready { slot; digest; batch }
    | 3 -> Pull { slot }
    | 4 -> (
        match Util.Codec.R.u8 r with
        | 0 -> Outcome { slot; committed = false }
        | 1 -> Outcome { slot; committed = true }
        | b -> raise (Util.Codec.Malformed (Printf.sprintf "outcome flag %d" b)))
    | k -> raise (Util.Codec.Malformed (Printf.sprintf "payload frame kind %d" k))
  in
  Util.Codec.R.expect_end r;
  frame

(* --- helpers ---------------------------------------------------------------- *)

let live t slot = slot >= t.pruned_below && slot >= 0 && slot < t.capacity

(* how many delivered-slot outcomes a single Pull answer covers. One
   pull per grace period recovering one slot would pace a straggler at
   [payload_grace] per slot — a process 50 slots behind would need
   minutes to rejoin. Answering a burst lets the claims cascade through
   the backlog as fast as the slots open. *)
let catchup_burst = 16

let bit_get bits slot = Char.code (Bytes.get bits (slot lsr 3)) land (1 lsl (slot land 7)) <> 0

let bit_set bits slot =
  Bytes.set bits (slot lsr 3)
    (Char.chr (Char.code (Bytes.get bits (slot lsr 3)) lor (1 lsl (slot land 7))))

let sub_tbl tbl slot =
  match Hashtbl.find_opt tbl slot with
  | Some inner -> inner
  | None ->
      let inner = Hashtbl.create 8 in
      Hashtbl.replace tbl slot inner;
      inner

let count_for inner digest =
  Hashtbl.fold (fun _ d acc -> if Bytes.equal d digest then acc + 1 else acc) inner 0

let trace t label slot =
  if Obs.Trace2.enabled () then
    Obs.Trace2.emit ~time:(now t) ~node:(me t) ~layer:"log" ~label
      [ ("slot", Obs.Trace2.I slot) ]

let slots_delivered = Obs.Metrics.counter "log.slot.delivered"
let slots_committed = Obs.Metrics.counter "log.slot.committed"
let slots_skipped = Obs.Metrics.counter "log.slot.skipped"
let payloads_certified = Obs.Metrics.counter "log.payload.certified"
let payloads_forged = Obs.Metrics.counter "log.payload.forged"
let batch_slots = Obs.Metrics.counter "log.batch.slots"
let batch_commands = Obs.Metrics.counter "log.batch.commands"
let outcomes_adopted = Obs.Metrics.counter "log.outcome.adopted"

(* --- the quiescent payload tick -------------------------------------------- *)

(* The tick only lives while there is timed work to do: a proposer
   rebroadcast grace, a committed-but-undelivered slot retrying its
   echo/ready, or a straggler to help. Once the tables drain the timer
   is not re-armed, so a finished log leaves zero live engine events. *)

let tick_work_pending t =
  Hashtbl.length t.rebroadcast > 0
  || Hashtbl.length t.retry > 0
  || Hashtbl.length t.help > 0
  || Hashtbl.length t.tell > 0

let sorted_keys tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let rec ensure_tick t =
  if (not t.tick_armed) && tick_work_pending t then begin
    t.tick_armed <- true;
    ignore
      (Net.Node.set_timer t.node ~delay:Proto.tick_interval (fun () ->
           payload_tick t))
  end

and payload_tick t =
  t.tick_armed <- false;
  let time = now t in
  (* proposer rebroadcast within the grace window *)
  List.iter
    (fun slot ->
      match Hashtbl.find_opt t.rebroadcast slot with
      | Some until when time <= until -> begin
          match Hashtbl.find_opt t.payloads slot with
          | Some (batch, digest) ->
              Net.Node.broadcast t.node ~port:t.payload_port
                (encode_payload ~slot ~digest batch)
          | None -> Hashtbl.remove t.rebroadcast slot
        end
      | Some _ ->
          Hashtbl.remove t.rebroadcast slot;
          (* the grace was the only reason to keep an already-pruned
             slot's payload around *)
          if slot < t.pruned_below then Hashtbl.remove t.payloads slot
      | None -> ())
    (sorted_keys t.rebroadcast);
  (* committed-but-undelivered slots retry their echo/ready until the
     certificate and payload both arrive or the deadline passes — except
     the slot at the delivery head, which blocks everything behind it
     and therefore never stops soliciting (each retry pokes peers that
     already delivered it into re-shipping the certified payload) *)
  List.iter
    (fun slot ->
      match Hashtbl.find_opt t.retry slot with
      | Some until when slot < t.next_deliver || (time > until && slot > t.next_deliver)
        ->
          ignore until;
          Hashtbl.remove t.retry slot
      | Some _ ->
          (match Hashtbl.find_opt t.my_echo slot with
          | Some digest ->
              Net.Node.broadcast t.node ~port:t.payload_port
                (encode_echo_frame ~slot ~digest)
          | None -> ());
          (match Hashtbl.find_opt t.my_ready slot with
          | Some digest ->
              let attach =
                match Hashtbl.find_opt t.payloads slot with
                | Some (batch, d) when Bytes.equal d digest -> Some batch
                | Some _ | None -> None
              in
              Net.Node.broadcast t.node ~port:t.payload_port
                (encode_ready_frame ~slot ~digest attach)
          | None -> ());
          (* committed purely off consensus traffic: no echo or ready of
             our own to retransmit, so ask outright *)
          if
            (not (Hashtbl.mem t.my_echo slot))
            && not (Hashtbl.mem t.my_ready slot)
          then
            Net.Node.broadcast t.node ~port:t.payload_port (encode_pull_frame ~slot)
      | None -> ())
    (sorted_keys t.retry);
  (* answer stragglers once per mark: re-ship the certified payload of a
     slot we already delivered *)
  List.iter
    (fun slot ->
      Hashtbl.remove t.help slot;
      match (Hashtbl.find_opt t.certs slot, Hashtbl.find_opt t.payloads slot) with
      | Some digest, Some (batch, d) when Bytes.equal d digest ->
          Net.Node.broadcast t.node ~port:t.payload_port
            (encode_ready_frame ~slot ~digest (Some batch))
      | _ -> ())
    (sorted_keys t.help);
  (* tell stragglers how already-delivered slots were decided, once per
     ask; the outcome bit survives pruning so this works at any depth *)
  List.iter
    (fun slot ->
      Hashtbl.remove t.tell slot;
      if slot >= 0 && slot < t.next_deliver then
        Net.Node.broadcast t.node ~port:t.payload_port
          (encode_outcome_frame ~slot ~committed:(bit_get t.outcome_bits slot)))
    (sorted_keys t.tell);
  ensure_tick t

(* --- delivery, pruning ------------------------------------------------------ *)

let prune t =
  (* keep [help_retention] delivered slots of certificate state behind
     the cursor for straggler help; everything older goes away (only the
     1-bit outcome survives, for {!frame.Outcome} answers). A payload
     still inside its proposer rebroadcast grace survives until the
     grace expires (the tick removes it). *)
  let floor = t.next_deliver - t.help_retention in
  if floor > t.pruned_below then begin
    for slot = t.pruned_below to floor - 1 do
      Hashtbl.remove t.proposed slot;
      Hashtbl.remove t.echoes slot;
      Hashtbl.remove t.readys slot;
      Hashtbl.remove t.my_echo slot;
      Hashtbl.remove t.my_ready slot;
      Hashtbl.remove t.certs slot;
      Hashtbl.remove t.noops slot;
      Hashtbl.remove t.outcomes slot;
      Hashtbl.remove t.claims slot;
      Hashtbl.remove t.retry slot;
      Hashtbl.remove t.help slot;
      Hashtbl.remove t.tell slot;
      if not (Hashtbl.mem t.rebroadcast slot) then Hashtbl.remove t.payloads slot;
      Service.retire t.service ~instance:slot
    done;
    t.pruned_below <- floor
  end

(* Delivery, certificates and the slot lifecycle are one mutual
   recursion: delivering a slot advances the head, and the head is
   where the pacing timers live (see [arm_head]). *)

let propose_slot t ~slot bit =
  if not (Hashtbl.mem t.proposed slot) then begin
    Hashtbl.replace t.proposed slot ();
    Service.propose t.service ~instance:slot bit
  end

let rec flush_deliveries t =
  (match Hashtbl.find_opt t.outcomes t.next_deliver with
  | None -> ()
  | Some Committed_awaiting_payload ->
      (* blocked until the payload certifies; a deep slot may have let
         its retry lapse before reaching the head — revive it, the head
         retries until delivered *)
      if not (Hashtbl.mem t.retry t.next_deliver) then begin
        Hashtbl.replace t.retry t.next_deliver (now t +. t.payload_grace);
        (* a commit adopted purely off peers' outcome claims leaves us
           with no votes of our own to retransmit: solicit the
           certificate right away instead of waiting out the grace *)
        if
          (not (Hashtbl.mem t.my_echo t.next_deliver))
          && not (Hashtbl.mem t.my_ready t.next_deliver)
        then
          Net.Node.broadcast t.node ~port:t.payload_port
            (encode_pull_frame ~slot:t.next_deliver);
        ensure_tick t
      end
  | Some outcome ->
      let slot = t.next_deliver in
      let payload =
        match outcome with
        | Committed p -> Some p
        | Committed_awaiting_payload | Skipped -> None
      in
      t.next_deliver <- slot + 1;
      t.delivery_count <- t.delivery_count + 1;
      if payload <> None then bit_set t.outcome_bits slot;
      Hashtbl.remove t.retry slot;
      if t.retain_deliveries then t.deliveries <- (slot, payload) :: t.deliveries;
      trace t "deliver" slot;
      Obs.Metrics.incr slots_delivered;
      (match t.deliver_cb with Some f -> f ~slot ~payload | None -> ());
      prune t;
      flush_deliveries t);
  arm_head t

(* a committed slot completes when the certified digest and a matching
   batch are both in hand *)
and maybe_complete_commit t ~slot =
  match Hashtbl.find_opt t.outcomes slot with
  | Some Committed_awaiting_payload -> begin
      match (Hashtbl.find_opt t.certs slot, Hashtbl.find_opt t.payloads slot) with
      | Some digest, Some (batch, d) when Bytes.equal d digest ->
          Hashtbl.replace t.outcomes slot (Committed batch);
          flush_deliveries t
      | _ -> ()
    end
  | Some (Committed _ | Skipped) | None -> ()

(* --- echo / ready certificates --------------------------------------------- *)

and record_echo t ~slot ~src ~digest =
  let inner = sub_tbl t.echoes slot in
  if not (Hashtbl.mem inner src) then begin
    Hashtbl.replace inner src digest;
    if
      (not (Hashtbl.mem t.my_ready slot))
      && Proto.quorum_exceeded t.cfg (count_for inner digest)
    then send_ready t ~slot ~digest
  end

and send_echo t ~slot ~digest =
  if not (Hashtbl.mem t.my_echo slot) then begin
    Hashtbl.replace t.my_echo slot digest;
    Net.Node.broadcast t.node ~port:t.payload_port (encode_echo_frame ~slot ~digest);
    record_echo t ~slot ~src:(me t) ~digest
  end

and send_ready t ~slot ~digest =
  if not (Hashtbl.mem t.my_ready slot) then begin
    Hashtbl.replace t.my_ready slot digest;
    let attach =
      match Hashtbl.find_opt t.payloads slot with
      | Some (batch, d) when Bytes.equal d digest -> Some batch
      | Some _ | None -> None
    in
    Net.Node.broadcast t.node ~port:t.payload_port
      (encode_ready_frame ~slot ~digest attach);
    record_ready t ~slot ~src:(me t) ~digest
  end

and record_ready t ~slot ~src ~digest =
  let inner = sub_tbl t.readys slot in
  if not (Hashtbl.mem inner src) then begin
    Hashtbl.replace inner src digest;
    let count = count_for inner digest in
    if Proto.past_faulty t.cfg count then send_ready t ~slot ~digest;
    if Proto.past_double_faulty t.cfg count && not (Hashtbl.mem t.certs slot) then begin
      Hashtbl.replace t.certs slot digest;
      Obs.Metrics.incr payloads_certified;
      maybe_complete_commit t ~slot
    end
  end

(* --- slot lifecycle --------------------------------------------------------- *)

and open_slots t =
  if t.next_open < t.capacity && t.open_undecided < t.window then begin
    let slot = t.next_open in
    t.next_open <- slot + 1;
    t.open_undecided <- t.open_undecided + 1;
    open_one t slot;
    open_slots t
  end

and fill_slot t slot =
  (* drain a batch into my open slot, bind its digest, broadcast, vote 1;
     with nothing to send, announce an explicit no-op instead so peers
     skip the slot at consensus speed rather than waiting out the crash
     deadline *)
  let commands = ref [] in
  while List.length !commands < t.max_batch && not (Queue.is_empty t.pending) do
    commands := Queue.pop t.pending :: !commands
  done;
  let commands = List.rev !commands in
  if commands = [] then begin
    Net.Node.broadcast t.node ~port:t.payload_port
      (encode_payload_frame ~slot (encode_batch []));
    trace t "noop" slot;
    propose_slot t ~slot 0
  end
  else begin
    let batch = encode_batch commands in
    let digest = batch_digest batch in
    Hashtbl.replace t.payloads slot (batch, digest);
    Hashtbl.replace t.rebroadcast slot (now t +. t.payload_grace);
    Net.Node.broadcast t.node ~port:t.payload_port (encode_payload ~slot ~digest batch);
    send_echo t ~slot ~digest;
    Obs.Metrics.incr batch_slots;
    Obs.Metrics.incr_by batch_commands (List.length commands);
    ensure_tick t;
    propose_slot t ~slot 1
  end

and open_one t slot =
  (* a pull burst may already hold f+1 claims for this slot: adopt
     before spending a proposal on a dead instance *)
  maybe_adopt_claim t ~slot;
  if not (Hashtbl.mem t.outcomes slot) then begin
    (if proposer_of t slot = me t then begin
       if not (Queue.is_empty t.pending) then fill_slot t slot
       (* else: hold the slot open, timer-free, until traffic arrives
          for it or it reaches the head of the log *)
     end
     else if Hashtbl.mem t.payloads slot then propose_slot t ~slot 1
     else if Hashtbl.mem t.noops slot then propose_slot t ~slot 0);
    (* arm unconditionally when opening at the head: a slot already
       proposed on open still needs the watch timer — its instance may
       be long dead at peers that decided, delivered and retired it *)
    if slot = t.next_deliver then arm_head t
  end

(* Pacing timers attach only to the slot at the delivery head. Deeper
   slots in the window wait for demand with no timers at all — arming
   every open slot at once would burn the log [window] slots at a time
   while idle, and the concurrent no-op instances would congest the
   shared medium for the slots carrying real traffic. At the head: an
   idle proposer announces an explicit no-op after [noop_wait]; a
   non-proposer starts the [payload_wait] crash deadline and votes for
   whatever it holds when the deadline passes. *)
and arm_head t =
  let slot = t.next_deliver in
  if
    t.started && slot < t.next_open && live t slot && t.head_armed <> slot
    && not (Hashtbl.mem t.outcomes slot)
  then begin
    t.head_armed <- slot;
    let still_open () =
      live t slot
      && (not (Hashtbl.mem t.proposed slot))
      && not (Hashtbl.mem t.outcomes slot)
    in
    if not (Hashtbl.mem t.proposed slot) then
      if proposer_of t slot = me t then
        ignore
          (Net.Node.set_timer t.node ~delay:t.noop_wait (fun () ->
               if still_open () then fill_slot t slot))
      else
        ignore
          (Net.Node.set_timer t.node ~delay:t.payload_wait (fun () ->
               if still_open () then
                 propose_slot t ~slot (if Hashtbl.mem t.payloads slot then 1 else 0)));
    watch_head t ~slot
  end

(* A head that stays undecided for a whole grace period has usually
   lost its peers: they collected a quorum without us, delivered,
   retired the instance and moved on — nobody is left to make our own
   instance decide. Ask for the outcome explicitly, and keep asking
   until the head moves. *)
and watch_head t ~slot =
  ignore
    (Net.Node.set_timer t.node ~delay:t.payload_grace (fun () ->
         if t.next_deliver = slot && live t slot && not (Hashtbl.mem t.outcomes slot)
         then begin
           Net.Node.broadcast t.node ~port:t.payload_port (encode_pull_frame ~slot);
           watch_head t ~slot
         end))

(* f+1 matching outcome claims for an undecided slot contain at least
   one honest deliverer: adopt the decision. This is how a process that
   lost an entire instance (its peers formed quorums without it) rejoins
   the log without re-running dead consensus. Claims are collected for
   any slot not yet delivered — peers answer a pull with a burst of
   outcomes well past our window — but acted on only once the slot is
   open, so the adoption cascades slot by slot as the cursor advances. *)
and record_claim t ~slot ~src ~committed =
  if
    t.started && live t slot && slot >= t.next_deliver
    && not (Hashtbl.mem t.outcomes slot)
  then begin
    let inner = sub_tbl t.claims slot in
    if not (Hashtbl.mem inner src) then begin
      Hashtbl.replace inner src committed;
      maybe_adopt_claim t ~slot
    end
  end

and maybe_adopt_claim t ~slot =
  if
    t.started && live t slot && slot >= t.next_deliver && slot < t.next_open
    && not (Hashtbl.mem t.outcomes slot)
  then
    match Hashtbl.find_opt t.claims slot with
    | None -> ()
    | Some inner ->
        let matching committed =
          Hashtbl.fold (fun _ c acc -> if c = committed then acc + 1 else acc) inner 0
        in
        let adopt committed =
          Obs.Metrics.incr outcomes_adopted;
          close_slot t ~slot ~value:(if committed then 1 else 0)
        in
        if Proto.past_faulty t.cfg (matching true) then adopt true
        else if Proto.past_faulty t.cfg (matching false) then adopt false

and close_slot t ~slot ~value =
  if not (Hashtbl.mem t.outcomes slot) then begin
    t.open_undecided <- t.open_undecided - 1;
    (if value = 1 then begin
       trace t "commit" slot;
       Obs.Metrics.incr slots_committed;
       Hashtbl.replace t.outcomes slot Committed_awaiting_payload;
       maybe_complete_commit t ~slot;
       (* still awaiting the certificate or the bytes: retry my votes
          every tick for a grace period *)
       match Hashtbl.find_opt t.outcomes slot with
       | Some Committed_awaiting_payload ->
           Hashtbl.replace t.retry slot (now t +. t.payload_grace);
           (* committed without votes of our own — the slot closed off
              peers' outcome claims, not our certificate exchange — so
              ask for the certificate and bytes without waiting for the
              retry deadline *)
           if
             (not (Hashtbl.mem t.my_echo slot))
             && not (Hashtbl.mem t.my_ready slot)
           then
             Net.Node.broadcast t.node ~port:t.payload_port
               (encode_pull_frame ~slot);
           ensure_tick t
       | Some (Committed _ | Skipped) | None -> ()
     end
     else begin
       trace t "skip" slot;
       Obs.Metrics.incr slots_skipped;
       (* my own batch did not reach a quorum in time: requeue its
          commands at the front so the submissions are not lost *)
       (if proposer_of t slot = me t then
          match Hashtbl.find_opt t.payloads slot with
          | Some (batch, _) -> begin
              Hashtbl.remove t.payloads slot;
              Hashtbl.remove t.rebroadcast slot;
              match decode_batch batch with
              | exception (Util.Codec.Malformed _ | Util.Codec.Truncated) -> ()
              | commands ->
                  let requeued = Queue.create () in
                  List.iter (fun c -> Queue.add c requeued) commands;
                  Queue.transfer t.pending requeued;
                  Queue.transfer requeued t.pending
            end
          | None -> ());
       Hashtbl.replace t.outcomes slot Skipped;
       flush_deliveries t
     end);
    open_slots t;
    (* requeued commands (and any still pending) take the freshest open
       slots of mine immediately *)
    absorb_pending t
  end

(* A command arriving while one of my slots is open but still
   unproposed fills that slot right away, instead of waiting for my
   next turn — this is what lets an open-loop workload use slots at
   the rate traffic actually arrives. *)
and absorb_pending t =
  if t.started then
    for slot = t.next_deliver to t.next_open - 1 do
      if
        (not (Queue.is_empty t.pending))
        && proposer_of t slot = me t && live t slot
        && (not (Hashtbl.mem t.proposed slot))
        && (not (Hashtbl.mem t.outcomes slot))
        && not (Hashtbl.mem t.payloads slot)
      then fill_slot t slot
    done

let submit t payload =
  Queue.add payload t.pending;
  absorb_pending t

(* --- frame handling --------------------------------------------------------- *)

let mark_help t ~slot =
  if
    slot < t.next_deliver && slot >= t.pruned_below
    && Hashtbl.mem t.certs slot
    && Hashtbl.mem t.payloads slot
  then begin
    Hashtbl.replace t.help slot ();
    ensure_tick t
  end

let mark_tell t ~slot =
  if slot >= 0 && slot < t.next_deliver then begin
    Hashtbl.replace t.tell slot ();
    ensure_tick t
  end

let accept_payload t ~slot ~digest ~batch =
  Hashtbl.replace t.payloads slot (batch, digest);
  send_echo t ~slot ~digest;
  maybe_complete_commit t ~slot;
  (* an already-open slot we had not voted on yet *)
  if slot < t.next_open then propose_slot t ~slot 1

(* content the group has vouched for: a certificate, or f+1 READYs *)
let vouched t ~slot ~digest =
  match Hashtbl.find_opt t.certs slot with
  | Some certified -> Bytes.equal certified digest
  | None -> (
      match Hashtbl.find_opt t.readys slot with
      | Some inner -> Proto.past_faulty t.cfg (count_for inner digest)
      | None -> false)

let holds t ~slot ~digest =
  match Hashtbl.find_opt t.payloads slot with
  | Some (_, d) -> Bytes.equal d digest
  | None -> false

(* Every copy of a batch would otherwise be hashed again on arrival.
   Two kinds of copy change nothing whatever their digest, so they skip
   the hash: the proposer's non-empty batch for a slot whose payload is
   already held, and a READY attaching the batch already held. *)
let handle_frame t ~src raw =
  match decode_frame raw with
  | exception (Util.Codec.Malformed _ | Util.Codec.Truncated) -> ()
  | Payload { slot; batch; _ }
    when src = proposer_of t slot && (not (batch_is_empty batch)) && Hashtbl.mem t.payloads slot ->
      ()
  | Payload { slot; digest; batch } ->
      if live t slot && Bytes.equal digest (batch_digest batch) then begin
        if src = proposer_of t slot then begin
          if batch_is_empty batch then begin
            Hashtbl.replace t.noops slot ();
            if slot < t.next_open then propose_slot t ~slot 0
          end
          else accept_payload t ~slot ~digest ~batch
        end
        else begin
          (* not the slot's proposer: only adopt content the group has
             already vouched for *)
          let vouched = vouched t ~slot ~digest in
          if vouched && not (holds t ~slot ~digest) then accept_payload t ~slot ~digest ~batch
          else if not vouched then begin
            trace t "forged" slot;
            Obs.Metrics.incr payloads_forged
          end
        end
      end
  | Echo { slot; digest } ->
      if live t slot then begin
        record_echo t ~slot ~src ~digest;
        mark_help t ~slot
      end
  | Ready { slot; digest; batch } ->
      if live t slot then begin
        record_ready t ~slot ~src ~digest;
        (match batch with
        | Some b
          when (not (holds t ~slot ~digest))
               && Bytes.equal digest (batch_digest b)
               && vouched t ~slot ~digest ->
            accept_payload t ~slot ~digest ~batch:b
        | Some _ | None -> ());
        (* only a bare READY signals need — a READY carrying the batch
           is itself a help response, and answering it in kind would
           ping-pong forever *)
        if batch = None then mark_help t ~slot
      end
  | Pull { slot } ->
      mark_help t ~slot;
      (* answer with a burst of outcomes, not just the asked slot: the
         puller is likely behind by much more than one, and each frame
         is a few bytes *)
      for s = slot to min t.next_deliver (slot + catchup_burst) - 1 do
        mark_tell t ~slot:s
      done
  | Outcome { slot; committed } -> record_claim t ~slot ~src ~committed

let start t =
  if not t.started then begin
    t.started <- true;
    Service.on_decide t.service (fun ~instance ~value ->
        close_slot t ~slot:instance ~value);
    Net.Node.listen t.node ~port:t.payload_port (fun ~src raw -> handle_frame t ~src raw);
    open_slots t
  end
