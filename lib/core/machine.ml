type event = Phase_changed of int | Decided of { value : int; phase : int }

type stats = {
  mutable accepted : int;
  mutable rejected_auth : int;
  mutable duplicates : int;
  mutable pending_peak : int;
}

type behavior = Correct | Attacker | Byzantine of Strategy.t

(* Everything the emitted broadcast of a Correct/Attacker machine is a
   function of. While the key is unchanged, re-emitting rebuilds the
   exact same envelope — so it is memoized instead (skipping the
   re-sign and the justification rebuild). Byzantine strategies draw
   from the rng and are never memoized. *)
type emit_key = {
  ek_phase : int;
  ek_value : int;
  ek_origin : int;
  ek_status : int;
  ek_vset_version : int;
  ek_dq_phase : int;  (* -1 when none *)
}

let emit_key_equal a b =
  a.ek_phase = b.ek_phase && a.ek_value = b.ek_value && a.ek_origin = b.ek_origin
  && a.ek_status = b.ek_status && a.ek_vset_version = b.ek_vset_version
  && a.ek_dq_phase = b.ek_dq_phase

type t = {
  cfg : Proto.config;
  keyring : Keyring.t;
  rng : Util.Rng.t;
  behavior : behavior;
  mutable phase_i : int;
  mutable v_i : Proto.value;
  mutable origin_i : Proto.origin;
  mutable status_i : Proto.status;
  v : Vset.t;
  pending : (int * int, Message.t list) Hashtbl.t;
  mutable pending_count : int;
  mutable decision : int option;
  mutable decision_phase : int option;
  mutable decided_quorum_phase : int option;
  mutable last_broadcast : (int * Proto.value * Proto.status) option;
  decided_claims : (int, int) Hashtbl.t;  (* sender -> claimed decided value *)
  stats : stats;
  (* local-coin draws so far: together with the creation seed this pins
     the rng position, making {!fingerprint} capture the machine's full
     future behavior without serializing generator internals *)
  mutable coin_flips : int;
  (* emitted-broadcast memos, one per justification flavor (the stuck
     rebroadcast alternates justified/plain, so a single slot would
     thrash) *)
  mutable emit_memo_plain : (emit_key * Message.envelope) option;
  mutable emit_memo_justified : (emit_key * Message.envelope) option;
  (* sender-side delta-compression window ({!encode_envelope}): store
     indices of the entries already shipped inside this phase, plus the
     keyframe counter that bounds how long a receiver that missed the
     full copy keeps dropping references to it *)
  shipped : (int, unit) Hashtbl.t;
  mutable shipped_phase : int;
  mutable since_keyframe : int;
  (* last all-references encoding, reusable while the envelope is
     physically unchanged *)
  mutable enc_cache : (Message.envelope * bytes) option;
  (* receiver side: one bit per store index this machine may resolve a
     compact reference to — set only once the message passed this
     machine's own authenticity check, or is exactly a member of its V
     set. A forged full entry never becomes resolvable, so no sender
     can grow it with messages that fail authentication. *)
  mutable known : Bytes.t;
}

let id t = Keyring.owner t.keyring
let phase t = t.phase_i
let current_value t = t.v_i
let current_status t = t.status_i
let decision t = t.decision
let decision_phase t = t.decision_phase
let stats t = t.stats
let vset t = t.v

let create cfg ~keyring ~rng ?(behavior = Correct) ~proposal () =
  Proto.validate_config cfg;
  let v_i = Proto.value_of_bit proposal in
  {
    cfg;
    keyring;
    rng;
    behavior;
    phase_i = 1;
    v_i;
    origin_i = Proto.Deterministic;
    status_i = Proto.Undecided;
    v = Vset.create ~n:cfg.n;
    pending = Hashtbl.create 64;
    pending_count = 0;
    decision = None;
    decision_phase = None;
    decided_quorum_phase = None;
    last_broadcast = None;
    decided_claims = Hashtbl.create 16;
    stats = { accepted = 0; rejected_auth = 0; duplicates = 0; pending_peak = 0 };
    coin_flips = 0;
    emit_memo_plain = None;
    emit_memo_justified = None;
    shipped = Hashtbl.create 64;
    shipped_phase = 0;
    since_keyframe = 0;
    enc_cache = None;
    known = Bytes.empty;
  }

(* Keyrings are immutable after setup and shared between clones; every
   mutable container is copied (messages themselves are immutable). *)
let clone t =
  {
    cfg = t.cfg;
    keyring = t.keyring;
    rng = Util.Rng.copy t.rng;
    behavior = t.behavior;
    phase_i = t.phase_i;
    v_i = t.v_i;
    origin_i = t.origin_i;
    status_i = t.status_i;
    v = Vset.clone t.v;
    pending = Hashtbl.copy t.pending;
    pending_count = t.pending_count;
    decision = t.decision;
    decision_phase = t.decision_phase;
    decided_quorum_phase = t.decided_quorum_phase;
    last_broadcast = t.last_broadcast;
    decided_claims = Hashtbl.copy t.decided_claims;
    stats =
      {
        accepted = t.stats.accepted;
        rejected_auth = t.stats.rejected_auth;
        duplicates = t.stats.duplicates;
        pending_peak = t.stats.pending_peak;
      };
    coin_flips = t.coin_flips;
    emit_memo_plain = t.emit_memo_plain;
    emit_memo_justified = t.emit_memo_justified;
    shipped = Hashtbl.copy t.shipped;
    shipped_phase = t.shipped_phase;
    since_keyframe = t.since_keyframe;
    enc_cache = t.enc_cache;
    known = Bytes.copy t.known;
  }

(* Canonical serialization of everything that shapes future behavior:
   the protocol variables, the V set, the pending pool (slot order
   preserved — admission order decides which copy becomes a slot's
   primary), the decided-claims tally, and the rng position via the
   coin-flip count. Two machines with equal fingerprints, equal
   configs/keyrings and equal creation seeds behave identically on
   identical future inputs — the soundness condition of the model
   checker's memoized state dedup. *)
let fingerprint t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "m%d:ph%d:v%d:o%d:st%d:d%s:dp%s:dq%s:cf%d:lb%s"
       (Keyring.owner t.keyring) t.phase_i
       (Proto.value_to_int t.v_i)
       (match t.origin_i with Proto.Deterministic -> 0 | Proto.Random -> 1)
       (match t.status_i with Proto.Undecided -> 0 | Proto.Decided -> 1)
       (match t.decision with None -> "-" | Some d -> string_of_int d)
       (match t.decision_phase with None -> "-" | Some p -> string_of_int p)
       (match t.decided_quorum_phase with None -> "-" | Some p -> string_of_int p)
       t.coin_flips
       (match t.last_broadcast with
       | None -> "-"
       | Some (p, v, s) ->
           Printf.sprintf "%d.%d.%d" p (Proto.value_to_int v)
             (match s with Proto.Undecided -> 0 | Proto.Decided -> 1)));
  Buffer.add_string buf "|V:";
  Vset.canonical t.v buf;
  Buffer.add_string buf "|P:";
  let pending_keys = Hashtbl.fold (fun key _ acc -> key :: acc) t.pending [] in
  List.iter
    (fun ((sender, phase) as key) ->
      Buffer.add_string buf (Printf.sprintf "s%dp%d=" sender phase);
      List.iter
        (fun (m : Message.t) ->
          Buffer.add_string buf
            (Printf.sprintf "%d.%d.%d;" (Proto.value_to_int m.value)
               (match m.origin with Proto.Deterministic -> 0 | Proto.Random -> 1)
               (match m.status with Proto.Undecided -> 0 | Proto.Decided -> 1)))
        (Hashtbl.find t.pending key))
    (List.sort
       (fun (s1, p1) (s2, p2) ->
         if s1 <> s2 then Int.compare s1 s2 else Int.compare p1 p2)
       pending_keys);
  Buffer.add_string buf "|C:";
  let claims = Hashtbl.fold (fun sender v acc -> (sender, v) :: acc) t.decided_claims [] in
  List.iter
    (fun (sender, v) -> Buffer.add_string buf (Printf.sprintf "%d=%d;" sender v))
    (* senders are unique keys, so ordering by sender alone is total *)
    (List.sort (fun (s1, _) (s2, _) -> Int.compare s1 s2) claims);
  Buffer.contents buf

(* --- outgoing ----------------------------------------------------------- *)

(* What actually goes on the wire: correct processes send their state;
   the legacy attacker follows the strategy of §7.2. Byzantine
   strategies shape their frames in [emit]; here they report the true
   state, which is what the justification builder supports. *)
let wire_fields t =
  match t.behavior with
  | Correct | Byzantine _ -> (t.v_i, t.origin_i, t.status_i)
  | Attacker -> begin
      match Proto.kind_of_phase t.phase_i with
      | Proto.Converge | Proto.Lock ->
          let flipped =
            match t.v_i with
            | Proto.V0 -> Proto.V1
            | Proto.V1 -> Proto.V0
            | Proto.Vbot -> Proto.V1
          in
          (flipped, Proto.Deterministic, Proto.Undecided)
      | Proto.Decide -> (Proto.Vbot, Proto.Deterministic, Proto.Undecided)
    end

let same_state_as_last_broadcast t =
  match t.last_broadcast with
  | None -> false
  | Some (phase, value, status) ->
      let wv, _, ws = wire_fields t in
      phase = t.phase_i && Proto.value_equal value wv && status = ws

(* Justification bundle for explicit validation: the minimal witness
   sets each of the receiver-side rules needs — a phase quorum at phi-1,
   the value support the rule for (phi, v, origin) demands, and the
   status witness. Greedy selection with (sender, phase) dedup keeps the
   bundle close to the theoretical minimum (about two quorums). *)
let build_justification t =
  let quorum_min = ((t.cfg.n + t.cfg.f) / 2) + 1 in
  let half_min = ((t.cfg.n + t.cfg.f) / 4) + 1 in
  let selected : (int * int, Message.t) Hashtbl.t = Hashtbl.create 32 in
  let matches ?value (m : Message.t) =
    match value with None -> true | Some v -> Proto.value_equal m.value v
  in
  let ensure ~phase ?value need =
    if phase >= 1 && need > 0 then begin
      let have =
        Hashtbl.fold
          (fun (_, p) m acc -> if p = phase && matches ?value m then acc + 1 else acc)
          selected 0
      in
      let missing = ref (need - have) in
      List.iter
        (fun (m : Message.t) ->
          if !missing > 0 && matches ?value m
             && not (Hashtbl.mem selected (m.sender, m.phase))
          then begin
            Hashtbl.replace selected (m.sender, m.phase) m;
            decr missing
          end)
        (Vset.messages_at t.v ~phase)
    end
  in
  let phi = t.phase_i in
  let value, origin, status = wire_fields t in
  (* The previous three phases make one adoption hop self-contained:
     a phase-phi message's value and status rules reach at most phi-2,
     and the supports of those supports reach phi-3 (which validates
     against material a receiver at phase phi-3 already holds). *)
  for back = 1 to 3 do
    ensure ~phase:(phi - back) t.cfg.n
  done;
  if phi > 1 then ensure ~phase:(phi - 1) quorum_min;
  (if phi > 1 then
     match (Proto.kind_of_phase phi, value, origin) with
     | Proto.Lock, v, _ -> ensure ~phase:(phi - 1) ~value:v half_min
     | Proto.Decide, Proto.Vbot, _ ->
         ensure ~phase:(phi - 2) ~value:Proto.V0 half_min;
         ensure ~phase:(phi - 2) ~value:Proto.V1 half_min
     | Proto.Decide, v, _ -> ensure ~phase:(phi - 1) ~value:v quorum_min
     | Proto.Converge, v, Proto.Deterministic -> ensure ~phase:(phi - 2) ~value:v quorum_min
     | Proto.Converge, _, Proto.Random ->
         ensure ~phase:(phi - 1) ~value:Proto.Vbot quorum_min);
  (match status with
  | Proto.Undecided ->
      if phi > 3 then begin
        let phi' = Validation.highest_lock_phase_below phi in
        ensure ~phase:phi' ~value:Proto.V0 half_min;
        ensure ~phase:phi' ~value:Proto.V1 half_min;
        ensure ~phase:(Validation.highest_decide_phase_below phi) ~value:Proto.Vbot 1
      end
  | Proto.Decided -> begin
      match t.decided_quorum_phase with
      | Some p -> ensure ~phase:p ~value quorum_min
      | None -> ()
    end);
  Hashtbl.fold (fun _ m acc -> m :: acc) selected []
  |> List.sort (fun (a : Message.t) (b : Message.t) ->
         if a.phase <> b.phase then Int.compare a.phase b.phase
         else Int.compare a.sender b.sender)

type transmission =
  | Quiet
  | Broadcast of Message.envelope
  | Per_receiver of (int * Message.envelope) list

(* Corrupt the one-time signature in a way a verifier must detect: flip
   every bit of the first proof byte. *)
let garble_proof proof =
  let b = Bytes.copy proof in
  if Bytes.length b > 0 then
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  b

(* Sign a strategy-shaped frame. Replayed phases reuse that phase's
   (long-revealed) one-time key, which is exactly what makes the replay
   attack realistic; the phase is clamped to the key horizon. *)
let sign_wire t (w : Strategy.wire) =
  let phase =
    match w.Strategy.w_phase with
    | None -> t.phase_i
    | Some p -> max 1 (min (Keyring.phases t.keyring) p)
  in
  let proof = Keyring.sign t.keyring ~phase ~value:w.w_value ~origin:w.w_origin in
  let proof = if w.Strategy.w_garble then garble_proof proof else proof in
  {
    Message.sender = id t;
    phase;
    value = w.Strategy.w_value;
    origin = w.Strategy.w_origin;
    status = w.Strategy.w_status;
    proof;
  }

let emit_strategy t strategy ~justify =
  let view =
    {
      Strategy.phase = t.phase_i;
      value = t.v_i;
      status = t.status_i;
      n = t.cfg.n;
      self = id t;
    }
  in
  match Strategy.plan strategy ~rng:t.rng view with
  | Strategy.Skip -> Quiet
  | Strategy.Emit w ->
      let msg = sign_wire t w in
      let justification = if justify then build_justification t else [] in
      t.last_broadcast <- Some (t.phase_i, msg.value, msg.status);
      Broadcast { Message.msg; justification }
  | Strategy.Emit_per_receiver f ->
      let outs =
        List.filter_map
          (fun rx ->
            if rx = id t then None
            else
              match f rx with
              | None -> None
              | Some w -> Some (rx, { Message.msg = sign_wire t w; justification = [] }))
          (List.init t.cfg.n (fun i -> i))
      in
      t.last_broadcast <- Some (t.phase_i, t.v_i, t.status_i);
      Per_receiver outs

let emit t ~justify =
  if t.phase_i > t.cfg.max_phases then Quiet
  else
    match t.behavior with
    | Correct | Attacker ->
        let value, origin, status = wire_fields t in
        let key =
          {
            ek_phase = t.phase_i;
            ek_value = Proto.value_to_int value;
            ek_origin = (match origin with Proto.Deterministic -> 0 | Proto.Random -> 1);
            ek_status = (match status with Proto.Undecided -> 0 | Proto.Decided -> 1);
            ek_vset_version = Vset.version t.v;
            ek_dq_phase = Option.value ~default:(-1) t.decided_quorum_phase;
          }
        in
        let memo = if justify then t.emit_memo_justified else t.emit_memo_plain in
        (match memo with
        | Some (k, env) when emit_key_equal k key ->
            (* nothing the envelope depends on changed since it was
               built: reuse it verbatim (its message is already in V) *)
            t.last_broadcast <- Some (t.phase_i, value, status);
            Broadcast env
        | Some _ | None ->
            let proof = Keyring.sign t.keyring ~phase:t.phase_i ~value ~origin in
            let msg =
              { Message.sender = id t; phase = t.phase_i; value; origin; status; proof }
            in
            let justification = if justify then build_justification t else [] in
            t.last_broadcast <- Some (t.phase_i, value, status);
            (* a correct process trusts its own state: V gets the message
               directly (any loopback copy is deduplicated) *)
            ignore (Vset.add t.v msg);
            let env = { Message.msg; justification } in
            (* keyed on the post-insert version so the very next
               unchanged-state emit already hits *)
            let entry = Some ({ key with ek_vset_version = Vset.version t.v }, env) in
            if justify then t.emit_memo_justified <- entry
            else t.emit_memo_plain <- entry;
            Broadcast env)
    | Byzantine strategy -> emit_strategy t strategy ~justify

let emit_as t ~strategy ~justify =
  if t.phase_i > t.cfg.max_phases then Quiet else emit_strategy t strategy ~justify

let prepare t ~justify =
  match emit t ~justify with
  | Quiet -> None
  | Broadcast env -> Some env
  | Per_receiver _ ->
      (* broadcast-only drivers see an equivocator as silent; shells that
         support unicast use [emit] directly *)
      None

(* --- state transitions (task T2) ---------------------------------------- *)

let local_coin t =
  Obs.Metrics.incr "proto.coin_flips" ~labels:[ ("proto", "turquois") ];
  t.coin_flips <- t.coin_flips + 1;
  if Util.Rng.bool t.rng then Proto.V1 else Proto.V0

(* Transition rule 1 (lines 10-18): adopt the state of a higher-phase
   message. Coin-flip values are re-flipped locally (line 12). *)
let try_adopt t =
  match Vset.highest_message t.v with
  | Some h when h.phase > t.phase_i ->
      t.phase_i <- h.phase;
      (match (Proto.kind_of_phase h.phase, h.origin) with
      | Proto.Converge, Proto.Random ->
          t.v_i <- local_coin t;
          t.origin_i <- Proto.Random
      | (Proto.Converge | Proto.Lock | Proto.Decide), (Proto.Random | Proto.Deterministic) ->
          t.v_i <- h.value;
          t.origin_i <- h.origin);
      t.status_i <- h.status;
      (match (h.status, t.decided_quorum_phase) with
      | Proto.Decided, None -> t.decided_quorum_phase <- Some h.phase
      | (Proto.Decided | Proto.Undecided), _ -> ());
      true
  | Some _ | None -> false

let quorum_value t ~phase =
  let find value =
    if Proto.quorum_exceeded t.cfg (Vset.count_value t.v ~phase ~value) then Some value
    else None
  in
  match find Proto.V0 with Some v -> Some v | None -> find Proto.V1

(* Transition rule 2 (lines 19-39): act on a quorum at the current phase. *)
let try_quorum_step t =
  if not (Proto.quorum_exceeded t.cfg (Vset.count_phase t.v ~phase:t.phase_i)) then false
  else begin
    (match Proto.kind_of_phase t.phase_i with
    | Proto.Converge ->
        t.v_i <- Vset.majority_value t.v ~phase:t.phase_i;
        t.origin_i <- Proto.Deterministic
    | Proto.Lock ->
        (match quorum_value t ~phase:t.phase_i with
        | Some v -> t.v_i <- v
        | None -> t.v_i <- Proto.Vbot);
        t.origin_i <- Proto.Deterministic
    | Proto.Decide ->
        (match quorum_value t ~phase:t.phase_i with
        | Some _ ->
            t.status_i <- Proto.Decided;
            if t.decided_quorum_phase = None then t.decided_quorum_phase <- Some t.phase_i
        | None -> ());
        (match Vset.some_binary_value t.v ~phase:t.phase_i with
        | Some v ->
            t.v_i <- v;
            t.origin_i <- Proto.Deterministic
        | None ->
            t.v_i <- local_coin t;
            t.origin_i <- Proto.Random));
    t.phase_i <- t.phase_i + 1;
    true
  end

let settle_decision t =
  if t.status_i = Proto.Decided && t.decision = None then begin
    match Proto.bit_of_value t.v_i with
    | Some bit ->
        t.decision <- Some bit;
        let at_phase =
          match t.decided_quorum_phase with Some p -> p | None -> t.phase_i
        in
        t.decision_phase <- Some at_phase;
        [ Decided { value = bit; phase = at_phase } ]
    | None ->
        (* unreachable for a correct process: decided status is only set
           alongside a binary value *)
        assert false
  end
  else []

(* Decision certificate: at least f+1 distinct processes have sent
   authentic messages claiming they decided v. At least one of them is
   correct, that one really decided v, and agreement makes v the only
   decidable value — so adopting it is safe. This is how a process that
   fell too far behind (or was dragged past the deciding phase by a
   Byzantine higher-phase message) still terminates once the group has
   decided — the same amplification idea as Bracha's READY rule. A full
   quorum of claims would be too strong: with n = 4, f = 1, a process
   stranded above the decision phase hears only the 2 other correct
   deciders, and the chaos harness's equivocation strategy turns that
   into a permanent stall. *)
let try_decision_certificate t =
  if t.status_i = Proto.Decided then false
  else begin
    let votes = Hashtbl.create 2 in
    Hashtbl.iter
      (fun _ v -> Hashtbl.replace votes v (1 + Option.value ~default:0 (Hashtbl.find_opt votes v)))
      t.decided_claims;
    let winner =
      Hashtbl.fold
        (fun v count acc -> if count >= t.cfg.f + 1 then Some v else acc)
        votes None
    in
    match winner with
    | Some bit ->
        t.v_i <- Proto.value_of_bit bit;
        t.origin_i <- Proto.Deterministic;
        t.status_i <- Proto.Decided;
        true
    | None -> false
  end

let update_state t =
  let phase_before = t.phase_i in
  let progress = ref true in
  while !progress do
    let adopted = try_adopt t in
    let stepped = try_quorum_step t in
    progress := adopted || stepped
  done;
  ignore (try_decision_certificate t);
  let decide_events = settle_decision t in
  if t.phase_i <> phase_before then Phase_changed t.phase_i :: decide_events
  else decide_events

(* --- incoming ----------------------------------------------------------- *)

let pending_add t (m : Message.t) =
  let key = (m.sender, m.phase) in
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.pending key) in
  if List.exists (Message.header_equal m) existing then ()
  else if List.length existing >= Crypto.Onetime_sig.slot_count then ()
  else begin
    Hashtbl.replace t.pending key (m :: existing);
    t.pending_count <- t.pending_count + 1;
    if t.pending_count > t.stats.pending_peak then t.stats.pending_peak <- t.pending_count
  end

(* Re-examine the pool in ascending phase order until a fixpoint: a
   message admitted to V may unlock the validation of later ones. *)
let drain_pending t =
  let admitted_any = ref false in
  let progress = ref true in
  while !progress do
    progress := false;
    let candidates =
      Hashtbl.fold (fun key msgs acc -> (key, msgs) :: acc) t.pending []
      |> List.sort (fun ((_, p1), _) ((_, p2), _) -> Int.compare p1 p2)
    in
    List.iter
      (fun (key, msgs) ->
        let still_pending =
          List.filter
            (fun m ->
              if Vset.mem_copy t.v m then begin
                t.stats.duplicates <- t.stats.duplicates + 1;
                Obs.Metrics.incr "validation.duplicates";
                t.pending_count <- t.pending_count - 1;
                false
              end
              else if Validation.is_valid t.cfg t.v m then begin
                if Vset.add t.v m then begin
                  t.stats.accepted <- t.stats.accepted + 1;
                  admitted_any := true;
                  progress := true
                end
                else begin
                  t.stats.duplicates <- t.stats.duplicates + 1;
                  Obs.Metrics.incr "validation.duplicates"
                end;
                t.pending_count <- t.pending_count - 1;
                false
              end
              else true)
            msgs
        in
        if still_pending = [] then Hashtbl.remove t.pending key
        else Hashtbl.replace t.pending key still_pending)
      candidates
  done;
  !admitted_any

let record_decided_claim t (m : Message.t) =
  match (m.status, m.value) with
  | Proto.Decided, (Proto.V0 | Proto.V1) ->
      if m.sender <> id t && not (Hashtbl.mem t.decided_claims m.sender) then
        Hashtbl.replace t.decided_claims m.sender (Proto.value_to_int m.value)
  | (Proto.Decided | Proto.Undecided), _ -> ()

let store t = Vset.store t.v

let knows t idx =
  let byte = idx lsr 3 in
  byte < Bytes.length t.known
  && Char.code (Bytes.get t.known byte) land (1 lsl (idx land 7)) <> 0

let learn t idx =
  let byte = idx lsr 3 in
  if byte >= Bytes.length t.known then begin
    let grown = Bytes.make (max (byte + 1) (2 * Bytes.length t.known)) '\000' in
    Bytes.blit t.known 0 grown 0 (Bytes.length t.known);
    t.known <- grown
  end;
  Bytes.set t.known byte
    (Char.chr (Char.code (Bytes.get t.known byte) lor (1 lsl (idx land 7))))

let resolvable t =
  Bytes.fold_left
    (fun acc c ->
      let rec bits c = if c = 0 then 0 else (c land 1) + bits (c lsr 1) in
      acc + bits (Char.code c))
    0 t.known

(* Task T2 for one arriving frame: every justification entry in wire
   order, then the frame's own message. A reference resolves only to a
   message this machine authenticated before — an earlier entry of the
   same frame included. *)
let handle_wire t (fr : Msgstore.frame) =
  let store = store t in
  let auth_checks = ref 0 in
  let claims_before = Hashtbl.length t.decided_claims in
  let consider idx =
    let m = Msgstore.get store idx in
    let copy = Vset.copy_index t.v m in
    if copy <> 0 then begin
      if copy = idx then learn t idx;
      t.stats.duplicates <- t.stats.duplicates + 1;
      Obs.Metrics.incr "validation.duplicates"
    end
    else begin
      incr auth_checks;
      if Msgstore.check store t.keyring idx then begin
        learn t idx;
        record_decided_claim t m;
        pending_add t m
      end
      else begin
        t.stats.rejected_auth <- t.stats.rejected_auth + 1;
        Obs.Metrics.incr "validation.rejected" ~labels:[ ("rule", "auth") ]
      end
    end
  in
  List.iter
    (function
      | Msgstore.Stored idx -> consider idx
      | Msgstore.Unknown d -> (
          match Msgstore.resolve store (knows t) d with
          | Some idx -> consider idx
          | None ->
              (* nothing this machine authenticated has this digest; the
                 sender's next keyframe retransmits it in full *)
              Obs.Metrics.incr "compact.unresolved"))
    fr.Msgstore.just;
  consider fr.Msgstore.msg;
  let admitted = drain_pending t in
  let new_claims = Hashtbl.length t.decided_claims > claims_before in
  let events = if admitted || new_claims then update_state t else [] in
  (events, !auth_checks)

let handle t { Message.msg; justification } =
  let store = store t in
  let just = List.map (fun m -> Msgstore.Stored (Msgstore.intern store m)) justification in
  handle_wire t { Msgstore.msg = Msgstore.intern store msg; just }

(* --- delta-compressed frames -------------------------------------------- *)

(* Every [keyframe_every]-th justified encode of a phase ships all
   entries in full again. Replaced-in-queue or collision-lost frames can
   leave receivers without the full copy a later reference needs; the
   keyframe bounds that blackout to at most three justified sends. *)
let keyframe_every = 4

let encode_justified t (env : Message.envelope) =
  (* the shipped window is per phase: references only ever point at
     entries shipped since this machine last changed phase *)
  if t.shipped_phase <> t.phase_i then begin
    Hashtbl.reset t.shipped;
    t.shipped_phase <- t.phase_i;
    t.since_keyframe <- 0;
    t.enc_cache <- None
  end;
  let keyframe = t.since_keyframe mod keyframe_every = 0 in
  t.since_keyframe <- t.since_keyframe + 1;
  match t.enc_cache with
  | Some (cached, b) when (not keyframe) && cached == env && not (Obs.Trace2.enabled ()) ->
      (* same envelope, window unchanged: every entry is still a
         shipped reference, so the previous wire bytes are exact.
         (Skipped under causal tracing, which identifies frames by
         physical payload: each send must then own fresh bytes.) *)
      b
  | Some _ | None ->
      let store = store t in
      let all_refs = ref true in
      let wjust =
        List.map
          (fun m ->
            let idx = Msgstore.intern store m in
            if (not keyframe) && Hashtbl.mem t.shipped idx then
              Message.Ref (Msgstore.digest store idx)
            else begin
              Hashtbl.replace t.shipped idx ();
              all_refs := false;
              Message.Full m
            end)
          env.Message.justification
      in
      let b = Message.encode_wire { Message.wmsg = env.Message.msg; wjust } in
      t.enc_cache <- (if !all_refs then Some (env, b) else None);
      b

(* Delta-compressed justification bundles, on unless a test forces the
   plain wire format as its reference. A sender-side switch only:
   receivers always accept both wire formats, so flipping it never
   strands in-flight frames. *)
let compact_flag = Atomic.make true

let with_compact flag f =
  let previous = Atomic.get compact_flag in
  Atomic.set compact_flag flag;
  Fun.protect ~finally:(fun () -> Atomic.set compact_flag previous) f

let encode_envelope t (env : Message.envelope) =
  if (not (Atomic.get compact_flag)) || env.Message.justification = [] then Message.encode env
  else encode_justified t env
