type event = Phase_changed of int | Decided of { value : int; phase : int }

type behavior = Correct | Attacker | Byzantine of Strategy.t

(* A message waiting for its witnesses, stamped with V's size when it
   last failed validation (-1: never checked). V only grows, and the
   verdict reads only V and the config, so while V keeps that size the
   message would fail again. *)
type pending = { msg : Message.t; rejected_at : int }

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
  pending : (int * int, pending list) Hashtbl.t;
  mutable pending_count : int;
  mutable decision : int option;
  mutable decision_phase : int option;
  mutable decided_quorum_phase : int option;
  mutable last_broadcast : (int * Proto.value * Proto.status) option;
  decided_claims : (int, int) Hashtbl.t;  (* sender -> claimed decided value *)
  (* local-coin draws so far: together with the creation seed this pins
     the rng position, making {!fingerprint} capture the machine's full
     future behavior without serializing generator internals *)
  mutable coin_flips : int;
  (* sender-side delta-compression window ({!encode_envelope}): store
     indices of the entries already shipped inside this phase, plus the
     keyframe counter that bounds how long a receiver that missed the
     full copy keeps dropping references to it *)
  shipped : (int, unit) Hashtbl.t;
  mutable shipped_phase : int;
  mutable since_keyframe : int;
  (* receiver side: one bit per store index this machine may resolve a
     compact reference to — set only once the message passed this
     machine's own authenticity check, or is exactly a member of its V
     set. A forged full entry never becomes resolvable, so no sender
     can grow it with messages that fail authentication. *)
  mutable known : Bytes.t;
}

let id t = Keyring.owner t.keyring
let phase t = t.phase_i
let current_status t = t.status_i
let decision t = t.decision
let decision_phase t = t.decision_phase

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
    coin_flips = 0;
    shipped = Hashtbl.create 64;
    shipped_phase = 0;
    since_keyframe = 0;
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
    coin_flips = t.coin_flips;
    shipped = Hashtbl.copy t.shipped;
    shipped_phase = t.shipped_phase;
    since_keyframe = t.since_keyframe;
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
        (fun { msg = m; _ } ->
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

(* Justification bundle for explicit validation (§6.2): the sender's V
   set over the three previous phases, plus its deciding quorum once it
   has decided. A phase-phi message's phase, value and status rules read
   phi-1, phi-2 and the highest LOCK and DECIDE phases below phi, all of
   them inside that window; the witnesses of the window's own oldest
   entries lie below it. Entries are the first copy per (sender, phase),
   ascending by phase, then sender. *)
let build_justification t =
  let phi = t.phase_i in
  (* up to [need] messages of [phase] that pass [keep], each sender's
     first such copy ([Vset.messages_at] groups a sender's copies) *)
  let first_copies ~phase ~keep need =
    let rec go last need = function
      | (m : Message.t) :: rest when need > 0 ->
          if m.sender <> last && keep m then m :: go m.sender (need - 1) rest
          else go last need rest
      | _ -> []
    in
    go (-1) need (Vset.messages_at t.v ~phase)
  in
  let window =
    List.concat_map
      (fun back ->
        let phase = phi - back in
        if phase >= 1 then first_copies ~phase ~keep:(fun _ -> true) t.cfg.n else [])
      [ 3; 2; 1 ]
  in
  match (wire_fields t, t.decided_quorum_phase) with
  | (value, _, Proto.Decided), Some p when p = phi || p < phi - 3 ->
      (* a deciding phase inside the window is already shipped whole *)
      let quorum =
        first_copies ~phase:p
          ~keep:(fun m -> Proto.value_equal m.value value)
          (((t.cfg.n + t.cfg.f) / 2) + 1)
      in
      if p = phi then window @ quorum else quorum @ window
  | _ -> window

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
        let proof = Keyring.sign t.keyring ~phase:t.phase_i ~value ~origin in
        let msg = { Message.sender = id t; phase = t.phase_i; value; origin; status; proof } in
        let justification = if justify then build_justification t else [] in
        t.last_broadcast <- Some (t.phase_i, value, status);
        (* a correct process trusts its own state: V gets the message
           directly (any loopback copy is deduplicated) *)
        ignore (Vset.add t.v msg);
        Broadcast { Message.msg; justification }
    | Byzantine strategy -> emit_strategy t strategy ~justify

let emit_as t ~strategy ~justify =
  if t.phase_i > t.cfg.max_phases then Quiet else emit_strategy t strategy ~justify

(* --- state transitions (task T2) ---------------------------------------- *)

let coin_flips = Obs.Metrics.counter ~labels:[ ("proto", "turquois") ] "proto.coin_flips"

let local_coin t =
  Obs.Metrics.incr coin_flips;
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
  if List.exists (fun p -> Message.header_equal m p.msg) existing then ()
  else if List.length existing >= Crypto.Onetime_sig.slot_count then ()
  else begin
    Hashtbl.replace t.pending key ({ msg = m; rejected_at = -1 } :: existing);
    t.pending_count <- t.pending_count + 1
  end

let duplicate_entries = Obs.Metrics.counter "validation.duplicates"
let rejected_auth = Obs.Metrics.counter ~labels:[ ("rule", "auth") ] "validation.rejected"
let unresolved_refs = Obs.Metrics.counter "compact.unresolved"

(* Duplicates are tallied per frame and reported with one registry
   update, not one per justification entry. *)
let count_duplicates k = if k > 0 then Obs.Metrics.incr_by duplicate_entries k

(* Re-examine the pool in ascending phase order until a fixpoint: a
   message admitted to V may unlock the validation of later ones. A
   message whose stamp is V's current size is skipped: it failed
   against this very V. *)
let drain_pending t =
  let admitted_any = ref false in
  let duplicates = ref 0 in
  (* an empty pool has nothing to re-examine *)
  let progress = ref (t.pending_count > 0) in
  while !progress do
    progress := false;
    let candidates =
      Hashtbl.fold (fun key msgs acc -> (key, msgs) :: acc) t.pending []
      |> List.sort (fun ((_, p1), _) ((_, p2), _) -> Int.compare p1 p2)
    in
    List.iter
      (fun (key, msgs) ->
        let still_pending =
          List.filter_map
            (fun p ->
              let m = p.msg in
              if p.rejected_at = Vset.size t.v then Some p
              else if Vset.mem_copy t.v m then begin
                incr duplicates;
                t.pending_count <- t.pending_count - 1;
                None
              end
              else if Validation.is_valid t.cfg t.v m then begin
                if Vset.add t.v m then begin
                  admitted_any := true;
                  progress := true
                end
                else incr duplicates;
                t.pending_count <- t.pending_count - 1;
                None
              end
              else Some { p with rejected_at = Vset.size t.v })
            msgs
        in
        if still_pending = [] then Hashtbl.remove t.pending key
        else Hashtbl.replace t.pending key still_pending)
      candidates
  done;
  count_duplicates !duplicates;
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
  let duplicates = ref 0 in
  let unresolved = ref 0 in
  let claims_before = Hashtbl.length t.decided_claims in
  let consider idx =
    let m = Msgstore.get store idx in
    let copy = Vset.copy_index t.v m in
    if copy <> 0 then begin
      if copy = idx then learn t idx;
      incr duplicates
    end
    else begin
      incr auth_checks;
      if Msgstore.check store t.keyring idx then begin
        learn t idx;
        record_decided_claim t m;
        pending_add t m
      end
      else Obs.Metrics.incr rejected_auth
    end
  in
  Array.iter
    (function
      | Msgstore.Stored idx -> consider idx
      | Msgstore.Unknown c ->
          let idx = Msgstore.resolve knows t c in
          (* 0: nothing this machine authenticated has this digest; the
             sender's next keyframe retransmits it in full *)
          if idx <> 0 then consider idx else incr unresolved)
    fr.Msgstore.just;
  consider fr.Msgstore.msg;
  count_duplicates !duplicates;
  if !unresolved > 0 then Obs.Metrics.incr_by unresolved_refs !unresolved;
  let admitted = drain_pending t in
  let new_claims = Hashtbl.length t.decided_claims > claims_before in
  let events = if admitted || new_claims then update_state t else [] in
  (events, !auth_checks)

let handle t { Message.msg; justification } =
  let store = store t in
  let just =
    Array.of_list (List.map (fun m -> Msgstore.Stored (Msgstore.intern store m)) justification)
  in
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
    t.since_keyframe <- 0
  end;
  let keyframe = t.since_keyframe mod keyframe_every = 0 in
  t.since_keyframe <- t.since_keyframe + 1;
  let store = store t in
  let wjust =
    List.map
      (fun m ->
        let idx = Msgstore.intern store m in
        if (not keyframe) && Hashtbl.mem t.shipped idx then
          Message.Ref (Msgstore.digest store idx)
        else begin
          Hashtbl.replace t.shipped idx ();
          Message.Full m
        end)
      env.Message.justification
  in
  Message.encode_wire { Message.wmsg = env.Message.msg; wjust }

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
