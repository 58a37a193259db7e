(* Sample-based probabilistic binary consensus.

   A phase-structured Ben-Or descendant that replaces every quorum
   with a deterministic public sample: in each phase a node pushes its
   state to an O(log n) sample and tallies the states pushed to it by
   the (precomputed) inverse set. Odd phases adopt the sampled
   majority; even phases decide on an overwhelming majority, adopt a
   clear one, and otherwise fall back to a shared per-phase coin
   derived from the run seed. Decided nodes linger, pushing DECIDED
   claims to a dedicated sample; an undecided node adopts once enough
   distinct claimants in its inverse claim set agree.

   Safety and liveness are probabilistic — the trade the scalable
   broadcast literature makes for O(log n) per-node cost — and every
   random choice (samples, coin, loss) derives from the run seed, so
   runs stay bit-identical at any -j. *)

type behavior = Correct | Attacker | Equivocator | Silent

(* below the crossover where an O(log n) sample actually thins the
   fan-out, fall back to full membership: at n <= ~32 the sample costs
   almost as many messages yet two samples can be near disjoint, which
   is where the probabilistic agreement risk lives *)
let sample_size ~n =
  let s = max 8 (int_of_float (ceil (3.0 *. log (float_of_int (max 2 n))))) in
  if 2 * s >= n then n - 1 else s

let quorum_frac = 0.65 (* of the inverse set heard before advancing *)

(* majority share that displaces the coin: low enough that k - f
   unanimous honest votes always displace it (validity), high enough
   that near-even splits fall through to the shared coin instead of
   oscillating *)
let adopt_frac = 0.66

let claim_frac = 0.3 (* distinct claimants that import a decision *)

(* consecutive even-phase supermajorities for the same value before
   deciding it: one skewed sample during a genuinely split phase must
   not certify a decision *)
let confidence = 2

let patience = 3 (* ticks without quorum before advancing anyway *)
let max_phases = 40
let linger_ticks = 10 (* decided nodes re-push claims this long *)
let epochs = 16 (* sample tags cycle with this period: flat memory *)

let claim_tag = 999_983 (* outside the phase-tag cycle *)

type t = {
  node_id : int;
  net : Transport.t;
  sampler : Sampler.t;
  k : int; (* sample size *)
  tick : float;
  coin_base : int64;
  behavior : behavior;
  rng : Util.Rng.t; (* attacker randomness only *)
  mutable phase : int;
  mutable value : int;
  mutable decided : int option;
  mutable started : bool;
  mutable stopped : bool;
  mutable phase_ticks : int;
  mutable ticks_after_decide : int;
  (* Snow-style confidence: how many consecutive even phases produced
     a decide-grade supermajority for [streak_value] *)
  mutable streak_value : int;
  mutable streak : int;
  (* flat per-phase tallies: a bitset over senders plus two counters,
     reset in place on every phase change — no per-phase allocation *)
  seen : Bytes.t;
  mutable c0 : int;
  mutable c1 : int;
  mutable incoming : int array;
  claim_seen : Bytes.t;
  mutable claim0 : int;
  mutable claim1 : int;
  claim_incoming : int array;
  (* newest STATE heard per sender: phases drift across nodes, so a
     vote for a phase this node has not reached yet is buffered and
     replayed when it gets there (one slot per sender, newest wins) *)
  pending_votes : (int, int * int) Hashtbl.t;
  mutable decide_cb : (value:int -> phase:int -> unit) option;
}

let proto = [ ("proto", "sampled") ]
let msgs_sent = Obs.Metrics.counter ~labels:proto "proto.msgs_sent"
let decisions = Obs.Metrics.counter ~labels:proto "proto.decisions"
let phase_changes = Obs.Metrics.counter ~labels:proto "proto.phase_changes"
let ticks = Obs.Metrics.counter ~labels:proto "proto.ticks"

let create net sampler ~id ~coin_seed ?(tick = 0.02) ?(behavior = Correct) ~proposal () =
  if proposal <> 0 && proposal <> 1 then invalid_arg "Sampled.create: binary values only";
  let n = Sampler.size sampler in
  let k = sample_size ~n in
  {
    node_id = id;
    net;
    sampler;
    k;
    tick;
    coin_base = coin_seed;
    behavior;
    rng = Util.Rng.create ~seed:(Util.Rng.derive ~base:coin_seed [ 0x5ca1ed; id ]);
    phase = 1;
    value = proposal;
    decided = None;
    started = false;
    stopped = false;
    phase_ticks = 0;
    ticks_after_decide = 0;
    streak_value = -1;
    streak = 0;
    seen = Bytes.make ((n + 7) / 8) '\000';
    c0 = 0;
    c1 = 0;
    incoming = [||];
    claim_seen = Bytes.make ((n + 7) / 8) '\000';
    claim0 = 0;
    claim1 = 0;
    claim_incoming =
      Sampler.incoming sampler ~node:id ~tag:claim_tag ~k;
    pending_votes = Hashtbl.create 32;
    decide_cb = None;
  }

let id t = t.node_id
let phase t = t.phase
let decision t = t.decided
let on_decide t f = t.decide_cb <- Some f

let tag phase = phase mod epochs

(* shared coin: every node derives the same bit for a phase *)
let coin t ~phase = Int64.to_int (Util.Rng.derive ~base:t.coin_base [ 0xc0; phase ]) land 1

(* --- bitsets ------------------------------------------------------------ *)

let bit_test b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.set b (i lsr 3) (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

(* --- wire format -------------------------------------------------------- *)

let encode ~kind ~phase ~value =
  let w = Util.Codec.W.create ~capacity:8 () in
  Util.Codec.W.u8 w kind;
  Util.Codec.W.varint w phase;
  Util.Codec.W.u8 w value;
  Util.Codec.W.contents w

let decode raw =
  let r = Util.Codec.R.of_bytes raw in
  let kind = Util.Codec.R.u8 r in
  let phase = Util.Codec.R.varint r in
  let value = Util.Codec.R.u8 r in
  Util.Codec.R.expect_end r;
  (kind, phase, value)

(* the size harness-level capacity math must assume per vote frame
   (phases above 127 grow the varint by a byte — negligible) *)
let state_frame_bytes = Bytes.length (encode ~kind:0 ~phase:1 ~value:1)

(* --- sending ------------------------------------------------------------ *)

let send t ~dst msg =
  Obs.Metrics.incr msgs_sent;
  Transport.send t.net ~src:t.node_id ~dst msg

let push_state t =
  let targets =
    Sampler.sample t.sampler ~owner:t.node_id ~tag:(tag t.phase) ~k:t.k
  in
  match t.behavior with
  | Silent -> ()
  | Correct ->
      let msg = encode ~kind:0 ~phase:t.phase ~value:t.value in
      Array.iter (fun dst -> send t ~dst msg) targets
  | Attacker ->
      Array.iter
        (fun dst -> send t ~dst (encode ~kind:0 ~phase:t.phase ~value:(Util.Rng.coin t.rng)))
        targets
  | Equivocator ->
      let m0 = encode ~kind:0 ~phase:t.phase ~value:0 in
      let m1 = encode ~kind:0 ~phase:t.phase ~value:1 in
      Array.iteri (fun i dst -> send t ~dst (if i land 1 = 0 then m0 else m1)) targets

let push_claims t =
  let targets =
    Sampler.sample t.sampler ~owner:t.node_id ~tag:claim_tag ~k:t.k
  in
  let value =
    match (t.behavior, t.decided) with
    | Correct, Some v -> Some v
    | Attacker, _ -> Some (Util.Rng.coin t.rng)
    | Equivocator, _ -> Some (t.ticks_after_decide land 1)
    | Silent, _ -> None
    | Correct, None -> None
  in
  match value with
  | None -> ()
  | Some v ->
      let msg = encode ~kind:1 ~phase:t.phase ~value:v in
      Array.iter (fun dst -> send t ~dst msg) targets

(* --- phase machinery ---------------------------------------------------- *)

(* the tally universe: the inverse sample plus the node's own vote *)
let tally_size t = Array.length t.incoming + 1

let quorum t = max 1 (int_of_float (ceil (quorum_frac *. float_of_int (tally_size t))))

(* deciding takes the canonical BFT quorum of the WHOLE tally
   universe, never a share of the votes heard so far (a sparse tally's
   heard-fraction hits 1.0 with two votes).  With k members and
   f = (k-1)/3, T = k - f is simultaneously the largest
   liveness-safe threshold (the k - f honest votes alone reach it, a
   withholding adversary cannot block) and agreement-safe: two
   conflicting decisions in one phase need 2T <= k + f votes, and
   2(k - f) > k + f whenever f < k/3.  Full membership at small n
   makes that exact; a random sample satisfies it w.h.p. *)
let decide_quorum t =
  let k = tally_size t in
  k - ((k - 1) / 3)

let claim_quorum t =
  max 2
    (int_of_float (ceil (claim_frac *. float_of_int (Array.length t.claim_incoming))))

let decide t v =
  if t.decided = None then begin
    t.decided <- Some v;
    t.value <- v;
    Obs.Metrics.incr decisions;
    (match t.decide_cb with Some f -> f ~value:v ~phase:t.phase | None -> ());
    push_claims t
  end

let member sample id = Array.exists (fun x -> x = id) sample

let count_vote t ~src ~value =
  if member t.incoming src && not (bit_test t.seen src) then begin
    bit_set t.seen src;
    if value = 0 then t.c0 <- t.c0 + 1 else t.c1 <- t.c1 + 1;
    true
  end
  else false

let rec enter_phase t phase =
  t.phase <- phase;
  t.phase_ticks <- 0;
  Bytes.fill t.seen 0 (Bytes.length t.seen) '\000';
  (* own vote first: the self-excluded variant lets two equal camps
     each see the other as a strict majority and swap values forever *)
  if t.value = 0 then begin t.c0 <- 1; t.c1 <- 0 end
  else begin t.c0 <- 0; t.c1 <- 1 end;
  t.incoming <-
    Sampler.incoming t.sampler ~node:t.node_id ~tag:(tag phase) ~k:t.k;
  Obs.Metrics.incr phase_changes;
  (* replay buffered votes from senders already in this phase *)
  Array.iter
    (fun src ->
      match Hashtbl.find_opt t.pending_votes src with
      | Some (p, value) when p = phase -> ignore (count_vote t ~src ~value)
      | Some _ | None -> ())
    t.incoming;
  push_state t;
  maybe_advance t ~forced:false

and maybe_advance t ~forced =
  if t.decided = None && not t.stopped then begin
    let tot = t.c0 + t.c1 in
    (* evaluate on a complete tally, or when patience ran out with at
       least a quorum heard; a forced sub-quorum tally only re-enters
       (keeping the value) so a trickle of adversarial votes cannot
       steer adoption *)
    if tot > 0 && (tot >= tally_size t || (forced && tot >= quorum t)) then begin
      let b, cb = if t.c1 >= t.c0 then (1, t.c1) else (0, t.c0) in
      let frac = float_of_int cb /. float_of_int tot in
      if t.phase land 1 = 1 then t.value <- b
      else if cb >= decide_quorum t then begin
        (* a decide-grade supermajority must repeat [confidence] even
           phases in a row: while the population is genuinely split,
           one skewed sample certifies either value a few percent of
           the time, and n nodes draw n samples per phase *)
        if t.streak_value = b then t.streak <- t.streak + 1
        else begin
          t.streak_value <- b;
          t.streak <- 1
        end;
        if t.streak >= confidence then decide t b else t.value <- b
      end
      else if cb >= decide_quorum t - ((tally_size t - 1) / 3) then begin
        (* f-aware coin gate: cb votes for b could be the remnant of a
           decision certificate seen elsewhere (T - f of it survives
           any f Byzantine members), so adopt rather than risk coining
           away from a value some node has already decided *)
        t.streak <- 0;
        t.value <- b
      end
      else begin
        t.streak <- 0;
        if frac >= adopt_frac then t.value <- b
        else t.value <- coin t ~phase:t.phase
      end;
      if t.decided = None then
        if t.phase >= max_phases then t.stopped <- true
        else enter_phase t (t.phase + 1)
    end
    else if forced then begin
      (* heard too little. Advancing blind would outrun our own queued
         traffic (the n=64 failure mode over a saturated MAC), so only
         move when the buffered votes prove the herd is ahead — jump to
         the smallest phase a majority of buffered senders has passed —
         and otherwise stay put and keep re-pushing *)
      let ahead, target =
        Hashtbl.fold
          (fun _ (p, _) (count, lo) ->
            if p > t.phase then (count + 1, min lo p) else (count, lo))
          t.pending_votes (0, max_int)
      in
      if 2 * ahead >= Array.length t.incoming && target < max_int then begin
        if target > max_phases then t.stopped <- true
        else enter_phase t target
      end
    end
  end

(* --- receiving ---------------------------------------------------------- *)

let on_state t ~src ~phase ~value =
  if t.decided = None && phase >= t.phase && (value = 0 || value = 1) then begin
    (match Hashtbl.find_opt t.pending_votes src with
    | Some (p, _) when p > phase -> ()
    | Some _ | None -> Hashtbl.replace t.pending_votes src (phase, value));
    if phase = t.phase && count_vote t ~src ~value then maybe_advance t ~forced:false
  end

let on_claim t ~src ~value =
  if t.decided = None && (value = 0 || value = 1)
     && member t.claim_incoming src
     && not (bit_test t.claim_seen src)
  then begin
    bit_set t.claim_seen src;
    if value = 0 then t.claim0 <- t.claim0 + 1 else t.claim1 <- t.claim1 + 1;
    let q = claim_quorum t in
    if t.claim0 >= q then decide t 0 else if t.claim1 >= q then decide t 1
  end

let on_message t ~src raw =
  match decode raw with
  | exception (Util.Codec.Malformed _ | Util.Codec.Truncated) -> ()
  | 0, phase, value -> on_state t ~src ~phase ~value
  | 1, _, value -> on_claim t ~src ~value
  | _ -> ()

(* --- ticks -------------------------------------------------------------- *)

let rec arm t = Transport.timer t.net ~node:t.node_id ~delay:t.tick (fun () -> on_tick t)

and on_tick t =
  if not t.stopped then begin
    Obs.Metrics.incr ticks;
    (match t.decided with
    | Some _ ->
        t.ticks_after_decide <- t.ticks_after_decide + 1;
        if t.ticks_after_decide <= linger_ticks then begin
          (* beacon: besides claims, keep voting the decided value
             through successive phases so laggards tally it as STATE
             instead of coining away once the deciders fall silent *)
          push_claims t;
          t.phase <- t.phase + 1;
          push_state t
        end
        else t.stopped <- true (* linger over: go quiet, let the engine drain *)
    | None ->
        t.phase_ticks <- t.phase_ticks + 1;
        if t.phase_ticks >= patience then maybe_advance t ~forced:true
        else push_state t (* re-push against loss *));
    if not t.stopped then arm t
  end

let start t =
  if not t.started then begin
    t.started <- true;
    Transport.register t.net ~node:t.node_id (fun ~src raw -> on_message t ~src raw);
    enter_phase t 1;
    arm t
  end
