type behavior = Correct | Attacker

(* A protocol payload: (round, step, value, dflag). The d-flag is
   Bracha's "decision proposal" marker, legal only in step-2 messages. *)
type payload = { round : int; step : int; value : int; dflag : bool }

type rb_kind = Init | Echo | Ready

type rb_message = { kind : rb_kind; origin : int; body : payload }

(* Per reliable-broadcast instance bookkeeping. An instance is keyed by
   (origin, round, step): a correct origin broadcasts once per step. *)
type rb_state = {
  mutable echoed : bool;
  mutable readied : bool;
  mutable rb_delivered : bool;
  echoes : (int, payload) Hashtbl.t;  (* echoing process -> body *)
  readies : (int, payload) Hashtbl.t;
}

type t = {
  node : Net.Node.t;
  link : Net.Rlink.t;
  n : int;
  f : int;
  behavior : behavior;
  mutable proposal : int;
  mutable round_i : int;
  mutable step_i : int;
  mutable v_i : int;
  mutable dflag_i : bool;
  mutable decision : int option;
  mutable decided_round : int;
  (* validated step messages: (round, step) -> origin -> payload *)
  collected : (int * int, (int, payload) Hashtbl.t) Hashtbl.t;
  (* RB-delivered but not yet justified by the validated set *)
  pending : (int * int * int, payload) Hashtbl.t;
  rb_instances : (int * int * int, rb_state) Hashtbl.t;
  mutable decide_cb : (value:int -> round:int -> unit) option;
  mutable started : bool;
}

let id t = Net.Node.id t.node
let decision t = t.decision
let round t = t.round_i
let on_decide t f = t.decide_cb <- Some f

let encode_rb m =
  let w = Util.Codec.W.create ~capacity:16 () in
  Util.Codec.W.u8 w (match m.kind with Init -> 0 | Echo -> 1 | Ready -> 2);
  Util.Codec.W.u16 w m.origin;
  Util.Codec.W.varint w m.body.round;
  Util.Codec.W.u8 w m.body.step;
  Util.Codec.W.u8 w m.body.value;
  Util.Codec.W.u8 w (if m.body.dflag then 1 else 0);
  Util.Codec.W.contents w

let decode_rb b =
  let r = Util.Codec.R.of_bytes b in
  let kind =
    match Util.Codec.R.u8 r with
    | 0 -> Init
    | 1 -> Echo
    | 2 -> Ready
    | _ -> raise (Util.Codec.Malformed "rb kind")
  in
  let origin = Util.Codec.R.u16 r in
  let round = Util.Codec.R.varint r in
  let step = Util.Codec.R.u8 r in
  let value = Util.Codec.R.u8 r in
  let dflag = Util.Codec.R.u8 r = 1 in
  Util.Codec.R.expect_end r;
  { kind; origin; body = { round; step; value; dflag } }

(* a step message is structurally plausible iff the value is binary and
   the d-flag appears only in step 2 *)
let plausible body =
  body.round >= 1
  && body.step >= 0 && body.step <= 2
  && (body.value = 0 || body.value = 1)
  && ((not body.dflag) || body.step = 2)

let proto = [ ("proto", "bracha") ]
let msgs_sent = Obs.Metrics.counter ~labels:proto "proto.msgs_sent"
let rb_casts = Obs.Metrics.counter ~labels:proto "proto.rb_casts"
let decisions = Obs.Metrics.counter ~labels:proto "proto.decisions"
let coin_flips = Obs.Metrics.counter ~labels:proto "proto.coin_flips"
let round_changes = Obs.Metrics.counter ~labels:proto "proto.round_changes"

let send_to_all t raw =
  (* self-delivery is local; the transport carries the other n-1 copies *)
  for dst = 0 to t.n - 1 do
    if dst <> id t then begin
      Obs.Metrics.incr msgs_sent;
      Net.Rlink.send t.link ~dst raw
    end
  done

let rb_state t key =
  match Hashtbl.find_opt t.rb_instances key with
  | Some s -> s
  | None ->
      let s =
        {
          echoed = false;
          readied = false;
          rb_delivered = false;
          echoes = Hashtbl.create 8;
          readies = Hashtbl.create 8;
        }
      in
      Hashtbl.add t.rb_instances key s;
      s

let collected_row t ~round ~step =
  let key = (round, step) in
  match Hashtbl.find_opt t.collected key with
  | Some row -> row
  | None ->
      let row = Hashtbl.create 8 in
      Hashtbl.add t.collected key row;
      row

let majority_value row =
  let zeros = ref 0 and ones = ref 0 in
  Hashtbl.iter (fun _ (p : payload) -> if p.value = 0 then incr zeros else incr ones) row;
  if !ones >= !zeros then 1 else 0

let count_with row predicate =
  Hashtbl.fold (fun _ p acc -> if predicate p then acc + 1 else acc) row 0

(* --- message validation -------------------------------------------------

   Bracha's validity mechanism: a step message is accepted only when the
   already-validated messages of the previous step justify it — i.e.,
   some (n-f)-subset of them could have driven a correct process to send
   it. Deliveries that cannot be justified yet wait in a pending pool
   and are re-examined as the validated set grows (reliable broadcast
   guarantees everyone eventually validates the same supports). *)

let majority_min t = ((t.n - t.f) / 2) + 1

let count_value t ~round ~step value =
  let row = collected_row t ~round ~step in
  count_with row (fun p -> p.value = value)

let count_dflag t ~round value =
  let row = collected_row t ~round ~step:2 in
  count_with row (fun p -> p.dflag && p.value = value)

(* could some (n-f)-subset of validated step-2 messages of [round] have
   had at most f d-flags for every value (forcing a coin flip)? *)
let coin_possible t ~round =
  let row = collected_row t ~round ~step:2 in
  let nod = count_with row (fun p -> not p.dflag) in
  let d0 = count_with row (fun p -> p.dflag && p.value = 0) in
  let d1 = count_with row (fun p -> p.dflag && p.value = 1) in
  nod + min t.f d0 + min t.f d1 >= t.n - t.f

let justified t body =
  match t.behavior with
  | Attacker -> true  (* the adversary tracks the real state regardless *)
  | Correct -> begin
      match body.step with
      | 0 ->
          body.round = 1
          || count_dflag t ~round:(body.round - 1) body.value >= t.f + 1
          || coin_possible t ~round:(body.round - 1)
      | 1 -> count_value t ~round:body.round ~step:0 body.value >= majority_min t
      | _ ->
          let support = count_value t ~round:body.round ~step:1 body.value in
          if body.dflag then 2 * support > t.n else support >= majority_min t
    end

(* --- consensus state machine ------------------------------------------- *)

let rec rb_cast t body =
  Obs.Metrics.incr rb_casts;
  let self = id t in
  send_to_all t (encode_rb { kind = Init; origin = self; body });
  (* local shortcut: our own INITIAL reaches us instantly *)
  handle_rb t ~src:self { kind = Init; origin = self; body }

and deliver t origin body =
  let row = collected_row t ~round:body.round ~step:body.step in
  if not (Hashtbl.mem row origin) && not (Hashtbl.mem t.pending (origin, body.round, body.step))
  then begin
    Hashtbl.replace t.pending (origin, body.round, body.step) body;
    drain_pending t
  end

and drain_pending t =
  let progress = ref true in
  let admitted = ref false in
  while !progress do
    progress := false;
    let entries = Hashtbl.fold (fun key body acc -> (key, body) :: acc) t.pending [] in
    let entries =
      List.sort
        (fun ((_, r1, s1), _) ((_, r2, s2), _) -> compare (r1, s1) (r2, s2))
        entries
    in
    List.iter
      (fun ((origin, _, _) as key, body) ->
        if justified t body then begin
          Hashtbl.remove t.pending key;
          let row = collected_row t ~round:body.round ~step:body.step in
          if not (Hashtbl.mem row origin) then begin
            Hashtbl.replace row origin body;
            admitted := true;
            progress := true
          end
        end)
      entries
  done;
  if !admitted then try_advance t

and try_advance t =
  let row = collected_row t ~round:t.round_i ~step:t.step_i in
  if Hashtbl.length row >= t.n - t.f then begin
    (match t.step_i with
    | 0 ->
        t.v_i <- majority_value row;
        t.dflag_i <- false;
        t.step_i <- 1
    | 1 ->
        let winner =
          let candidate = majority_value row in
          if 2 * count_with row (fun p -> p.value = candidate) > t.n then Some candidate
          else None
        in
        (match winner with
        | Some w ->
            t.v_i <- w;
            t.dflag_i <- true
        | None ->
            t.v_i <- majority_value row;
            t.dflag_i <- false);
        t.step_i <- 2
    | _ ->
        let d_count w = count_with row (fun p -> p.dflag && p.value = w) in
        let best_w = if d_count 1 >= d_count 0 then 1 else 0 in
        let d_best = d_count best_w in
        if d_best >= (2 * t.f) + 1 then begin
          t.v_i <- best_w;
          if t.decision = None then begin
            t.decision <- Some best_w;
            t.decided_round <- t.round_i;
            Obs.Metrics.incr decisions;
            if Obs.Trace2.enabled () then
              Obs.Trace2.emit
                ~time:(Net.Engine.now (Net.Node.engine t.node))
                ~node:(id t) ~layer:"bracha" ~label:"decide"
                [ ("value", Obs.Trace2.I best_w); ("round", Obs.Trace2.I t.round_i) ];
            match t.decide_cb with
            | Some cb -> cb ~value:best_w ~round:t.round_i
            | None -> ()
          end
        end
        else if d_best >= t.f + 1 then t.v_i <- best_w
        else begin
          Obs.Metrics.incr coin_flips;
          t.v_i <- Util.Rng.coin (Net.Node.rng t.node)
        end;
        t.dflag_i <- false;
        t.round_i <- t.round_i + 1;
        Obs.Metrics.incr round_changes;
        if Obs.Trace2.enabled () then
          Obs.Trace2.emit
            ~time:(Net.Engine.now (Net.Node.engine t.node))
            ~node:(id t) ~layer:"bracha" ~label:"round"
            [ ("round", Obs.Trace2.I t.round_i) ];
        t.step_i <- 0);
    broadcast_current t;
    try_advance t
  end

and broadcast_current t =
  let value, dflag =
    match t.behavior with
    | Correct -> (t.v_i, t.dflag_i)
    | Attacker -> (1 - t.v_i, false)  (* flip everywhere, never d-flag *)
  in
  let body = { round = t.round_i; step = t.step_i; value; dflag } in
  (* a correct process trusts its own transition *)
  let row = collected_row t ~round:body.round ~step:body.step in
  if not (Hashtbl.mem row (id t)) then Hashtbl.replace row (id t) body;
  rb_cast t body

(* --- reliable broadcast ------------------------------------------------- *)

and handle_rb t ~src message =
  let body = message.body in
  if plausible body && message.origin >= 0 && message.origin < t.n then begin
    let key = (message.origin, body.round, body.step) in
    let st = rb_state t key in
    let self = id t in
    (match message.kind with
    | Init ->
        (* only the origin may initiate *)
        if src = message.origin && not st.echoed then begin
          st.echoed <- true;
          send_to_all t (encode_rb { kind = Echo; origin = message.origin; body });
          handle_rb t ~src:self { kind = Echo; origin = message.origin; body }
        end
    | Echo ->
        if not (Hashtbl.mem st.echoes src) then begin
          Hashtbl.replace st.echoes src body;
          let matching = count_with st.echoes (fun p -> p = body) in
          if 2 * matching > t.n + t.f && not st.readied then begin
            st.readied <- true;
            send_to_all t (encode_rb { kind = Ready; origin = message.origin; body });
            handle_rb t ~src:self { kind = Ready; origin = message.origin; body }
          end
        end
    | Ready ->
        if not (Hashtbl.mem st.readies src) then begin
          Hashtbl.replace st.readies src body;
          let matching = count_with st.readies (fun p -> p = body) in
          if matching >= t.f + 1 && not st.readied then begin
            st.readied <- true;
            send_to_all t (encode_rb { kind = Ready; origin = message.origin; body });
            handle_rb t ~src:self { kind = Ready; origin = message.origin; body }
          end;
          let matching = count_with st.readies (fun p -> p = body) in
          if matching >= (2 * t.f) + 1 && not st.rb_delivered then begin
            st.rb_delivered <- true;
            deliver t message.origin body
          end
        end)
  end

let create node ~n ~f ?(behavior = Correct) ?(port = 700) ~proposal () =
  if n <= 3 * f then invalid_arg "Bracha.create: need n > 3f";
  if proposal <> 0 && proposal <> 1 then invalid_arg "Bracha.create: binary proposals only";
  let link =
    Net.Rlink.create (Net.Node.engine node) (Net.Node.datagram node) (Net.Node.cpu node)
      ~auth:true ~port ()
  in
  let t =
    {
      node;
      link;
      n;
      f;
      behavior;
      proposal;
      round_i = 1;
      step_i = 0;
      v_i = proposal;
      dflag_i = false;
      decision = None;
      decided_round = 0;
      collected = Hashtbl.create 32;
      pending = Hashtbl.create 32;
      rb_instances = Hashtbl.create 64;
      decide_cb = None;
      started = false;
    }
  in
  t

let start t =
  if not t.started then begin
    t.started <- true;
    Net.Rlink.on_receive t.link (fun ~src raw ->
        match decode_rb raw with
        | exception (Util.Codec.Malformed _ | Util.Codec.Truncated) -> ()
        | message -> handle_rb t ~src message);
    broadcast_current t
  end
