type rule = Phase | Value | Status

(* What a failed rule saw, rendered into text only on request by
   {!describe}: rejection is the common case on the receive path, and
   nothing there reads the text. *)
type failure =
  | Phase_below_one of int
  | Phase_beyond_horizon of int
  | Phase_support of { phase : int; support : int }
  | Bot_at_binary_phase of int
  | Coin_at_binary_phase of int
  | Value_support of { kind : Proto.phase_kind; value : Proto.value; support : int; at : int }
  | Decide_coin
  | Bot_split of { at : int; zeros : int; ones : int }
  | Converge_bot
  | Coin_support of { bots : int; at : int }
  | Undecided_split of { phase : int; at : int; zeros : int; ones : int }
  | Decided_bot
  | Decided_early
  | Decided_support of { value : Proto.value; phase : int }

type verdict = (unit, failure) result

let rule = function
  | Phase_below_one _ | Phase_beyond_horizon _ | Phase_support _ -> Phase
  | Bot_at_binary_phase _ | Coin_at_binary_phase _ | Value_support _ | Decide_coin | Bot_split _
  | Converge_bot | Coin_support _ ->
      Value
  | Undecided_split _ | Decided_bot | Decided_early | Decided_support _ -> Status

let rule_name = function Phase -> "phase" | Value -> "value" | Status -> "status"

let describe = function
  | Phase_below_one phase -> Printf.sprintf "phase %d below 1" phase
  | Phase_beyond_horizon phase -> Printf.sprintf "phase %d beyond key horizon" phase
  | Phase_support { phase; support } ->
      Printf.sprintf "phase %d: only %d messages at phase %d" phase support (phase - 1)
  | Bot_at_binary_phase phase -> Printf.sprintf "phase %d cannot carry bot" phase
  | Coin_at_binary_phase phase -> Printf.sprintf "phase %d cannot carry a coin value" phase
  | Value_support { kind; value; support; at } ->
      Printf.sprintf "%s value %s: %d supporters at phase %d"
        (match kind with Proto.Lock -> "lock" | Proto.Decide -> "decide" | Proto.Converge -> "converge")
        (Proto.value_to_string value) support at
  | Decide_coin -> "decide-phase value cannot be a coin value"
  | Bot_split { at; zeros; ones } -> Printf.sprintf "bot value: split at phase %d is %d/%d" at zeros ones
  | Converge_bot -> "converge-phase message cannot carry bot"
  | Coin_support { bots; at } -> Printf.sprintf "coin value: only %d bot messages at phase %d" bots at
  | Undecided_split { phase; at; zeros; ones } ->
      Printf.sprintf "undecided at phase %d: split at %d is %d/%d and no bot witness" phase at
        zeros ones
  | Decided_bot -> "decided message cannot carry bot"
  | Decided_early -> "no process can decide before phase 3"
  | Decided_support { value; phase } ->
      Printf.sprintf "decided %s at phase %d lacks a deciding quorum" (Proto.value_to_string value)
        phase

(* Closed forms of "the largest p < phi with p mod 3 = r" (0 when none
   exists). Lock phases are p ≡ 2 (mod 3) starting at 2; decide phases
   are p ≡ 0 (mod 3) starting at 3. Starting from m = phi - 1, subtract
   m's residue distance to the target class; test_validation checks
   both against the recursive descent exhaustively for phi = 1..200. *)
let highest_lock_phase_below phi =
  let m = phi - 1 in
  if m < 2 then 0 else m - ((m - 2) mod 3)

let highest_decide_phase_below phi =
  let m = phi - 1 in
  if m < 3 then 0 else m - (m mod 3)

let check_phase cfg v (m : Message.t) =
  if m.phase < 1 then Error (Phase_below_one m.phase)
  else if m.phase > cfg.Proto.max_phases then Error (Phase_beyond_horizon m.phase)
  else if m.phase = 1 then Ok ()
  else begin
    let support = Vset.count_phase v ~phase:(m.phase - 1) in
    if Proto.quorum_exceeded cfg support then Ok ()
    else Error (Phase_support { phase = m.phase; support })
  end

let binary_with_det (m : Message.t) k =
  match (m.value, m.origin) with
  | Proto.Vbot, _ -> Error (Bot_at_binary_phase m.phase)
  | (Proto.V0 | Proto.V1), Proto.Random -> Error (Coin_at_binary_phase m.phase)
  | (Proto.V0 | Proto.V1), Proto.Deterministic -> k m.value

let check_value cfg v (m : Message.t) =
  if m.phase = 1 then binary_with_det m (fun _ -> Ok ())
  else begin
    match Proto.kind_of_phase m.phase with
    | Proto.Lock ->
        binary_with_det m (fun value ->
            let support = Vset.count_value v ~phase:(m.phase - 1) ~value in
            if Proto.half_quorum_exceeded cfg support then Ok ()
            else Error (Value_support { kind = Proto.Lock; value; support; at = m.phase - 1 }))
    | Proto.Decide -> begin
        match (m.value, m.origin) with
        | _, Proto.Random -> Error Decide_coin
        | Proto.Vbot, Proto.Deterministic ->
            let zeros = Vset.count_value v ~phase:(m.phase - 2) ~value:Proto.V0 in
            let ones = Vset.count_value v ~phase:(m.phase - 2) ~value:Proto.V1 in
            if Proto.half_quorum_exceeded cfg zeros && Proto.half_quorum_exceeded cfg ones then
              Ok ()
            else Error (Bot_split { at = m.phase - 2; zeros; ones })
        | ((Proto.V0 | Proto.V1) as value), Proto.Deterministic ->
            let support = Vset.count_value v ~phase:(m.phase - 1) ~value in
            if Proto.quorum_exceeded cfg support then Ok ()
            else Error (Value_support { kind = Proto.Decide; value; support; at = m.phase - 1 })
      end
    | Proto.Converge -> begin
        match (m.value, m.origin) with
        | Proto.Vbot, _ -> Error Converge_bot
        | ((Proto.V0 | Proto.V1) as value), Proto.Deterministic ->
            let support = Vset.count_value v ~phase:(m.phase - 2) ~value in
            if Proto.quorum_exceeded cfg support then Ok ()
            else Error (Value_support { kind = Proto.Converge; value; support; at = m.phase - 2 })
        | (Proto.V0 | Proto.V1), Proto.Random ->
            let bots = Vset.count_value v ~phase:(m.phase - 1) ~value:Proto.Vbot in
            if Proto.quorum_exceeded cfg bots then Ok ()
            else Error (Coin_support { bots; at = m.phase - 1 })
      end
  end

let decided_support cfg v (m : Message.t) =
  (* [Q] support for the decided value at some DECIDE phase <= m.phase *)
  let rec go phi0 =
    if phi0 < 3 then false
    else
      Proto.quorum_exceeded cfg (Vset.count_value v ~phase:phi0 ~value:m.value)
      || go (phi0 - 3)
  in
  go (m.phase - (m.phase mod 3))

let check_status cfg v (m : Message.t) =
  match m.status with
  | Proto.Undecided ->
      if m.phase <= 3 then Ok ()
      else begin
        (* The paper's rule: a 0/1 split of more than (n+f)/4 each at the
           highest LOCK phase below φ. Taken alone that rule deadlocks in
           reachable executions (a single process converging to the
           minority value yields honest ⊥ and undecided messages with no
           such split), so we also accept the transitive witness: a valid
           ⊥ message at the highest DECIDE phase below φ, which itself
           required a 0/1 split at the correct earlier phase. A Byzantine
           process still cannot fabricate either witness after a
           unanimous phase (f ≤ (n+f)/4 for n > 3f). *)
        let phi' = highest_lock_phase_below m.phase in
        let zeros = Vset.count_value v ~phase:phi' ~value:Proto.V0 in
        let ones = Vset.count_value v ~phase:phi' ~value:Proto.V1 in
        let split_witness =
          Proto.half_quorum_exceeded cfg zeros && Proto.half_quorum_exceeded cfg ones
        in
        let bot_witness =
          let phi0 = highest_decide_phase_below m.phase in
          phi0 >= 3 && Vset.count_value v ~phase:phi0 ~value:Proto.Vbot >= 1
        in
        if split_witness || bot_witness then Ok ()
        else Error (Undecided_split { phase = m.phase; at = phi'; zeros; ones })
      end
  | Proto.Decided -> begin
      match m.value with
      | Proto.Vbot -> Error Decided_bot
      | Proto.V0 | Proto.V1 ->
          if m.phase <= 3 then Error Decided_early
          else if decided_support cfg v m then Ok ()
          else Error (Decided_support { value = m.value; phase = m.phase })
    end

let rejected =
  let declare rule = Obs.Metrics.counter ~labels:[ ("rule", rule_name rule) ] "validation.rejected" in
  let phase = declare Phase and value = declare Value and status = declare Status in
  function Phase -> phase | Value -> value | Status -> status

let accepted = Obs.Metrics.counter "validation.accepted"

let semantic_check cfg v m =
  let verdict =
    match check_phase cfg v m with
    | Ok () -> ( match check_value cfg v m with Ok () -> check_status cfg v m | bad -> bad)
    | bad -> bad
  in
  (match verdict with
  | Ok () -> Obs.Metrics.incr accepted
  | Error failure -> Obs.Metrics.incr (rejected (rule failure)));
  verdict

let is_valid cfg v m = Result.is_ok (semantic_check cfg v m)
