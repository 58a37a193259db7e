(* Flat representation: rows of compact indices into the per-run
   interned message store instead of [Message.t option array] per
   phase. 0 marks an empty slot; any other entry is a 1-based
   [Msgstore] index. Structurally equal messages — the same
   justification entry re-embedded in many frames — resolve to one
   stored copy shared by every V set of the run. *)

type t = {
  n : int;
  store : Msgstore.t;
  by_phase : (int, int array) Hashtbl.t;
  (* additional differently-valued copies per (sender, phase): an
     equivocating sender's other messages. At most one stored copy per
     value, so a slot holds <= 3 messages total. *)
  extras : (int * int, int list) Hashtbl.t;
  (* incremental tallies — Validation probes count_phase/count_value on
     every candidate message, so the counts are maintained on insert
     instead of rescanning the phase row. Messages are never removed,
     so increments suffice. *)
  phase_tally : (int, int) Hashtbl.t;        (* phase -> senders with a primary *)
  value_tally : (int * int, int) Hashtbl.t;  (* (phase, value code) -> supporters *)
  mutable highest : Message.t option;
  mutable total : int;
  (* bumped on every successful insert: the cheap invalidation key for
     downstream memos (the machine's justification/envelope cache) *)
  mutable version : int;
}

let create ~n =
  {
    n;
    store = Msgstore.current ();
    by_phase = Hashtbl.create 32;
    extras = Hashtbl.create 4;
    phase_tally = Hashtbl.create 32;
    value_tally = Hashtbl.create 32;
    highest = None;
    total = 0;
    version = 0;
  }

let version t = t.version
let store t = t.store

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let row t phase =
  match Hashtbl.find_opt t.by_phase phase with
  | Some slots -> slots
  | None ->
      let slots = Array.make t.n 0 in
      Hashtbl.add t.by_phase phase slots;
      slots

let copies t ~sender ~phase =
  let primary =
    match Hashtbl.find_opt t.by_phase phase with
    | None -> []
    | Some slots ->
        if sender >= 0 && sender < t.n && slots.(sender) <> 0 then
          [ Msgstore.get t.store slots.(sender) ]
        else []
  in
  primary
  @ List.map (Msgstore.get t.store)
      (Option.value ~default:[] (Hashtbl.find_opt t.extras (sender, phase)))

let add_unprofiled t (m : Message.t) =
  if m.sender < 0 || m.sender >= t.n then false
  else begin
    let slots = row t m.phase in
    if slots.(m.sender) = 0 then begin
      slots.(m.sender) <- Msgstore.admit t.store m;
      t.total <- t.total + 1;
      t.version <- t.version + 1;
      bump t.phase_tally m.phase;
      bump t.value_tally (m.phase, Proto.value_to_int m.value);
      (match t.highest with
      | Some h when h.phase >= m.phase -> ()
      | Some _ | None -> t.highest <- Some m);
      true
    end
    else begin
      (* a second copy is retained only when it carries a value not
         seen from this (sender, phase) yet: distinct messages from an
         equivocating sender are all in V (the paper's V_i is a set of
         messages), but each extra value can support a validation rule
         at most once *)
      let stored = copies t ~sender:m.sender ~phase:m.phase in
      if List.exists (fun (c : Message.t) -> Proto.value_equal c.value m.value) stored
      then false
      else begin
        Hashtbl.replace t.extras (m.sender, m.phase)
          (Msgstore.admit t.store m
          :: Option.value ~default:[] (Hashtbl.find_opt t.extras (m.sender, m.phase)));
        t.total <- t.total + 1;
        t.version <- t.version + 1;
        (* an extra always sits next to a primary from the same
           sender, so the phase tally is unchanged; the sender now
           additionally supports this (previously unseen) value *)
        bump t.value_tally (m.phase, Proto.value_to_int m.value);
        true
      end
    end
  end

let add t (m : Message.t) =
  let sp = Obs.Prof.start () in
  let inserted = add_unprofiled t m in
  Obs.Prof.stop Obs.Prof.vset_tally sp;
  inserted

(* The store is append-only and shared by reference: cloning only
   copies the index rows and tallies. *)
let clone t =
  let by_phase = Hashtbl.create (Hashtbl.length t.by_phase) in
  Hashtbl.iter (fun phase slots -> Hashtbl.add by_phase phase (Array.copy slots)) t.by_phase;
  {
    n = t.n;
    store = t.store;
    by_phase;
    extras = Hashtbl.copy t.extras;
    phase_tally = Hashtbl.copy t.phase_tally;
    value_tally = Hashtbl.copy t.value_tally;
    highest = t.highest;
    total = t.total;
    version = t.version;
  }

(* Canonical serialization for state fingerprinting: phases ascending,
   then per phase each sender's primary followed by its extras in stored
   order. The extras order is preserved (not sorted) because it shapes
   [copies]/[messages_at] and hence justification bundles — two states
   may only share a fingerprint when their future behavior is
   identical. Proof bytes are omitted: given fixed key material they are
   a function of the header. *)
let canonical t buf =
  let header (m : Message.t) =
    Buffer.add_string buf
      (Printf.sprintf "%d.%d.%d.%d.%d;" m.sender m.phase (Proto.value_to_int m.value)
         (match m.origin with Proto.Deterministic -> 0 | Proto.Random -> 1)
         (match m.status with Proto.Undecided -> 0 | Proto.Decided -> 1))
  in
  let phases = Hashtbl.fold (fun phase _ acc -> phase :: acc) t.by_phase [] in
  List.iter
    (fun phase ->
      Buffer.add_string buf (Printf.sprintf "|p%d:" phase);
      let slots = Hashtbl.find t.by_phase phase in
      Array.iteri
        (fun sender idx ->
          if idx <> 0 then begin
            header (Msgstore.get t.store idx);
            List.iter
              (fun i -> header (Msgstore.get t.store i))
              (Option.value ~default:[] (Hashtbl.find_opt t.extras (sender, phase)))
          end)
        slots)
    (List.sort Int.compare phases)

let find t ~sender ~phase =
  match Hashtbl.find_opt t.by_phase phase with
  | None -> None
  | Some slots ->
      if sender >= 0 && sender < t.n && slots.(sender) <> 0 then
        Some (Msgstore.get t.store slots.(sender))
      else None

let mem t ~sender ~phase = find t ~sender ~phase <> None

let copy_index t (m : Message.t) =
  match Hashtbl.find_opt t.by_phase m.phase with
  | Some slots when m.sender >= 0 && m.sender < t.n && slots.(m.sender) <> 0 -> (
      let same idx = Message.header_equal m (Msgstore.get t.store idx) in
      if same slots.(m.sender) then slots.(m.sender)
      else
        match Hashtbl.find_opt t.extras (m.sender, m.phase) with
        | Some extras -> Option.value ~default:0 (List.find_opt same extras)
        | None -> 0)
  | Some _ | None -> 0

let mem_copy t m = copy_index t m <> 0

let fold_phase t phase f acc =
  match Hashtbl.find_opt t.by_phase phase with
  | None -> acc
  | Some slots ->
      Array.fold_left
        (fun acc idx -> if idx = 0 then acc else f acc (Msgstore.get t.store idx))
        acc slots

let count_phase t ~phase =
  Option.value ~default:0 (Hashtbl.find_opt t.phase_tally phase)

let count_value t ~phase ~value =
  (* distinct senders with ANY copy carrying [value]: an equivocating
     sender supports every value it signed. Stored copies are
     value-distinct per (sender, phase), so each sender bumps a value's
     tally at most once. *)
  Option.value ~default:0 (Hashtbl.find_opt t.value_tally (phase, Proto.value_to_int value))

let messages_at t ~phase =
  match Hashtbl.find_opt t.by_phase phase with
  | None -> []
  | Some slots ->
      let out = ref [] in
      for sender = t.n - 1 downto 0 do
        if slots.(sender) <> 0 then out := copies t ~sender ~phase @ !out
      done;
      !out

let majority_value t ~phase =
  let zeros = count_value t ~phase ~value:Proto.V0 in
  let ones = count_value t ~phase ~value:Proto.V1 in
  if zeros = 0 && ones = 0 then invalid_arg "Vset.majority_value: no binary values at phase";
  if ones >= zeros then Proto.V1 else Proto.V0

let some_binary_value t ~phase =
  fold_phase t phase
    (fun acc (m : Message.t) ->
      match acc with
      | Some _ -> acc
      | None -> ( match m.value with Proto.V0 | Proto.V1 -> Some m.value | Proto.Vbot -> None))
    None

let max_phase t = match t.highest with Some m -> m.phase | None -> 0
let highest_message t = t.highest
let size t = t.total
