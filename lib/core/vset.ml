(* Flat representation: rows of compact indices into the per-run
   interned message store instead of [Message.t option array] per
   phase. 0 marks an empty slot; any other entry is a 1-based
   [Msgstore] index. Structurally equal messages — the same
   justification entry re-embedded in many frames — resolve to one
   stored copy shared by every V set of the run. *)

(* One phase's row, found by indexing an array spine with the phase.
   [slots] holds each sender's primary; [extras] holds an equivocating
   sender's additional differently-valued copies, newest first — at
   most one stored copy per value, so a slot holds <= 3 messages. The
   tallies are maintained on insert instead of rescanning the row,
   because Validation probes count_phase/count_value on every candidate
   message; messages are never removed, so increments suffice. *)
type row = {
  slots : int array;
  mutable extras : int list array;  (* [||] until the phase's first extra *)
  mutable senders : int;  (* senders with a primary *)
  supporters : int array;  (* value code -> senders with a copy of it *)
}

type t = {
  n : int;
  store : Msgstore.t;
  mutable rows : row option array;  (* by phase; None = nothing stored *)
  mutable highest : Message.t option;
  mutable total : int;
}

let create ~n =
  {
    n;
    store = Msgstore.current ();
    rows = Array.make 8 None;
    highest = None;
    total = 0;
  }

let store t = t.store

let row_at t phase =
  if phase >= 0 && phase < Array.length t.rows then t.rows.(phase) else None

let row t phase =
  if phase >= Array.length t.rows then begin
    let rows = Array.make (max (phase + 1) (2 * Array.length t.rows)) None in
    Array.blit t.rows 0 rows 0 (Array.length t.rows);
    t.rows <- rows
  end;
  match t.rows.(phase) with
  | Some r -> r
  | None ->
      let r =
        { slots = Array.make t.n 0; extras = [||]; senders = 0; supporters = Array.make 3 0 }
      in
      t.rows.(phase) <- Some r;
      r

let extras_of r sender = if Array.length r.extras = 0 then [] else r.extras.(sender)

let copies t ~sender ~phase =
  match row_at t phase with
  | Some r when sender >= 0 && sender < t.n && r.slots.(sender) <> 0 ->
      Msgstore.get t.store r.slots.(sender)
      :: List.map (Msgstore.get t.store) (extras_of r sender)
  | Some _ | None -> []

let add_unprofiled t (m : Message.t) =
  if m.sender < 0 || m.sender >= t.n || m.phase < 0 then false
  else begin
    let r = row t m.phase in
    let code = Proto.value_to_int m.value in
    if r.slots.(m.sender) = 0 then begin
      r.slots.(m.sender) <- Msgstore.admit t.store m;
      t.total <- t.total + 1;
      r.senders <- r.senders + 1;
      r.supporters.(code) <- r.supporters.(code) + 1;
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
        if Array.length r.extras = 0 then r.extras <- Array.make t.n [];
        r.extras.(m.sender) <- Msgstore.admit t.store m :: r.extras.(m.sender);
        t.total <- t.total + 1;
        (* an extra always sits next to a primary from the same
           sender, so the phase's sender count is unchanged; the sender
           now additionally supports this (previously unseen) value *)
        r.supporters.(code) <- r.supporters.(code) + 1;
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
  {
    t with
    rows =
      Array.map
        (Option.map (fun r ->
             {
               slots = Array.copy r.slots;
               extras = Array.copy r.extras;
               senders = r.senders;
               supporters = Array.copy r.supporters;
             }))
        t.rows;
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
  Array.iteri
    (fun phase -> function
      | None -> ()
      | Some r ->
          Buffer.add_string buf (Printf.sprintf "|p%d:" phase);
          Array.iteri
            (fun sender idx ->
              if idx <> 0 then begin
                header (Msgstore.get t.store idx);
                List.iter (fun i -> header (Msgstore.get t.store i)) (extras_of r sender)
              end)
            r.slots)
    t.rows

let find t ~sender ~phase =
  match row_at t phase with
  | Some r when sender >= 0 && sender < t.n && r.slots.(sender) <> 0 ->
      Some (Msgstore.get t.store r.slots.(sender))
  | Some _ | None -> None

let mem t ~sender ~phase =
  match row_at t phase with
  | Some r -> sender >= 0 && sender < t.n && r.slots.(sender) <> 0
  | None -> false

let rec same_header t (m : Message.t) = function
  | [] -> 0
  | idx :: rest ->
      if Message.header_equal m (Msgstore.get t.store idx) then idx else same_header t m rest

let copy_index t (m : Message.t) =
  match row_at t m.phase with
  | Some r when m.sender >= 0 && m.sender < t.n && r.slots.(m.sender) <> 0 ->
      let primary = r.slots.(m.sender) in
      if Message.header_equal m (Msgstore.get t.store primary) then primary
      else same_header t m (extras_of r m.sender)
  | Some _ | None -> 0

let mem_copy t m = copy_index t m <> 0

let fold_phase t phase f acc =
  match row_at t phase with
  | None -> acc
  | Some r ->
      Array.fold_left
        (fun acc idx -> if idx = 0 then acc else f acc (Msgstore.get t.store idx))
        acc r.slots

let count_phase t ~phase = match row_at t phase with Some r -> r.senders | None -> 0

let count_value t ~phase ~value =
  (* distinct senders with ANY copy carrying [value]: an equivocating
     sender supports every value it signed. Stored copies are
     value-distinct per (sender, phase), so each sender bumps a value's
     tally at most once. *)
  match row_at t phase with
  | Some r -> r.supporters.(Proto.value_to_int value)
  | None -> 0

let messages_at t ~phase =
  match row_at t phase with
  | None -> []
  | Some r ->
      let out = ref [] in
      for sender = t.n - 1 downto 0 do
        if r.slots.(sender) <> 0 then out := copies t ~sender ~phase @ !out
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
