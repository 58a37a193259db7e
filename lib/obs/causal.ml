(* Causal message tracing.

   Online half: every protocol broadcast gets a message id
   "m<sender>.<phase>.<seq>" at the moment it is encoded. The datagram
   layer and the MAC hand the payload to the radio unchanged inside a
   frame record, so radio-layer events name the protocol message they
   carry by looking up the frame's payload; the reliable link, which
   does re-encode, re-attaches ("aliases") the id to its segments. No
   layer threads an extra parameter through its signature. The registry is
   keyed on byte *content*: a retransmission of identical bytes maps to
   the same id, which is exactly the causal identity we want.

   Offline half: [build] folds a trace back into a happens-before DAG —
   send, deliver and drop records per message id, and the sends a MAC
   replacement kept off the air — from which
   [decision_chain] walks a decision back through everything the
   deciding node (transitively) heard, and [attribute] explains a stall
   window as a minimal set of dropped/jammed messages covering the
   receivers that failed to advance.

   Contract: the online half never touches simulated time, the RNG or
   the metrics registry, and is only invoked when tracing is already
   on, so causal tagging on/off yields bit-identical protocol results. *)

(* --- online: id assignment and byte aliasing ------------------------------ *)

type reg = {
  seqs : (int, int) Hashtbl.t; (* sender -> next seq *)
  mids : (string, string) Hashtbl.t; (* byte content -> mid *)
}

(* Domain-local like the trace buffer itself: pool workers tag their own
   runs without contention. *)
let reg_key : reg Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { seqs = Hashtbl.create 16; mids = Hashtbl.create 256 })

let reg () = Domain.DLS.get reg_key

let reset () =
  let r = reg () in
  Hashtbl.reset r.seqs;
  Hashtbl.reset r.mids

let next_send ~sender ~phase =
  let r = reg () in
  let seq = Option.value ~default:0 (Hashtbl.find_opt r.seqs sender) in
  Hashtbl.replace r.seqs sender (seq + 1);
  Printf.sprintf "m%d.%d.%d" sender phase seq

let register bytes mid = Hashtbl.replace (reg ()).mids (Bytes.to_string bytes) mid
let lookup bytes = Hashtbl.find_opt (reg ()).mids (Bytes.to_string bytes)

let alias ~from bytes =
  match lookup from with None -> () | Some mid -> register bytes mid

let mid_field bytes =
  match lookup bytes with
  | None -> []
  | Some mid -> [ ("mid", Trace2.S mid) ]

(* ids are per-run; clear alongside metrics and the memo caches *)
let () = Scope.at_run_start reset

(* --- offline: happens-before reconstruction ------------------------------- *)

type send = { s_mid : string; s_sender : int; s_phase : int; s_time : float }
type deliver = { d_mid : string; d_rx : int; d_time : float }

type drop = {
  dr_mid : string;
  dr_kind : string; (* "omission" | "jammed" | "mac-drop" *)
  dr_rx : int option; (* None: broadcast-wide loss (jamming) *)
  dr_time : float;
}

type replaced = { rp_mid : string; rp_node : int; rp_time : float }

type dag = {
  sends : (string, send) Hashtbl.t;
  delivers : deliver list; (* chronological *)
  delivers_by_rx : (int, deliver list) Hashtbl.t; (* chronological *)
  drops : drop list; (* chronological *)
  decides : (int, float) Hashtbl.t; (* node -> first decide time *)
  never_on_air : replaced list; (* chronological *)
}

let build events =
  let sends = Hashtbl.create 128 in
  let delivers = ref [] in
  let drops = ref [] in
  let decides = Hashtbl.create 16 in
  (* a MAC replacement names the queued frame's mid, and mids are keyed
     by content: a frame superseded by identical bytes names the new
     broadcast's own mid, made at the same instant, and lost nothing *)
  let last_broadcast = Hashtbl.create 16 in
  let replaced = ref [] in
  let on_air = Hashtbl.create 128 in
  List.iter
    (fun (e : Trace2.event) ->
      let mid () = Trace2.field_str e.fields "mid" in
      match (e.layer, e.label) with
      | _, ("broadcast" | "equivocate") -> (
          match mid () with
          | None -> ()
          | Some m ->
              if e.label = "broadcast" then Hashtbl.replace last_broadcast e.node (e.time, m);
              if not (Hashtbl.mem sends m) then
                Hashtbl.replace sends m
                  {
                    s_mid = m;
                    s_sender = e.node;
                    s_phase = Option.value ~default:(-1) (Trace2.field_int e.fields "phase");
                    s_time = e.time;
                  })
      | "radio", "tx" -> Option.iter (fun m -> Hashtbl.replace on_air m ()) (mid ())
      | "mac", "replaced" -> (
          match mid () with
          | Some m when Hashtbl.find_opt last_broadcast e.node <> Some (e.time, m) ->
              replaced := { rp_mid = m; rp_node = e.node; rp_time = e.time } :: !replaced
          | Some _ | None -> ())
      | "radio", "deliver" -> (
          match (mid (), Trace2.field_int e.fields "rx") with
          | Some m, Some rx ->
              delivers := { d_mid = m; d_rx = rx; d_time = e.time } :: !delivers
          | _ -> ())
      | "radio", "omission" -> (
          match mid () with
          | None -> ()
          | Some m ->
              drops :=
                {
                  dr_mid = m;
                  dr_kind = "omission";
                  dr_rx = Trace2.field_int e.fields "rx";
                  dr_time = e.time;
                }
                :: !drops)
      | "radio", "jammed" -> (
          match mid () with
          | None -> ()
          | Some m ->
              drops := { dr_mid = m; dr_kind = "jammed"; dr_rx = None; dr_time = e.time } :: !drops)
      | "mac", "drop" -> (
          match mid () with
          | None -> ()
          | Some m ->
              drops :=
                {
                  dr_mid = m;
                  dr_kind = "mac-drop";
                  dr_rx = Trace2.field_int e.fields "dst";
                  dr_time = e.time;
                }
                :: !drops)
      | _, "decide" ->
          if not (Hashtbl.mem decides e.node) then Hashtbl.replace decides e.node e.time
      | _ -> ())
    events;
  let delivers = List.rev !delivers in
  let by_rx = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_rx d.d_rx) in
      Hashtbl.replace by_rx d.d_rx (d :: prev))
    (List.rev delivers);
  let never_on_air =
    List.filter (fun r -> not (Hashtbl.mem on_air r.rp_mid)) (List.rev !replaced)
  in
  { sends; delivers; delivers_by_rx = by_rx; drops = List.rev !drops; decides; never_on_air }

(* Transitive closure of "heard before acting": everything delivered to
   [node] by [time], plus, recursively, everything each of those
   messages' senders had heard when they sent. Deduped by mid, so the
   walk is bounded by the number of distinct messages in the trace. *)
let decision_chain dag ~node ~time =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let chain = ref [] in
  let rec visit nd tm =
    let heard = Option.value ~default:[] (Hashtbl.find_opt dag.delivers_by_rx nd) in
    List.iter
      (fun d ->
        if d.d_time <= tm && not (Hashtbl.mem seen d.d_mid) then begin
          Hashtbl.replace seen d.d_mid ();
          chain := d.d_mid :: !chain;
          match Hashtbl.find_opt dag.sends d.d_mid with
          | None -> ()
          | Some s -> visit s.s_sender s.s_time
        end)
      heard
  in
  visit node time;
  let by_send m =
    match Hashtbl.find_opt dag.sends m with
    | Some s -> (s.s_time, s.s_phase, m)
    | None -> (infinity, max_int, m)
  in
  List.sort (fun a b -> compare (by_send a) (by_send b)) !chain

let drops_in dag ~from ~until =
  List.filter (fun d -> d.dr_time >= from && d.dr_time < until) dag.drops

(* Stall attribution: greedy minimal cover of the lagging receivers by
   messages dropped inside the window. A drop with a concrete receiver
   covers that receiver; a jammed transmission covers every lagging
   receiver at once. Returns (mid, kind, covered receivers), best cover
   first; empty when no in-window drop touches a lagging node. *)
let attribute dag ~lagging ~from ~until =
  let lagging = List.sort_uniq compare lagging in
  let candidates = drops_in dag ~from ~until in
  (* coverage per (mid, kind): the set of lagging receivers it explains *)
  let cover : (string * string, int list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let touched =
        match d.dr_rx with
        | Some rx -> if List.mem rx lagging then [ rx ] else []
        | None -> lagging
      in
      if touched <> [] then begin
        let key = (d.dr_mid, d.dr_kind) in
        let cell =
          match Hashtbl.find_opt cover key with
          | Some c -> c
          | None ->
              let c = ref [] in
              Hashtbl.add cover key c;
              c
        in
        cell := List.sort_uniq compare (touched @ !cell)
      end)
    candidates;
  let pool = Hashtbl.fold (fun (m, k) c l -> (m, k, !c) :: l) cover [] in
  (* deterministic greedy: widest coverage first, mid as tie-break *)
  let remaining = ref lagging in
  let chosen = ref [] in
  let pool = ref (List.sort compare pool) in
  let covers c = List.filter (fun rx -> List.mem rx !remaining) c in
  let continue = ref true in
  while !continue do
    let best =
      List.fold_left
        (fun acc (m, k, c) ->
          let gain = List.length (covers c) in
          match acc with
          | Some (_, _, _, g) when g >= gain -> acc
          | _ when gain = 0 -> acc
          | _ -> Some (m, k, c, gain))
        None !pool
    in
    match best with
    | None -> continue := false
    | Some (m, k, c, _) ->
        chosen := (m, k, List.sort_uniq compare (covers c)) :: !chosen;
        remaining := List.filter (fun rx -> not (List.mem rx c)) !remaining;
        pool := List.filter (fun (m', k', _) -> (m', k') <> (m, k)) !pool
  done;
  (List.rev !chosen, !remaining)

let describe_send dag mid =
  match Hashtbl.find_opt dag.sends mid with
  | Some s ->
      Printf.sprintf "%s (p%d, phase %d, @%.1fms%s)" mid s.s_sender s.s_phase (s.s_time *. 1000.0)
        (if List.exists (fun r -> r.rp_mid = mid) dag.never_on_air then ", never on the air"
         else "")
  | None -> mid
