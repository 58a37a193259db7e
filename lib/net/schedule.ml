type action = Obs.Fault_event.action =
  | Crash of int
  | Recover of int
  | Set_loss of float
  | Set_rx_loss of { rx : int; p : float }
  | Set_link_loss of { tx : int; rx : int; p : float }
  | Jam of { until : float }
  | Jam_rx of { rx : int; until : float }
  | Delay_rx of { rx : int; delay : float; until : float }

type entry = Obs.Fault_event.entry = { at : float; action : action }
type t = entry list

let to_string sched =
  match sched with
  | [] -> "(empty schedule)"
  | entries ->
      String.concat "; "
        (List.map (fun e -> Obs.Fault_event.(to_string (Injected e))) entries)

let sort sched = List.stable_sort (fun a b -> compare a.at b.at) sched

let injected = Obs.Metrics.counter "fault.injected"

(* Every injected fault is traced so the analyzer can attribute stalls;
   Fault.crash and Fault.recover trace their own event. *)
let perform radio now action =
  Obs.Metrics.incr injected;
  (match action with
  | Crash _ | Recover _ -> ()
  | _ -> Obs.Fault_event.emit (Injected { at = now; action }));
  match action with
  | Crash i -> Fault.crash radio i
  | Recover i -> Fault.recover radio i
  | Set_loss p -> Radio.set_loss_prob radio p
  | Set_rx_loss { rx; p } -> Radio.set_rx_loss radio ~rx p
  | Set_link_loss { tx; rx; p } -> Radio.set_link_loss radio ~tx ~rx p
  | Jam { until } -> Radio.jam radio ~from:now ~until
  | Jam_rx { rx; until } -> Radio.jam_rx radio ~rx ~until
  | Delay_rx { rx; delay; until } -> Radio.delay_rx radio ~rx ~delay ~until

let apply radio sched =
  let engine = Radio.engine radio in
  List.iter
    (fun { at; action } ->
      if at <= Engine.now engine then perform radio (Engine.now engine) action
      else ignore (Engine.at engine ~time:at (fun () -> perform radio at action)))
    (sort sched)

(* --- random generation ------------------------------------------------------ *)

let random ~rng ~n ~duration ?(events = 6) () =
  let pick_node () = Util.Rng.int rng n in
  let pick_time () = Util.Rng.float rng duration in
  let entry () =
    let at = pick_time () in
    let kind = Util.Rng.int rng 6 in
    let action =
      match kind with
      | 0 -> Set_loss (Util.Rng.float rng 0.3)
      | 1 -> Set_rx_loss { rx = pick_node (); p = Util.Rng.float rng 0.6 }
      | 2 ->
          let tx = pick_node () in
          let rx = (tx + 1 + Util.Rng.int rng (max 1 (n - 1))) mod n in
          Set_link_loss { tx; rx; p = Util.Rng.float rng 0.8 }
      | 3 ->
          let w = 0.002 +. Util.Rng.float rng 0.03 in
          Jam_rx { rx = pick_node (); until = at +. w }
      | 4 ->
          let w = 0.005 +. Util.Rng.float rng 0.05 in
          Delay_rx
            { rx = pick_node (); delay = Util.Rng.float rng 0.004; until = at +. w }
      | _ ->
          let victim = pick_node () in
          Crash victim
    in
    { at; action }
  in
  (* [entry] draws from the rng: application order must be pinned *)
  let raw = Util.Init.list events (fun _ -> entry ()) in
  (* every crash recovers before the horizon so liveness stays checkable *)
  let recoveries =
    List.filter_map
      (fun e ->
        match e.action with
        | Crash i ->
            Some { at = e.at +. 0.01 +. Util.Rng.float rng (duration /. 2.0); action = Recover i }
        | _ -> None)
      raw
  in
  (* end on a quiet channel: clear every overlay at the horizon (jam /
     delay windows already carry their own expiry) *)
  let resets =
    List.filter_map
      (fun e ->
        match e.action with
        | Set_rx_loss { rx; _ } -> Some { at = duration; action = Set_rx_loss { rx; p = 0.0 } }
        | Set_link_loss { tx; rx; _ } ->
            Some { at = duration; action = Set_link_loss { tx; rx; p = 0.0 } }
        | _ -> None)
      raw
  in
  sort (raw @ recoveries @ resets @ [ { at = duration; action = Set_loss 0.0 } ])

(* --- quiescence ------------------------------------------------------------- *)

(* The channel is provably back to zero injected faults once every
   window has closed, if nothing the schedule set is still in force. *)
let quiet_after sched =
  let faults = List.map (fun e -> Obs.Fault_event.Injected e) sched in
  match Obs.Fault_event.in_force faults ~time:Float.infinity with
  | _ :: _ -> None
  | [] -> Some (List.fold_left (fun h f -> Float.max h (Obs.Fault_event.ends f)) 0.0 faults)

(* --- shrinking -------------------------------------------------------------- *)

(* Candidate simplifications of a failing schedule, most aggressive
   first: the chaos harness re-runs each candidate and keeps the first
   that still fails, iterating to a local minimum. *)
let shrink_candidates sched =
  let n = List.length sched in
  if n = 0 then []
  else begin
    let drop_half first =
      List.filteri (fun i _ -> if first then i >= n / 2 else i < n - (n / 2)) sched
    in
    let halves = if n >= 2 then [ drop_half true; drop_half false ] else [] in
    let drop_one = List.init n (fun i -> List.filteri (fun j _ -> j <> i) sched) in
    halves @ drop_one
  end
