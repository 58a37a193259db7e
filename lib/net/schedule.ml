type action =
  | Crash of int
  | Recover of int
  | Set_loss of float
  | Set_rx_loss of { rx : int; p : float }
  | Set_link_loss of { tx : int; rx : int; p : float }
  | Jam of { until : float }
  | Jam_rx of { rx : int; until : float }
  | Delay_rx of { rx : int; delay : float; until : float }

type entry = { at : float; action : action }
type t = entry list

let action_to_string = function
  | Crash i -> Printf.sprintf "crash p%d" i
  | Recover i -> Printf.sprintf "recover p%d" i
  | Set_loss p -> Printf.sprintf "loss %.3f" p
  | Set_rx_loss { rx; p } -> Printf.sprintf "rx-loss p%d %.3f" rx p
  | Set_link_loss { tx; rx; p } -> Printf.sprintf "link-loss p%d->p%d %.3f" tx rx p
  | Jam { until } -> Printf.sprintf "jam until %.3fs" until
  | Jam_rx { rx; until } -> Printf.sprintf "jam p%d until %.3fs" rx until
  | Delay_rx { rx; delay; until } ->
      Printf.sprintf "delay p%d +%.1fms until %.3fs" rx (delay *. 1000.0) until

let entry_to_string e = Printf.sprintf "%.3fs %s" e.at (action_to_string e.action)

let to_string sched =
  match sched with
  | [] -> "(empty schedule)"
  | entries -> String.concat "; " (List.map entry_to_string entries)

let sort sched = List.stable_sort (fun a b -> compare a.at b.at) sched

let injected = Obs.Metrics.counter "fault.injected"

(* Trace every injected fault so the analyzer can attribute stalls.
   Fault.crash and Fault.recover trace their own event. *)
let trace ~time label fields = Obs.Trace2.emit ~time ~node:(-1) ~layer:"fault" ~label fields

let perform radio now action =
  Obs.Metrics.incr injected;
  match action with
  | Crash i -> Fault.crash radio i
  | Recover i -> Fault.recover radio i
  | Set_loss p ->
      trace ~time:now "set_loss" [ ("p", Obs.Trace2.F p) ];
      Radio.set_loss_prob radio p
  | Set_rx_loss { rx; p } ->
      trace ~time:now "set_rx_loss" [ ("rx", Obs.Trace2.I rx); ("p", Obs.Trace2.F p) ];
      Radio.set_rx_loss radio ~rx p
  | Set_link_loss { tx; rx; p } ->
      trace ~time:now "set_link_loss"
        [ ("tx", Obs.Trace2.I tx); ("rx", Obs.Trace2.I rx); ("p", Obs.Trace2.F p) ];
      Radio.set_link_loss radio ~tx ~rx p
  | Jam { until } ->
      trace ~time:now "jam" [ ("until", Obs.Trace2.F until) ];
      Radio.jam radio ~from:now ~until
  | Jam_rx { rx; until } ->
      trace ~time:now "jam_rx" [ ("rx", Obs.Trace2.I rx); ("until", Obs.Trace2.F until) ];
      (* targeted jamming: destroy everything arriving at rx for the
         window, then restore its previous overlay (assumed 0) *)
      Radio.set_rx_loss radio ~rx 1.0;
      ignore
        (Engine.at (Radio.engine radio) ~time:until (fun () ->
             Radio.set_rx_loss radio ~rx 0.0))
  | Delay_rx { rx; delay; until } ->
      trace ~time:now "delay_rx"
        [ ("rx", Obs.Trace2.I rx); ("delay_s", Obs.Trace2.F delay); ("until", Obs.Trace2.F until) ];
      Radio.set_rx_delay radio ~rx delay;
      ignore
        (Engine.at (Radio.engine radio) ~time:until (fun () ->
             Radio.set_rx_delay radio ~rx 0.0))

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

(* When is the channel provably back to zero injected faults? Fold the
   timeline tracking residual state; [None] if any overlay, crash or
   window persists past the last entry. *)
let quiet_after sched =
  let horizon = ref 0.0 in
  let bump x = if x > !horizon then horizon := x in
  let loss = ref 0.0 in
  let rx_loss : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let link_loss : (int * int, float) Hashtbl.t = Hashtbl.create 8 in
  let down : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun { at; action } ->
      bump at;
      match action with
      | Crash i -> Hashtbl.replace down i ()
      | Recover i -> Hashtbl.remove down i
      | Set_loss p -> loss := p
      | Set_rx_loss { rx; p } ->
          if p = 0.0 then Hashtbl.remove rx_loss rx else Hashtbl.replace rx_loss rx p
      | Set_link_loss { tx; rx; p } ->
          if p = 0.0 then Hashtbl.remove link_loss (tx, rx)
          else Hashtbl.replace link_loss (tx, rx) p
      | Jam { until } | Jam_rx { until; _ } | Delay_rx { until; _ } -> bump until)
    (sort sched);
  if !loss = 0.0 && Hashtbl.length rx_loss = 0 && Hashtbl.length link_loss = 0
     && Hashtbl.length down = 0
  then Some !horizon
  else None

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
