(* Offline reconstruction of a run from its JSONL trace: medium
   breakdown, per-phase timeline, and the stall report that checks each
   inter-phase window against the paper's sigma progress bound. *)

(* sigma = ceil((n-t)/2) * (n-k-t) + k - 2. The only copy of the
   arithmetic: obs sits below net and core, which both use it. *)
let sigma ~n ~k ~t = (((n - t + 1) / 2) * (n - k - t)) + k - 2

type meta = {
  m_protocol : string;
  m_load : string;
  m_dist : string;
  m_seed : string;
  m_n : int option;
  m_k : int option;
  m_t : int option;
  m_tick : float; (* seconds per communication round *)
  m_crashed : string;
}

let default_meta =
  {
    m_protocol = "?";
    m_load = "?";
    m_dist = "?";
    m_seed = "?";
    m_n = None;
    m_k = None;
    m_t = None;
    m_tick = 10.0e-3;
    m_crashed = "";
  }

let read_meta events =
  match List.find_opt (fun e -> e.Trace2.layer = "run" && e.Trace2.label = "meta") events with
  | None -> default_meta
  | Some e ->
      let f = e.Trace2.fields in
      {
        m_protocol = Option.value ~default:"?" (Trace2.field_str f "protocol");
        m_load = Option.value ~default:"?" (Trace2.field_str f "load");
        m_dist = Option.value ~default:"?" (Trace2.field_str f "dist");
        m_seed = Option.value ~default:"?" (Trace2.field_str f "seed");
        m_n = Trace2.field_int f "n";
        m_k = Trace2.field_int f "k";
        m_t = Trace2.field_int f "t";
        m_tick = Option.value ~default:10.0e-3 (Trace2.field_float f "tick_s");
        m_crashed = Option.value ~default:"" (Trace2.field_str f "crashed");
      }

(* --- medium breakdown ---------------------------------------------------- *)

type class_acc = {
  mutable frames : int;
  mutable airtime : float;
  mutable bytes : int;
  mutable collided : int;
}

let medium_breakdown events =
  let classes : (string, class_acc) Hashtbl.t = Hashtbl.create 4 in
  let acc cls =
    match Hashtbl.find_opt classes cls with
    | Some a -> a
    | None ->
        let a = { frames = 0; airtime = 0.0; bytes = 0; collided = 0 } in
        Hashtbl.add classes cls a;
        a
  in
  let jammed = ref 0 in
  let omissions : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let omission_total = ref 0 in
  List.iter
    (fun e ->
      if e.Trace2.layer = "radio" then
        match e.Trace2.label with
        | "tx" ->
            let cls = Option.value ~default:"?" (Trace2.field_str e.fields "class") in
            let a = acc cls in
            a.frames <- a.frames + 1;
            let us = Option.value ~default:0.0 (Trace2.field_float e.fields "us") in
            a.airtime <- a.airtime +. (us /. 1.0e6);
            a.bytes <- a.bytes + Option.value ~default:0 (Trace2.field_int e.fields "bytes");
            (match List.assoc_opt "collision" e.fields with
            | Some (Trace2.B true) -> a.collided <- a.collided + 1
            | _ -> ())
        | "jammed" -> incr jammed
        | "omission" ->
            incr omission_total;
            let rx = Option.value ~default:(-1) (Trace2.field_int e.fields "rx") in
            Hashtbl.replace omissions rx (1 + Option.value ~default:0 (Hashtbl.find_opt omissions rx))
        | _ -> ())
    events;
  let rows =
    Hashtbl.fold (fun cls a l -> (cls, a) :: l) classes []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let total_air = List.fold_left (fun s (_, a) -> s +. a.airtime) 0.0 rows in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Medium breakdown (from radio-layer trace events)\n";
  if rows = [] then Buffer.add_string buf "  no radio tx events in trace\n"
  else begin
    let table_rows =
      List.map
        (fun (cls, a) ->
          [
            cls;
            string_of_int a.frames;
            Printf.sprintf "%.2f" (a.airtime *. 1000.0);
            Printf.sprintf "%.0f%%" (if total_air > 0.0 then 100.0 *. a.airtime /. total_air else 0.0);
            Printf.sprintf "%.1f" (float_of_int a.bytes /. 1024.0);
            string_of_int a.collided;
          ])
        rows
    in
    Buffer.add_string buf
      (Util.Tablefmt.render
         ~header:[ "frame class"; "frames"; "airtime ms"; "share"; "kB"; "collided" ]
         ~rows:table_rows ())
  end;
  Buffer.add_string buf
    (Printf.sprintf "  jammed frames: %d;  per-receiver omission drops: %d total\n" !jammed
       !omission_total);
  let by_rx =
    Hashtbl.fold (fun rx c l -> (rx, c) :: l) omissions [] |> List.sort compare
  in
  if by_rx <> [] then
    Buffer.add_string buf
      ("  omissions by receiver: "
      ^ String.concat " "
          (List.map (fun (rx, c) -> Printf.sprintf "p%d:%d" rx c) by_rx)
      ^ "\n");
  Buffer.contents buf

(* --- ordered-log summary ---------------------------------------------------- *)

(* Traces from a consensus-service run additionally carry "log"-layer
   events (commit/skip/deliver/noop/forged, one per slot per node);
   summarise slot outcomes and per-node delivery progress so a straggler
   or an injection attempt is visible at a glance. *)
let log_section events =
  let logs = List.filter (fun e -> e.Trace2.layer = "log") events in
  if logs = [] then ""
  else begin
    let count label =
      List.length (List.filter (fun e -> e.Trace2.label = label) logs)
    in
    let per_node label =
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun e ->
          if e.Trace2.label = label then
            Hashtbl.replace tbl e.Trace2.node
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e.Trace2.node)))
        logs;
      Hashtbl.fold (fun node c l -> (node, c) :: l) tbl [] |> List.sort compare
    in
    let buf = Buffer.create 512 in
    Buffer.add_string buf "Ordered log (from log-layer trace events)\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  slot outcomes across nodes: %d committed, %d skipped, %d proposer no-ops\n"
         (count "commit") (count "skip") (count "noop"));
    let delivered = per_node "deliver" in
    if delivered <> [] then
      Buffer.add_string buf
        ("  deliveries by node: "
        ^ String.concat " "
            (List.map (fun (node, c) -> Printf.sprintf "p%d:%d" node c) delivered)
        ^ "\n");
    let forged = count "forged" in
    if forged > 0 then
      Buffer.add_string buf
        (Printf.sprintf
           "  REJECTED PAYLOAD INJECTIONS: %d unvouched non-proposer payload(s) ignored\n"
           forged);
    Buffer.contents buf
  end

(* --- per-phase timeline --------------------------------------------------- *)

(* (phase/round number, node) -> first entry time, from the protocol
   layers' "phase" / "round" transition events. *)
let phase_entries events =
  let entries : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let decides : (int, float * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e.Trace2.label with
      | "phase" | "round" -> (
          let num =
            match Trace2.field_int e.fields "phase" with
            | Some p -> Some p
            | None -> Trace2.field_int e.fields "round"
          in
          match num with
          | Some p ->
              let key = (p, e.node) in
              if not (Hashtbl.mem entries key) then Hashtbl.replace entries key e.time
          | None -> ())
      | "decide" ->
          if not (Hashtbl.mem decides e.node) then
            Hashtbl.replace decides e.node
              (e.time, Option.value ~default:0 (Trace2.field_int e.fields "value"))
      | _ -> ())
    events;
  (entries, decides)

let timeline ~n entries decides =
  let phases =
    Hashtbl.fold (fun (p, _) _ acc -> if List.mem p acc then acc else p :: acc) entries []
    |> List.sort compare
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Per-phase timeline (ms at which each node first entered the phase)\n";
  if phases = [] then Buffer.add_string buf "  no phase/round transition events in trace\n"
  else begin
    let nodes = List.init n (fun i -> i) in
    let header = "phase" :: List.map (fun i -> Printf.sprintf "p%d" i) nodes in
    let rows =
      List.map
        (fun p ->
          string_of_int p
          :: List.map
               (fun i ->
                 match Hashtbl.find_opt entries (p, i) with
                 | Some t -> Printf.sprintf "%.1f" (t *. 1000.0)
                 | None -> "-")
               nodes)
        phases
    in
    let decide_row =
      "decide"
      :: List.map
           (fun i ->
             match Hashtbl.find_opt decides i with
             | Some (t, v) -> Printf.sprintf "%.1f=%d" (t *. 1000.0) v
             | None -> "-")
           nodes
    in
    Buffer.add_string buf (Util.Tablefmt.render ~header ~rows:(rows @ [ decide_row ]) ())
  end;
  Buffer.contents buf

(* --- stall report --------------------------------------------------------- *)

let omissions_in events ~from ~until =
  List.fold_left
    (fun acc e ->
      if
        e.Trace2.layer = "radio" && e.Trace2.label = "omission" && e.Trace2.time >= from
        && e.Trace2.time < until
      then acc + 1
      else acc)
    0 events

(* Per-window statistics, shared by the stall report and the causal
   attribution: each consecutive pair of global phase-entry times is a
   window, flagged when its per-round omission load exceeds sigma or
   its duration is an outlier. *)
type window_stat = {
  w_phase : int;
  w_next : int; (* phase whose first entry closes the window *)
  w_from : float;
  w_until : float;
  w_dur : float;
  w_rounds : int;
  w_om : int;
  w_per_round : float;
  w_exceeds : bool;
  w_stalled : bool;
}

let window_stats ~bound ~tick events entries =
  (* global entry time of each phase: the first node to reach it *)
  let phase_start : (int, float) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (p, _) time ->
      match Hashtbl.find_opt phase_start p with
      | Some t0 when t0 <= time -> ()
      | _ -> Hashtbl.replace phase_start p time)
    entries;
  let phases =
    Hashtbl.fold (fun p t0 acc -> (p, t0) :: acc) phase_start [] |> List.sort compare
  in
  let rec windows = function
    | (p, t0) :: ((p', t1) :: _ as rest) -> (p, p', t0, t1) :: windows rest
    | [ _ ] | [] -> []
  in
  let ws = windows phases in
  let durations = List.map (fun (_, _, t0, t1) -> t1 -. t0) ws in
  (* traces with < 2 phase entries (e.g. fault-only runs) have no windows *)
  let median = if durations = [] then 0.0 else Util.Stats.percentile durations 0.5 in
  let stats =
    List.map
      (fun (p, p', t0, t1) ->
        let dur = t1 -. t0 in
        let rounds = max 1 (int_of_float (Float.round (dur /. tick))) in
        let om = omissions_in events ~from:t0 ~until:t1 in
        let per_round = float_of_int om /. float_of_int rounds in
        {
          w_phase = p;
          w_next = p';
          w_from = t0;
          w_until = t1;
          w_dur = dur;
          w_rounds = rounds;
          w_om = om;
          w_per_round = per_round;
          w_exceeds = per_round > float_of_int bound;
          w_stalled = dur > 3.0 *. median && dur > 2.0 *. tick;
        })
      ws
  in
  (stats, median)

let stall_report ~n ~k ~t ~tick events entries =
  let bound = sigma ~n ~k ~t in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Stall report: sigma = ceil((n-t)/2)*(n-k-t) + k - 2 = %d omissions/round (n=%d k=%d \
        t=%d); one round = one %.0f ms tick\n"
       bound n k t (tick *. 1000.0));
  let ws, median = window_stats ~bound ~tick events entries in
  if ws = [] then begin
    Buffer.add_string buf
      "  fewer than two phase transitions in trace: no inter-phase windows to check\n";
    Buffer.contents buf
  end
  else begin
    let rows =
      List.map
        (fun w ->
          [
            string_of_int w.w_phase;
            Printf.sprintf "%.1f" (w.w_from *. 1000.0);
            Printf.sprintf "%.1f" (w.w_dur *. 1000.0);
            string_of_int w.w_rounds;
            string_of_int w.w_om;
            Printf.sprintf "%.1f" w.w_per_round;
            (if w.w_exceeds then "EXCEEDS sigma" else if w.w_stalled then "STALL" else "ok");
          ])
        ws
    in
    Buffer.add_string buf
      (Util.Tablefmt.render
         ~header:[ "phase"; "start ms"; "window ms"; "rounds"; "omissions"; "om/round"; "verdict" ]
         ~rows ());
    (match List.filter (fun w -> w.w_exceeds || w.w_stalled) ws with
    | [] ->
        Buffer.add_string buf
          (Printf.sprintf
             "  no stalled rounds: the per-round omission load stayed under sigma = %d in \
              every window\n"
             bound)
    | stalls ->
        let faults = List.filter_map Fault_event.of_event events in
        List.iter
          (fun w ->
            (* only a window past the stall threshold is called stalled *)
            let line : (_, unit, string) format =
              match (w.w_stalled, w.w_exceeds) with
              | true, true ->
                  "  phase %d stalled for %.1f ms (>3x the %.1f ms median window): %d omissions \
                   (%.1f/round) exceed sigma = %d — the Section 5 bound says progress can halt \
                   under this load\n"
              | true, false ->
                  "  phase %d stalled for %.1f ms (>3x the %.1f ms median window) with %d \
                   omissions (%.1f/round, sigma = %d): slow but within the liveness bound\n"
              | false, _ ->
                  "  phase %d exceeded sigma in %.1f ms (median window %.1f ms): %d omissions \
                   (%.1f/round) exceed sigma = %d, but the window closed without stalling\n"
            in
            Buffer.add_string buf
              (Printf.sprintf line w.w_phase (w.w_dur *. 1000.0) (median *. 1000.0) w.w_om
                 w.w_per_round bound);
            let render = List.map Fault_event.to_string in
            let during f = Fault_event.time f >= w.w_from && Fault_event.time f < w.w_until in
            let active = render (Fault_event.in_force faults ~time:w.w_from) in
            let injected = render (List.filter during faults) in
            if active = [] && injected = [] then
              Buffer.add_string buf
                "    no injected faults overlap this window (ambient loss / collisions)\n"
            else begin
              if active <> [] then
                Buffer.add_string buf
                  ("    injected faults in force at window start: "
                  ^ String.concat "; " active ^ "\n");
              if injected <> [] then
                Buffer.add_string buf
                  ("    injected during the window: " ^ String.concat "; " injected
                 ^ "\n")
            end)
          stalls);
    Buffer.contents buf
  end

(* --- entry points --------------------------------------------------------- *)

let resolve_params ?n ?k ?t meta events =
  let observed_n =
    1 + List.fold_left (fun acc e -> max acc e.Trace2.node) (-1) events
  in
  let n = match (n, meta.m_n) with Some v, _ -> v | None, Some v -> v | None, None -> max 1 observed_n in
  let f_default = (n - 1) / 3 in
  let k = match (k, meta.m_k) with Some v, _ -> v | None, Some v -> v | None, None -> n - f_default in
  let t = match (t, meta.m_t) with Some v, _ -> v | None, Some v -> v | None, None -> 0 in
  (n, k, t)

let analyze ?n ?k ?t ~dropped events =
  let meta = read_meta events in
  let n, k, t = resolve_params ?n ?k ?t meta events in
  let buf = Buffer.create 4096 in
  let times = List.map (fun e -> e.Trace2.time) events in
  let first, last =
    match times with
    | [] -> (0.0, 0.0)
    | t0 :: _ -> (List.fold_left Float.min t0 times, List.fold_left Float.max t0 times)
  in
  Buffer.add_string buf
    (Printf.sprintf "Trace analysis: %s n=%d %s %s (seed %s)\n" meta.m_protocol n meta.m_dist
       meta.m_load meta.m_seed);
  Buffer.add_string buf
    (Printf.sprintf "  %d events spanning %.1f ms; k=%d t=%d%s\n" (List.length events)
       ((last -. first) *. 1000.0) k t
       (if meta.m_crashed = "" then "" else "; crashed: " ^ meta.m_crashed));
  if dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "  TRUNCATED: %d events dropped at the trace limit; this file covers only %.1f-%.1f \
          ms of the run\n"
         dropped (first *. 1000.0) (last *. 1000.0));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (medium_breakdown events);
  Buffer.add_char buf '\n';
  (match log_section events with
  | "" -> ()
  | s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n');
  let entries, decides = phase_entries events in
  Buffer.add_string buf (timeline ~n entries decides);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (stall_report ~n ~k ~t ~tick:meta.m_tick events entries);
  Buffer.contents buf

(* --- causal report -------------------------------------------------------- *)

(* Decision justification chains and stall-window drop attribution over
   the happens-before DAG ([Causal.build]). Where the stall report says
   "this window exceeded sigma while jamming was active" (correlation),
   this names the dropped messages whose delivery the lagging receivers
   were missing (causation). *)
let causal ?n ?k ?t events =
  let meta = read_meta events in
  let n, k, t = resolve_params ?n ?k ?t meta events in
  let dag = Causal.build events in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "Causal analysis: %d tagged sends, %d deliveries, %d drops in trace\n"
       (Hashtbl.length dag.Causal.sends)
       (List.length dag.Causal.delivers)
       (List.length dag.Causal.drops));
  if Hashtbl.length dag.Causal.sends = 0 then begin
    Buffer.add_string buf
      "  no message ids in trace: re-record with tracing on (ids are tagged at \
       Turquois.broadcast_state), or the protocol predates causal tagging\n";
    Buffer.contents buf
  end
  else begin
    (* decision chains *)
    let decided =
      Hashtbl.fold (fun node time acc -> (node, time) :: acc) dag.Causal.decides []
      |> List.sort compare
    in
    Buffer.add_string buf "Decision justification chains\n";
    if decided = [] then Buffer.add_string buf "  no decisions in trace\n"
    else
      List.iter
        (fun (node, time) ->
          let chain = Causal.decision_chain dag ~node ~time in
          let phases =
            List.filter_map
              (fun m ->
                Option.map
                  (fun s -> s.Causal.s_phase)
                  (Hashtbl.find_opt dag.Causal.sends m))
              chain
          in
          let lo = List.fold_left min max_int phases
          and hi = List.fold_left max min_int phases in
          let tail =
            let rec last_k k l =
              let len = List.length l in
              if len <= k then l else last_k k (List.tl l)
            in
            last_k 3 chain
          in
          Buffer.add_string buf
            (Printf.sprintf "  p%d decided @%.1fms <- %d messages%s%s\n" node
               (time *. 1000.0) (List.length chain)
               (if phases = [] then ""
                else Printf.sprintf " across phases %d..%d" lo hi)
               (if tail = [] then ""
                else
                  "; latest: "
                  ^ String.concat ", " (List.map (Causal.describe_send dag) tail))))
        decided;
    (* stall attribution *)
    let entries, _ = phase_entries events in
    let bound = sigma ~n ~k ~t in
    let ws, _median = window_stats ~bound ~tick:meta.m_tick events entries in
    let stalls = List.filter (fun w -> w.w_exceeds || w.w_stalled) ws in
    Buffer.add_string buf "Stall-window drop attribution\n";
    if stalls = [] then
      Buffer.add_string buf "  no stall windows to attribute (see stall report)\n"
    else
      List.iter
        (fun w ->
          let nodes = List.init n (fun i -> i) in
          let lagging =
            List.filter
              (fun node ->
                match Hashtbl.find_opt entries (w.w_next, node) with
                | Some tm -> tm > w.w_until
                | None -> true)
              nodes
          in
          Buffer.add_string buf
            (Printf.sprintf
               "  phase %d window %.1f-%.1f ms (%s): receivers still behind at window \
                end: %s\n"
               w.w_phase (w.w_from *. 1000.0) (w.w_until *. 1000.0)
               (if w.w_exceeds then "exceeds sigma" else "stall")
               (if lagging = [] then "none"
                else String.concat "," (List.map (Printf.sprintf "p%d") lagging)));
          let chosen, uncovered =
            Causal.attribute dag ~lagging ~from:w.w_from ~until:w.w_until
          in
          if chosen = [] then begin
            (* no drop hit a lagging receiver; fall back to listing what
               was lost in the window at all *)
            match Causal.drops_in dag ~from:w.w_from ~until:w.w_until with
            | [] ->
                Buffer.add_string buf
                  "    no mid-tagged drops inside this window (contention or CPU \
                   backlog, not message loss)\n"
            | drops ->
                let rec take k = function
                  | x :: rest when k > 0 -> x :: take (k - 1) rest
                  | _ -> []
                in
                List.iter
                  (fun (d : Causal.drop) ->
                    Buffer.add_string buf
                      (Printf.sprintf "    lost in window: %s — %s%s\n"
                         (Causal.describe_send dag d.Causal.dr_mid)
                         d.Causal.dr_kind
                         (match d.Causal.dr_rx with
                         | Some rx -> Printf.sprintf " to p%d" rx
                         | None -> "")))
                  (take 5 drops)
          end
          else begin
            List.iter
              (fun (mid, kind, covered) ->
                Buffer.add_string buf
                  (Printf.sprintf "    %s — %s lost it to %s\n"
                     (Causal.describe_send dag mid) kind
                     (String.concat "," (List.map (Printf.sprintf "p%d") covered))))
              chosen;
            if uncovered <> [] then
              Buffer.add_string buf
                (Printf.sprintf
                   "    lagging for other reasons (no in-window drop): %s\n"
                   (String.concat "," (List.map (Printf.sprintf "p%d") uncovered)))
          end;
          (* superseded in a MAC queue: no receiver could have heard these,
             so they stay out of the drop cover above *)
          match
            List.filter
              (fun r -> r.Causal.rp_time >= w.w_from && r.Causal.rp_time < w.w_until)
              dag.Causal.never_on_air
          with
          | [] -> ()
          | unsent ->
              Buffer.add_string buf
                (Printf.sprintf "    never on the air (superseded in the MAC queue): %s\n"
                   (String.concat ", "
                      (List.map
                         (fun r ->
                           Printf.sprintf "%s (p%d, @%.1fms)" r.Causal.rp_mid r.Causal.rp_node
                             (r.Causal.rp_time *. 1000.0))
                         unsent))))
        stalls;
    Buffer.contents buf
  end
