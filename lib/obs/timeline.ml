(* Per-node protocol timelines: one ASCII Gantt row per node over the
   run's time span.

   Each column is one time bucket; a node's cell shows its state in that
   bucket — the last digit of its current phase, 'D' once decided, 'X'
   while crashed, '.' before its first phase transition. State changes
   come straight off the trace: protocol "phase"/"round" and "decide"
   events, and the crashes and recoveries Fault_event decodes. *)

type change = Phase of int | Decide | Crash | Recover

(* node -> chronological (time, change) list *)
let changes events =
  let per_node : (int, (float * change) list) Hashtbl.t = Hashtbl.create 16 in
  let push node time c =
    if node >= 0 then
      Hashtbl.replace per_node node
        ((time, c) :: Option.value ~default:[] (Hashtbl.find_opt per_node node))
  in
  List.iter
    (fun (e : Trace2.event) ->
      match (Fault_event.of_event e, e.label) with
      | Some (Injected { action = Crash i; _ }), _ -> push i e.time Crash
      | Some (Injected { action = Recover i; _ }), _ -> push i e.time Recover
      | Some _, _ -> ()
      | None, ("phase" | "round") -> (
          let num =
            match Trace2.field_int e.fields "phase" with
            | Some p -> Some p
            | None -> Trace2.field_int e.fields "round"
          in
          match num with Some p -> push e.node e.time (Phase p) | None -> ())
      | None, "decide" -> push e.node e.time Decide
      | None, _ -> ())
    events;
  Hashtbl.iter
    (fun node l -> Hashtbl.replace per_node node (List.rev l))
    (Hashtbl.copy per_node);
  per_node

let cell_char ~crashed ~decided ~phase =
  if crashed then 'X'
  else if decided then 'D'
  else match phase with None -> '.' | Some p -> Char.chr (Char.code '0' + (p mod 10))

let width = 64

let render ?(n = 0) events =
  let per_node = changes events in
  let n =
    max n (1 + Hashtbl.fold (fun node _ acc -> max node acc) per_node (-1))
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Per-node timeline (phase digit; D decided, X crashed, . idle)\n";
  let times = List.map (fun (e : Trace2.event) -> e.time) events in
  match times with
  | [] ->
      Buffer.add_string buf "  no events in trace\n";
      Buffer.contents buf
  | t0 :: _ ->
      let tmin = List.fold_left Float.min t0 times in
      let tmax = List.fold_left Float.max t0 times in
      let span = Float.max (tmax -. tmin) 1.0e-9 in
      let bucket = span /. float_of_int width in
      Buffer.add_string buf
        (Printf.sprintf "  %.1f ms %s %.1f ms  (%.2f ms/col)\n" (tmin *. 1000.0)
           (String.make (width - 18) '-')
           (tmax *. 1000.0) (bucket *. 1000.0));
      for node = 0 to n - 1 do
        let cs = Option.value ~default:[] (Hashtbl.find_opt per_node node) in
        let row = Bytes.make width '.' in
        let crashed = ref false and decided = ref false and phase = ref None in
        let rest = ref cs in
        for col = 0 to width - 1 do
          (* state at the end of this column's bucket *)
          let upto = tmin +. (bucket *. float_of_int (col + 1)) in
          let continue = ref true in
          while !continue do
            match !rest with
            | (t, c) :: tl when t <= upto ->
                (match c with
                | Phase p -> phase := Some p
                | Decide -> decided := true
                | Crash -> crashed := true
                | Recover -> crashed := false);
                rest := tl
            | _ -> continue := false
          done;
          Bytes.set row col (cell_char ~crashed:!crashed ~decided:!decided ~phase:!phase)
        done;
        Buffer.add_string buf (Printf.sprintf "  p%-3d %s\n" node (Bytes.to_string row))
      done;
      Buffer.contents buf
