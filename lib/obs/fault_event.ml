(* Injected faults and their one written form: the label and fields a
   trace event and an artifact's schedule entry share, one rendering,
   and which faults are still in force at a given time. *)

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

type t =
  | Injected of entry
  | Sigma_edge of { at : float; budget : int; round_s : float; victims : int list }

(* --- label and fields ------------------------------------------------------- *)

let layer = "fault"

let encode =
  let open Trace2 in
  function
  | Injected { action; _ } -> (
      match action with
      | Crash node -> ("crash", [ ("node", I node) ])
      | Recover node -> ("recover", [ ("node", I node) ])
      | Set_loss p -> ("set_loss", [ ("p", F p) ])
      | Set_rx_loss { rx; p } -> ("set_rx_loss", [ ("rx", I rx); ("p", F p) ])
      | Set_link_loss { tx; rx; p } -> ("set_link_loss", [ ("tx", I tx); ("rx", I rx); ("p", F p) ])
      | Jam { until } -> ("jam", [ ("until", F until) ])
      | Jam_rx { rx; until } -> ("jam_rx", [ ("rx", I rx); ("until", F until) ])
      | Delay_rx { rx; delay; until } ->
          ("delay_rx", [ ("rx", I rx); ("delay", F delay); ("until", F until) ]))
  | Sigma_edge { budget; round_s; victims; _ } ->
      let victims = String.concat "," (List.map string_of_int victims) in
      ("sigma_edge", [ ("budget", I budget); ("round_s", F round_s); ("victims", S victims) ])

let decode ~at label fields =
  let float key = Trace2.field_float fields key in
  (* ids must be integral: an artifact's node 2.5 is rejected, 2.0 reads as 2 *)
  let int key =
    Option.bind (float key) (fun f -> if Float.is_integer f then Some (int_of_float f) else None)
  in
  let ( let+ ) o f = Option.map f o in
  let ( and+ ) a b = match (a, b) with Some a, Some b -> Some (a, b) | _ -> None in
  let injected = Option.map (fun action -> Injected { at; action }) in
  match label with
  | "crash" -> injected (let+ node = int "node" in Crash node)
  | "recover" -> injected (let+ node = int "node" in Recover node)
  | "set_loss" -> injected (let+ p = float "p" in Set_loss p)
  | "set_rx_loss" -> injected (let+ rx = int "rx" and+ p = float "p" in Set_rx_loss { rx; p })
  | "set_link_loss" ->
      injected
        (let+ tx = int "tx" and+ rx = int "rx" and+ p = float "p" in
         Set_link_loss { tx; rx; p })
  | "jam" -> injected (let+ until = float "until" in Jam { until })
  | "jam_rx" -> injected (let+ rx = int "rx" and+ until = float "until" in Jam_rx { rx; until })
  | "delay_rx" ->
      injected
        (let+ rx = int "rx" and+ delay = float "delay" and+ until = float "until" in
         Delay_rx { rx; delay; until })
  | "sigma_edge" ->
      let+ budget = int "budget"
      and+ round_s = float "round_s"
      and+ victims = Trace2.field_str fields "victims" in
      let victims = List.filter_map int_of_string_opt (String.split_on_char ',' victims) in
      Sigma_edge { at; budget; round_s; victims }
  | _ -> None

let time = function Injected { at; _ } | Sigma_edge { at; _ } -> at

let emit fault =
  if Trace2.enabled () then begin
    let label, fields = encode fault in
    let node = match fault with Injected { action = Crash i | Recover i; _ } -> i | _ -> -1 in
    Trace2.emit ~time:(time fault) ~node ~layer ~label fields
  end

let of_event (e : Trace2.event) =
  if e.layer = layer then decode ~at:e.time e.label e.fields else None

(* --- artifact JSON ---------------------------------------------------------- *)

let entry_to_json entry =
  let label, fields = encode (Injected entry) in
  Json.Obj
    (("at", Json.Float entry.at)
    :: ("action", Json.String label)
    :: List.map (fun (k, v) -> (k, Trace2.field_to_json v)) fields)

let entry_of_json json =
  let fields =
    match json with
    | Json.Obj members ->
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (Trace2.field_of_json v))
          members
    | _ -> []
  in
  match (Trace2.field_float fields "at", Trace2.field_str fields "action") with
  | Some at, Some label -> (
      match decode ~at label fields with
      | Some (Injected entry) -> Ok entry
      | Some (Sigma_edge _) | None ->
          Error (Printf.sprintf "schedule action %S: unknown, or a field is missing" label))
  | _ -> Error "schedule entry: no number \"at\" or string \"action\""

(* --- rendering -------------------------------------------------------------- *)

let to_string fault =
  let sprintf = Printf.sprintf in
  sprintf "%.3fs %s" (time fault)
    (match fault with
    | Injected { action = Crash i; _ } -> sprintf "crash p%d" i
    | Injected { action = Recover i; _ } -> sprintf "recover p%d" i
    | Injected { action = Set_loss p; _ } -> sprintf "loss %.3f" p
    | Injected { action = Set_rx_loss { rx; p }; _ } -> sprintf "rx-loss p%d %.3f" rx p
    | Injected { action = Set_link_loss { tx; rx; p }; _ } ->
        sprintf "link-loss p%d->p%d %.3f" tx rx p
    | Injected { action = Jam { until }; _ } -> sprintf "jam until %.3fs" until
    | Injected { action = Jam_rx { rx; until }; _ } -> sprintf "jam p%d until %.3fs" rx until
    | Injected { action = Delay_rx { rx; delay; until }; _ } ->
        sprintf "delay p%d +%.1fms until %.3fs" rx (delay *. 1000.0) until
    | Sigma_edge { budget; victims; _ } ->
        sprintf "sigma-edge adversary (%d drops/round on p{%s})" budget
          (String.concat "," (List.map string_of_int victims)))

(* --- what is in force ------------------------------------------------------- *)

(* The state a later entry can undo: a loss overlay's scope, or a node's
   up/down status. Windows and the adversary end by themselves. *)
type scope = Loss | Rx_loss of int | Link_loss of int * int | Node of int

let scope = function
  | Injected { action = Crash i | Recover i; _ } -> Some (Node i)
  | Injected { action = Set_loss _; _ } -> Some Loss
  | Injected { action = Set_rx_loss { rx; _ }; _ } -> Some (Rx_loss rx)
  | Injected { action = Set_link_loss { tx; rx; _ }; _ } -> Some (Link_loss (tx, rx))
  | Injected { action = Jam _ | Jam_rx _ | Delay_rx _; _ } | Sigma_edge _ -> None

let ends = function
  | Injected { at; action = Jam { until } | Jam_rx { until; _ } | Delay_rx { until; _ } } ->
      Float.max at until
  | Injected { at; _ } -> at
  | Sigma_edge _ -> Float.infinity

let lasts_past time fault =
  match fault with
  | Injected { action = Crash _; _ } | Sigma_edge _ -> true
  | Injected { action = Recover _; _ } -> false
  | Injected { action = Set_loss p | Set_rx_loss { p; _ } | Set_link_loss { p; _ }; _ } -> p > 0.0
  | Injected { action = Jam _ | Jam_rx _ | Delay_rx _; _ } -> ends fault > time

let in_force faults ~time:now =
  let before =
    List.stable_sort
      (fun a b -> compare (time a) (time b))
      (List.filter (fun f -> time f < now) faults)
  in
  (* a later entry on the same scope supersedes this one *)
  let rec keep = function
    | [] -> []
    | f :: later ->
        let undone =
          match scope f with
          | None -> false
          | Some s -> List.exists (fun g -> scope g = Some s) later
        in
        if lasts_past now f && not undone then f :: keep later else keep later
  in
  keep before
