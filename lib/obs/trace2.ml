type field = S of string | I of int | F of float | B of bool

type event = {
  time : float;
  node : int;
  layer : string;
  label : string;
  fields : (string * field) list;
}

type state = {
  mutable active : bool;
  mutable limit : int;
  mutable count : int;
  mutable dropped : int;
  mutable entries : event list; (* newest first *)
}

(* One buffer per domain: tracing stays race-free when the parallel run
   pool executes runs on worker domains. Workers start with tracing off
   (the [start] flag is domain-local too), which is why the CLI traces
   only the single execution of [run]. *)
let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { active = false; limit = 0; count = 0; dropped = 0; entries = [] })

let state () = Domain.DLS.get state_key

let clear () =
  let state = state () in
  state.count <- 0;
  state.dropped <- 0;
  state.entries <- []

let start ?(limit = 100_000) () =
  clear ();
  let state = state () in
  state.limit <- limit;
  state.active <- true

let stop () = (state ()).active <- false
let enabled () = (state ()).active

let emit ~time ~node ~layer ~label fields =
  let state = state () in
  if state.active then begin
    if state.count < state.limit then begin
      state.entries <- { time; node; layer; label; fields } :: state.entries;
      state.count <- state.count + 1
    end
    else state.dropped <- state.dropped + 1
  end

let events () = List.rev (state ()).entries
let dropped () = (state ()).dropped

(* --- rendering ----------------------------------------------------------- *)

let field_to_string = function
  | S s -> s
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%g" f
  | B b -> if b then "true" else "false"

let fields_to_string fields =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ field_to_string v) fields)

let render ?(filter = fun _ -> true) ?(max_events = max_int) () =
  let matched = List.filter filter (events ()) in
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i e ->
      if i < max_events then
        Buffer.add_string buf
          (Printf.sprintf "%10.6f  %-4s %-8s %-12s %s\n" e.time
             (if e.node >= 0 then Printf.sprintf "p%d" e.node else "-")
             e.layer e.label (fields_to_string e.fields)))
    matched;
  let more = max 0 (List.length matched - max_events) in
  let sink_dropped = dropped () in
  if more > 0 || sink_dropped > 0 then
    Buffer.add_string buf (Printf.sprintf "(+%d more, %d dropped)\n" more sink_dropped);
  Buffer.contents buf

(* --- JSONL --------------------------------------------------------------- *)

let field_to_json = function
  | S s -> Json.String s
  | I i -> Json.Int i
  | F f -> Json.Float f
  | B b -> Json.Bool b

let event_to_json e =
  Json.Obj
    [
      ("t", Json.Float e.time);
      ("node", Json.Int e.node);
      ("layer", Json.String e.layer);
      ("label", Json.String e.label);
      ("f", Json.Obj (List.map (fun (k, v) -> (k, field_to_json v)) e.fields));
    ]

let to_jsonl_line e = Json.to_string (event_to_json e)

let field_of_json = function
  | Json.String s -> Some (S s)
  | Json.Int i -> Some (I i)
  | Json.Float f -> Some (F f)
  | Json.Bool b -> Some (B b)
  | Json.Null | Json.List _ | Json.Obj _ -> None

let event_of_json json =
  let ( let* ) o f = match o with Some v -> f v | None -> Error "malformed trace event" in
  let* time = Option.bind (Json.member "t" json) Json.to_float in
  let* node = Option.bind (Json.member "node" json) Json.to_int in
  let* layer = Option.bind (Json.member "layer" json) Json.to_str in
  let* label = Option.bind (Json.member "label" json) Json.to_str in
  match Json.member "f" json with
  | Some (Json.Obj members) ->
      let fields =
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (field_of_json v))
          members
      in
      Ok { time; node; layer; label; fields }
  | Some _ -> Error "malformed trace event"
  | None -> Ok { time; node; layer; label; fields = [] }

let parse_line line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok json -> event_of_json json

(* Bumped whenever the event vocabulary changes incompatibly; exports
   carry it as a leading pseudo-event so [load_file] can refuse traces
   written by a different generation instead of mis-parsing them. *)
let schema_version = 2

let schema_header =
  {
    time = 0.0;
    node = -1;
    layer = "trace";
    label = "schema";
    fields = [ ("version", I schema_version) ];
  }

let is_schema_header e = e.layer = "trace" && e.label = "schema"

let export_channel oc =
  output_string oc (to_jsonl_line schema_header);
  output_char oc '\n';
  let n = ref 0 in
  List.iter
    (fun e ->
      output_string oc (to_jsonl_line e);
      output_char oc '\n';
      incr n)
    (events ());
  !n

let export_file path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> export_channel oc)

let load_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let events = ref [] in
          let skipped = ref 0 in
          let bad_version = ref None in
          (try
             while !bad_version = None do
               let line = input_line ic in
               if String.trim line <> "" then begin
                 match parse_line line with
                 | Ok e when is_schema_header e -> (
                     (* version check; headerless legacy traces load as-is *)
                     match List.assoc_opt "version" e.fields with
                     | Some (I v) when v = schema_version -> ()
                     | Some (I v) -> bad_version := Some v
                     | _ -> bad_version := Some (-1))
                 | Ok e -> events := e :: !events
                 | Error _ -> incr skipped
               end
             done
           with End_of_file -> ());
          match !bad_version with
          | Some v ->
              Error
                (Printf.sprintf
                   "%s: trace schema version %s; this build reads version %d — re-export \
                    the trace with a matching build"
                   path
                   (if v < 0 then "missing/malformed" else string_of_int v)
                   schema_version)
          | None -> Ok (List.rev !events, !skipped))
