module J = Obs.Json

let schema = "turquois-repro/1"

type round_choice = {
  drops : (int * int) list;
  byz : (int * string) list;
}

type expect =
  | Stall of { deciders : int; advanced : int }
  | Violations of string list

type rounds_artifact = {
  r_n : int;
  r_k : int;
  r_byzantine : int list;
  r_dist : Harness.Runner.dist;
  r_seed : int64;
  r_budget : int;
  r_rounds : round_choice list;
  r_expect : expect;
  r_note : string;
}

type radio_artifact = {
  c_protocol : Harness.Runner.protocol;
  c_n : int;
  c_dist : Harness.Runner.dist;
  c_strategy : string option;
  c_seed : int64;
  c_bug : bool;
  c_schedule : Net.Schedule.t;
  c_expect : string list;
  c_note : string;
}

type artifact = Rounds of rounds_artifact | Radio of radio_artifact

(* --- encoding --------------------------------------------------------------- *)

let dist_to_json = function
  | Harness.Runner.Unanimous -> J.String "unanimous"
  | Harness.Runner.Divergent -> J.String "divergent"

let protocol_to_json p = J.String (String.lowercase_ascii (Harness.Runner.protocol_to_string p))

let expect_to_json = function
  | Stall { deciders; advanced } ->
      J.Obj [ ("kind", J.String "stall"); ("deciders", J.Int deciders); ("advanced", J.Int advanced) ]
  | Violations vs ->
      J.Obj
        [ ("kind", J.String "violations"); ("violations", J.List (List.map (fun v -> J.String v) vs)) ]

let round_to_json r =
  J.Obj
    [
      ("drops", J.List (List.map (fun (s, rx) -> J.List [ J.Int s; J.Int rx ]) r.drops));
      ("byz", J.List (List.map (fun (i, s) -> J.List [ J.Int i; J.String s ]) r.byz));
    ]

let to_json = function
  | Rounds a ->
      J.Obj
        [
          ("schema", J.String schema);
          ("kind", J.String "rounds");
          ("note", J.String a.r_note);
          ("n", J.Int a.r_n);
          ("k", J.Int a.r_k);
          ("byzantine", J.List (List.map (fun i -> J.Int i) a.r_byzantine));
          ("dist", dist_to_json a.r_dist);
          ("seed", J.String (Int64.to_string a.r_seed));
          ("budget", J.Int a.r_budget);
          ("rounds", J.List (List.map round_to_json a.r_rounds));
          ("expect", expect_to_json a.r_expect);
        ]
  | Radio a ->
      J.Obj
        [
          ("schema", J.String schema);
          ("kind", J.String "radio");
          ("note", J.String a.c_note);
          ("protocol", protocol_to_json a.c_protocol);
          ("n", J.Int a.c_n);
          ("dist", dist_to_json a.c_dist);
          ( "strategy",
            match a.c_strategy with None -> J.Null | Some s -> J.String s );
          ("seed", J.String (Int64.to_string a.c_seed));
          ("bug", J.Bool a.c_bug);
          ("schedule", J.List (List.map Obs.Fault_event.entry_to_json a.c_schedule));
          ( "expect",
            expect_to_json (Violations a.c_expect) );
        ]

(* --- decoding --------------------------------------------------------------- *)

let ( let* ) r f = Result.bind r f

let field name json =
  match J.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_int name json =
  let* v = field name json in
  match J.to_int v with Some i -> Ok i | None -> Error (Printf.sprintf "field %S: expected int" name)

let as_string name json =
  let* v = field name json in
  match J.to_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S: expected string" name)

let as_list name json =
  let* v = field name json in
  match J.to_list v with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "field %S: expected list" name)

let map_result f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let dist_of_string = function
  | "unanimous" -> Ok Harness.Runner.Unanimous
  | "divergent" -> Ok Harness.Runner.Divergent
  | other -> Error (Printf.sprintf "unknown dist %S" other)

let seed_of json =
  let* s = as_string "seed" json in
  match Int64.of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "field \"seed\": bad int64 %S" s)

let int_pair name json =
  match J.to_list json with
  | Some [ a; b ] -> begin
      match (J.to_int a, J.to_int b) with
      | Some a, Some b -> Ok (a, b)
      | _ -> Error (Printf.sprintf "field %S: expected [int, int]" name)
    end
  | _ -> Error (Printf.sprintf "field %S: expected [int, int]" name)

let expect_of json =
  let* e = field "expect" json in
  let* kind = as_string "kind" e in
  match kind with
  | "stall" ->
      let* deciders = as_int "deciders" e in
      let* advanced = as_int "advanced" e in
      Ok (Stall { deciders; advanced })
  | "violations" ->
      let* vs = as_list "violations" e in
      let* vs =
        map_result
          (fun v ->
            match J.to_str v with Some s -> Ok s | None -> Error "violations: expected strings")
          vs
      in
      Ok (Violations vs)
  | other -> Error (Printf.sprintf "unknown expect kind %S" other)

let strategy s =
  match Core.Strategy.of_string s with
  | Some _ -> Ok s
  | None -> Error (Printf.sprintf "unknown strategy %S" s)

let round_of json =
  let* drops = as_list "drops" json in
  let* drops = map_result (int_pair "drops") drops in
  let* byz = as_list "byz" json in
  let* byz =
    map_result
      (fun entry ->
        match J.to_list entry with
        | Some [ i; s ] -> begin
            match (J.to_int i, J.to_str s) with
            | Some i, Some s -> Result.map (fun s -> (i, s)) (strategy s)
            | _ -> Error "byz: expected [int, string]"
          end
        | _ -> Error "byz: expected [int, string]")
      byz
  in
  Ok { drops; byz }

let of_json json =
  let* s = as_string "schema" json in
  if s <> schema then Error (Printf.sprintf "schema mismatch: %S, want %S" s schema)
  else
    let* kind = as_string "kind" json in
    let* note = as_string "note" json in
    match kind with
    | "rounds" ->
        let* r_n = as_int "n" json in
        let* r_k = as_int "k" json in
        let* byzantine = as_list "byzantine" json in
        let* r_byzantine =
          map_result
            (fun v ->
              match J.to_int v with Some i -> Ok i | None -> Error "byzantine: expected ints")
            byzantine
        in
        let* dist = as_string "dist" json in
        let* r_dist = dist_of_string dist in
        let* r_seed = seed_of json in
        let* r_budget = as_int "budget" json in
        let* rounds = as_list "rounds" json in
        let* r_rounds = map_result round_of rounds in
        let* r_expect = expect_of json in
        Ok (Rounds { r_n; r_k; r_byzantine; r_dist; r_seed; r_budget; r_rounds; r_expect; r_note = note })
    | "radio" ->
        let* protocol = as_string "protocol" json in
        let* c_protocol =
          Option.to_result
            ~none:(Printf.sprintf "unknown protocol %S" protocol)
            (Harness.Runner.protocol_of_string protocol)
        in
        let* c_n = as_int "n" json in
        let* dist = as_string "dist" json in
        let* c_dist = dist_of_string dist in
        let* c_strategy =
          let* v = field "strategy" json in
          match (v, J.to_str v) with
          | J.Null, _ -> Ok None
          | _, Some s -> Result.map Option.some (strategy s)
          | _, None -> Error "field \"strategy\": expected string or null"
        in
        let* c_seed = seed_of json in
        let* c_bug =
          let* v = field "bug" json in
          match J.to_bool v with Some b -> Ok b | None -> Error "field \"bug\": expected bool"
        in
        let* schedule = as_list "schedule" json in
        let* c_schedule = map_result Obs.Fault_event.entry_of_json schedule in
        let* expect = expect_of json in
        let* c_expect =
          match expect with
          | Violations vs -> Ok vs
          | Stall _ -> Error "radio artifacts expect violations"
        in
        Ok (Radio { c_protocol; c_n; c_dist; c_strategy; c_seed; c_bug; c_schedule; c_expect; c_note = note })
    | other -> Error (Printf.sprintf "unknown artifact kind %S" other)

(* --- files ------------------------------------------------------------------ *)

let save path artifact =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string (to_json artifact));
      output_char oc '\n')

let load path =
  match
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
  with
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (Printf.sprintf "%s: empty file" path)
  | line -> begin
      match J.parse line with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok json -> begin
          match of_json json with
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
          | Ok a -> Ok a
        end
    end

(* --- reporting -------------------------------------------------------------- *)

let delivered_per_round a =
  let correct =
    List.filter (fun i -> not (List.mem i a.r_byzantine)) (List.init a.r_n (fun i -> i))
  in
  let is_correct i = List.mem i correct in
  let c = List.length correct in
  let pairs = c * (c - 1) in
  List.map
    (fun r ->
      let suppressed =
        List.length (List.filter (fun (s, rx) -> is_correct s && is_correct rx) r.drops)
      in
      pairs - suppressed)
    a.r_rounds

let describe = function
  | Rounds a ->
      Printf.sprintf "rounds artifact: n=%d k=%d t=%d %s budget=%d horizon=%d (%s)" a.r_n a.r_k
        (List.length a.r_byzantine)
        (Harness.Runner.dist_to_string a.r_dist)
        a.r_budget (List.length a.r_rounds) a.r_note
  | Radio a ->
      Printf.sprintf "radio artifact: %s n=%d %s%s seed=%Ld, %d schedule entries (%s)"
        (Harness.Runner.protocol_to_string a.c_protocol)
        a.c_n
        (Harness.Runner.dist_to_string a.c_dist)
        (match a.c_strategy with Some s -> ", strategy " ^ s | None -> "")
        a.c_seed (List.length a.c_schedule) a.c_note
