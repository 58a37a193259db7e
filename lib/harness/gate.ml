(* v3 added the scaling document and the engine high-water metrics; v4
   the Sampled-radio task ([radio_cap]) and the minor/major
   allocation-word split. *)
let schema_version = 4

type rule = Exact | Growth of float

let wall_growth = Growth 3.0
let words_growth = Growth 0.5

type field = { key : string; rule : rule; value : float }

let check ~baseline rerun =
  let find key fields = List.find_opt (fun f -> f.key = key) fields in
  let num = Printf.sprintf "%.17g" in
  let against (f : field) =
    match (find f.key baseline, f.rule) with
    | None, _ -> Some (Printf.sprintf "%s: %s, not in the baseline" f.key (num f.value))
    | Some b, Exact ->
        if Float.equal b.value f.value then None
        else
          Some
            (Printf.sprintf "%s: %s -> %s, must not change" f.key (num b.value) (num f.value))
    | Some b, Growth bound ->
        if f.value <= b.value *. (1.0 +. bound) then None
        else
          Some
            (Printf.sprintf "%s: %s -> %s (%+.1f%%), over the +%.0f%% bound" f.key
               (num b.value) (num f.value)
               (100.0 *. (f.value -. b.value) /. b.value)
               (100.0 *. bound))
  in
  List.filter_map against rerun
  @ List.filter_map
      (fun (b : field) ->
        if find b.key rerun = None then Some (b.key ^ ": missing from the re-run") else None)
      baseline

type baseline = {
  seed : int64;
  wall : (string * float) list;
  airtime : (string * float) list;
}

let fields b =
  let section name rule = List.map (fun (k, value) -> { key = name ^ "/" ^ k; rule; value }) in
  section "wall" wall_growth b.wall @ section "airtime" Exact b.airtime

let to_json b =
  let section kvs = Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) kvs) in
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String "regression-gate");
      ("schema_version", Obs.Json.Int schema_version);
      ("seed", Obs.Json.String (Int64.to_string b.seed));
      ("wall", section b.wall);
      ("airtime", section b.airtime);
    ]

let of_json json =
  let open Obs.Json in
  let section name =
    match member name json with
    | Some (Obj kvs) ->
        List.fold_right
          (fun (k, v) acc ->
            match (acc, to_float v) with Some l, Some f -> Some ((k, f) :: l) | _ -> None)
          kvs (Some [])
    | _ -> None
  in
  let seed =
    Option.bind (member "seed" json) (fun j -> Option.bind (to_str j) Int64.of_string_opt)
  in
  match
    ( Option.bind (member "bench" json) to_str,
      Option.bind (member "schema_version" json) to_int )
  with
  | Some "regression-gate", Some v when v = schema_version -> (
      match (seed, section "wall", section "airtime") with
      | Some seed, Some wall, Some airtime -> Ok { seed; wall; airtime }
      | _ -> Error "malformed regression-gate baseline")
  | Some "regression-gate", Some v ->
      Error
        (Printf.sprintf
           "baseline schema version %d; this build writes version %d (regenerate it with \
            --baseline-out)"
           v schema_version)
  | _ -> Error "not a regression-gate baseline"
