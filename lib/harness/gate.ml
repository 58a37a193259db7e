(* v3 added the scaling document and the engine high-water metrics; v4
   the Sampled-radio task ([radio_cap]) and the minor/major
   allocation-word split; v5 gave both gates one layout and dropped the
   scaling points' total-words field, the sum of those two counts. *)
let schema_version = 5

type rule = Exact | Growth of float

let wall_growth = Growth 3.0
let words_growth = Growth 0.5

type field = { key : string; rule : rule; value : float }

let check ~baseline rerun =
  let num = Printf.sprintf "%.17g" in
  let against (f : field) =
    match (List.assoc_opt f.key baseline, f.rule) with
    | None, _ -> Some (Printf.sprintf "%s: %s, not in the baseline" f.key (num f.value))
    | Some b, Exact ->
        if Float.equal b f.value then None
        else Some (Printf.sprintf "%s: %s -> %s, must not change" f.key (num b) (num f.value))
    | Some b, Growth bound ->
        if f.value <= b *. (1.0 +. bound) then None
        else
          Some
            (Printf.sprintf "%s: %s -> %s (%+.1f%%), over the +%.0f%% bound" f.key (num b)
               (num f.value)
               (100.0 *. (f.value -. b) /. b)
               (100.0 *. bound))
  in
  List.filter_map against rerun
  @ List.filter_map
      (fun (key, _) ->
        if List.exists (fun (f : field) -> f.key = key) rerun then None
        else Some (key ^ ": missing from the re-run"))
      baseline

type doc = {
  bench : string;
  seed : int64;
  params : (string * Obs.Json.t) list;
  values : (string * float) list;
}

let to_json d =
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String d.bench);
      ("schema_version", Obs.Json.Int schema_version);
      ("seed", Obs.Json.String (Int64.to_string d.seed));
      ("params", Obs.Json.Obj d.params);
      ("values", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) d.values));
    ]

let of_json json =
  let open Obs.Json in
  let get key conv = Option.bind (member key json) conv in
  let obj = function Obj kvs -> Some kvs | _ -> None in
  let numbers kvs =
    List.fold_right
      (fun (k, v) acc ->
        match (acc, to_float v) with Some l, Some f -> Some ((k, f) :: l) | _ -> None)
      kvs (Some [])
  in
  match (get "bench" to_str, get "schema_version" to_int) with
  | None, _ -> Error "not a gate document"
  | Some bench, Some v when v = schema_version -> (
      match
        ( get "seed" (fun j -> Option.bind (to_str j) Int64.of_string_opt),
          get "params" obj,
          Option.bind (get "values" obj) numbers )
      with
      | Some seed, Some params, Some values -> Ok { bench; seed; params; values }
      | _ -> Error ("malformed " ^ bench ^ " document"))
  | Some bench, v ->
      Error
        (Printf.sprintf "%s document %s; this build reads schema version %d" bench
           (match v with
           | Some v -> Printf.sprintf "of schema version %d" v
           | None -> "without a schema_version")
           schema_version)

type cost = { wall_s : float; minor_words : int; major_words : int }

(* Words allocated by the calling domain so far, split by generation
   (major is net of promotions, so the two add up to total allocation).
   Minor words come from [Gc.minor_words], which reads the calling
   domain's allocation pointer and is exact. Promoted and major words
   come from [Gc.counters], which reads the calling domain's own
   counters. Neither [Gc.counters]'s minor words nor [Gc.quick_stat]
   will do: the former is the domain's count as of its last minor
   collection, so a point's delta is off by up to one minor heap (256 k
   words; measured +16.5% on a 0.9 M-word point), and the latter sums
   every live domain on this runtime, its major words lagging until the
   next collection, so under -j N it bills a point for its neighbours'
   allocations (minor words inflated 3.6x at -j 4; at -j 2,
   Sampled-radio points that allocate a few thousand words directly in
   the major heap read millions). Unlike [top_heap_words] (a
   process-global monotonic high-water mark) the delta across a thunk
   does not depend on what ran earlier. *)
let words () =
  let _, promoted, major = Gc.counters () in
  let minor = Gc.minor_words () in
  (minor, major -. promoted)

let measure f =
  let minor0, major0 = words () in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor1, major1 = words () in
  ( v,
    {
      wall_s;
      minor_words = int_of_float (minor1 -. minor0);
      major_words = int_of_float (major1 -. major0);
    } )
