(* Scaling sweep past the paper's n=16: Turquois (all-to-all over the
   full radio/MAC stack, up to [turquois_cap]) against the sample-based
   consensus — over the same contended radio up to [radio_cap]
   ("Sampled-radio"), and over the scalable abstract medium at every n
   ("Sampled"). *)

type point = {
  protocol : string;
  n : int;
  honest : int;
  decided : int;
  mean_latency : float;
  max_latency : float;
  duration : float;
  msgs : int;
  bytes : int;
  airtime : float;
  live_peak : int;
  queued_peak : int;
  arena_hw : int;
  timed_out : bool;
  mem_words : int;
  minor_words : int;
  major_words : int;
}

let default_ns = [ 16; 64; 128; 256; 1024 ]

(* Words allocated by the current domain so far, split by generation
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
   process-global monotonic high-water mark) the delta across a point's
   body does not depend on which points ran earlier. *)
let gc_words () =
  let _, promoted, major = Gc.counters () in
  let minor = Gc.minor_words () in
  (minor, major -. promoted)

(* One sampled-consensus execution: n correct nodes, divergent
   proposals, 1% iid loss, all randomness derived from [seed]. *)
let run_sampled ~n ~seed ~timeout =
  let body () =
    let minor0, major0 = gc_words () in
    let engine = Net.Engine.create () in
    let rng = Util.Rng.create ~seed in
    let medium =
      Scale.Medium.create engine (Util.Rng.split rng) ~n ~loss:0.01 ()
    in
    let net = Scale.Transport.of_medium medium in
    let sampler = Scale.Sampler.create ~seed:(Util.Rng.derive ~base:seed [ 1 ]) ~n in
    let coin_seed = Util.Rng.derive ~base:seed [ 2 ] in
    let cfg = Scale.Sampled.default_config ~n in
    let decide_time : (int, float) Hashtbl.t = Hashtbl.create n in
    let nodes =
      Util.Init.array n (fun id ->
          let p =
            Scale.Sampled.create net sampler cfg ~id ~coin_seed
              ~proposal:(id land 1) ()
          in
          Scale.Sampled.on_decide p (fun ~value:_ ~phase:_ ->
              Hashtbl.replace decide_time id (Net.Engine.now engine));
          p)
    in
    Array.iter Scale.Sampled.start nodes;
    Net.Engine.run_while engine (fun () ->
        Net.Engine.now engine < timeout && Hashtbl.length decide_time < n);
    let timed_out = Hashtbl.length decide_time < n in
    (* drain the linger/claim tail so traffic totals are complete *)
    Net.Engine.run ~until:timeout engine;
    let lats = Hashtbl.fold (fun _ l acc -> l :: acc) decide_time [] in
    let stats = Scale.Medium.stats medium in
    let minor1, major1 = gc_words () in
    {
      protocol = "Sampled";
      n;
      honest = n;
      decided = Hashtbl.length decide_time;
      mean_latency =
        (if lats = [] then 0.0
         else List.fold_left ( +. ) 0.0 lats /. float_of_int (List.length lats));
      max_latency = List.fold_left Float.max 0.0 lats;
      duration = Net.Engine.now engine;
      msgs = stats.msgs_sent;
      bytes = stats.bytes_sent;
      airtime = stats.airtime;
      live_peak = Net.Engine.live_peak engine;
      queued_peak = Net.Engine.queued_peak engine;
      arena_hw = Scale.Medium.arena_high_water medium;
      timed_out;
      mem_words = int_of_float (minor1 +. major1 -. (minor0 +. major0));
      minor_words = int_of_float (minor1 -. minor0);
      major_words = int_of_float (major1 -. major0);
    }
  in
  fst (Obs.Scope.with_run body)

(* One Runner execution over the full radio/MAC stack, reduced to a
   sweep point. Shared by the Turquois and Sampled-radio task kinds. *)
let run_radio ~protocol_name ~runner_protocol ~n ~seed ~timeout =
  let minor0, major0 = gc_words () in
  let r =
    Runner.run ~protocol:runner_protocol ~n ~dist:Runner.Divergent
      ~load:Net.Fault.Failure_free ~timeout ~seed ()
  in
  let minor1, major1 = gc_words () in
  let lats = List.map snd r.Runner.latencies in
  {
    protocol = protocol_name;
    n;
    honest = List.length r.Runner.correct;
    decided = List.length lats;
    mean_latency =
      (if lats = [] then 0.0
       else List.fold_left ( +. ) 0.0 lats /. float_of_int (List.length lats));
    max_latency = List.fold_left Float.max 0.0 lats;
    duration = r.Runner.duration;
    msgs = r.Runner.frames_sent;
    bytes = r.Runner.bytes_sent;
    airtime = r.Runner.airtime;
    live_peak = r.Runner.events_live_peak;
    queued_peak = r.Runner.events_queued_peak;
    (* for Turquois the arena is the per-run interned message store:
       its size is the count of distinct messages the whole group
       materialized (the flat V sets and justification bundles hold
       indices into it) *)
    arena_hw =
      (match runner_protocol with
      | Runner.Turquois -> Core.Msgstore.size (Core.Msgstore.current ())
      | _ -> 0);
    timed_out = r.Runner.timed_out;
    mem_words = int_of_float (minor1 +. major1 -. (minor0 +. major0));
    minor_words = int_of_float (minor1 -. minor0);
    major_words = int_of_float (major1 -. major0);
  }

let run_turquois ~n ~seed ~timeout =
  run_radio ~protocol_name:"Turquois" ~runner_protocol:Runner.Turquois ~n ~seed ~timeout

let run_sampled_radio ~n ~seed ~timeout =
  run_radio ~protocol_name:"Sampled-radio" ~runner_protocol:Runner.Sampled ~n ~seed
    ~timeout

let sweep ?jobs ?(ns = default_ns) ?(turquois_cap = 128) ?(radio_cap = 256)
    ?(timeout = 30.0) ~seed () =
  if ns = [] then invalid_arg "Scaling.sweep: need at least one n";
  let tasks =
    Array.of_list
      (List.concat_map
         (fun n ->
           (if n <= turquois_cap then [ ("Turquois", n) ] else [])
           @ (if n <= radio_cap then [ ("Sampled-radio", n) ] else [])
           @ [ ("Sampled", n) ])
         ns)
  in
  Pool.map ?jobs ~tasks:(Array.length tasks) (fun i ->
      let protocol, n = tasks.(i) in
      let seed = Util.Rng.derive ~base:seed [ i; n ] in
      match protocol with
      | "Turquois" -> run_turquois ~n ~seed ~timeout
      | "Sampled-radio" -> run_sampled_radio ~n ~seed ~timeout
      | _ -> run_sampled ~n ~seed ~timeout)
  |> Array.to_list

(* deterministic fields only: the table is diffed across -j values *)
let render points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-13s %5s %9s %10s %10s %9s %9s %11s %9s %9s %10s %8s %6s\n"
       "protocol" "n" "decided" "mean_ms" "max_ms" "dur_s" "msgs" "bytes"
       "airtime_s" "live_pk" "queued_pk" "arena" "t/o");
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-13s %5d %4d/%-4d %10.2f %10.2f %9.3f %9d %11d %9.3f %9d %10d %8d %6s\n"
           p.protocol p.n p.decided p.honest (p.mean_latency *. 1e3)
           (p.max_latency *. 1e3) p.duration p.msgs p.bytes p.airtime p.live_peak
           p.queued_peak p.arena_hw
           (if p.timed_out then "yes" else "no")))
    points;
  Buffer.contents buf

type doc = {
  ns : int list;
  turquois_cap : int;
  radio_cap : int;
  timeout : float;
  seed : int64;
  points : point list;
}

let to_json d =
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String "scaling");
      ("bench_schema_version", Obs.Json.Int Gate.schema_version);
      ("sizes", Obs.Json.List (List.map (fun n -> Obs.Json.Int n) d.ns));
      ("turquois_cap", Obs.Json.Int d.turquois_cap);
      ("radio_cap", Obs.Json.Int d.radio_cap);
      ("timeout_s", Obs.Json.Float d.timeout);
      ("seed", Obs.Json.String (Int64.to_string d.seed));
      ( "points",
        Obs.Json.List
          (List.map
             (fun p ->
               Obs.Json.Obj
                 [
                   ("protocol", Obs.Json.String p.protocol);
                   ("n", Obs.Json.Int p.n);
                   ("honest", Obs.Json.Int p.honest);
                   ("decided", Obs.Json.Int p.decided);
                   ("mean_latency_s", Obs.Json.Float p.mean_latency);
                   ("max_latency_s", Obs.Json.Float p.max_latency);
                   ("duration_s", Obs.Json.Float p.duration);
                   ("msgs", Obs.Json.Int p.msgs);
                   ("bytes", Obs.Json.Int p.bytes);
                   ("airtime_s", Obs.Json.Float p.airtime);
                   ("live_peak", Obs.Json.Int p.live_peak);
                   ("queued_peak", Obs.Json.Int p.queued_peak);
                   ("arena_hw", Obs.Json.Int p.arena_hw);
                   ("timed_out", Obs.Json.Bool p.timed_out);
                   ("mem_words", Obs.Json.Int p.mem_words);
                   ("minor_words", Obs.Json.Int p.minor_words);
                   ("major_words", Obs.Json.Int p.major_words);
                 ])
             d.points) );
    ]

(* The allocation words are exact only up to a small domain-cache
   warmup constant, so they may only grow within a bound; every other
   field is a deterministic function of the seed. *)
let fields points =
  List.concat_map
    (fun p ->
      let field rule name value =
        { Gate.key = Printf.sprintf "%s n=%d/%s" p.protocol p.n name; rule; value }
      in
      let exact name value = field Gate.Exact name value in
      let count name value = exact name (float_of_int value) in
      let words name value = field Gate.words_growth name (float_of_int value) in
      [
        count "honest" p.honest;
        count "decided" p.decided;
        exact "mean_latency_s" p.mean_latency;
        exact "max_latency_s" p.max_latency;
        exact "duration_s" p.duration;
        count "msgs" p.msgs;
        count "bytes" p.bytes;
        exact "airtime_s" p.airtime;
        count "live_peak" p.live_peak;
        count "queued_peak" p.queued_peak;
        count "arena_hw" p.arena_hw;
        count "timed_out" (Bool.to_int p.timed_out);
        words "mem_words" p.mem_words;
        words "minor_words" p.minor_words;
        words "major_words" p.major_words;
      ])
    points

let of_json json =
  let open Obs.Json in
  let ( let* ) o f = match o with Some v -> f v | None -> Error "malformed scaling doc" in
  let* bench = Option.bind (member "bench" json) to_str in
  let version = Option.bind (member "bench_schema_version" json) to_int in
  if bench <> "scaling" then Error "not a scaling document"
  else if version <> Some Gate.schema_version then
    Error
      (Printf.sprintf
         "scaling schema version %s; this build writes version %d (regenerate it with \
          --scaling-out)"
         (Option.fold ~none:"missing" ~some:string_of_int version)
         Gate.schema_version)
  else
    let* ns =
      match Option.bind (member "sizes" json) to_list with
      | None -> None
      | Some l ->
          List.fold_left
            (fun acc j ->
              match (acc, to_int j) with
              | Some ns, Some n -> Some (n :: ns)
              | _, _ -> None)
            (Some []) l
          |> Option.map List.rev
    in
    let* turquois_cap = Option.bind (member "turquois_cap" json) to_int in
    let* radio_cap = Option.bind (member "radio_cap" json) to_int in
    let* timeout = Option.bind (member "timeout_s" json) to_float in
    let* seed =
      Option.bind (member "seed" json) (fun j ->
          Option.bind (to_str j) Int64.of_string_opt)
    in
    let* points = Option.bind (member "points" json) to_list in
    let parse_point p =
      let int k = Option.bind (member k p) to_int in
      let flt k = Option.bind (member k p) to_float in
      let* protocol = Option.bind (member "protocol" p) to_str in
      let* n = int "n" in
      let* honest = int "honest" in
      let* decided = int "decided" in
      let* mean_latency = flt "mean_latency_s" in
      let* max_latency = flt "max_latency_s" in
      let* duration = flt "duration_s" in
      let* msgs = int "msgs" in
      let* bytes = int "bytes" in
      let* airtime = flt "airtime_s" in
      let* live_peak = int "live_peak" in
      let* queued_peak = int "queued_peak" in
      let* arena_hw = int "arena_hw" in
      let* timed_out = Option.bind (member "timed_out" p) to_bool in
      let* mem_words = int "mem_words" in
      let* minor_words = int "minor_words" in
      let* major_words = int "major_words" in
      Ok
        {
          protocol;
          n;
          honest;
          decided;
          mean_latency;
          max_latency;
          duration;
          msgs;
          bytes;
          airtime;
          live_peak;
          queued_peak;
          arena_hw;
          timed_out;
          mem_words;
          minor_words;
          major_words;
        }
    in
    List.fold_left
      (fun acc p ->
        match (acc, parse_point p) with
        | Error e, _ -> Error e
        | _, Error e -> Error e
        | Ok ps, Ok p -> Ok (p :: ps))
      (Ok []) points
    |> Result.map (fun points ->
           { ns; turquois_cap; radio_cap; timeout; seed; points = List.rev points })
