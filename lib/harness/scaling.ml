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
  minor_words : int;
  major_words : int;
}

let default_ns = [ 16; 64; 128; 256; 1024 ]

(* One sampled-consensus execution: n correct nodes, divergent
   proposals, 1% iid loss, all randomness derived from [seed]. *)
let run_sampled ~n ~seed ~timeout =
  let body () =
    let (engine, medium, decide_time, timed_out), cost =
      Gate.measure (fun () ->
          let engine = Net.Engine.create () in
          let rng = Util.Rng.create ~seed in
          let medium = Scale.Medium.create engine (Util.Rng.split rng) ~n ~loss:0.01 () in
          let net = Scale.Transport.of_medium medium in
          let sampler = Scale.Sampler.create ~seed:(Util.Rng.derive ~base:seed [ 1 ]) ~n in
          let coin_seed = Util.Rng.derive ~base:seed [ 2 ] in
          let decide_time : (int, float) Hashtbl.t = Hashtbl.create n in
          let nodes =
            Util.Init.array n (fun id ->
                let p =
                  Scale.Sampled.create net sampler ~id ~coin_seed ~proposal:(id land 1) ()
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
          (engine, medium, decide_time, timed_out))
    in
    let lats = Hashtbl.fold (fun _ l acc -> l :: acc) decide_time [] in
    let stats = Scale.Medium.stats medium in
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
      arena_hw = Scale.Medium.in_flight_peak medium;
      timed_out;
      minor_words = cost.minor_words;
      major_words = cost.major_words;
    }
  in
  fst (Obs.Scope.with_run body)

(* One Runner execution over the full radio/MAC stack, reduced to a
   sweep point. Shared by the Turquois and Sampled-radio task kinds. *)
let run_radio ~protocol_name ~runner_protocol ~n ~seed ~timeout =
  let r, cost =
    Gate.measure (fun () ->
        Runner.run ~protocol:runner_protocol ~n ~dist:Runner.Divergent
          ~load:Net.Fault.Failure_free ~timeout ~seed ())
  in
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
    (* for Turquois the field reads the per-run interned message store:
       the count of distinct messages the whole group admitted to V sets
       (the flat V sets and justification bundles hold indices into it) *)
    arena_hw =
      (match runner_protocol with
      | Runner.Turquois -> Core.Msgstore.size (Core.Msgstore.current ())
      | _ -> 0);
    timed_out = r.Runner.timed_out;
    minor_words = cost.minor_words;
    major_words = cost.major_words;
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
        words "minor_words" p.minor_words;
        words "major_words" p.major_words;
      ])
    points
