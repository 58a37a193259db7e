(* Per-layer performance ledger: the simulator's benchmark.

     bash perfledger/run.sh --workload NAME [--seed S] [--seconds N]
       [--trace 0|1] [--quick]

   One process runs one workload and prints one JSON object as the last
   line of stdout. [--seconds] counts from the start of the process, so
   set-up is inside it; only the minimum number of repeats below can
   make a process run longer. The order inside a process:

   1. Set-up, three times from an empty key cache: key generation plus
      one warm-up run. The median is [setup_s].
   2. With [--trace 0], repeats of the workload's unit with profiling
      off, until [--seconds] have passed since the process started, and
      at least three. They give the end-to-end metrics.
   3. With [--trace 1], pairs of one untraced and one profiled repeat,
      in the same way but at least one pair. The profiled repeat gives
      the per-layer split; the pair gives the profiler's overhead.

   A unit is a fixed set of simulated runs whose inputs derive from
   [--seed], so every repeat of it must produce the same simulated
   outputs, profiled or not: profiling is observer-only. A difference
   between repeats, an agreement or validity violation, an undecided
   correct process, or a lost, duplicated or reordered command stops the
   process with exit code 1 and no result line.

   Host time is process CPU time (user + system): the runs are
   single-threaded, and CPU time leaves out the time other tenants of a
   shared host hold the processor. They still slow it down, by up to 2x
   for seconds at a time on a shared 2-vCPU host, so [host_s]
   takes each run's fastest repeat. *)

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

(* --- what one unit produces ------------------------------------------------- *)

(* The simulated outputs of one unit's runs, bit-deterministic for a
   seed; lists are newest first. An op is one correct process deciding
   one consensus instance, or one client command delivered by every
   process of the log. Latency is summarised per run, and the end-to-end
   metrics take the median over runs: now and then a whole Sampled run
   decides one phase late, which moves a tail percentile pooled over a
   few runs by a whole phase. *)
type sim = {
  mutable ops : int;
  mutable p50s : float list;  (** each run's median latency, simulated seconds *)
  mutable tails : float list;  (** each run's p95 latency *)
  mutable rates : float list;  (** each run's ops per simulated second *)
  mutable snapshots : Obs.Metrics.snapshot list;  (** one per run *)
  mutable msgstore : int;  (** Core.Msgstore sizes, summed over runs *)
  mutable live_peak : int;  (** highest engine live-event count of any run *)
  mutable slots_committed : int;
  mutable slots_skipped : int;
}

(* a unit in progress: its simulated outputs and each run's host cost *)
type acc = {
  sim : sim;
  mutable run_ms : float list;  (** wall time per run call *)
  mutable run_cpu : float list;  (** CPU time per run call *)
  spans : (string, int * float) Hashtbl.t;  (** Prof (count, seconds) *)
}

let new_acc () =
  {
    sim =
      {
        ops = 0;
        p50s = [];
        tails = [];
        rates = [];
        snapshots = [];
        msgstore = 0;
        live_peak = 0;
        slots_committed = 0;
        slots_skipped = 0;
      };
    run_ms = [];
    run_cpu = [];
    spans = Hashtbl.create 8;
  }

(* Obs.Prof resets its accumulators at every run start, so the spans of
   each run are read as soon as it returns. *)
let timed_run acc f =
  let t0 = Unix.gettimeofday () and c0 = Sys.time () in
  let v = f () in
  acc.run_cpu <- (Sys.time () -. c0) :: acc.run_cpu;
  acc.run_ms <- (1e3 *. (Unix.gettimeofday () -. t0)) :: acc.run_ms;
  if Obs.Prof.on () then
    List.iter
      (fun (st : Obs.Prof.stat) ->
        let c, s = Option.value ~default:(0, 0.0) (Hashtbl.find_opt acc.spans st.name) in
        Hashtbl.replace acc.spans st.name (c + st.count, s +. (st.total_ns /. 1e9)))
      (Obs.Prof.snapshot ());
  v

let record acc ~ops ~latencies ~sim_s ~metrics ~live_peak =
  let sim = acc.sim in
  sim.ops <- sim.ops + ops;
  sim.p50s <- Util.Stats.percentile latencies 0.5 :: sim.p50s;
  sim.tails <- Util.Stats.percentile latencies 0.95 :: sim.tails;
  sim.rates <- (float_of_int ops /. sim_s) :: sim.rates;
  sim.snapshots <- metrics :: sim.snapshots;
  (* the store is re-bound at every run start, so until the next run it
     is the one this run filled *)
  sim.msgstore <- sim.msgstore + Core.Msgstore.size (Core.Msgstore.current ());
  sim.live_peak <- max sim.live_peak live_peak

(* --- consensus runs --------------------------------------------------------- *)

let consensus_run acc ~protocol ~n ~dist ~load ~timeout ~seed =
  let r =
    timed_run acc (fun () -> Harness.Runner.run ~protocol ~n ~dist ~load ~timeout ~seed ())
  in
  let what =
    Printf.sprintf "%s n=%d %s %s, run seed %Ld"
      (Harness.Runner.protocol_to_string protocol)
      n (Net.Fault.load_to_string load) (Harness.Runner.dist_to_string dist) seed
  in
  if not r.agreement then violation "agreement violated: %s" what;
  if not r.validity then violation "validity violated: %s" what;
  (* every scenario a workload runs is one where all correct processes
     decide well inside the timeout *)
  let decided = List.length r.latencies and correct = List.length r.correct in
  if r.timed_out || decided <> correct then
    violation "%d of %d correct processes decided: %s" decided correct what;
  record acc ~ops:decided ~latencies:(List.map snd r.latencies) ~sim_s:r.duration
    ~metrics:r.metrics ~live_peak:r.events_live_peak

(* --- ordered-log runs -------------------------------------------------------- *)

let log_n = 4
let log_max_phases = 45

(* Key material sized for [capacity] slots, from a seed disjoint from
   every run seed. *)
let log_keys ~capacity =
  Harness.Runner.keyrings_for
    ~seed:(Util.Rng.derive ~base:0x1ed9e7L [ log_n; capacity ])
    ~n:log_n ~phases:(capacity * log_max_phases)

let encode_command id =
  let b = Bytes.make 16 '\xab' in
  Bytes.set_int32_be b 0 (Int32.of_int id);
  b

(* One Core.Ordered_log cluster serving an open-loop Poisson stream of
   [commands] client commands at [load] commands per simulated second,
   with 1% frame loss. Arrival times are precomputed engine events, so
   the generator is never late, and a command's latency runs from its
   due time to its delivery at the process that submitted it. The run
   ends once every process has delivered every command; each process
   must deliver the same commands in the same order, each exactly once. *)
let log_run acc ~capacity ~commands ~load ~seed =
  let body () =
    let engine = Net.Engine.create () in
    let rng = Util.Rng.create ~seed in
    let radio = Net.Radio.create engine (Util.Rng.split rng) ~n:log_n in
    Net.Radio.set_loss_prob radio 0.01;
    let cfg = { (Core.Proto.default_config ~n:log_n) with max_phases = log_max_phases } in
    let keyrings = log_keys ~capacity in
    let logs =
      Util.Init.array log_n (fun i ->
          let node = Net.Node.create engine radio ~id:i ~rng:(Util.Rng.split rng) in
          Core.Ordered_log.create node cfg ~keyring:keyrings.(i) ~capacity ~window:1
            ~max_batch:8 ~payload_wait:0.3 ~noop_wait:0.12 ~help_retention:capacity
            ~retain_deliveries:false ())
    in
    let due = Array.make commands 0.0 in
    let gaps = Util.Rng.split rng in
    let t = ref 0.0 in
    for id = 0 to commands - 1 do
      t := !t +. Util.Rng.exponential gaps ~mean:(1.0 /. load);
      due.(id) <- !t
    done;
    let order = Array.make log_n [] in
    let delivered = Array.make log_n 0 in
    let latencies = ref [] in
    let committed = ref 0 and skipped = ref 0 in
    Array.iteri
      (fun i log ->
        Core.Ordered_log.on_deliver log (fun ~slot:_ ~payload ->
            match payload with
            | None -> if i = 0 then incr skipped
            | Some batch ->
                if i = 0 then incr committed;
                List.iter
                  (fun cmd ->
                    let id = Int32.to_int (Bytes.get_int32_be cmd 0) in
                    order.(i) <- id :: order.(i);
                    delivered.(i) <- delivered.(i) + 1;
                    if id mod log_n = i then
                      latencies := (Net.Engine.now engine -. due.(id)) :: !latencies)
                  (Core.Ordered_log.decode_batch batch)))
      logs;
    Array.iter Core.Ordered_log.start logs;
    Array.iteri
      (fun id time ->
        ignore
          (Net.Engine.at engine ~time (fun () ->
               Core.Ordered_log.submit logs.(id mod log_n) (encode_command id))))
      due;
    Net.Engine.run_while engine (fun () ->
        Net.Engine.now engine < 120.0 && Array.exists (fun d -> d < commands) delivered);
    let what = Printf.sprintf "ordered log, run seed %Ld" seed in
    Array.iteri
      (fun i d ->
        if d <> commands then
          violation "process %d delivered %d of %d commands: %s" i d commands what;
        if order.(i) <> order.(0) then
          violation "processes 0 and %d delivered different logs: %s" i what)
      delivered;
    let seen = Array.make commands false in
    List.iter
      (fun id ->
        if id < 0 || id >= commands || seen.(id) then
          violation "command %d delivered twice or never submitted: %s" id what;
        seen.(id) <- true)
      order.(0);
    acc.sim.slots_committed <- acc.sim.slots_committed + !committed;
    acc.sim.slots_skipped <- acc.sim.slots_skipped + !skipped;
    (!latencies, Net.Engine.now engine, Net.Engine.live_peak engine)
  in
  let (latencies, sim_s, live_peak), metrics =
    timed_run acc (fun () -> Obs.Scope.with_run body)
  in
  record acc ~ops:commands ~latencies ~sim_s ~metrics ~live_peak

(* --- workloads ---------------------------------------------------------------- *)

type workload = {
  name : string;
  warmup : seed:int64 -> acc -> unit;
      (** one small run on the unit's key material, in set-up *)
  unit : seed:int64 -> acc -> unit;
}

(* The paper's regime (Tables 1-3): n=16 on 802.11b, every fault load.
   Byzantine runs use unanimous proposals only: with divergent ones,
   about 2% of seeds leave every correct process undecided for the whole
   120 s timeout (62 of 3000 seeds), so that scenario cannot be held to
   the liveness check. *)
let paper_n16 ~quick =
  let scenarios =
    Net.Fault.
      [
        (Failure_free, Harness.Runner.Unanimous);
        (Failure_free, Harness.Runner.Divergent);
        (Fail_stop, Harness.Runner.Unanimous);
        (Fail_stop, Harness.Runner.Divergent);
        (Byzantine, Harness.Runner.Unanimous);
      ]
  in
  let reps = if quick then 1 else 100 in
  let run acc ~seed (load, dist) =
    consensus_run acc ~protocol:Harness.Runner.Turquois ~n:16 ~dist ~load ~timeout:10.0
      ~seed
  in
  {
    name = "paper-n16";
    warmup =
      (fun ~seed acc -> run acc ~seed:(Util.Rng.derive ~base:seed [ -1 ]) (List.hd scenarios));
    unit =
      (fun ~seed acc ->
        List.iteri
          (fun si scenario ->
            for rep = 0 to reps - 1 do
              run acc ~seed:(Util.Rng.derive ~base:seed [ si; rep ]) scenario
            done)
          scenarios);
  }

(* Failure-free runs with unanimous proposals. With divergent ones the
   number of coin-flip phases, and with it a run's cost, varies too much
   between seeds for a few runs to average out: 1.4 s to 18.7 s of host
   time per Turquois run at n=128. *)
let unanimous_workload ~name ~protocol ~n ~runs =
  let run acc ~seed =
    consensus_run acc ~protocol ~n ~dist:Harness.Runner.Unanimous
      ~load:Net.Fault.Failure_free ~timeout:30.0 ~seed
  in
  {
    name;
    warmup = (fun ~seed acc -> run acc ~seed:(Util.Rng.derive ~base:seed [ -1 ]));
    unit =
      (fun ~seed acc ->
        for i = 0 to runs - 1 do
          run acc ~seed:(Util.Rng.derive ~base:seed [ i ])
        done);
  }

(* all-to-all Turquois at scale *)
let turquois_n128 ~quick =
  unanimous_workload ~name:"turquois-n128" ~protocol:Harness.Runner.Turquois
    ~n:(if quick then 16 else 128)
    ~runs:(if quick then 1 else 4)

(* The sample-based protocol on the same radio and MAC stack. n=64
   rather than 128: a run at n=128 takes 3.5 s and its host time swung
   by 60% between runs on a shared host, while four runs at n=64 give a
   steady unit. *)
let sampled_radio_n64 ~quick =
  unanimous_workload ~name:"sampled-radio-n64" ~protocol:Harness.Runner.Sampled
    ~n:(if quick then 16 else 64)
    ~runs:(if quick then 1 else 4)

(* 30 commands/s is about 55% of what this configuration serves at
   saturation (54 commands/s; the offered-load sweep in README.md). Slots
   carry batches of about four commands, and latency is still within 20%
   of its unloaded value, so it reads the protocol rather than a growing
   backlog. *)
let log_service ~quick =
  let capacity = if quick then 24 else 480 and commands = if quick then 20 else 1000 in
  let run acc ~commands ~seed = log_run acc ~capacity ~commands ~load:30.0 ~seed in
  {
    name = "log-service";
    warmup = (fun ~seed acc -> run acc ~commands:4 ~seed:(Util.Rng.derive ~base:seed [ -1 ]));
    unit =
      (fun ~seed acc ->
        for i = 0 to (if quick then 0 else 1) do
          run acc ~commands ~seed:(Util.Rng.derive ~base:seed [ i ])
        done);
  }

let workloads = [ paper_n16; turquois_n128; sampled_radio_n64; log_service ]

(* --- measurement ---------------------------------------------------------------- *)

(* words allocated by this domain: minor allocations plus direct major ones *)
let words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

type repeat = {
  sim : sim;
  cpu_s : float;
  run_cpu : float list;  (** CPU seconds of each run, in run order *)
  wall_s : float;
  alloc_w : float;
  heap_mb : float;  (** process heap high-water mark after this repeat *)
  run_ms : float list;
  spans : (string, int * float) Hashtbl.t;
}

let repeat w ~seed ~profile =
  Obs.Prof.with_profiling profile (fun () ->
      let acc = new_acc () in
      let c0 = Sys.time () and t0 = Unix.gettimeofday () and w0 = words () in
      w.unit ~seed acc;
      let alloc_w = words () -. w0 in
      let wall_s = Unix.gettimeofday () -. t0 and cpu_s = Sys.time () -. c0 in
      let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
      {
        sim = acc.sim;
        cpu_s;
        run_cpu = List.rev acc.run_cpu;
        wall_s;
        alloc_w;
        heap_mb = float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6;
        run_ms = acc.run_ms;
        spans = acc.spans;
      })

let median l = Util.Stats.percentile l 0.5

let setup w ~seed ~times =
  median
    (List.init times (fun _ ->
         Harness.Runner.clear_key_cache ();
         let c0 = Sys.time () in
         w.warmup ~seed (new_acc ());
         Sys.time () -. c0))

(* Repeats [step] while the next repeat, predicted to take as long as the
   last, still ends within [seconds] of [start]; always at least [least]
   times. *)
let measure ~start ~seconds ~least ~quick step =
  let rec go acc =
    let t1 = Unix.gettimeofday () in
    let acc = step () :: acc in
    let now = Unix.gettimeofday () in
    if quick || (List.length acc >= least && now -. start +. (now -. t1) > seconds) then
      List.rev acc
    else go acc
  in
  go []

let check_same ~what (expected : sim) (r : repeat) =
  if r.sim <> expected then violation "%s produced different simulated outputs" what

(* --- metrics --------------------------------------------------------------------- *)

(* a counter or gauge summed over all of its label sets *)
let total (snap : Obs.Metrics.snapshot) name =
  List.fold_left
    (fun acc (s : Obs.Metrics.sample) ->
      if s.name <> name then acc
      else
        match s.value with
        | Obs.Metrics.Counter c -> acc +. float_of_int c
        | Obs.Metrics.Gauge g -> acc +. g
        | Obs.Metrics.Histogram _ -> acc)
    0.0 snap

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Each run's fastest time over the repeats, summed over the unit's runs:
   contention from other tenants only ever slows a run down. *)
let host_min reps =
  let runs = List.map (fun r -> Array.of_list r.run_cpu) reps in
  let best = Array.copy (List.hd runs) in
  List.iter (Array.iteri (fun i c -> best.(i) <- Float.min best.(i) c)) runs;
  Array.fold_left ( +. ) 0.0 best

let end_to_end ~setup_s (reps : repeat list) =
  let first = List.hd reps in
  let sim = first.sim in
  [
    ("setup_s", setup_s, "s");
    ("host_s", host_min reps, "s");
    ("alloc_mw", median (List.map (fun r -> r.alloc_w /. 1e6) reps), "Mw");
    ("peak_heap_mb", first.heap_mb, "MB");
    ("sim_p50_ms", 1e3 *. median sim.p50s, "ms");
    ("sim_tail_ms", 1e3 *. median sim.tails, "ms");
    ("goodput_ops_s", median sim.rates, "1/s");
  ]

(* Per-layer metrics of one (untraced, profiled) pair. *)
let per_layer (plain : repeat) (traced : repeat) =
  let sim = traced.sim in
  let m = total (Obs.Metrics.merge sim.snapshots) in
  let span name =
    Option.value ~default:(0, 0.0) (Hashtbl.find_opt traced.spans ("hotpath." ^ name))
  in
  let span_s name = snd (span name) in
  let span_count name = float_of_int (fst (span name)) in
  let spans_s = Hashtbl.fold (fun _ (_, s) acc -> acc +. s) traced.spans 0.0 in
  let decisions = m "proto.decisions" in
  let decodes = m "codec.decode.memo_hit" +. m "codec.decode.memo_miss" in
  let verifies = m "crypto.verify.cache_hit" +. m "crypto.verify.cache_miss" in
  let accepted = m "validation.accepted"
  and duplicates = m "validation.duplicates"
  and rejected = m "validation.rejected" in
  [
    ("engine.events", span_count "engine_pop", "count");
    ("engine.pop_s", span_s "engine_pop", "s");
    ("engine.live_peak", float_of_int sim.live_peak, "count");
    ("engine.events_per_host_s", ratio (span_count "engine_pop") plain.cpu_s, "1/s");
    ("radio.frames", m "radio.tx", "count");
    ("radio.deliveries", m "radio.delivered", "count");
    ("radio.collisions", m "radio.collisions", "count");
    ("radio.airtime_s", m "radio.airtime_s", "s");
    ("radio.kb_per_decision", ratio (m "radio.bytes" /. 1e3) decisions, "kB");
    ("mac.tx", m "mac.tx", "count");
    ("mac.retries", m "mac.retries", "count");
    ("mac.drops", m "mac.drops", "count");
    ("mac.replaced", m "mac.replaced", "count");
    ("mac.backoff_slots", m "mac.backoff_slots", "count");
    ("mac.contention_s", span_s "mac_contention", "s");
    ("codec.decodes", decodes, "count");
    ("codec.memo_hit_ratio", ratio (m "codec.decode.memo_hit") decodes, "ratio");
    ("codec.decode_s", span_s "decode", "s");
    ("crypto.verifies", verifies, "count");
    ("crypto.cache_hit_ratio", ratio (m "crypto.verify.cache_hit") verifies, "ratio");
    ("crypto.verify_s", span_s "verify", "s");
    ("validation.accepted", accepted, "count");
    ("validation.duplicates", duplicates, "count");
    ("validation.rejected", rejected, "count");
    ("validation.useful_ratio", ratio accepted (accepted +. duplicates +. rejected), "ratio");
    ("vset.adds", span_count "vset_tally", "count");
    ("vset.add_s", span_s "vset_tally", "s");
    ("msgstore.size", float_of_int sim.msgstore, "count");
    ("compact.unresolved", m "compact.unresolved", "count");
    ("proto.msgs_per_decision", ratio (m "proto.msgs_sent") decisions, "count");
    ("proto.justified_ratio", ratio (m "proto.justified") (m "proto.broadcasts"), "ratio");
    ("proto.phase_changes", m "proto.phase_changes", "count");
    ("proto.coin_flips", m "proto.coin_flips", "count");
    ("log.slots_committed", float_of_int sim.slots_committed, "count");
    ("log.slots_skipped", float_of_int sim.slots_skipped, "count");
    ( "log.cmds_per_slot",
      (if sim.slots_committed = 0 then 0.0
       else float_of_int sim.ops /. float_of_int sim.slots_committed),
      "count" );
    ("log.payload_certified", m "log.payload.certified", "count");
    ("log.outcome_adopted", m "log.outcome.adopted", "count");
    ("harness.run_ms_p50", Util.Stats.percentile traced.run_ms 0.5, "ms");
    ("harness.run_ms_tail", Util.Stats.percentile traced.run_ms 0.95, "ms");
    ("harness.unattributed_s", traced.wall_s -. spans_s, "s");
    ("trace.overhead_host", ratio traced.cpu_s plain.cpu_s, "ratio");
    ("trace.overhead_alloc", ratio traced.alloc_w plain.alloc_w, "ratio");
  ]

(* the per-metric median over every pair; counters are equal in all *)
let median_rows rows =
  List.mapi
    (fun i (name, _, unit) ->
      let value row = match List.nth row i with _, v, _ -> v in
      (name, median (List.map value rows), unit))
    (List.hd rows)

let result_line ~attempted metrics =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool true);
         ("attempted", Obs.Json.Int attempted);
         ("failed", Obs.Json.Int 0);
         ( "metrics",
           Obs.Json.Obj
             (List.map
                (fun (name, value, unit) ->
                  ( name,
                    Obs.Json.Obj
                      [ ("value", Obs.Json.Float value); ("unit", Obs.Json.String unit) ] ))
                metrics) );
       ])

(* --- main ------------------------------------------------------------------------ *)

let usage =
  "ledger.exe --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--quick]\n\
   workloads: paper-n16, turquois-n128, sampled-radio-n64, log-service"

let () =
  let workload = ref "" and seed = ref 1000 and seconds = ref 20 and trace = ref 0 in
  let quick = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "S seed the workload's inputs derive from (default 1000)");
      ("--seconds", Arg.Set_int seconds, "N seconds of timed repeats (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer split (1)");
      ("--quick", Arg.Set quick, " tiny inputs and one repeat, for smoke checks");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let make =
    match
      List.find_opt (fun make -> (make ~quick:false).name = !workload) workloads
    with
    | Some make -> make
    | None ->
        prerr_endline usage;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  if !seconds < 1 then (prerr_endline usage; exit 2);
  let w = make ~quick:!quick in
  let seed = Int64.of_int !seed and seconds = float_of_int !seconds in
  let start = Unix.gettimeofday () in
  try
    let setup_s = setup w ~seed ~times:(if !quick then 1 else 3) in
    let attempted, metrics =
      if !trace = 0 then begin
        (* [host_s] takes each run's fastest repeat, and with fewer than
           three a busy host shows through on turquois-n128, whose set-up
           alone outlasts the default [--seconds] *)
        let reps =
          measure ~start ~seconds ~least:3 ~quick:!quick (fun () ->
              repeat w ~seed ~profile:false)
        in
        let first = (List.hd reps).sim in
        List.iter (check_same ~what:"a repeat of the unit" first) reps;
        (first.ops * List.length reps, end_to_end ~setup_s reps)
      end
      else begin
        let pairs =
          measure ~start ~seconds ~least:1 ~quick:!quick (fun () ->
              let plain = repeat w ~seed ~profile:false in
              let traced = repeat w ~seed ~profile:true in
              check_same ~what:"the profiled repeat" plain.sim traced;
              (plain, traced))
        in
        let first = (fst (List.hd pairs)).sim in
        List.iter (fun (p, _) -> check_same ~what:"a repeat of the unit" first p) pairs;
        ( first.ops * 2 * List.length pairs,
          median_rows (List.map (fun (p, t) -> per_layer p t) pairs) )
      end
    in
    print_endline (result_line ~attempted metrics)
  with Violation msg ->
    Printf.eprintf "ledger: %s: %s\n%!" w.name msg;
    exit 1
