type bug = No_bug | Flip_reported_decision

type failure = {
  index : int;
  seed : int64;
  protocol : Runner.protocol;
  strategy : string option;
  dist : Runner.dist;
  schedule : Net.Schedule.t;
  violations : string list;
  shrunk : Net.Schedule.t;
}

type report = {
  runs : int;
  liveness_checked : int;
  failures : failure list;
}

(* One randomized experiment: which protocol sees which faults. The
   plan is pure data so a failing run can be re-executed verbatim
   against shrunken schedules. *)
type plan = {
  p_index : int;
  p_seed : int64;
  p_dist : Runner.dist;
  p_load : Net.Fault.load;
  p_strategy : Core.Strategy.t option;
  p_schedule : Net.Schedule.t;
}

let make_plan ~n ~strategy_pool ~seed index =
  let p_seed = Int64.add seed (Int64.of_int (1 + (index * 7919))) in
  let rng = Util.Rng.create ~seed:p_seed in
  let p_dist = if Util.Rng.bool rng then Runner.Unanimous else Runner.Divergent in
  (* two thirds of the runs put the strategy library on the air *)
  let byz = Util.Rng.int rng 3 > 0 && strategy_pool <> [] in
  let p_strategy =
    if byz then Some (List.nth strategy_pool (index mod List.length strategy_pool))
    else None
  in
  let p_load = if byz then Net.Fault.Byzantine else Net.Fault.Failure_free in
  let duration = 0.3 +. Util.Rng.float rng 0.3 in
  let events = 3 + Util.Rng.int rng 5 in
  let p_schedule =
    Net.Schedule.random ~rng:(Util.Rng.split rng) ~n ~duration ~events ()
  in
  { p_index = index; p_seed; p_dist; p_load; p_strategy; p_schedule }

(* The liveness check is only sound when the schedule is provably quiet
   after some horizon AND contains no crash windows: a node that is down
   while the rest decide and linger can stay undecided forever without
   contradicting the σ bound (the model assumes processes keep
   participating). *)
let liveness_horizon schedule =
  let has_crash =
    List.exists
      (fun e -> match e.Net.Schedule.action with Net.Schedule.Crash _ -> true | _ -> false)
      schedule
  in
  if has_crash then None else Net.Schedule.quiet_after schedule

let apply_bug bug (r : Runner.result) =
  match bug with
  | No_bug -> r
  | Flip_reported_decision -> begin
      (* a deliberately broken machine: the lowest-id correct process
         reports the opposite decision — the harness must catch it *)
      match r.decisions with
      | (i, v) :: rest -> { r with decisions = (i, 1 - v) :: rest }
      | [] -> r
    end

(* Safety invariants, checked on every run: the shared clauses, then
   the harness's own — no faulty decider, no double decision — and the
   liveness clause only when [deadline] is sound. *)
let violations_of ~dist ~deadline (r : Runner.result) =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  List.iter
    (fun (i, _) ->
      if not (List.mem i r.correct) then add "integrity: faulty p%d counted as decider" i)
    r.decisions;
  let ids = List.map fst r.decisions in
  if List.length ids <> List.length (List.sort_uniq compare ids) then
    add "integrity: a process decided more than once";
  (match deadline with
  | Some _ when r.timed_out ->
      add "liveness: correct processes undecided on a provably quiet channel"
  | Some _ | None -> ());
  List.map Runner.breach_to_string (Runner.safety_violations ~dist r.decisions)
  @ List.rev !out

(* Re-execute one schedule and report its invariant breaches — the
   chaos harness's own check, exported so serialized reproducers replay
   through the exact code path that found them. The fault load is
   implied by [strategy] (the same rule [make_plan] uses). *)
let check_schedule ~protocol ~n ?(bug = No_bug) ~dist ?strategy ~schedule ~seed () =
  let deadline = liveness_horizon schedule in
  let timeout = match deadline with Some h -> h +. 30.0 | None -> 10.0 in
  let load =
    match strategy with Some _ -> Net.Fault.Byzantine | None -> Net.Fault.Failure_free
  in
  (* no ambient loss: every omission comes from the schedule, so the
     analyzer's fault attribution is exact and the liveness check is
     sound *)
  let r = Runner.run ~protocol ~n ~dist ~load ~loss:0.0 ?strategy ~schedule ~timeout ~seed () in
  violations_of ~dist ~deadline (apply_bug bug r)

let execute ~protocol ~n ~bug plan schedule =
  check_schedule ~protocol ~n ~bug ~dist:plan.p_dist ?strategy:plan.p_strategy ~schedule
    ~seed:plan.p_seed ()

(* Delta-debug the schedule to a local minimum that still violates. *)
let shrink ~protocol ~n ~bug plan =
  let fails candidate = execute ~protocol ~n ~bug plan candidate <> [] in
  let rec go schedule =
    match List.find_opt fails (Net.Schedule.shrink_candidates schedule) with
    | Some smaller -> go smaller
    | None -> schedule
  in
  go plan.p_schedule

let strategy_label plan =
  Option.map Core.Strategy.name plan.p_strategy

let default_protocols = [ Runner.Turquois; Runner.Bracha; Runner.Abba ]

let run_chaos ?(n = 4) ?(bug = No_bug) ?strategy ?(protocols = default_protocols)
    ?(log = fun _ -> ()) ?jobs ~runs ~seed () =
  let strategy_pool = match strategy with Some s -> [ s ] | None -> Core.Strategy.all in
  (* phase 1, parallel: every plan is derived from (seed, index) alone,
     so the (plan, violations) pairs land in slot order and are
     independent of worker scheduling *)
  let executed =
    Pool.map ?jobs ~tasks:runs (fun index ->
        let plan = make_plan ~n ~strategy_pool ~seed index in
        let outcomes =
          List.map
            (fun protocol -> (protocol, execute ~protocol ~n ~bug plan plan.p_schedule))
            protocols
        in
        (plan, outcomes))
  in
  (* phase 2, sequential: delta-debug shrinking re-executes shrinking
     candidate schedules in a data-dependent order, so it stays on the
     calling domain — failures are rare, and reports keep the exact
     sequential ordering *)
  let liveness_checked = ref 0 in
  let failures = ref [] in
  Array.iter
    (fun (plan, outcomes) ->
      if liveness_horizon plan.p_schedule <> None then incr liveness_checked;
      List.iter
        (fun (protocol, violations) ->
          match violations with
          | [] -> ()
          | violations ->
              let shrunk = shrink ~protocol ~n ~bug plan in
              let failure =
                {
                  index = plan.p_index;
                  seed = plan.p_seed;
                  protocol;
                  strategy = strategy_label plan;
                  dist = plan.p_dist;
                  schedule = plan.p_schedule;
                  violations;
                  shrunk;
                }
              in
              log
                (Printf.sprintf
                   "FAIL run %d %s (seed %Ld, %s%s): %s\n  minimal reproducer: %s"
                   plan.p_index
                   (Runner.protocol_to_string protocol)
                   plan.p_seed
                   (Runner.dist_to_string plan.p_dist)
                   (match failure.strategy with Some s -> ", strategy " ^ s | None -> "")
                   (String.concat "; " violations)
                   (Net.Schedule.to_string shrunk));
              failures := failure :: !failures)
        outcomes;
      if (plan.p_index + 1) mod 25 = 0 then
        log
          (Printf.sprintf "%d/%d runs, %d failure(s)" (plan.p_index + 1) runs
             (List.length !failures)))
    executed;
  { runs; liveness_checked = !liveness_checked; failures = List.rev !failures }
