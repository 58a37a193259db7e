module Driven = Harness.Abstract_rounds.Driven

type verdict = { ok : bool; violations : string list; detail : string }

let strategy_exn name =
  match Core.Strategy.of_string name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Replay.run: unknown strategy %S" name)

let run_rounds (a : Codec.rounds_artifact) =
  let sim =
    Driven.create ~n:a.r_n ~k:a.r_k ~byzantine:a.r_byzantine ~dist:a.r_dist
      ~horizon:(List.length a.r_rounds) ~rng:(Util.Rng.create ~seed:a.r_seed) ()
  in
  List.iter
    (fun (r : Codec.round_choice) ->
      let byz = List.map (fun (i, s) -> (i, strategy_exn s)) r.byz in
      Driven.step sim ~drops:r.drops ~byz)
    a.r_rounds;
  let deciders = Driven.deciders sim in
  let advanced = Driven.advanced sim in
  let violations = Driven.violations sim in
  match a.r_expect with
  | Codec.Stall { deciders = want_d; advanced = want_a } ->
      let ok = deciders = want_d && advanced = want_a && violations = [] in
      {
        ok;
        violations;
        detail =
          Printf.sprintf "stall replay: deciders %d (want %d), advanced %d (want %d), %d violations"
            deciders want_d advanced want_a (List.length violations);
      }
  | Codec.Violations want ->
      let ok = violations = want in
      {
        ok;
        violations;
        detail =
          Printf.sprintf "violation replay: %d violations (want %d, %s)" (List.length violations)
            (List.length want)
            (if ok then "identical" else "DIFFERENT");
      }

let run_radio (a : Codec.radio_artifact) =
  let strategy = Option.map strategy_exn a.c_strategy in
  let bug = if a.c_bug then Harness.Chaos.Flip_reported_decision else Harness.Chaos.No_bug in
  let violations =
    Harness.Chaos.check_schedule ~protocol:a.c_protocol ~n:a.c_n ~bug ~dist:a.c_dist ?strategy
      ~schedule:a.c_schedule ~seed:a.c_seed ()
  in
  let ok = violations = a.c_expect in
  {
    ok;
    violations;
    detail =
      Printf.sprintf "radio replay: %d violations (want %d, %s)" (List.length violations)
        (List.length a.c_expect)
        (if ok then "identical" else "DIFFERENT");
  }

let run = function Codec.Rounds a -> run_rounds a | Codec.Radio a -> run_radio a
