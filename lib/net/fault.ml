type load = Failure_free | Fail_stop | Byzantine

let load_to_string = function
  | Failure_free -> "failure-free"
  | Fail_stop -> "fail-stop"
  | Byzantine -> "Byzantine"

let max_f n = (n - 1) / 3

let faulty_set ~n load =
  match load with
  | Failure_free -> []
  | Fail_stop | Byzantine ->
      let f = max_f n in
      List.init f (fun i -> n - 1 - i)

(* the faulty ids are exactly the top f, so membership is arithmetic *)
let is_faulty ~n load i =
  match load with
  | Failure_free -> false
  | Fail_stop | Byzantine -> i >= n - max_f n

let benign_loss = 0.05
let loss_prob_gauge = Obs.Metrics.gauge "fault.loss_prob"
let crashes = Obs.Metrics.counter "fault.crashed"
let recoveries = Obs.Metrics.counter "fault.recovered"
let sigma_edge_dropped = Obs.Metrics.counter "fault.sigma_edge_drops"

let set_loss radio p =
  Radio.set_loss_prob radio p;
  Obs.Metrics.set loss_prob_gauge p

let traced radio action =
  Obs.Fault_event.(emit (Injected { at = Engine.now (Radio.engine radio); action }))

let crash radio i =
  Obs.Metrics.incr crashes;
  traced radio (Crash i);
  Radio.set_down radio i true

let recover radio i =
  Obs.Metrics.incr recoveries;
  traced radio (Recover i);
  Radio.set_down radio i false

let apply_crashes radio ~n load =
  match load with
  | Fail_stop -> List.iter (crash radio) (faulty_set ~n load)
  | Failure_free | Byzantine -> ()

(* --- adaptive sigma-edge omission adversary ------------------------------- *)

type sigma_edge = {
  mutable se_current_round : int;
  mutable se_left : int;
  mutable se_drops : int;
}

let sigma_edge_drops a = a.se_drops

(* the budget replenishes every protocol tick *)
let sigma_edge_round = 10.0e-3

let sigma_edge radio ~n ~k ~t =
  let bound = max 0 (Obs.Analyze.sigma ~n ~k ~t) in
  (* starve the low ids: the high ids are the conventional faulty set,
     so these victims are correct processes whose silence the k-of-n
     termination rule can least afford *)
  let victims = Array.init (min n (n - k - t + 1)) (fun i -> i) in
  let a = { se_current_round = -1; se_left = 0; se_drops = 0 } in
  Radio.set_filter radio
    (Some
       (fun ~now ~tx:_ ~rx ->
         let round_no = int_of_float (now /. sigma_edge_round) in
         if round_no <> a.se_current_round then begin
           a.se_current_round <- round_no;
           a.se_left <- bound
         end;
         if a.se_left > 0 && Array.exists (( = ) rx) victims then begin
           a.se_left <- a.se_left - 1;
           a.se_drops <- a.se_drops + 1;
           Obs.Metrics.incr sigma_edge_dropped;
           true
         end
         else false));
  let at = Engine.now (Radio.engine radio) in
  let victims = Array.to_list victims in
  Obs.Fault_event.emit (Sigma_edge { at; budget = bound; round_s = sigma_edge_round; victims });
  a
