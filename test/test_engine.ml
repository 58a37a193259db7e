(* Tests for the discrete-event engine and the CPU model. *)

let test_time_order () =
  let engine = Net.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Net.Engine.schedule engine ~delay:3.0 (note "c"));
  ignore (Net.Engine.schedule engine ~delay:1.0 (note "a"));
  ignore (Net.Engine.schedule engine ~delay:2.0 (note "b"));
  Net.Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-12)) "clock at last event" 3.0 (Net.Engine.now engine)

let test_tie_break_fifo () =
  let engine = Net.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Net.Engine.schedule engine ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Net.Engine.run engine;
  Alcotest.(check (list int)) "fifo ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_nested_scheduling () =
  let engine = Net.Engine.create () in
  let log = ref [] in
  ignore
    (Net.Engine.schedule engine ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Net.Engine.schedule engine ~delay:0.5 (fun () -> log := "inner" :: !log))));
  Net.Engine.run engine;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check (float 1e-12)) "time" 1.5 (Net.Engine.now engine)

let test_cancel () =
  let engine = Net.Engine.create () in
  let fired = ref false in
  let handle = Net.Engine.schedule engine ~delay:1.0 (fun () -> fired := true) in
  Net.Engine.cancel engine handle;
  Net.Engine.run engine;
  Alcotest.(check bool) "not fired" false !fired;
  (* double cancel is a no-op *)
  Net.Engine.cancel engine handle

let test_cancel_updates_pending () =
  (* the old pending counted cancelled events still sitting in the
     heap, so run_while loops driven by pending spun on dead work *)
  let engine = Net.Engine.create () in
  let h1 = Net.Engine.schedule engine ~delay:1.0 (fun () -> ()) in
  ignore (Net.Engine.schedule engine ~delay:2.0 (fun () -> ()));
  ignore (Net.Engine.schedule engine ~delay:3.0 (fun () -> ()));
  Alcotest.(check int) "three live" 3 (Net.Engine.pending engine);
  Net.Engine.cancel engine h1;
  Alcotest.(check int) "cancel drops pending" 2 (Net.Engine.pending engine);
  Alcotest.(check int) "corpse still heaped" 3 (Net.Engine.heap_size engine);
  (* double cancel must not decrement twice *)
  Net.Engine.cancel engine h1;
  Alcotest.(check int) "idempotent" 2 (Net.Engine.pending engine)

let test_cancelled_head_run_until () =
  (* a cancelled event at the head is discarded by the horizon sweep
     without firing and without perturbing the live count *)
  let engine = Net.Engine.create () in
  let fired = ref [] in
  let h1 = Net.Engine.schedule engine ~delay:1.0 (fun () -> fired := 1 :: !fired) in
  ignore (Net.Engine.schedule engine ~delay:2.0 (fun () -> fired := 2 :: !fired));
  ignore (Net.Engine.schedule engine ~delay:3.0 (fun () -> fired := 3 :: !fired));
  Net.Engine.cancel engine h1;
  Net.Engine.run engine ~until:1.5;
  Alcotest.(check (list int)) "cancelled head never fires" [] !fired;
  Alcotest.(check int) "two live after sweep" 2 (Net.Engine.pending engine);
  Alcotest.(check int) "corpse popped" 2 (Net.Engine.heap_size engine);
  Net.Engine.run engine;
  Alcotest.(check (list int)) "survivors fire" [ 2; 3 ] (List.rev !fired);
  Alcotest.(check int) "drained" 0 (Net.Engine.pending engine)

let test_pending_after_fire () =
  let engine = Net.Engine.create () in
  for i = 1 to 4 do
    ignore (Net.Engine.schedule engine ~delay:(float_of_int i) (fun () -> ()))
  done;
  Net.Engine.run engine ~until:2.5;
  Alcotest.(check int) "fired events leave pending" 2 (Net.Engine.pending engine);
  Alcotest.(check int) "and the heap" 2 (Net.Engine.heap_size engine)

let test_run_until () =
  let engine = Net.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Net.Engine.schedule engine ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Net.Engine.run engine ~until:5.5;
  Alcotest.(check int) "five fired" 5 !count;
  Alcotest.(check int) "five pending" 5 (Net.Engine.pending engine);
  Net.Engine.run engine;
  Alcotest.(check int) "all fired" 10 !count

let test_run_while () =
  let engine = Net.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Net.Engine.schedule engine ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Net.Engine.run_while engine (fun () -> !count < 3);
  Alcotest.(check int) "stopped by predicate" 3 !count

let test_max_events () =
  let engine = Net.Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore (Net.Engine.schedule engine ~delay:1.0 (fun () -> incr count))
  done;
  Net.Engine.run engine ~max_events:4;
  Alcotest.(check int) "bounded" 4 !count

let test_at_in_past_clamped () =
  let engine = Net.Engine.create () in
  let when_fired = ref (-1.0) in
  ignore
    (Net.Engine.schedule engine ~delay:2.0 (fun () ->
         ignore
           (Net.Engine.at engine ~time:1.0 (fun () -> when_fired := Net.Engine.now engine))));
  Net.Engine.run engine;
  Alcotest.(check (float 1e-12)) "clamped to now" 2.0 !when_fired

let test_bad_delay_rejected () =
  let engine = Net.Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: bad delay") (fun () ->
      ignore (Net.Engine.schedule engine ~delay:(-1.0) (fun () -> ())))

let test_step () =
  let engine = Net.Engine.create () in
  Alcotest.(check bool) "empty" false (Net.Engine.step engine);
  ignore (Net.Engine.schedule engine ~delay:1.0 (fun () -> ()));
  Alcotest.(check bool) "one" true (Net.Engine.step engine);
  Alcotest.(check bool) "drained" false (Net.Engine.step engine)

let test_heap_stress () =
  (* many events in random order must still fire in time order *)
  let engine = Net.Engine.create () in
  let rng = Util.Rng.create ~seed:123L in
  let last = ref (-1.0) in
  let violations = ref 0 in
  for _ = 1 to 5000 do
    let delay = Util.Rng.float rng 100.0 in
    ignore
      (Net.Engine.schedule engine ~delay (fun () ->
           if Net.Engine.now engine < !last then incr violations;
           last := Net.Engine.now engine))
  done;
  Net.Engine.run engine;
  Alcotest.(check int) "monotone" 0 !violations

(* --- heap vs a naive reference model ----------------------------------------- *)

(* The engine's contract restated over a list kept sorted by (time,
   seq): a cancelled event stays queued (counted by heap_size, not by
   pending) until it reaches the front, and the peaks are sampled when
   an event is scheduled. *)
module Reference = struct
  type ev = { time : float; seq : int; id : int; mutable cancelled : bool }

  type t = {
    mutable queue : ev list;
    mutable clock : float;
    mutable next_seq : int;
    mutable fired : int list;  (** newest first *)
    mutable live_peak : int;
    mutable queued_peak : int;
  }

  let create () =
    { queue = []; clock = 0.0; next_seq = 0; fired = []; live_peak = 0; queued_peak = 0 }

  let pending t = List.length (List.filter (fun e -> not e.cancelled) t.queue)
  let heap_size t = List.length t.queue

  let at t ~time id =
    let ev = { time = Float.max time t.clock; seq = t.next_seq; id; cancelled = false } in
    t.next_seq <- t.next_seq + 1;
    t.queue <-
      List.merge (fun a b -> compare (a.time, a.seq) (b.time, b.seq)) t.queue [ ev ];
    t.live_peak <- max t.live_peak (pending t);
    t.queued_peak <- max t.queued_peak (heap_size t);
    ev

  let cancel ev = ev.cancelled <- true

  let rec run t ~until =
    match t.queue with
    | ev :: rest when ev.time <= until ->
        t.queue <- rest;
        if not ev.cancelled then begin
          t.clock <- ev.time;
          t.fired <- ev.id :: t.fired
        end;
        run t ~until
    | _ -> ()
end

(* Interprets one op list against the engine and the reference and
   compares the full observable trajectory: fire order, clock, pending
   and raw queue size after every op, and the peaks. Ops cover
   equal-deadline ties (quantized delays), cancels (double cancels and
   cancels of fired events included), partial run horizons, and far
   deadlines, up to an absolute 1e12 s. *)
let engine_matches_reference ops =
  let engine = Net.Engine.create () in
  let model = Reference.create () in
  let fired = ref [] in
  let note i () = fired := i :: !fired in
  let handles = ref [||] in
  let keep h ev = handles := Array.append !handles [| (h, ev) |] in
  let observe () =
    ( (Net.Engine.now engine, Net.Engine.pending engine, Net.Engine.heap_size engine),
      (model.clock, Reference.pending model, Reference.heap_size model) )
  in
  let trajectory =
    List.mapi
      (fun i (op, a, b) ->
        (match op mod 6 with
        | 0 | 1 | 2 ->
            let delay =
              if op mod 6 = 2 && b mod 7 = 0 then float_of_int (a mod 1000) *. 50.0
              else float_of_int (a mod 32) *. 0.125
            in
            keep
              (Net.Engine.schedule engine ~delay (note i))
              (Reference.at model ~time:(model.clock +. delay) i)
        | 3 ->
            let m = Array.length !handles in
            if m > 0 then begin
              let h, ev = !handles.(a mod m) in
              Net.Engine.cancel engine h;
              Reference.cancel ev
            end
        | 4 ->
            let until = Net.Engine.now engine +. (float_of_int (a mod 8) *. 0.5) in
            Net.Engine.run ~until engine;
            Reference.run model ~until
        | _ -> keep (Net.Engine.at engine ~time:1.0e12 (note i)) (Reference.at model ~time:1.0e12 i));
        observe ())
      ops
  in
  Net.Engine.run engine;
  Reference.run model ~until:Float.infinity;
  List.for_all (fun (e, m) -> e = m) (trajectory @ [ observe () ])
  && !fired = model.fired
  && Net.Engine.live_peak engine = model.live_peak
  && Net.Engine.queued_peak engine = model.queued_peak

let qcheck_engine_matches_reference =
  QCheck.Test.make ~count:200 ~name:"heap matches the reference model"
    QCheck.(list_of_size Gen.(int_range 10 120) (triple small_nat small_nat small_nat))
    engine_matches_reference

(* --- CPU ------------------------------------------------------------------ *)

let test_cpu_serializes_jobs () =
  let engine = Net.Engine.create () in
  let cpu = Net.Cpu.create engine in
  let log = ref [] in
  Net.Cpu.enqueue cpu (fun () ->
      Net.Cpu.charge cpu 0.010;
      log := ("job1", Net.Engine.now engine) :: !log);
  Net.Cpu.enqueue cpu (fun () -> log := ("job2", Net.Engine.now engine) :: !log);
  Net.Engine.run engine;
  match List.rev !log with
  | [ ("job1", t1); ("job2", t2) ] ->
      Alcotest.(check (float 1e-9)) "job1 at zero" 0.0 t1;
      Alcotest.(check (float 1e-9)) "job2 delayed by the charge" 0.010 t2
  | _ -> Alcotest.fail "wrong job order"

let test_cpu_charge_accumulates () =
  let engine = Net.Engine.create () in
  let cpu = Net.Cpu.create engine in
  let times = ref [] in
  for _ = 1 to 3 do
    Net.Cpu.enqueue cpu (fun () ->
        Net.Cpu.charge cpu 0.005;
        times := Net.Engine.now engine :: !times)
  done;
  Net.Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "spaced by cost" [ 0.0; 0.005; 0.010 ] (List.rev !times)

let test_cpu_idle_runs_now () =
  let engine = Net.Engine.create () in
  let cpu = Net.Cpu.create engine in
  ignore
    (Net.Engine.schedule engine ~delay:1.0 (fun () ->
         Net.Cpu.enqueue cpu (fun () ->
             Alcotest.(check (float 1e-9)) "immediate" 1.0 (Net.Engine.now engine))));
  Net.Engine.run engine

let test_cpu_negative_charge_rejected () =
  let engine = Net.Engine.create () in
  let cpu = Net.Cpu.create engine in
  Alcotest.check_raises "negative" (Invalid_argument "Cpu.charge: negative cost") (fun () ->
      Net.Cpu.charge cpu (-1.0))

let suite =
  ( "engine",
    [
      Alcotest.test_case "time order" `Quick test_time_order;
      Alcotest.test_case "tie break fifo" `Quick test_tie_break_fifo;
      Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
      Alcotest.test_case "cancel" `Quick test_cancel;
      Alcotest.test_case "cancel updates pending" `Quick test_cancel_updates_pending;
      Alcotest.test_case "cancelled head swept" `Quick test_cancelled_head_run_until;
      Alcotest.test_case "pending after fire" `Quick test_pending_after_fire;
      Alcotest.test_case "run until" `Quick test_run_until;
      Alcotest.test_case "run while" `Quick test_run_while;
      Alcotest.test_case "max events" `Quick test_max_events;
      Alcotest.test_case "at in past" `Quick test_at_in_past_clamped;
      Alcotest.test_case "bad delay" `Quick test_bad_delay_rejected;
      Alcotest.test_case "step" `Quick test_step;
      Alcotest.test_case "heap stress" `Quick test_heap_stress;
      QCheck_alcotest.to_alcotest qcheck_engine_matches_reference;
      Alcotest.test_case "cpu serializes" `Quick test_cpu_serializes_jobs;
      Alcotest.test_case "cpu charge accumulates" `Quick test_cpu_charge_accumulates;
      Alcotest.test_case "cpu idle immediate" `Quick test_cpu_idle_runs_now;
      Alcotest.test_case "cpu negative charge" `Quick test_cpu_negative_charge_rejected;
    ] )
