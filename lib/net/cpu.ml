type t = { engine : Engine.t; mutable free_at : float }

let create engine = { engine; free_at = 0.0 }

(* Jobs are scheduled at the core's free time as known at enqueue; if an
   earlier job charges more CPU in the meantime, the job re-queues itself
   at the new free time. FIFO order is preserved by the engine's
   scheduling-order tie-break. *)
let rec enqueue t job =
  let start = Float.max t.free_at (Engine.now t.engine) in
  ignore
    (Engine.at t.engine ~time:start (fun () ->
         if t.free_at > Engine.now t.engine then enqueue t job else job ()))

let charge t cost =
  if cost < 0.0 then invalid_arg "Cpu.charge: negative cost";
  t.free_at <- Float.max t.free_at (Engine.now t.engine) +. cost
