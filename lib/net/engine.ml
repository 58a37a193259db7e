type event = {
  time : float;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
  mutable queued : bool;
}

type handle = event

(* A binary min-heap ordered by (time, seq), so ties fire in scheduling
   order and a run is a deterministic function of its inputs.

   [live] counts queued events that are not cancelled: cancellation
   only flags the event in O(1) (it is lazily collected when it
   reaches the front), so raw occupancy over-reports queue depth. *)
type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable live : int;
  mutable live_peak : int;
  mutable queued_peak : int;
}

let dummy =
  { time = 0.0; seq = -1; action = (fun () -> ()); cancelled = true; queued = false }

let create () =
  {
    heap = Array.make 256 dummy;
    size = 0;
    clock = 0.0;
    next_seq = 0;
    live = 0;
    live_peak = 0;
    queued_peak = 0;
  }

let now t = t.clock

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let heap_push t ev =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    t.heap.(t.size) <- dummy;
    if t.size > 0 then sift_down t 0;
    top.queued <- false;
    if not top.cancelled then t.live <- t.live - 1;
    Some top
  end

let peek_time t = if t.size = 0 then None else Some t.heap.(0).time

let at t ~time action =
  let time = Float.max time t.clock in
  let ev = { time; seq = t.next_seq; action; cancelled = false; queued = true } in
  t.next_seq <- t.next_seq + 1;
  heap_push t ev;
  t.live <- t.live + 1;
  if t.live > t.live_peak then t.live_peak <- t.live;
  if t.size > t.queued_peak then t.queued_peak <- t.size;
  ev

let schedule t ~delay action =
  if Float.is_nan delay || delay < 0.0 then invalid_arg "Engine.schedule: bad delay";
  at t ~time:(t.clock +. delay) action

let cancel t handle =
  if not handle.cancelled then begin
    handle.cancelled <- true;
    if handle.queued then t.live <- t.live - 1
  end

let pending t = t.live
let heap_size t = t.size
let live_peak t = t.live_peak
let queued_peak t = t.queued_peak

let step t =
  let sp = Obs.Prof.start () in
  let popped = pop t in
  Obs.Prof.stop Obs.Prof.engine_pop sp;
  match popped with
  | None -> false
  | Some ev ->
      if not ev.cancelled then begin
        t.clock <- ev.time;
        ev.action ()
      end;
      true

let run ?(until = Float.infinity) ?(max_events = max_int) t =
  let executed = ref 0 in
  let continue = ref true in
  while !continue && !executed < max_events do
    match peek_time t with
    | None -> continue := false
    | Some next when next > until -> continue := false
    | Some _ ->
        ignore (step t);
        incr executed
  done

let run_while t predicate =
  let continue = ref true in
  while !continue do
    if t.size = 0 || not (predicate ()) then continue := false else ignore (step t)
  done
