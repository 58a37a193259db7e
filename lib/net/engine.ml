(* One queued action. A run of actions scheduled back to back for the
   same time shares one heap entry: they are linked front to back
   through [next], ending at [nil]. [act] becomes [dead] once the action
   is cancelled or popped, which releases its closure and makes a later
   [cancel] a no-op. *)
type ev = { mutable act : unit -> unit; mutable next : ev }

type handle = ev

let dead () = ()
let rec nil = { act = dead; next = nil }

(* All-float, so the field is stored unboxed and updating it allocates
   nothing. *)
type tail = { mutable time : float }

(* A binary min-heap of entries ordered by (time, seq), so ties fire in
   scheduling order and a run is a deterministic function of its inputs.
   The keys live unboxed in [times] and [seqs]; [fronts] holds each
   entry's next action.

   The chain rule: a new action joins the entry of the most recently
   scheduled action ([last]) if and only if that action is still queued
   for the same time. An entry's members therefore hold consecutive
   sequence numbers and no other event orders between them, so the key
   (time, seq of the first member) stays valid while the front is
   consumed: popping a member that is not the last one is O(1) and
   leaves the heap as it is.

   [size] and [live] count actions, not entries: [size] includes
   cancelled actions, which are only flagged in O(1) and collected when
   they reach the front; [live] excludes them. *)
type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable fronts : ev array;
  mutable entries : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable last : ev;  (* most recently scheduled action while queued, else [nil] *)
  last_time : tail;
  mutable size : int;
  mutable live : int;
  mutable live_peak : int;
  mutable queued_peak : int;
}

let initial_capacity = 256

let create () =
  {
    times = Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    fronts = Array.make initial_capacity nil;
    entries = 0;
    clock = 0.0;
    next_seq = 0;
    last = nil;
    last_time = { time = 0.0 };
    size = 0;
    live = 0;
    live_peak = 0;
    queued_peak = 0;
  }

let now t = t.clock

let grow t =
  let cap = 2 * Array.length t.seqs in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.entries;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.fronts <- extend t.fronts nil

(* Entry [i]'s key orders before (time, seq). Inlined, so the float is
   never boxed. *)
let[@inline] before t i time seq =
  let ti = t.times.(i) in
  ti < time || (ti = time && t.seqs.(i) < seq)

let[@inline] set t i time seq front =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.fronts.(i) <- front

let[@inline] move t ~src ~dst = set t dst t.times.(src) t.seqs.(src) t.fronts.(src)

(* Sifts move a hole and place the entry once at the end. *)
let push_entry t time seq front =
  if t.entries = Array.length t.seqs then grow t;
  let i = ref t.entries in
  t.entries <- t.entries + 1;
  while !i > 0 && not (before t ((!i - 1) / 2) time seq) do
    let p = (!i - 1) / 2 in
    move t ~src:p ~dst:!i;
    i := p
  done;
  set t !i time seq front

let remove_root t =
  let n = t.entries - 1 in
  t.entries <- n;
  let time = t.times.(n) and seq = t.seqs.(n) and front = t.fronts.(n) in
  t.fronts.(n) <- nil;
  if n > 0 then begin
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < n && before t (l + 1) t.times.(l) t.seqs.(l) then l + 1 else l in
      if c < n && before t c time seq then begin
        move t ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    done;
    set t !i time seq front
  end

let at t ~time action =
  if Float.is_nan time then invalid_arg "Engine.at: NaN time";
  let time = Float.max time t.clock in
  let ev = { act = action; next = nil } in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.last != nil && time = t.last_time.time then t.last.next <- ev
  else begin
    push_entry t time seq ev;
    t.last_time.time <- time
  end;
  t.last <- ev;
  t.size <- t.size + 1;
  t.live <- t.live + 1;
  if t.live > t.live_peak then t.live_peak <- t.live;
  if t.size > t.queued_peak then t.queued_peak <- t.size;
  ev

let schedule t ~delay action =
  if Float.is_nan delay || delay < 0.0 then invalid_arg "Engine.schedule: bad delay";
  at t ~time:(t.clock +. delay) action

let cancel t handle =
  if handle.act != dead then begin
    handle.act <- dead;
    t.live <- t.live - 1
  end

(* [last] is [nil] (whose action is [dead]) once the action fired, and
   a cancelled action is [dead] too *)
let last_is t f = t.last.act == f

let pending t = t.live
let heap_size t = t.size
let live_peak t = t.live_peak
let queued_peak t = t.queued_peak

(* Pops the front action of a non-empty queue and runs it unless it was
   cancelled. The clock is boxed, so it is written only when it
   advances, once per distinct time rather than once per action. *)
let step_front t =
  let sp = Obs.Prof.start () in
  let time = t.times.(0) in
  let ev = t.fronts.(0) in
  if ev.next == nil then remove_root t else t.fronts.(0) <- ev.next;
  if ev == t.last then t.last <- nil;
  t.size <- t.size - 1;
  let action = ev.act in
  ev.act <- dead;
  Obs.Prof.stop Obs.Prof.engine_pop sp;
  if action != dead then begin
    t.live <- t.live - 1;
    if time > t.clock then t.clock <- time;
    action ()
  end

let step t =
  if t.entries = 0 then false
  else begin
    step_front t;
    true
  end

let run ?(until = Float.infinity) ?(max_events = max_int) t =
  let executed = ref 0 in
  while !executed < max_events && t.entries > 0 && not (t.times.(0) > until) do
    step_front t;
    incr executed
  done

let run_while t predicate =
  while t.entries > 0 && predicate () do
    step_front t
  done
