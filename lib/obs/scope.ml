(* Reset hooks let lower layers attach per-run state to the run
   boundary without obs depending on them: Core.Msgstore registers its
   domain-local store re-binding here at module initialization.
   Registration happens on the main domain before any worker spawns;
   the CAS loop only guards against a racing registration. *)
let hooks : (unit -> unit) list Atomic.t = Atomic.make []

let at_run_start f =
  let rec add () =
    let current = Atomic.get hooks in
    if not (Atomic.compare_and_set hooks current (f :: current)) then add ()
  in
  add ()

(* The registry is reset on exit as well as entry: the run's counters
   live on in the returned snapshot, and leaving them in the executing
   domain's registry leaked the final pool task's metrics into the
   caller whenever the calling domain happened to execute it — a
   scheduling-dependent flake. The trace buffer is deliberately NOT
   cleared on exit: [run --trace-json] exports it after the run
   returns. *)
let with_run f =
  Metrics.reset ();
  Trace2.clear ();
  List.iter (fun hook -> hook ()) (Atomic.get hooks);
  match f () with
  | result ->
      let snap = Metrics.snapshot () in
      Metrics.reset ();
      (result, snap)
  | exception e ->
      Metrics.reset ();
      raise e
