(* Hot-path span profiler: opt-in, domain-local, host-wall-clock only.

   A span is a named region of the receive/simulation hot path (frame
   decode, signature verify, MAC contention, engine pop, Vset tally).
   Instrumented call sites bracket the region with [start]/[stop]; when
   profiling is off [start] returns a sentinel and [stop] is a no-op,
   so the cost of a disabled site is one Atomic.get and one float
   compare — cheap enough to leave in the hottest loops.

   Everything the profiler touches is host-side: it never reads the
   simulation clock, never draws from an RNG, and never writes a metric
   into the per-run registry. That is the profiling contract the tests
   enforce — profiler on/off and -j 1/-j N produce bit-identical
   protocol results; only this module's own snapshot differs.

   Latencies land in log2 buckets over nanoseconds (bucket b holds
   durations in [2^b, 2^(b+1)) ns), so one fixed 40-slot array per span
   covers sub-microsecond decodes and multi-millisecond stalls alike. *)

let bucket_count = 40

type acc = {
  mutable count : int;
  mutable total_ns : float;
  mutable max_ns : float;
  buckets : int array; (* log2(ns) histogram *)
}

(* Span ids are dense ints handed out at registration; the built-in
   hot-path spans are registered here so instrumented layers can refer
   to them without string lookups. Registration happens at module
   initialization on the main domain. *)
let names : string list Atomic.t = Atomic.make []

let register name =
  let rec add () =
    let current = Atomic.get names in
    if Atomic.compare_and_set names current (current @ [ name ]) then
      List.length current
    else add ()
  in
  add ()

type span = int

let decode : span = register "hotpath.decode"
let verify : span = register "hotpath.verify"
let mac_contention : span = register "hotpath.mac_contention"
let engine_pop : span = register "hotpath.engine_pop"
let vset_tally : span = register "hotpath.vset_tally"

let span_name s = List.nth (Atomic.get names) s

(* global on/off toggle, flipped only between runs *)
let on_flag = Atomic.make false
let on () = Atomic.get on_flag
let enable () = Atomic.set on_flag true
let disable () = Atomic.set on_flag false

let with_profiling flag f =
  let previous = on () in
  Atomic.set on_flag flag;
  Fun.protect ~finally:(fun () -> Atomic.set on_flag previous) f

(* accumulators are domain-local: a run is single-threaded within its
   domain, and pool workers must not contend on shared counters *)
let accs_key : acc array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let fresh_acc () =
  { count = 0; total_ns = 0.0; max_ns = 0.0; buckets = Array.make bucket_count 0 }

let accs () =
  let cell = Domain.DLS.get accs_key in
  let want = List.length (Atomic.get names) in
  if Array.length !cell < want then begin
    let bigger = Array.init want (fun i ->
        if i < Array.length !cell then !cell.(i) else fresh_acc ())
    in
    cell := bigger
  end;
  !cell

let reset () =
  Array.iter
    (fun a ->
      a.count <- 0;
      a.total_ns <- 0.0;
      a.max_ns <- 0.0;
      Array.fill a.buckets 0 bucket_count 0)
    (accs ())

let off_sentinel = -1.0

let start () = if on () then Unix.gettimeofday () else off_sentinel

let bucket_of_ns ns =
  if ns < 1.0 then 0
  else min (bucket_count - 1) (int_of_float (Float.log2 ns))

let stop span t0 =
  if t0 >= 0.0 then begin
    let ns = (Unix.gettimeofday () -. t0) *. 1.0e9 in
    let ns = Float.max 0.0 ns in
    let a = (accs ()).(span) in
    a.count <- a.count + 1;
    a.total_ns <- a.total_ns +. ns;
    if ns > a.max_ns then a.max_ns <- ns;
    a.buckets.(bucket_of_ns ns) <- a.buckets.(bucket_of_ns ns) + 1
  end

(* --- snapshots ----------------------------------------------------------- *)

type stat = {
  name : string;
  count : int;
  total_ns : float;
  max_ns : float;
  buckets : int array;
}

let snapshot () =
  let accs = accs () in
  Atomic.get names
  |> List.mapi (fun i name ->
         let a = if i < Array.length accs then accs.(i) else fresh_acc () in
         {
           name;
           count = a.count;
           total_ns = a.total_ns;
           max_ns = a.max_ns;
           buckets = Array.copy a.buckets;
         })

(* order statistic out of the log buckets: the value reported for a
   quantile is the upper edge of the bucket it falls in *)
let bucket_quantile st q =
  if st.count = 0 then 0.0
  else begin
    let target = int_of_float (Float.of_int st.count *. q) in
    let seen = ref 0 and result = ref 0.0 in
    (try
       Array.iteri
         (fun b c ->
           seen := !seen + c;
           if c > 0 then result := Float.pow 2.0 (float_of_int (b + 1));
           if !seen > target then raise Exit)
         st.buckets
     with Exit -> ());
    !result
  end

let format_ns ns =
  if ns >= 1.0e9 then Printf.sprintf "%.2f s" (ns /. 1.0e9)
  else if ns >= 1.0e6 then Printf.sprintf "%.2f ms" (ns /. 1.0e6)
  else if ns >= 1.0e3 then Printf.sprintf "%.1f us" (ns /. 1.0e3)
  else Printf.sprintf "%.0f ns" ns

let render_table stats =
  let rows =
    List.filter_map
      (fun st ->
        if st.count = 0 then None
        else
          Some
            [
              st.name;
              string_of_int st.count;
              format_ns st.total_ns;
              format_ns (st.total_ns /. float_of_int st.count);
              format_ns (bucket_quantile st 0.5);
              format_ns (bucket_quantile st 0.99);
              format_ns st.max_ns;
            ])
      stats
  in
  if rows = [] then "  no spans recorded (profiling off, or nothing ran)\n"
  else
    Util.Tablefmt.render
      ~header:[ "span"; "count"; "total"; "mean"; "p50<"; "p99<"; "max" ]
      ~rows ()

(* per-run scoping: like the memo caches, span accumulators reset at
   every run boundary so a profile read after a run covers exactly that
   run *)
let () = Scope.at_run_start (fun () -> if on () then reset ())
