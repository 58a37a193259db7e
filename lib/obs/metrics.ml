type labels = (string * string) list

type kind =
  | Counter_kind
  | Gauge_kind
  | Histogram_kind of { lo : float; hi : float; bins : int }

type series = { id : int; name : string; labels : labels; kind : kind }
type counter = series
type gauge = series
type histogram = series

(* Declarations are interned process-wide: the same (name, sorted
   labels) always yields the same series, so handles made per component
   (one per radio receiver, say) stay bounded however many runs make
   them. Ids are dense, in declaration order; they index the per-domain
   registry below. *)
let declared : (string * labels, series) Hashtbl.t = Hashtbl.create 256
let declared_lock = Mutex.create ()

let kind_name = function
  | Counter_kind -> "counter"
  | Gauge_kind -> "gauge"
  | Histogram_kind { lo; hi; bins } -> Printf.sprintf "histogram over [%g, %g) in %d bins" lo hi bins

let declare ~labels name kind =
  let labels = List.sort compare labels in
  Mutex.protect declared_lock (fun () ->
      match Hashtbl.find_opt declared (name, labels) with
      | Some s when s.kind = kind -> s
      | Some s ->
          invalid_arg
            (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name s.kind)
               (kind_name kind))
      | None ->
          let s = { id = Hashtbl.length declared; name; labels; kind } in
          Hashtbl.add declared (name, labels) s;
          s)

let counter ?(labels = []) name = declare ~labels name Counter_kind
let gauge ?(labels = []) name = declare ~labels name Gauge_kind

let histogram ?(labels = []) ~lo ~hi ~bins name =
  if bins <= 0 || hi <= lo then invalid_arg ("Metrics.histogram: bad shape for " ^ name);
  declare ~labels name (Histogram_kind { lo; hi; bins })

(* One registry per domain, like the trace sink: a simulation run is
   single-threaded within its domain and scoped with {!reset} /
   [Scope.with_run]; the parallel run pool gives every worker domain
   its own registry and merges the per-run snapshots after join, so
   concurrent runs never contend for (or corrupt) a shared table.
   Slots are indexed by series id, in fixed chunks small enough for
   the minor heap: declaring more series (the receivers of a larger
   radio, say) appends chunks and copies only the chunk spine. In a
   chunk, [live.(i)] is the series itself once it has been updated
   since the last reset, [unused] before. *)
let chunk_bits = 6
let chunk_size = 1 lsl chunk_bits

type chunk = {
  live : series array;
  counts : int array;  (* counter values *)
  values : float array;  (* gauge values, histogram sums *)
  hists : Util.Stats.Histogram.t array;  (* histogram bins *)
}

type registry = { mutable chunks : chunk array }

let unused = { id = -1; name = ""; labels = []; kind = Counter_kind }

(* fills the histogram slots of other kinds; never updated *)
let no_hist = Util.Stats.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:1

let new_chunk _ =
  {
    live = Array.make chunk_size unused;
    counts = Array.make chunk_size 0;
    values = Array.make chunk_size 0.0;
    hists = Array.make chunk_size no_hist;
  }

let registry_key : registry Domain.DLS.key = Domain.DLS.new_key (fun () -> { chunks = [||] })
let registry () = Domain.DLS.get registry_key
let index s = s.id land (chunk_size - 1)

(* The chunk holding [s]'s slot, with the slot live: a series enters the
   snapshot on its first update of a run, whatever that update adds. *)
let slot s =
  let r = registry () in
  let c = s.id lsr chunk_bits in
  let have = Array.length r.chunks in
  if c >= have then r.chunks <- Array.append r.chunks (Array.init (c + 1 - have) new_chunk);
  let k = r.chunks.(c) and i = index s in
  if k.live.(i) != s then begin
    k.live.(i) <- s;
    k.counts.(i) <- 0;
    k.values.(i) <- 0.0;
    match s.kind with
    | Histogram_kind { lo; hi; bins } -> k.hists.(i) <- Util.Stats.Histogram.create ~lo ~hi ~bins
    | Counter_kind | Gauge_kind -> ()
  end;
  k

let incr_by c by =
  let k = slot c and i = index c in
  k.counts.(i) <- k.counts.(i) + by

let incr c = incr_by c 1

let set g v =
  let k = slot g in
  k.values.(index g) <- v

let add g v =
  let k = slot g and i = index g in
  k.values.(i) <- k.values.(i) +. v

let observe h v =
  let k = slot h and i = index h in
  Util.Stats.Histogram.add k.hists.(i) v;
  k.values.(i) <- k.values.(i) +. v

let reset () = Array.iter (fun k -> Array.fill k.live 0 chunk_size unused) (registry ()).chunks

(* --- snapshots ----------------------------------------------------------- *)

type hist_snapshot = { lo : float; hi : float; counts : int array; total : int; sum : float }
type value = Counter of int | Gauge of float | Histogram of hist_snapshot
type sample = { name : string; labels : labels; value : value }
type snapshot = sample list

let slot_value (k : chunk) s =
  let i = index s in
  match s.kind with
  | Counter_kind -> Counter k.counts.(i)
  | Gauge_kind -> Gauge k.values.(i)
  | Histogram_kind { lo; hi; _ } ->
      let h = k.hists.(i) in
      Histogram
        {
          lo;
          hi;
          counts = Util.Stats.Histogram.counts h;
          total = Util.Stats.Histogram.total h;
          sum = k.values.(i);
        }

let by_series a b = compare (a.name, a.labels) (b.name, b.labels)

let snapshot () =
  Array.fold_left
    (fun acc k ->
      Array.fold_left
        (fun acc (s : series) ->
          if s == unused then acc
          else { name = s.name; labels = s.labels; value = slot_value k s } :: acc)
        acc k.live)
    [] (registry ()).chunks
  |> List.sort by_series

let find snap ?(labels = []) name =
  let labels = List.sort compare labels in
  List.find_opt (fun s -> s.name = name && s.labels = labels) snap

let counter_value snap ?labels name =
  match find snap ?labels name with Some { value = Counter c; _ } -> c | Some _ | None -> 0

let merge_values name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (x +. y)
  | Histogram x, Histogram y
    when x.lo = y.lo && x.hi = y.hi && Array.length x.counts = Array.length y.counts ->
      Histogram
        {
          lo = x.lo;
          hi = x.hi;
          counts = Array.init (Array.length x.counts) (fun i -> x.counts.(i) + y.counts.(i));
          total = x.total + y.total;
          sum = x.sum +. y.sum;
        }
  | _ -> invalid_arg (Printf.sprintf "Metrics.merge: series %s has mismatched shapes" name)

let merge snaps =
  let tbl : (string * labels, value) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun snap ->
      List.iter
        (fun s ->
          let key = (s.name, s.labels) in
          match Hashtbl.find_opt tbl key with
          | None -> Hashtbl.add tbl key s.value
          | Some v -> Hashtbl.replace tbl key (merge_values s.name v s.value))
        snap)
    snaps;
  Hashtbl.fold (fun (name, labels) value acc -> { name; labels; value } :: acc) tbl []
  |> List.sort by_series

let sum_counters snap name =
  List.fold_left
    (fun acc s ->
      match s.value with Counter c when s.name = name -> acc + c | _ -> acc)
    0 snap

(* --- rendering ----------------------------------------------------------- *)

let labels_to_string labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let value_to_string = function
  | Counter c -> string_of_int c
  | Gauge g -> Printf.sprintf "%.6g" g
  | Histogram h ->
      Printf.sprintf "n=%d mean=%.4g [%g, %g)" h.total
        (if h.total = 0 then 0.0 else h.sum /. float_of_int h.total)
        h.lo h.hi

let render_table snap =
  let header = [ "metric"; "labels"; "value" ] in
  let rows =
    List.map (fun s -> [ s.name; labels_to_string s.labels; value_to_string s.value ]) snap
  in
  Util.Tablefmt.render ~header ~rows ()
