type labels = (string * string) list

type hist_state = {
  hist : Util.Stats.Histogram.t;
  h_lo : float;
  h_hi : float;
  mutable h_sum : float;
}

type cell =
  | Cell_counter of int ref
  | Cell_gauge of float ref
  | Cell_hist of hist_state

(* One registry per domain, like the trace sink: a simulation run is
   single-threaded within its domain and scoped with {!reset} /
   [Scope.with_run]; the parallel run pool gives every worker domain
   its own registry and merges the per-run snapshots after join, so
   concurrent runs never contend for (or corrupt) a shared table.
   Keys carry labels in sorted order so call-site order is irrelevant. *)
let registry_key : (string * labels, cell) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 128)

let registry () = Domain.DLS.get registry_key

(* The receive pipeline's counters are almost all unlabeled; a separate
   string-keyed table spares those call sites the (name, labels) tuple
   allocation on every bump. *)
let unlabeled_key : (string, cell) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 128)

let unlabeled () = Domain.DLS.get unlabeled_key

let norm_labels labels = List.sort compare labels

let kind_name = function
  | Cell_counter _ -> "counter"
  | Cell_gauge _ -> "gauge"
  | Cell_hist _ -> "histogram"

let lookup name labels make =
  match labels with
  | [] -> (
      let unlabeled = unlabeled () in
      match Hashtbl.find_opt unlabeled name with
      | Some cell -> cell
      | None ->
          let cell = make () in
          Hashtbl.add unlabeled name cell;
          cell)
  | _ -> (
      let registry = registry () in
      let key = (name, norm_labels labels) in
      match Hashtbl.find_opt registry key with
      | Some cell -> cell
      | None ->
          let cell = make () in
          Hashtbl.add registry key cell;
          cell)

let type_clash name cell want =
  invalid_arg
    (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name cell) want)

let incr ?(by = 1) ?(labels = []) name =
  match lookup name labels (fun () -> Cell_counter (ref 0)) with
  | Cell_counter r -> r := !r + by
  | cell -> type_clash name cell "counter"

let set ?(labels = []) name v =
  match lookup name labels (fun () -> Cell_gauge (ref 0.0)) with
  | Cell_gauge r -> r := v
  | cell -> type_clash name cell "gauge"

let add ?(labels = []) name v =
  match lookup name labels (fun () -> Cell_gauge (ref 0.0)) with
  | Cell_gauge r -> r := !r +. v
  | cell -> type_clash name cell "gauge"

let observe ?(labels = []) ~lo ~hi ~bins name v =
  match
    lookup name labels (fun () ->
        Cell_hist { hist = Util.Stats.Histogram.create ~lo ~hi ~bins; h_lo = lo; h_hi = hi; h_sum = 0.0 })
  with
  | Cell_hist h ->
      Util.Stats.Histogram.add h.hist v;
      h.h_sum <- h.h_sum +. v
  | cell -> type_clash name cell "histogram"

let reset () =
  Hashtbl.reset (registry ());
  Hashtbl.reset (unlabeled ())

(* --- snapshots ----------------------------------------------------------- *)

type hist_snapshot = { lo : float; hi : float; counts : int array; total : int; sum : float }
type value = Counter of int | Gauge of float | Histogram of hist_snapshot
type sample = { name : string; labels : labels; value : value }
type snapshot = sample list

let cell_value = function
  | Cell_counter r -> Counter !r
  | Cell_gauge r -> Gauge !r
  | Cell_hist h ->
      Histogram
        {
          lo = h.h_lo;
          hi = h.h_hi;
          counts = Util.Stats.Histogram.counts h.hist;
          total = Util.Stats.Histogram.total h.hist;
          sum = h.h_sum;
        }

let snapshot () =
  let labeled =
    Hashtbl.fold
      (fun (name, labels) cell acc -> { name; labels; value = cell_value cell } :: acc)
      (registry ()) []
  in
  Hashtbl.fold
    (fun name cell acc -> { name; labels = []; value = cell_value cell } :: acc)
    (unlabeled ()) labeled
  |> List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels))

let find snap ?(labels = []) name =
  let labels = norm_labels labels in
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
  |> List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels))

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
