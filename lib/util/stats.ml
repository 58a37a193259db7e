type summary = {
  count : int;
  mean : float;
  stddev : float;
  ci95 : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
  p99 : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty sample"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let variance xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let n = float_of_int (List.length xs) in
      List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs /. (n -. 1.0)

let stddev xs = sqrt (variance xs)

(* Two-sided 95% critical values of Student's t, df = 1..30, then selected
   larger dfs; linear interpolation between table points, 1.96 beyond. *)
let t_table =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
    2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
    2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
  |]

let t_critical_95 df =
  if df <= 0 then invalid_arg "Stats.t_critical_95: df must be positive";
  if df <= 30 then t_table.(df - 1)
  else if df <= 40 then 2.042 +. ((2.021 -. 2.042) *. float_of_int (df - 30) /. 10.0)
  else if df <= 60 then 2.021 +. ((2.000 -. 2.021) *. float_of_int (df - 40) /. 20.0)
  else if df <= 120 then 2.000 +. ((1.980 -. 2.000) *. float_of_int (df - 60) /. 60.0)
  else 1.960

let ci95_halfwidth xs =
  let n = List.length xs in
  if n < 2 then 0.0
  else t_critical_95 (n - 1) *. stddev xs /. sqrt (float_of_int n)

(* Shared by percentile and summarize: one NaN check, one sort. The
   polymorphic [compare] this replaces both boxed every element and
   ordered [nan] inconsistently, silently corrupting percentiles of any
   sample containing one. *)
let sorted_array xs =
  let a = Array.of_list xs in
  Array.iter (fun x -> if Float.is_nan x then invalid_arg "Stats: NaN in sample") a;
  Array.sort Float.compare a;
  a

let percentile_sorted a p =
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p out of range";
  let n = Array.length a in
  let rank = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then a.(lo)
  else
    let w = rank -. float_of_int lo in
    (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)

let percentile xs p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty sample"
  | _ -> percentile_sorted (sorted_array xs) p

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty sample"
  | _ ->
      let a = sorted_array xs in
      {
        count = Array.length a;
        mean = mean xs;
        stddev = stddev xs;
        ci95 = ci95_halfwidth xs;
        min = a.(0);
        max = a.(Array.length a - 1);
        median = percentile_sorted a 0.5;
        p90 = percentile_sorted a 0.9;
        p99 = percentile_sorted a 0.99;
      }

module Histogram = struct
  type t = { lo : float; hi : float; counts : int array; mutable total : int }

  let create ~lo ~hi ~bins =
    if bins <= 0 || hi <= lo then invalid_arg "Histogram.create";
    { lo; hi; counts = Array.make bins 0; total = 0 }

  let add t x =
    let bins = Array.length t.counts in
    let idx =
      if x <= t.lo then 0
      else if x >= t.hi then bins - 1
      else int_of_float ((x -. t.lo) /. (t.hi -. t.lo) *. float_of_int bins)
    in
    let idx = min (bins - 1) (max 0 idx) in
    t.counts.(idx) <- t.counts.(idx) + 1;
    t.total <- t.total + 1

  let counts t = Array.copy t.counts
  let total t = t.total

  let render t ~width =
    let bins = Array.length t.counts in
    let peak = Array.fold_left max 1 t.counts in
    let buf = Buffer.create 256 in
    for i = 0 to bins - 1 do
      let binlo = t.lo +. ((t.hi -. t.lo) *. float_of_int i /. float_of_int bins) in
      let binhi = t.lo +. ((t.hi -. t.lo) *. float_of_int (i + 1) /. float_of_int bins) in
      let bar = t.counts.(i) * width / peak in
      Buffer.add_string buf
        (Printf.sprintf "[%8.2f, %8.2f) %6d %s\n" binlo binhi t.counts.(i)
           (String.make bar '#'))
    done;
    Buffer.contents buf
end
