(* Unit tests for Util.Stats. *)

let feq ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

let test_mean () = feq "mean" 3.0 (Util.Stats.mean [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let test_mean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty sample") (fun () ->
      ignore (Util.Stats.mean []))

let test_stddev_known () =
  (* sample stddev of [2;4;4;4;5;5;7;9] with n-1 denominator *)
  feq ~eps:1e-6 "stddev" 2.13808993529939517
    (Util.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stddev_singleton () = feq "singleton" 0.0 (Util.Stats.stddev [ 5.0 ])
let test_stddev_constant () = feq "constant" 0.0 (Util.Stats.stddev [ 3.0; 3.0; 3.0 ])

let test_percentiles () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0 ] in
  feq "median" 5.5 (Util.Stats.percentile xs 0.5);
  feq "p0" 1.0 (Util.Stats.percentile xs 0.0);
  feq "p100" 10.0 (Util.Stats.percentile xs 1.0);
  feq ~eps:1e-9 "p90" 9.1 (Util.Stats.percentile xs 0.9)

let test_percentile_unsorted_input () =
  feq "unsorted" 2.0 (Util.Stats.percentile [ 3.0; 1.0; 2.0 ] 0.5)

let test_nan_rejected () =
  (* the old polymorphic-compare sort left NaN wherever it landed,
     silently poisoning the order statistics *)
  Alcotest.check_raises "percentile" (Invalid_argument "Stats: NaN in sample") (fun () ->
      ignore (Util.Stats.percentile [ 1.0; Float.nan; 2.0 ] 0.5));
  Alcotest.check_raises "summarize" (Invalid_argument "Stats: NaN in sample") (fun () ->
      ignore (Util.Stats.summarize [ Float.nan ]))

let test_order_stats_consistent () =
  (* summarize shares one Float.compare-sorted array; its order
     statistics must agree with standalone percentile calls even on
     adversarial inputs (negative zero, infinities, denormals) *)
  let xs = [ 7.5; -0.0; 0.0; 4.2; 1e-320; -3.0; 9.0; 2.5 ] in
  let s = Util.Stats.summarize xs in
  feq "median matches" (Util.Stats.percentile xs 0.5) s.median;
  feq "p90 matches" (Util.Stats.percentile xs 0.9) s.p90;
  feq "p99 matches" (Util.Stats.percentile xs 0.99) s.p99;
  feq "min" (-3.0) s.min;
  feq "max" 9.0 s.max;
  (* infinities sort to the extremes under Float.compare *)
  let inf = Util.Stats.summarize [ 1.0; infinity; neg_infinity ] in
  Alcotest.(check bool) "-inf min" true (inf.min = neg_infinity);
  Alcotest.(check bool) "+inf max" true (inf.max = infinity);
  feq "finite median" 1.0 inf.median

let test_t_critical () =
  feq ~eps:1e-6 "df=1" 12.706 (Util.Stats.t_critical_95 1);
  feq ~eps:1e-6 "df=10" 2.228 (Util.Stats.t_critical_95 10);
  feq ~eps:1e-6 "df=30" 2.042 (Util.Stats.t_critical_95 30);
  feq ~eps:1e-6 "df large" 1.96 (Util.Stats.t_critical_95 10000);
  Alcotest.(check bool) "monotone decreasing" true
    (Util.Stats.t_critical_95 5 > Util.Stats.t_critical_95 25)

let test_ci95 () =
  (* n=4, stddev=1 -> ci = t(3) * 1/2 = 3.182/2 *)
  let xs = [ 1.0; 2.0; 2.0; 3.0 ] in
  let sd = Util.Stats.stddev xs in
  feq ~eps:1e-9 "ci formula"
    (Util.Stats.t_critical_95 3 *. sd /. 2.0)
    (Util.Stats.ci95_halfwidth xs);
  feq "single sample" 0.0 (Util.Stats.ci95_halfwidth [ 42.0 ])

let test_summarize () =
  let s = Util.Stats.summarize [ 10.0; 20.0; 30.0 ] in
  Alcotest.(check int) "count" 3 s.count;
  feq "mean" 20.0 s.mean;
  feq "min" 10.0 s.min;
  feq "max" 30.0 s.max;
  feq "median" 20.0 s.median

let test_histogram () =
  let h = Util.Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Util.Stats.Histogram.add h) [ 0.5; 1.5; 2.5; 5.0; 9.9; -3.0; 42.0 ];
  Alcotest.(check int) "total" 7 (Util.Stats.Histogram.total h);
  let counts = Util.Stats.Histogram.counts h in
  Alcotest.(check int) "first bin catches low outlier" 3 counts.(0);
  Alcotest.(check int) "last bin catches high outlier" 2 counts.(4);
  Alcotest.(check bool) "renders" true (String.length (Util.Stats.Histogram.render h ~width:20) > 0)

let qcheck_ci_nonnegative =
  QCheck.Test.make ~name:"ci95 is non-negative" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 2 40) (float_range (-1000.0) 1000.0))
    (fun xs -> Util.Stats.ci95_halfwidth xs >= 0.0)

let qcheck_mean_bounded =
  QCheck.Test.make ~name:"mean within min/max" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Util.Stats.summarize xs in
      s.mean >= s.min -. 1e-6 && s.mean <= s.max +. 1e-6)

let suite =
  ( "stats",
    [
      Alcotest.test_case "mean" `Quick test_mean;
      Alcotest.test_case "mean empty" `Quick test_mean_empty;
      Alcotest.test_case "stddev known" `Quick test_stddev_known;
      Alcotest.test_case "stddev singleton" `Quick test_stddev_singleton;
      Alcotest.test_case "stddev constant" `Quick test_stddev_constant;
      Alcotest.test_case "percentiles" `Quick test_percentiles;
      Alcotest.test_case "percentile unsorted" `Quick test_percentile_unsorted_input;
      Alcotest.test_case "nan rejected" `Quick test_nan_rejected;
      Alcotest.test_case "order stats consistent" `Quick test_order_stats_consistent;
      Alcotest.test_case "t critical values" `Quick test_t_critical;
      Alcotest.test_case "ci95" `Quick test_ci95;
      Alcotest.test_case "summarize" `Quick test_summarize;
      Alcotest.test_case "histogram" `Quick test_histogram;
      QCheck_alcotest.to_alcotest qcheck_ci_nonnegative;
      QCheck_alcotest.to_alcotest qcheck_mean_bounded;
    ] )
