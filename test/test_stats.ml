(* Unit tests for the stats library: log-space arithmetic, exact binomials
   (the Lemma 4.4 oracle), running moments, intervals, fits, tables. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let rel_close ?(eps = 1e-9) msg expected actual =
  let denom = Float.max 1e-300 (Float.abs expected) in
  if Float.abs (expected -. actual) /. denom > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Logspace --------------------------------------------------------- *)

let test_log_add () =
  close "log(e^0 + e^0) = log 2" (log 2.0) (Stats.Logspace.add 0.0 0.0);
  close "add with -inf" 3.5 (Stats.Logspace.add Stats.Logspace.neg_inf 3.5);
  close "asymmetric" (log (exp 1.0 +. exp 5.0)) (Stats.Logspace.add 1.0 5.0)

let test_log_sub () =
  close "log(e^2 - e^1)" (log (exp 2.0 -. exp 1.0)) (Stats.Logspace.sub 2.0 1.0);
  check_bool "equal args give -inf" true
    (Stats.Logspace.sub 4.0 4.0 = Stats.Logspace.neg_inf);
  Alcotest.check_raises "negative result"
    (Invalid_argument "Logspace.sub: negative result") (fun () ->
      ignore (Stats.Logspace.sub 1.0 2.0))

let test_log_sum () =
  let ls = [| 0.0; 0.0; 0.0; 0.0 |] in
  close "sum of four e^0" (log 4.0) (Stats.Logspace.sum ls);
  check_bool "empty sum" true (Stats.Logspace.sum [||] = Stats.Logspace.neg_inf);
  (* Huge magnitude spread must not overflow. *)
  close ~eps:1e-12 "dominated sum" 1000.0
    (Stats.Logspace.sum [| 1000.0; -1000.0 |])

let test_of_to_prob () =
  close "of_prob 0.5" (log 0.5) (Stats.Logspace.of_prob 0.5);
  close "to_prob round trip" 0.25 (Stats.Logspace.to_prob (log 0.25));
  check_bool "to_prob clamps" true (Stats.Logspace.to_prob 1e-9 <= 1.0);
  Alcotest.check_raises "of_prob out of range"
    (Invalid_argument "Logspace.of_prob: out of [0,1]") (fun () ->
      ignore (Stats.Logspace.of_prob 1.5))

let test_ln_factorial_small () =
  close "0!" 0.0 (Stats.Logspace.ln_factorial 0);
  close "1!" 0.0 (Stats.Logspace.ln_factorial 1);
  close "5!" (log 120.0) (Stats.Logspace.ln_factorial 5);
  close ~eps:1e-8 "20!" (log 2.43290200817664e18) (Stats.Logspace.ln_factorial 20)

let test_ln_factorial_stirling_consistency () =
  (* Direct summation vs the Stirling branch across the table boundary. *)
  let direct n =
    let acc = ref 0.0 in
    for k = 2 to n do
      acc := !acc +. log (float_of_int k)
    done;
    !acc
  in
  List.iter
    (fun n ->
      rel_close ~eps:1e-12
        (Printf.sprintf "ln %d!" n)
        (direct n)
        (Stats.Logspace.ln_factorial n))
    [ 1000; 1023; 1024; 1025; 2000; 5000 ]

let test_ln_choose () =
  close "choose(5,2)" (log 10.0) (Stats.Logspace.ln_choose 5 2);
  close "symmetry" (Stats.Logspace.ln_choose 30 7) (Stats.Logspace.ln_choose 30 23);
  check_bool "out of range" true
    (Stats.Logspace.ln_choose 5 6 = Stats.Logspace.neg_inf);
  check_bool "negative k" true
    (Stats.Logspace.ln_choose 5 (-1) = Stats.Logspace.neg_inf);
  (* Pascal's identity in log space. *)
  let lhs = Stats.Logspace.ln_choose 40 17 in
  let rhs =
    Stats.Logspace.add (Stats.Logspace.ln_choose 39 16) (Stats.Logspace.ln_choose 39 17)
  in
  rel_close ~eps:1e-12 "Pascal" lhs rhs

(* --- Binomial --------------------------------------------------------- *)

let test_pmf_sums_to_one () =
  List.iter
    (fun (n, p) ->
      let total = ref 0.0 in
      for k = 0 to n do
        total := !total +. Stats.Binomial.pmf ~n ~k ~p
      done;
      close ~eps:1e-9 (Printf.sprintf "sum n=%d p=%.2f" n p) 1.0 !total)
    [ (1, 0.5); (10, 0.3); (50, 0.5); (100, 0.9); (20, 0.0); (20, 1.0) ]

let test_pmf_known_values () =
  close ~eps:1e-12 "Bin(4,1/2) at 2" 0.375 (Stats.Binomial.pmf ~n:4 ~k:2 ~p:0.5);
  close ~eps:1e-12 "Bin(3,1/3) at 0" (8.0 /. 27.0)
    (Stats.Binomial.pmf ~n:3 ~k:0 ~p:(1.0 /. 3.0));
  close "out of range" 0.0 (Stats.Binomial.pmf ~n:5 ~k:6 ~p:0.5)

let test_cdf_sf_complement () =
  List.iter
    (fun (n, p, k) ->
      let lhs = Stats.Binomial.cdf ~n ~k ~p +. Stats.Binomial.sf ~n ~k:(k + 1) ~p in
      close ~eps:1e-9 (Printf.sprintf "cdf+sf n=%d k=%d" n k) 1.0 lhs)
    [ (10, 0.5, 3); (50, 0.2, 10); (7, 0.9, 6); (100, 0.5, 50) ]

let test_symmetry_half () =
  List.iter
    (fun (n, k) ->
      rel_close ~eps:1e-9
        (Printf.sprintf "sf(k)=cdf(n-k) n=%d k=%d" n k)
        (Stats.Binomial.cdf ~n ~k:(n - k) ~p:0.5)
        (Stats.Binomial.sf ~n ~k ~p:0.5))
    [ (10, 7); (40, 25); (101, 60) ]

let test_cdf_monotone () =
  let n = 30 and p = 0.37 in
  let prev = ref (-1.0) in
  for k = 0 to n do
    let c = Stats.Binomial.cdf ~n ~k ~p in
    check_bool "monotone" true (c >= !prev -. 1e-12);
    prev := c
  done

let test_extreme_tail_in_logspace () =
  (* Far below Float.min_float as a probability, but finite in log space. *)
  let lp = Stats.Binomial.log_sf ~n:10_000 ~k:9_999 ~p:0.5 in
  check_bool "finite" true (Float.is_finite lp);
  check_bool "astronomically small" true (lp < -6000.0)

let test_mean_variance () =
  close "mean" 12.0 (Stats.Binomial.mean ~n:40 ~p:0.3);
  close ~eps:1e-12 "variance" 8.4 (Stats.Binomial.variance ~n:40 ~p:0.3)

let test_tail_above_mean () =
  (* Bin(4, 1/2): Pr[X - 2 >= 1] = Pr[X >= 3] = 5/16. *)
  close ~eps:1e-12 "n=4 dev=1" (5.0 /. 16.0)
    (Stats.Binomial.tail_above_mean ~n:4 ~dev:1.0);
  (* dev = 0 gives Pr[X >= mean] (for even n, includes the center). *)
  check_bool "dev=0 above half" true
    (Stats.Binomial.tail_above_mean ~n:10 ~dev:0.0 > 0.5)

let test_paper_bound_holds () =
  (* Lemma 4.4's guarantee for s < sqrt(n)/8. *)
  List.iter
    (fun n ->
      List.iter
        (fun s ->
          if s < sqrt (float_of_int n) /. 8.0 then begin
            let exact =
              Stats.Binomial.tail_above_mean ~n ~dev:(s *. sqrt (float_of_int n))
            in
            let bound = Stats.Binomial.paper_tail_lower_bound ~s in
            check_bool
              (Printf.sprintf "bound holds n=%d s=%.2f" n s)
              true (exact >= bound)
          end)
        [ 0.1; 0.25; 0.5; 1.0; 1.5; 2.0 ])
    [ 100; 400; 1600; 6400 ]

(* --- Welford ---------------------------------------------------------- *)

let direct_mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let direct_var xs =
  let m = direct_mean xs in
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
  /. float_of_int (Array.length xs - 1)

let test_welford_matches_direct () =
  let rng = Prng.Rng.create 1 in
  let xs = Array.init 500 (fun _ -> Prng.Rng.float rng *. 100.0) in
  let w = Stats.Welford.of_array xs in
  check_int "count" 500 (Stats.Welford.count w);
  rel_close ~eps:1e-9 "mean" (direct_mean xs) (Stats.Welford.mean w);
  rel_close ~eps:1e-9 "variance" (direct_var xs) (Stats.Welford.variance w)

let test_welford_minmax_total () =
  let w = Stats.Welford.of_array [| 3.0; -1.0; 7.0; 2.0 |] in
  close "min" (-1.0) (Stats.Welford.min w);
  close "max" 7.0 (Stats.Welford.max w);
  close ~eps:1e-9 "total" 11.0 (Stats.Welford.total w)

let test_welford_empty () =
  let w = Stats.Welford.create () in
  check_bool "mean NaN" true (Float.is_nan (Stats.Welford.mean w));
  check_bool "variance NaN" true (Float.is_nan (Stats.Welford.variance w));
  check_bool "std_error NaN" true (Float.is_nan (Stats.Welford.std_error w))

let test_welford_merge () =
  let rng = Prng.Rng.create 2 in
  let xs = Array.init 300 (fun _ -> Prng.Rng.float rng) in
  let ys = Array.init 200 (fun _ -> Prng.Rng.float rng *. 10.0) in
  let merged = Stats.Welford.merge (Stats.Welford.of_array xs) (Stats.Welford.of_array ys) in
  let all = Array.append xs ys in
  let whole = Stats.Welford.of_array all in
  rel_close ~eps:1e-9 "merged mean" (Stats.Welford.mean whole) (Stats.Welford.mean merged);
  rel_close ~eps:1e-9 "merged variance" (Stats.Welford.variance whole)
    (Stats.Welford.variance merged);
  check_int "merged count" 500 (Stats.Welford.count merged)

let test_welford_merge_empty () =
  let w = Stats.Welford.of_array [| 1.0; 2.0 |] in
  let e = Stats.Welford.create () in
  rel_close "merge with empty left" 1.5 (Stats.Welford.mean (Stats.Welford.merge e w));
  rel_close "merge with empty right" 1.5 (Stats.Welford.mean (Stats.Welford.merge w e))

(* --- Histogram -------------------------------------------------------- *)

let test_histogram_counts () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 3; 1; 3; 5; 3; 1 ];
  check_int "total" 6 (Stats.Histogram.count h);
  Alcotest.(check (list (pair int int)))
    "sorted bins" [ (1, 2); (3, 3); (5, 1) ] (Stats.Histogram.bins h)

let test_histogram_quantiles () =
  let h = Stats.Histogram.create () in
  for _ = 1 to 50 do
    Stats.Histogram.add h 1;
    Stats.Histogram.add h 10
  done;
  Alcotest.(check (option int)) "median" (Some 1) (Stats.Histogram.quantile h 0.5);
  Alcotest.(check (option int)) "q90" (Some 10) (Stats.Histogram.quantile h 0.9)

let test_histogram_invalid () =
  let h = Stats.Histogram.create () in
  Alcotest.(check (option int)) "empty quantile" None (Stats.Histogram.quantile h 0.5)

let test_histogram_quantile_endpoints () =
  (* E5's p10 reads [quantile]: q = 0 and q = 1 land on the extreme bins,
     and q outside [0, 1] is rejected. *)
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 7; 2; 9; 2; 4 ];
  Alcotest.(check (option int)) "q0 is the least value" (Some 2)
    (Stats.Histogram.quantile h 0.0);
  Alcotest.(check (option int)) "q1 is the greatest value" (Some 9)
    (Stats.Histogram.quantile h 1.0);
  Alcotest.(check (option int)) "q0.4 covers both 2s" (Some 2)
    (Stats.Histogram.quantile h 0.4);
  Alcotest.check_raises "q > 1" (Invalid_argument "Histogram.quantile")
    (fun () -> ignore (Stats.Histogram.quantile h 1.5));
  Alcotest.check_raises "q < 0" (Invalid_argument "Histogram.quantile")
    (fun () -> ignore (Stats.Histogram.quantile h (-0.1)))

let test_histogram_render () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 2; 2; 4 ];
  let s = Stats.Histogram.render h in
  check_bool "mentions both bins" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.length = 2)

let test_histogram_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add a) [ 1; 1; 3 ];
  List.iter (Stats.Histogram.add b) [ 3; 7 ];
  let m = Stats.Histogram.merge a b in
  Alcotest.(check (list (pair int int)))
    "bin counts add" [ (1, 2); (3, 2); (7, 1) ] (Stats.Histogram.bins m);
  (* Arguments are untouched and the result is independent of them. *)
  check_int "a unchanged" 3 (Stats.Histogram.count a);
  check_int "b unchanged" 2 (Stats.Histogram.count b);
  Stats.Histogram.add a 9;
  check_int "merge not aliased to a" 5 (Stats.Histogram.count m);
  (* Merging with empty is the identity on bins, in either order. *)
  let e = Stats.Histogram.create () in
  Alcotest.(check (list (pair int int)))
    "empty right" (Stats.Histogram.bins b)
    (Stats.Histogram.bins (Stats.Histogram.merge b e));
  Alcotest.(check (list (pair int int)))
    "empty left" (Stats.Histogram.bins b)
    (Stats.Histogram.bins (Stats.Histogram.merge e b))

(* --- Ci ----------------------------------------------------------------- *)

let test_z_levels () =
  (* Mean 1, standard error 1: the interval's half-width is the normal
     quantile z itself. *)
  let z confidence =
    (Stats.Ci.mean_interval ~confidence (Stats.Welford.of_array [| 0.0; 2.0 |]))
      .Stats.Ci.hi -. 1.0
  in
  close ~eps:1e-12 "95%" 1.96 (z 0.95);
  close ~eps:1e-12 "99%" 2.5758 (z 0.99);
  (* Nonstandard level via the inverse-normal approximation. *)
  let z = z 0.954 in
  check_bool "custom level plausible" true (z > 1.9 && z < 2.1)

let test_mean_interval () =
  let w = Stats.Welford.of_array (Array.make 100 5.0) in
  let { Stats.Ci.lo; hi } = Stats.Ci.mean_interval w in
  close "zero-variance lo" 5.0 lo;
  close "zero-variance hi" 5.0 hi;
  let rng = Prng.Rng.create 3 in
  let w = Stats.Welford.of_array (Array.init 400 (fun _ -> Prng.Rng.float rng)) in
  let { Stats.Ci.lo; hi } = Stats.Ci.mean_interval w in
  check_bool "contains sample mean" true
    (lo <= Stats.Welford.mean w && Stats.Welford.mean w <= hi)

let test_wilson () =
  let { Stats.Ci.lo; hi } = Stats.Ci.wilson ~successes:0 100 in
  close "zero successes lo" 0.0 lo;
  check_bool "zero successes hi small but positive" true (hi > 0.0 && hi < 0.06);
  let { Stats.Ci.lo; hi } = Stats.Ci.wilson ~successes:100 100 in
  close "all successes hi" 1.0 hi;
  check_bool "all successes lo below 1" true (lo < 1.0 && lo > 0.94);
  let { Stats.Ci.lo; hi } = Stats.Ci.wilson ~successes:50 100 in
  check_bool "centered" true (lo < 0.5 && 0.5 < hi)

let test_wilson_invalid () =
  Alcotest.check_raises "no trials" (Invalid_argument "Ci.wilson: no trials")
    (fun () -> ignore (Stats.Ci.wilson ~successes:0 0))

(* --- Fit ----------------------------------------------------------------- *)

let test_linear_exact () =
  let pts = Array.init 10 (fun i -> (float_of_int i, (2.0 *. float_of_int i) +. 1.0)) in
  let { Stats.Fit.intercept; slope; r2 } = Stats.Fit.linear pts in
  close ~eps:1e-9 "slope" 2.0 slope;
  close ~eps:1e-9 "intercept" 1.0 intercept;
  close ~eps:1e-9 "r2" 1.0 r2

let test_linear_invalid () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Fit.linear: need at least two points") (fun () ->
      ignore (Stats.Fit.linear [| (1.0, 1.0) |]));
  Alcotest.check_raises "constant x" (Invalid_argument "Fit.linear: constant x")
    (fun () -> ignore (Stats.Fit.linear [| (1.0, 1.0); (1.0, 2.0) |]))

let test_through_origin () =
  let pts = [| (1.0, 3.0); (2.0, 6.0); (4.0, 12.0) |] in
  close ~eps:1e-9 "c" 3.0 (Stats.Fit.through_origin pts);
  close ~eps:1e-9 "r2" 1.0 (Stats.Fit.r2_through_origin pts)

let test_power_law () =
  let pts = Array.init 8 (fun i ->
      let x = float_of_int (i + 1) in
      (x, 3.0 *. (x ** 1.5)))
  in
  let { Stats.Fit.coefficient; exponent; r2_log } = Stats.Fit.power_law pts in
  close ~eps:1e-9 "coefficient" 3.0 coefficient;
  close ~eps:1e-9 "exponent" 1.5 exponent;
  close ~eps:1e-9 "r2" 1.0 r2_log

let test_power_law_invalid () =
  Alcotest.check_raises "non-positive point"
    (Invalid_argument "Fit.power_law: points must be positive") (fun () ->
      ignore (Stats.Fit.power_law [| (0.0, 1.0); (1.0, 2.0) |]))

(* --- Table ---------------------------------------------------------------- *)

let test_table_roundtrip () =
  let t = Stats.Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Stats.Table.add_row t [ Stats.Table.Int 1; Stats.Table.Float 2.5 ];
  Stats.Table.add_row t [ Stats.Table.Str "x"; Stats.Table.Sci 1e-30 ];
  check_int "header and two rows" 3
    (List.length (String.split_on_char '\n' (Stats.Table.to_csv t)));
  let r = Stats.Table.render t in
  check_bool "has title" true
    (String.length r >= 8 && String.sub r 0 8 = "== demo ");
  check_bool "renders sci" true
    (String.split_on_char '\n' r
    |> List.exists (fun line ->
           String.length line > 0
           && String.index_opt line 'e' <> None
           && String.index_opt line '-' <> None))

let test_table_arity_check () =
  let t = Stats.Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Table.add_row (demo): expected 2 cells, got 1") (fun () ->
      Stats.Table.add_row t [ Stats.Table.Int 1 ])

let test_table_csv () =
  let t = Stats.Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Stats.Table.add_row t [ Stats.Table.Str "x,y"; Stats.Table.Int 2 ];
  let csv = Stats.Table.to_csv t in
  Alcotest.(check string) "escapes commas" "a,b\n\"x,y\",2" csv

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "stats.logspace",
      [
        tc "add" test_log_add;
        tc "sub" test_log_sub;
        tc "sum" test_log_sum;
        tc "of/to prob" test_of_to_prob;
        tc "ln_factorial small" test_ln_factorial_small;
        tc "ln_factorial stirling" test_ln_factorial_stirling_consistency;
        tc "ln_choose" test_ln_choose;
      ] );
    ( "stats.binomial",
      [
        tc "pmf sums to one" test_pmf_sums_to_one;
        tc "pmf known values" test_pmf_known_values;
        tc "cdf/sf complement" test_cdf_sf_complement;
        tc "symmetry at p=1/2" test_symmetry_half;
        tc "cdf monotone" test_cdf_monotone;
        tc "extreme tail finite in log space" test_extreme_tail_in_logspace;
        tc "mean and variance" test_mean_variance;
        tc "tail above mean" test_tail_above_mean;
        tc "Lemma 4.4 bound holds" test_paper_bound_holds;
      ] );
    ( "stats.welford",
      [
        tc "matches direct" test_welford_matches_direct;
        tc "min/max/total" test_welford_minmax_total;
        tc "empty" test_welford_empty;
        tc "merge" test_welford_merge;
        tc "merge with empty" test_welford_merge_empty;
      ] );
    ( "stats.histogram",
      [
        tc "counts" test_histogram_counts;
        tc "quantiles" test_histogram_quantiles;
        tc "invalid input" test_histogram_invalid;
        tc "quantile endpoints" test_histogram_quantile_endpoints;
        tc "render" test_histogram_render;
        tc "merge" test_histogram_merge;
      ] );
    ( "stats.ci",
      [
        tc "z levels" test_z_levels;
        tc "mean interval" test_mean_interval;
        tc "wilson" test_wilson;
        tc "wilson invalid" test_wilson_invalid;
      ] );
    ( "stats.fit",
      [
        tc "linear exact" test_linear_exact;
        tc "linear invalid" test_linear_invalid;
        tc "through origin" test_through_origin;
        tc "power law" test_power_law;
        tc "power law invalid" test_power_law_invalid;
      ] );
    ( "stats.table",
      [
        tc "roundtrip" test_table_roundtrip;
        tc "arity check" test_table_arity_check;
        tc "csv" test_table_csv;
      ] );
  ]

(* --- Kolmogorov-Smirnov -------------------------------------------------------- *)

let ks_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let test_identical_samples () =
    let xs = Array.init 100 float_of_int in
    close ~eps:1e-12 "zero distance" 0.0 (Stats.Ks.statistic xs xs);
    check_bool "same distribution" true (Stats.Ks.same_distribution xs xs)
  in
  let test_disjoint_samples () =
    let xs = Array.init 50 float_of_int in
    let ys = Array.init 50 (fun i -> float_of_int (i + 100)) in
    close ~eps:1e-12 "full distance" 1.0 (Stats.Ks.statistic xs ys);
    check_bool "different distributions" false (Stats.Ks.same_distribution xs ys)
  in
  let test_uniform_draws_agree () =
    let sample seed =
      let g = Prng.Rng.create seed in
      Array.init 400 (fun _ -> Prng.Rng.float g)
    in
    check_bool "two PRNG streams look alike" true
      (Stats.Ks.same_distribution (sample 1) (sample 2));
    (* And a uniform vs a clearly shifted sample do not. *)
    let shifted = Array.map (fun x -> (x /. 2.0) +. 0.5) (sample 3) in
    check_bool "uniform vs shifted differ" false
      (Stats.Ks.same_distribution (sample 4) shifted)
  in
  let test_synran_rounds_distribution_stable () =
    (* Round distributions from disjoint seed ranges are statistically the
       same process — a whole-stack distributional regression check. *)
    let sample seed =
      let s =
        Sim.Runner.run_trials ~trials:120 ~seed
          ~gen_inputs:(Sim.Runner.input_gen_random ~n:24)
          ~t:12 (Core.Synran.protocol 24)
          (fun () -> Baselines.Adversaries.random_crash ~p:0.1)
      in
      Stats.Histogram.bins s.Sim.Runner.rounds_hist
      |> List.concat_map (fun (v, c) -> List.init c (fun _ -> float_of_int v))
      |> Array.of_list
    in
    check_bool "stable across seeds" true
      (Stats.Ks.same_distribution ~alpha:0.001 (sample 100) (sample 200))
  in
  let test_nan_rejected () =
    (* Regression: a NaN used to make the merge walk spin forever (no
       comparison could advance past it); it must now raise immediately. *)
    let clean = [| 1.0; 2.0 |] in
    Alcotest.check_raises "NaN in first sample"
      (Invalid_argument "Ks.statistic: NaN in sample") (fun () ->
        ignore (Stats.Ks.statistic [| Float.nan; 1.0 |] clean));
    Alcotest.check_raises "NaN in second sample"
      (Invalid_argument "Ks.statistic: NaN in sample") (fun () ->
        ignore (Stats.Ks.statistic clean [| 0.5; Float.nan |]))
  in
  let test_critical_value_monotone () =
    check_bool "stricter alpha, larger threshold" true
      (Stats.Ks.critical_value ~alpha:0.01 50 50
      > Stats.Ks.critical_value ~alpha:0.10 50 50);
    check_bool "more data, smaller threshold" true
      (Stats.Ks.critical_value 400 400 < Stats.Ks.critical_value 50 50)
  in
  ( "stats.ks",
    [
      tc "identical samples" test_identical_samples;
      tc "disjoint samples" test_disjoint_samples;
      tc "uniform draws agree" test_uniform_draws_agree;
      tc "synran rounds distribution stable" test_synran_rounds_distribution_stable;
      tc "critical value monotone" test_critical_value_monotone;
      tc "nan rejected" test_nan_rejected;
    ] )

let suites = suites @ [ ks_suite ]
