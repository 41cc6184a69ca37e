(* Property-based tests (qcheck): randomized invariants across the whole
   stack, registered as alcotest cases. *)

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- PRNG properties --------------------------------------------------------- *)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in [0, bound)" ~count:200
    QCheck.(pair small_int (int_bound 1_000_000))
    (fun (seed, b) ->
      let bound = b + 1 in
      let g = Prng.Rng.create seed in
      let v = Prng.Rng.int g bound in
      v >= 0 && v < bound)

let prop_shuffle_permutes =
  QCheck.Test.make ~name:"Sample.shuffle preserves the multiset" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      Prng.Sample.shuffle (Prng.Rng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let prop_choose_k_distinct =
  QCheck.Test.make ~name:"Sample.choose_k yields k distinct in-range values"
    ~count:200
    QCheck.(triple small_int (int_bound 50) (int_bound 50))
    (fun (seed, a, b) ->
      let n = Stdlib.max a b + 1 and k = Stdlib.min a b in
      let s = Prng.Sample.choose_k (Prng.Rng.create seed) n k in
      Array.length s = k
      && Array.for_all (fun v -> v >= 0 && v < n) s
      && List.length (List.sort_uniq compare (Array.to_list s)) = k)

(* --- Stats properties --------------------------------------------------------- *)

let prop_logspace_add_commutes =
  QCheck.Test.make ~name:"Logspace.add commutes and matches direct" ~count:200
    QCheck.(pair (float_bound_exclusive 50.0) (float_bound_exclusive 50.0))
    (fun (a, b) ->
      let la = -.a and lb = -.b in
      let s1 = Stats.Logspace.add la lb and s2 = Stats.Logspace.add lb la in
      Float.abs (s1 -. s2) < 1e-12
      && Float.abs (s1 -. log (exp la +. exp lb)) < 1e-9)

let prop_binomial_cdf_monotone =
  QCheck.Test.make ~name:"Binomial.cdf is monotone in k" ~count:50
    QCheck.(pair (int_range 1 80) (float_bound_inclusive 1.0))
    (fun (n, p) ->
      let prev = ref (-1.0) in
      let ok = ref true in
      for k = 0 to n do
        let c = Stats.Binomial.cdf ~n ~k ~p in
        if c < !prev -. 1e-12 then ok := false;
        prev := c
      done;
      !ok)

let prop_binomial_pmf_normalized =
  QCheck.Test.make ~name:"Binomial pmf sums to 1" ~count:40
    QCheck.(pair (int_range 1 60) (float_bound_inclusive 1.0))
    (fun (n, p) ->
      let total = ref 0.0 in
      for k = 0 to n do
        total := !total +. Stats.Binomial.pmf ~n ~k ~p
      done;
      Float.abs (!total -. 1.0) < 1e-9)

let prop_welford_merge_consistent =
  QCheck.Test.make ~name:"Welford.merge equals of_array of concatenation"
    ~count:100
    QCheck.(pair (list (float_bound_exclusive 100.0)) (list (float_bound_exclusive 100.0)))
    (fun (xs, ys) ->
      let a = Array.of_list xs and b = Array.of_list ys in
      let merged = Stats.Welford.merge (Stats.Welford.of_array a) (Stats.Welford.of_array b) in
      let whole = Stats.Welford.of_array (Array.append a b) in
      let close x y =
        (Float.is_nan x && Float.is_nan y) || Float.abs (x -. y) < 1e-6
      in
      Stats.Welford.count merged = Stats.Welford.count whole
      && close (Stats.Welford.mean merged) (Stats.Welford.mean whole)
      && close (Stats.Welford.variance merged) (Stats.Welford.variance whole))

(* Histogram.merge folds over a Hashtbl (waived as order-insensitive under
   detlint rule R3); these properties pin the algebra that justification
   relies on: merge is commutative and associative up to observable state
   (sorted bins), and totals add. *)
let hist_arb =
  QCheck.(
    list_of_size Gen.(0 -- 30) (pair (int_range (-20) 20) (int_bound 5)))

let hist_of_ops ops =
  let h = Stats.Histogram.create () in
  List.iter
    (fun (v, c) ->
      for _ = 1 to c do
        Stats.Histogram.add h v
      done)
    ops;
  h

let prop_histogram_merge_commutes =
  QCheck.Test.make ~name:"Histogram.merge commutes (bins and totals)" ~count:200
    QCheck.(pair hist_arb hist_arb)
    (fun (xs, ys) ->
      let open Stats.Histogram in
      let ab = merge (hist_of_ops xs) (hist_of_ops ys) in
      let ba = merge (hist_of_ops ys) (hist_of_ops xs) in
      bins ab = bins ba
      && count ab = count ba
      && count ab = count (hist_of_ops xs) + count (hist_of_ops ys))

let prop_histogram_merge_assoc =
  QCheck.Test.make ~name:"Histogram.merge is associative (bins)" ~count:200
    QCheck.(triple hist_arb hist_arb hist_arb)
    (fun (xs, ys, zs) ->
      let open Stats.Histogram in
      let a () = hist_of_ops xs
      and b () = hist_of_ops ys
      and c () = hist_of_ops zs in
      bins (merge (merge (a ()) (b ())) (c ()))
      = bins (merge (a ()) (merge (b ()) (c ()))))

let prop_wilson_contains_point_estimate =
  QCheck.Test.make ~name:"Wilson interval brackets the proportion" ~count:200
    QCheck.(pair (int_bound 200) (int_bound 200))
    (fun (a, b) ->
      let trials = Stdlib.max a b + 1 and successes = Stdlib.min a b in
      let { Stats.Ci.lo; hi } = Stats.Ci.wilson ~successes trials in
      let p = float_of_int successes /. float_of_int trials in
      lo <= p +. 1e-9 && p -. 1e-9 <= hi && lo >= 0.0 && hi <= 1.0)

(* --- Coin-flipping properties --------------------------------------------------- *)

let game_gen =
  QCheck.Gen.(
    let* n = 3 -- 12 in
    let* idx = 0 -- 4 in
    return (List.nth (Coinflip.Games.all n) idx))

let game_arb =
  QCheck.make ~print:(fun g -> g.Coinflip.Game.name) game_gen

let prop_strategies_respect_budget =
  QCheck.Test.make ~name:"strategies never overspend or double-hide" ~count:200
    QCheck.(triple game_arb small_int (int_bound 12))
    (fun (g, seed, budget) ->
      let rng = Prng.Rng.create seed in
      let c = Coinflip.Game.cursor g (Coinflip.Game.sample g rng) in
      let players = List.init g.Coinflip.Game.n Fun.id in
      List.for_all
        (fun strategy ->
          List.for_all
            (fun target ->
              let hidden = strategy.Coinflip.Strategy.act c ~budget ~target in
              List.for_all (fun i -> not (Coinflip.Game.is_hidden c i)) players
              && List.length hidden <= budget
              && List.length (List.sort_uniq compare hidden) = List.length hidden
              && List.for_all (fun i -> i >= 0 && i < g.Coinflip.Game.n) hidden)
            (List.init g.Coinflip.Game.k Fun.id))
        [
          Coinflip.Strategy.do_nothing;
          Coinflip.Strategy.greedy;
          Coinflip.Strategy.toward_value;
          Coinflip.Strategy.best_available;
        ])

let prop_hiding_everything_defaults =
  QCheck.Test.make ~name:"majority0 with everyone hidden is 0" ~count:50
    QCheck.(pair (int_range 1 16) small_int)
    (fun (n, seed) ->
      let g = Coinflip.Games.majority_default_zero n in
      let values = Coinflip.Game.sample g (Prng.Rng.create seed) in
      Coinflip.Game.eval_with_hidden g values ~hidden:(List.init n Fun.id) = 0)

let prop_majority0_never_biased_to_one =
  QCheck.Test.make
    ~name:"hiding players never turns a majority0 zero into a one" ~count:200
    QCheck.(pair (int_range 2 12) small_int)
    (fun (n, seed) ->
      let g = Coinflip.Games.majority_default_zero n in
      let rng = Prng.Rng.create seed in
      let values = Coinflip.Game.sample g rng in
      if Coinflip.Game.eval_with_hidden g values ~hidden:[] = 1 then
        QCheck.assume_fail ()
      else begin
        (* Any random hide-set still evaluates to 0: monotonicity. *)
        let k = Prng.Rng.int rng (n + 1) in
        let hidden = Array.to_list (Prng.Sample.choose_k rng n k) in
        Coinflip.Game.eval_with_hidden g values ~hidden = 0
      end)

(* --- Simulator / protocol properties ---------------------------------------------- *)

let adversary_of_tag ~n ~t ~seed = function
  | 0 -> Sim.Adversary.null
  | 1 -> Baselines.Adversaries.random_crash ~p:0.15
  | 2 -> Baselines.Adversaries.random_partial ~p:0.2
  | 3 -> Baselines.Adversaries.static_random ~seed ~n ~budget:t ~horizon:5
  | 4 -> Baselines.Adversaries.drip ~per_round:1
  | _ -> Baselines.Adversaries.crash_all_at ~round:2

let prop_synran_safe_under_random_adversaries =
  QCheck.Test.make
    ~name:"SynRan (paper rules): agreement+validity+termination always"
    ~count:60
    QCheck.(triple (int_range 2 28) small_int (int_bound 5))
    (fun (n, seed, tag) ->
      let rng = Prng.Rng.create (seed + 1) in
      let t = Prng.Rng.int rng n in
      let inputs = Sim.Runner.input_gen_random ~n rng in
      let adversary = adversary_of_tag ~n ~t ~seed tag in
      let o =
        Sim.Engine.run ~max_rounds:3000 (Core.Synran.protocol n) adversary
          ~inputs ~t ~rng
      in
      Sim.Checker.ok (Sim.Checker.check ~inputs o))

let prop_synran_safe_under_band_control =
  QCheck.Test.make
    ~name:"SynRan (paper rules): safe under band control" ~count:25
    QCheck.(pair (int_range 8 48) small_int)
    (fun (n, seed) ->
      let rng = Prng.Rng.create seed in
      let inputs = Sim.Runner.input_gen_random ~n rng in
      let adversary =
        Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
          ~bit_of_msg:Core.Synran.bit_of_msg ()
      in
      let o =
        Sim.Engine.run ~max_rounds:3000 (Core.Synran.protocol n) adversary
          ~inputs ~t:(n - 1) ~rng
      in
      Sim.Checker.ok (Sim.Checker.check ~inputs o))

let prop_floodset_safe =
  QCheck.Test.make ~name:"FloodSet with t+1 rounds: always safe" ~count:60
    QCheck.(triple (int_range 2 20) small_int (int_bound 5))
    (fun (n, seed, tag) ->
      let rng = Prng.Rng.create (seed + 2) in
      let t = Prng.Rng.int rng n in
      let inputs = Sim.Runner.input_gen_random ~n rng in
      let adversary = adversary_of_tag ~n ~t ~seed tag in
      let o =
        Sim.Engine.run
          (Baselines.Floodset.protocol ~rounds:(t + 1) ())
          adversary ~inputs ~t ~rng
      in
      Sim.Checker.ok (Sim.Checker.check ~inputs o))

let prop_trace_invariants =
  QCheck.Test.make ~name:"traces: actives non-increasing, kills within budget"
    ~count:40
    QCheck.(triple (int_range 4 24) small_int (int_bound 5))
    (fun (n, seed, tag) ->
      let rng = Prng.Rng.create (seed + 3) in
      let t = Prng.Rng.int rng n in
      let inputs = Sim.Runner.input_gen_random ~n rng in
      let adversary = adversary_of_tag ~n ~t ~seed tag in
      let tr = Sim.Trace.create () in
      let o =
        Sim.Engine.run ~sink:(Sim.Trace.sink tr) ~max_rounds:3000
          (Core.Synran.protocol n) adversary ~inputs ~t ~rng
      in
      let records = Sim.Trace.records tr in
      let rec non_increasing = function
        | a :: (b :: _ as rest) ->
            a.Sim.Trace.active_before >= b.Sim.Trace.active_before
            && non_increasing rest
        | [ _ ] | [] -> true
      in
      let total_kills =
        List.fold_left
          (fun acc r -> acc + Array.length r.Sim.Trace.killed)
          0 records
      in
      non_increasing records && total_kills <= t
      && total_kills = o.Sim.Engine.kills_used)

let prop_explorer_matches_classification =
  QCheck.Test.make
    ~name:"explorer decision_prob consistent with the ladder" ~count:100
    QCheck.(pair (int_range 2 64) small_int)
    (fun (n, seed) ->
      let ones = Prng.Rng.int (Prng.Rng.create seed) (n + 1) in
      let p = Core.Explorer.decision_prob ~ones n in
      match Core.Explorer.ladder ~ones n with
      | Core.Explorer.Decide_one | Core.Explorer.Propose_one -> p = 1.0
      | Core.Explorer.Decide_zero | Core.Explorer.Propose_zero -> p = 0.0
      | Core.Explorer.Flip_all -> p > 0.0 && p < 1.0)

let prop_theory_lower_below_tight =
  QCheck.Test.make
    ~name:"Theorem 1 curve stays below the Theorem 3 shape (times constant)"
    ~count:100
    QCheck.(pair (int_range 4 4096) small_int)
    (fun (n, seed) ->
      let t = Prng.Rng.int (Prng.Rng.create seed) n + 1 in
      (* lower = t / (4 sqrt(n ln n) + 1) <= t / sqrt(n ln(2 + t/sqrt n))
         because 4 sqrt(n ln n) + 1 >= sqrt(n ln(2 + t/sqrt n)) for t <= n. *)
      Core.Theory.lower_bound_rounds ~n ~t
      <= Core.Theory.tight_bound_shape ~n ~t +. 1e-9)

let suites =
  [
    ( "properties.prng",
      List.map to_alcotest
        [ prop_int_in_bounds; prop_shuffle_permutes; prop_choose_k_distinct ] );
    ( "properties.stats",
      List.map to_alcotest
        [
          prop_logspace_add_commutes;
          prop_binomial_cdf_monotone;
          prop_binomial_pmf_normalized;
          prop_welford_merge_consistent;
          prop_histogram_merge_commutes;
          prop_histogram_merge_assoc;
          prop_wilson_contains_point_estimate;
        ] );
    ( "properties.coinflip",
      List.map to_alcotest
        [
          prop_strategies_respect_budget;
          prop_hiding_everything_defaults;
          prop_majority0_never_biased_to_one;
        ] );
    ( "properties.protocols",
      List.map to_alcotest
        [
          prop_synran_safe_under_random_adversaries;
          prop_synran_safe_under_band_control;
          prop_floodset_safe;
          prop_trace_invariants;
          prop_explorer_matches_classification;
          prop_theory_lower_below_tight;
        ] );
  ]

(* --- Byzantine and async properties -------------------------------------------- *)

let byz_adversary_of_tag tag =
  match tag with
  | 0 -> Byz.Adversary.null
  | 1 -> Byz.Adversary.equivocator ~budget_fraction:1.0 ()
  | 2 -> Byz.Adversary.equivocator ~corrupt_at:2 ~budget_fraction:0.5 ()
  | _ -> Byz.Adversary.crash_like ~victims:[ (1, 0); (2, 1); (3, 2) ]

(* Agreement, validity and termination among the honest processes. *)
let byz_ok ~inputs o = Sim.Checker.ok (Byz.Engine.check ~inputs o)

let prop_phase_king_safe =
  QCheck.Test.make ~name:"Phase King: safe whenever n > 4t" ~count:40
    QCheck.(triple (int_range 0 3) small_int (int_bound 3))
    (fun (t, seed, tag) ->
      let n = (4 * t) + 1 + (seed mod 4) in
      let rng = Prng.Rng.create (seed + 11) in
      let inputs = Prng.Sample.random_bits rng n in
      let o =
        Byz.Engine.run
          (Byz.Phase_king.protocol ~t)
          (byz_adversary_of_tag tag) ~inputs ~t ~rng
      in
      byz_ok ~inputs o)

let prop_eig_safe =
  QCheck.Test.make ~name:"EIG: safe whenever n > 3t (t <= 2)" ~count:40
    QCheck.(triple (int_range 0 2) small_int (int_bound 3))
    (fun (t, seed, tag) ->
      let n = (3 * t) + 1 + (seed mod 4) in
      let rng = Prng.Rng.create (seed + 13) in
      let inputs = Prng.Sample.random_bits rng n in
      let o =
        Byz.Engine.run (Byz.Eig.protocol ~t) (byz_adversary_of_tag tag) ~inputs
          ~t ~rng
      in
      byz_ok ~inputs o)

let prop_rabin_safe_and_fast =
  QCheck.Test.make ~name:"Rabin oracle: safe and O(1)-ish whenever n > 5t"
    ~count:40
    QCheck.(triple (int_range 0 3) small_int (int_bound 3))
    (fun (t, seed, tag) ->
      let n = (5 * t) + 1 + (seed mod 4) in
      let rng = Prng.Rng.create (seed + 17) in
      let inputs = Prng.Sample.random_bits rng n in
      let o =
        Byz.Engine.run ~max_rounds:200
          (Byz.Rabin.protocol ~t ~oracle_seed:(seed * 31))
          (byz_adversary_of_tag tag) ~inputs ~t ~rng
      in
      byz_ok ~inputs o && o.Byz.Engine.rounds_executed < 60)

let prop_async_benor_safe =
  QCheck.Test.make ~name:"async Ben-Or: agreement+validity under any tested scheduler"
    ~count:25
    QCheck.(triple (int_range 0 2) small_int (int_bound 2))
    (fun (t, seed, tag) ->
      let n = (2 * t) + 2 + (seed mod 3) in
      let make_scheduler () =
        match tag with
        | 0 -> Async.Scheduler.fair
        | 1 -> Async.Scheduler.fifo
        | _ -> Async.Scheduler.random_crash ~p:0.02
      in
      let s =
        Sim.Runner.value
          (Async.Engine.run_trials ~max_steps:200_000 ~trials:3
             ~seed:(seed + 19)
             ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng n)
             ~t (Async.Benor.protocol ~t) make_scheduler)
      in
      s.Async.Engine.disagreements = 0 && s.Async.Engine.validity_errors = 0)

let prop_early_stop_safe =
  QCheck.Test.make ~name:"early-stopping FloodSet: safe under partial kills"
    ~count:40
    QCheck.(pair (int_range 2 16) small_int)
    (fun (n, seed) ->
      let rng = Prng.Rng.create (seed + 23) in
      let t = Prng.Rng.int rng n in
      let inputs = Sim.Runner.input_gen_random ~n rng in
      let o =
        Sim.Engine.run
          (Baselines.Early_stop.protocol ~rounds:(t + 1) ())
          (Baselines.Adversaries.random_partial ~p:0.2)
          ~inputs ~t ~rng
      in
      Sim.Checker.ok (Sim.Checker.check ~inputs o))

let fault_model_suites =
  [
    ( "properties.fault-models",
      List.map to_alcotest
        [
          prop_phase_king_safe;
          prop_eig_safe;
          prop_rabin_safe_and_fast;
          prop_async_benor_safe;
          prop_early_stop_safe;
        ] );
  ]

let suites = suites @ fault_model_suites

(* --- Structural invariants ------------------------------------------------------ *)

let prop_ladder_monotone =
  (* As the 1-count grows (at fixed totals), the ladder's action must move
     monotonically along Decide 0 < Propose 0 < Flip < Propose 1 < Decide 1,
     except for the zero-rule jump at zeros = 0 (excluded by keeping
     zeros >= 1). *)
  QCheck.Test.make ~name:"Onesided ladder is monotone in the 1-count" ~count:100
    QCheck.(pair (int_range 2 400) (int_range 0 2))
    (fun (n_prev, variant) ->
      let rules =
        match variant with
        | 0 -> Core.Onesided.paper
        | 1 -> Core.Onesided.no_zero_rule
        | _ -> Core.Onesided.symmetric
      in
      let rank ~ones =
        match
          Core.Onesided.classify rules ~ones ~zeros:(Stdlib.max 1 (n_prev - ones))
            ~n_prev
        with
        | Core.Onesided.Decide 0 -> 0
        | Core.Onesided.Propose 0 -> 1
        | Core.Onesided.Flip -> 2
        | Core.Onesided.Propose _ -> 3
        | Core.Onesided.Decide _ -> 4
      in
      let ok = ref true in
      let prev = ref (rank ~ones:0) in
      for ones = 1 to n_prev - 1 do
        let r = rank ~ones in
        if r < !prev then ok := false;
        prev := r
      done;
      !ok)

let prop_binomial_sampler_matches_pmf =
  (* The per-trial binomial sampler agrees with the exact distribution:
     KS between sampled values and inverse-CDF draws of the exact pmf. *)
  QCheck.Test.make ~name:"Sample.binomial matches exact Binomial" ~count:8
    QCheck.(pair (int_range 5 40) small_int)
    (fun (n, seed) ->
      let p = 0.5 in
      let g = Prng.Rng.create (seed + 3) in
      let draws = 400 in
      let sampled =
        Array.init draws (fun _ -> float_of_int (Prng.Sample.binomial g n p))
      in
      (* Exact sample via inverse CDF on an independent uniform stream. *)
      let g2 = Prng.Rng.create (seed + 1009) in
      let inverse u =
        let rec find k acc =
          let acc = acc +. Stats.Binomial.pmf ~n ~k ~p in
          if u <= acc || k = n then k else find (k + 1) acc
        in
        float_of_int (find 0 0.0)
      in
      let exact = Array.init draws (fun _ -> inverse (Prng.Rng.float g2)) in
      Stats.Ks.same_distribution ~alpha:0.001 sampled exact)

let structural_suites =
  [
    ( "properties.structural",
      List.map to_alcotest
        [ prop_ladder_monotone; prop_binomial_sampler_matches_pmf ] );
  ]

let suites = suites @ structural_suites

(* --- Parallel runner ------------------------------------------------------------ *)

let prop_run_trials_jobs_equivalent =
  (* Order-independent seeding + deterministic chunking: run_trials must be a
     pure function of (protocol, adversary, seed, trials) — never of jobs. *)
  QCheck.Test.make
    ~name:"run_trials is bit-identical for jobs in {1, 2, 4}" ~count:12
    QCheck.(triple (int_range 4 12) small_int (int_bound 2))
    (fun (n, seed, tag) ->
      let t = Prng.Rng.int (Prng.Rng.create (seed + 5)) n in
      let make_adversary () = adversary_of_tag ~n ~t ~seed tag in
      let run jobs =
        Sim.Runner.run_trials ~max_rounds:500 ~jobs ~trials:6 ~seed
          ~gen_inputs:(Sim.Runner.input_gen_random ~n)
          ~t (Core.Synran.protocol n) make_adversary
      in
      let key (s : Sim.Runner.summary) =
        ( Stats.Welford.mean s.Sim.Runner.rounds,
          Stats.Welford.variance s.Sim.Runner.rounds,
          Stats.Histogram.bins s.Sim.Runner.rounds_hist,
          Stats.Welford.mean s.Sim.Runner.kills,
          (s.Sim.Runner.decided_zero, s.Sim.Runner.decided_one),
          s.Sim.Runner.safety_errors )
      in
      let base = key (run 1) in
      key (run 2) = base && key (run 4) = base)

let prop_resume_any_prefix_equivalent =
  (* Checkpoint/resume exactness: interrupt a supervised run after any
     prefix of chunks (each persisted to disk), then resume from the store
     at a different worker count — the completed summary must be
     byte-for-byte the summary of an uninterrupted run. Chunk-ordered
     merging plus Marshal's exact round-trip of the accumulators is what
     makes this hold. *)
  QCheck.Test.make
    ~name:"checkpoint resume after any prefix = uninterrupted run" ~count:10
    QCheck.(quad (int_range 4 10) small_int (int_bound 4) (int_range 1 4))
    (fun (n, seed, prefix_chunks, resume_jobs) ->
      let trials = 10 and chunk_size = 2 in
      let t = Prng.Rng.int (Prng.Rng.create (seed + 5)) n in
      let make_adversary () = adversary_of_tag ~n ~t ~seed (seed mod 3) in
      let run ?guard ~jobs () =
        Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs ~chunk_size
          ?guard ~trials ~seed
          ~gen_inputs:(Sim.Runner.input_gen_random ~n)
          ~t (Core.Synran.protocol n) make_adversary
      in
      let key (s : Sim.Runner.summary) =
        ( s.Sim.Runner.trials,
          Stats.Welford.mean s.Sim.Runner.rounds,
          Stats.Welford.variance s.Sim.Runner.rounds,
          Stats.Histogram.bins s.Sim.Runner.rounds_hist,
          Stats.Welford.mean s.Sim.Runner.kills,
          (s.Sim.Runner.decided_zero, s.Sim.Runner.decided_one),
          s.Sim.Runner.safety_errors )
      in
      let baseline =
        match (run ~jobs:1 ()).Sim.Runner.partial with
        | Some s -> s
        | None -> QCheck.Test.fail_report "baseline run produced no summary"
      in
      let make_ck () =
        Sim.Checkpoint.create ~root:"ckpt_prop"
          ~exp:(Printf.sprintf "prefix-%d-%d-%d" n seed prefix_chunks)
          ~seed ~chunk_size ~n:trials
      in
      (* Interrupt: one worker makes the cancel-poll count deterministic,
         so exactly [prefix_chunks] chunk files land on disk. *)
      let polls = ref 0 in
      let cancel () =
        incr polls;
        !polls > prefix_chunks
      in
      let guard () =
        { Sim.Runner.unguarded with checkpoint = Some (make_ck ()) }
      in
      let interrupted = run ~guard:{ (guard ()) with cancel } ~jobs:1 () in
      let resumed = run ~guard:(guard ()) ~jobs:resume_jobs () in
      interrupted.Sim.Runner.cancelled
      && interrupted.Sim.Runner.chunks_done = prefix_chunks
      && resumed.Sim.Runner.chunks_resumed = prefix_chunks
      && resumed.Sim.Runner.failures = []
      && (not resumed.Sim.Runner.cancelled)
      &&
      match resumed.Sim.Runner.partial with
      | Some s -> key s = key baseline
      | None -> false)

let parallel_suites =
  [
    ( "properties.parallel",
      List.map to_alcotest
        [ prop_run_trials_jobs_equivalent; prop_resume_any_prefix_equivalent ]
    );
  ]

let suites = suites @ parallel_suites
