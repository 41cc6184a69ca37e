(* Unit tests for Section 2's one-round coin-flipping games: game
   mechanics, concrete games, adversary strategies, control measurement
   (including an exact hand-computed oracle), and the bound formulas. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Game mechanics ----------------------------------------------------- *)

let test_eval_with_hidden () =
  let g = Coinflip.Games.majority_default_zero 5 in
  check_int "all ones" 1 (Coinflip.Game.eval_with_hidden g [| 1; 1; 1; 1; 1 |] ~hidden:[]);
  check_int "hide two ones" 1
    (Coinflip.Game.eval_with_hidden g [| 1; 1; 1; 1; 1 |] ~hidden:[ 0; 1 ]);
  check_int "hide three ones" 0
    (Coinflip.Game.eval_with_hidden g [| 1; 1; 1; 1; 1 |] ~hidden:[ 0; 1; 2 ])

let test_eval_with_hidden_invalid () =
  let g = Coinflip.Games.majority_default_zero 3 in
  Alcotest.check_raises "bad index"
    (Invalid_argument "Game.eval_with_hidden: bad index") (fun () ->
      ignore (Coinflip.Game.eval_with_hidden g [| 1; 1; 1 |] ~hidden:[ 3 ]))

let test_validate_battery () =
  let rng = Prng.Rng.create 1 in
  List.iter (fun g -> Coinflip.Game.validate g rng) (Coinflip.Games.all 16)

let test_play () =
  let g = Coinflip.Games.dictator 4 in
  let rng = Prng.Rng.create 2 in
  for _ = 1 to 20 do
    let v = Coinflip.Game.play g rng ~hidden:[] in
    check_bool "bit outcome" true (v = 0 || v = 1)
  done

(* --- Concrete games ------------------------------------------------------- *)

let test_majority0_counts_missing_as_zero () =
  let g = Coinflip.Games.majority_default_zero 4 in
  (* 3 ones of 4 = majority; hiding one 1 makes it 2 of 4: not > n/2. *)
  check_int "before" 1 (Coinflip.Game.eval_with_hidden g [| 1; 1; 1; 0 |] ~hidden:[]);
  check_int "after hide" 0
    (Coinflip.Game.eval_with_hidden g [| 1; 1; 1; 0 |] ~hidden:[ 0 ])

let test_majority_ignores_missing () =
  let g = Coinflip.Games.majority_ignore_missing 4 in
  (* 2 ones, 2 zeros: tie -> 0. Hide a zero: 2 of 3 -> 1. *)
  check_int "tie to zero" 0
    (Coinflip.Game.eval_with_hidden g [| 1; 1; 0; 0 |] ~hidden:[]);
  check_int "hiding a zero flips to one" 1
    (Coinflip.Game.eval_with_hidden g [| 1; 1; 0; 0 |] ~hidden:[ 2 ])

let test_parity () =
  let g = Coinflip.Games.parity 4 in
  check_int "odd ones" 1 (Coinflip.Game.eval_with_hidden g [| 1; 1; 1; 0 |] ~hidden:[]);
  check_int "hidden one flips parity" 0
    (Coinflip.Game.eval_with_hidden g [| 1; 1; 1; 0 |] ~hidden:[ 0 ]);
  check_int "hidden zero keeps parity" 1
    (Coinflip.Game.eval_with_hidden g [| 1; 1; 1; 0 |] ~hidden:[ 3 ])

let test_dictator () =
  let g = Coinflip.Games.dictator 3 in
  check_int "player 0 rules" 1 (Coinflip.Game.eval_with_hidden g [| 1; 0; 0 |] ~hidden:[]);
  check_int "falls to player 1" 0
    (Coinflip.Game.eval_with_hidden g [| 1; 0; 1 |] ~hidden:[ 0 ]);
  check_int "all hidden defaults 0" 0
    (Coinflip.Game.eval_with_hidden g [| 1; 1; 1 |] ~hidden:[ 0; 1; 2 ])

let test_sum_mod () =
  let g = Coinflip.Games.sum_mod ~k:3 4 in
  check_int "sum mod 3" 2 (Coinflip.Game.eval_with_hidden g [| 2; 2; 2; 2 |] ~hidden:[]);
  check_int "hidden values drop out" 2
    (Coinflip.Game.eval_with_hidden g [| 2; 2; 2; 0 |] ~hidden:[ 0; 1 ]);
  Alcotest.check_raises "k too small" (Invalid_argument "Games.sum_mod: k must be >= 2")
    (fun () -> ignore (Coinflip.Games.sum_mod ~k:1 4))

let test_weighted_majority () =
  let g = Coinflip.Games.weighted_majority ~weights:[| 5; 1; 1 |] in
  check_int "heavy player dominates" 1
    (Coinflip.Game.eval_with_hidden g [| 1; 0; 0 |] ~hidden:[]);
  check_int "hiding heavy player flips" 0
    (Coinflip.Game.eval_with_hidden g [| 1; 0; 0 |] ~hidden:[ 0 ])

(* --- Strategies ------------------------------------------------------------- *)

let test_do_nothing () =
  let g = Coinflip.Games.parity 4 in
  Alcotest.(check (list int)) "hides nobody" []
    (Coinflip.Strategy.do_nothing.Coinflip.Strategy.act
       (Coinflip.Game.cursor g [| 1; 0; 1; 0 |])
       ~budget:4 ~target:0)

let test_greedy_on_parity () =
  let g = Coinflip.Games.parity 5 in
  (* Odd parity, target 0: one hide of a 1 suffices; greedy must find it. *)
  let out =
    Coinflip.Strategy.forced_outcome g [| 1; 0; 1; 1; 0 |]
      ~strategy:Coinflip.Strategy.greedy ~budget:1 ~target:0
  in
  check_int "forced" 0 out

let test_toward_value_on_majority () =
  let g = Coinflip.Games.majority_default_zero 7 in
  (* 5 ones: greedy's single-hide lookahead cannot see progress, but
     toward_value strips ones. Budget 2 suffices (3 of 7 not > 3.5). *)
  let out =
    Coinflip.Strategy.forced_outcome g [| 1; 1; 1; 1; 1; 0; 0 |]
      ~strategy:Coinflip.Strategy.toward_value ~budget:2 ~target:0
  in
  check_int "forced" 0 out

let test_toward_value_budget_respected () =
  let g = Coinflip.Games.majority_default_zero 9 in
  let hidden =
    Coinflip.Strategy.toward_value.Coinflip.Strategy.act
      (Coinflip.Game.cursor g [| 1; 1; 1; 1; 1; 1; 1; 1; 1 |])
      ~budget:3 ~target:0
  in
  check_int "spends at most budget" 3 (List.length hidden)

let test_first_success () =
  let g = Coinflip.Games.majority_default_zero 7 in
  let s =
    Coinflip.Strategy.first_success
      [ Coinflip.Strategy.greedy; Coinflip.Strategy.toward_value ]
  in
  let out =
    Coinflip.Strategy.forced_outcome g [| 1; 1; 1; 1; 1; 0; 0 |] ~strategy:s
      ~budget:2 ~target:0
  in
  check_int "falls through to toward_value" 0 out;
  (* Unreachable target: returns empty hide-set rather than overspending. *)
  let hidden =
    s.Coinflip.Strategy.act
      (Coinflip.Game.cursor g [| 0; 0; 0; 0; 0; 0; 0 |])
      ~budget:7 ~target:1
  in
  Alcotest.(check (list int)) "gives up cleanly" [] hidden

let test_exhaustive_minimal () =
  let g = Coinflip.Games.majority_default_zero 5 in
  let e = Coinflip.Strategy.exhaustive () in
  (* 4 ones of 5: need to hide exactly 2 to drop to 2 (not > 2.5). *)
  let hidden =
    e.Coinflip.Strategy.act
      (Coinflip.Game.cursor g [| 1; 1; 1; 1; 0 |])
      ~budget:5 ~target:0
  in
  check_int "minimum hide-set" 2 (List.length hidden);
  (* Already at target: empty set. *)
  let hidden =
    e.Coinflip.Strategy.act
      (Coinflip.Game.cursor g [| 0; 0; 1; 0; 0 |])
      ~budget:5 ~target:0
  in
  check_int "no hides needed" 0 (List.length hidden)

let test_exhaustive_cap_is_exact () =
  (* All ones at n = 8 need five hides to force 0, far past the cap, so the
     search must stop after exactly [subset_limit] evaluations. *)
  let base = Coinflip.Games.majority_default_zero 8 in
  let evals = ref 0 in
  let g =
    Coinflip.Game.make ~name:"counted" ~n:8 ~k:2 ~draw:base.Coinflip.Game.draw
      (fun masked ->
        incr evals;
        base.Coinflip.Game.eval masked)
  in
  List.iter
    (fun subset_limit ->
      evals := 0;
      let e = Coinflip.Strategy.exhaustive ~subset_limit () in
      let hidden =
        e.Coinflip.Strategy.act (Coinflip.Game.cursor g (Array.make 8 1))
          ~budget:8 ~target:0
      in
      Alcotest.(check (list int)) "gives up" [] hidden;
      check_int (Printf.sprintf "evaluations at subset_limit %d" subset_limit)
        subset_limit !evals)
    [ 0; 1; 10 ]

let test_forced_outcome_discipline () =
  let g = Coinflip.Games.parity 3 in
  let cheater =
    {
      Coinflip.Strategy.name = "cheater";
      act = (fun _ ~budget:_ ~target:_ -> [ 0; 1; 2 ]);
    }
  in
  check_bool "overspending rejected" true
    (try
       ignore
         (Coinflip.Strategy.forced_outcome g [| 1; 0; 0 |] ~strategy:cheater
            ~budget:1 ~target:0);
       false
     with Invalid_argument _ -> true);
  let doubler =
    {
      Coinflip.Strategy.name = "doubler";
      act = (fun _ ~budget:_ ~target:_ -> [ 0; 0 ]);
    }
  in
  check_bool "duplicate hides rejected" true
    (try
       ignore
         (Coinflip.Strategy.forced_outcome g [| 1; 0; 0 |] ~strategy:doubler
            ~budget:3 ~target:0);
       false
     with Invalid_argument _ -> true)

(* --- Control measurement ------------------------------------------------------ *)

let test_control_probability_extremes () =
  let g = Coinflip.Games.dictator 5 in
  (* Budget 5 with exhaustive search forces any target almost always
     (hide everyone -> 0; for 1, need a visible 1 after the dictator chain,
     present unless all drew 0: 31/32). *)
  let e = Coinflip.Strategy.exhaustive () in
  let est0 =
    Coinflip.Control.control_probability ~trials:300 ~seed:1 ~budget:5 ~target:0
      ~strategy:e g
  in
  close ~eps:1e-9 "target 0 always forceable" 1.0 est0.Coinflip.Control.proportion;
  let est1 =
    Coinflip.Control.control_probability ~trials:300 ~seed:2 ~budget:5 ~target:1
      ~strategy:e g
  in
  check_bool "target 1 near 31/32" true
    (est1.Coinflip.Control.proportion > 0.9)

let test_control_ci_sane () =
  let g = Coinflip.Games.parity 8 in
  let est =
    Coinflip.Control.control_probability ~trials:200 ~seed:3 ~budget:2 ~target:1
      ~strategy:Coinflip.Strategy.greedy g
  in
  check_bool "ci ordered" true
    (est.Coinflip.Control.ci.Stats.Ci.lo <= est.Coinflip.Control.proportion
    && est.Coinflip.Control.proportion <= est.Coinflip.Control.ci.Stats.Ci.hi)

let test_best_controllable_outcome () =
  let g = Coinflip.Games.majority_default_zero 9 in
  let best =
    Coinflip.Control.best_controllable_outcome ~trials:200 ~seed:4 ~budget:9
      ~strategy:Coinflip.Strategy.best_available g
  in
  (* With full budget the forceable side is 0, never 1. *)
  check_int "best outcome is 0" 0 best.Coinflip.Control.target;
  close ~eps:1e-9 "always forced" 1.0 best.Coinflip.Control.proportion

let test_exact_force_probability_majority0 () =
  (* Hand computation for majority0, n=3, budget 1:
     toward 0: fails only on (1,1,1) -> 7/8;
     toward 1: only inputs already at 1 (two or three ones) -> 4/8. *)
  let g = Coinflip.Games.majority_default_zero 3 in
  close ~eps:1e-12 "toward 0" (7.0 /. 8.0)
    (Coinflip.Control.exact_force_probability ~budget:1 ~target:0 g
       ~values_of_player:2);
  close ~eps:1e-12 "toward 1" 0.5
    (Coinflip.Control.exact_force_probability ~budget:1 ~target:1 g
       ~values_of_player:2)

let test_exact_force_probability_parity () =
  (* Parity n=3 budget 1: toward 0 fails only on (0,0,0)? No: (0,0,0) is
     already 0. Fails when parity 1 and no 1 can be hidden - impossible.
     Toward 1: needs parity 1 reachable: fails exactly on all-zeros (1/8). *)
  let g = Coinflip.Games.parity 3 in
  close ~eps:1e-12 "toward 0" 1.0
    (Coinflip.Control.exact_force_probability ~budget:1 ~target:0 g
       ~values_of_player:2);
  close ~eps:1e-12 "toward 1" (7.0 /. 8.0)
    (Coinflip.Control.exact_force_probability ~budget:1 ~target:1 g
       ~values_of_player:2)

let test_controls_criterion () =
  let est =
    {
      Coinflip.Control.target = 0;
      trials = 100;
      forced = 100;
      proportion = 1.0;
      ci = { Stats.Ci.lo = 0.96; hi = 1.0 };
    }
  in
  check_bool "perfect control" true (Coinflip.Control.controls est ~n:64);
  let weak = { est with proportion = 0.97; forced = 97 } in
  check_bool "below 1-1/n at n=64" false (Coinflip.Control.controls weak ~n:64);
  check_bool "above 1-1/n at n=16" true (Coinflip.Control.controls weak ~n:16)

(* --- Bounds ---------------------------------------------------------------------- *)

let test_bounds_values () =
  close ~eps:1e-9 "h(100)" (4.0 *. sqrt (100.0 *. log 100.0)) (Coinflip.Bounds.h 100);
  close ~eps:1e-9 "lemma budget k=3"
    (3.0 *. Coinflip.Bounds.h 100)
    (Coinflip.Bounds.lemma_budget ~k:3 100);
  (* The lower-bound adversary's per-round budget (Section 3.2) is h + 1. *)
  close ~eps:1e-9 "per-round kills"
    (Coinflip.Bounds.h 100 +. 1.0)
    (Core.Theory.per_round_kills ~n:100)

let test_schechtman () =
  let n = 400 in
  let l0 = Coinflip.Bounds.schechtman_l0 ~alpha:0.01 n in
  close ~eps:1e-9 "l0" (2.0 *. sqrt (400.0 *. log 100.0)) l0;
  close ~eps:1e-9 "below l0 clamps" 0.0
    (Coinflip.Bounds.schechtman_expansion ~alpha:0.01 ~l:(l0 -. 1.0) n);
  let p = Coinflip.Bounds.schechtman_expansion ~alpha:0.01 ~l:(l0 +. 50.0) n in
  check_bool "in (0,1)" true (p > 0.0 && p < 1.0);
  let p' = Coinflip.Bounds.schechtman_expansion ~alpha:0.01 ~l:(l0 +. 100.0) n in
  check_bool "monotone in l" true (p' > p)

let test_bounds_lemma_21_consistency () =
  (* The h used in Lemma 2.1's proof: with alpha = 1/n, expanding by
     h = 4 sqrt(n log n) covers probability >= 1 - 1/n. *)
  let n = 256 in
  let alpha = 1.0 /. float_of_int n in
  let p =
    Coinflip.Bounds.schechtman_expansion ~alpha ~l:(Coinflip.Bounds.h n) n
  in
  check_bool "expansion at h reaches 1 - 1/n" true (p >= 1.0 -. (1.0 /. float_of_int n))

let test_bounds_invalid () =
  Alcotest.check_raises "h of 1" (Invalid_argument "Bounds.h: n must be >= 2")
    (fun () -> ignore (Coinflip.Bounds.h 1));
  Alcotest.check_raises "bad alpha" (Invalid_argument "Bounds.schechtman_l0: alpha")
    (fun () -> ignore (Coinflip.Bounds.schechtman_l0 ~alpha:0.0 4))

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "coinflip.game",
      [
        tc "eval with hidden" test_eval_with_hidden;
        tc "invalid hide index" test_eval_with_hidden_invalid;
        tc "battery validates" test_validate_battery;
        tc "play" test_play;
      ] );
    ( "coinflip.games",
      [
        tc "majority0 missing is zero" test_majority0_counts_missing_as_zero;
        tc "majority ignores missing" test_majority_ignores_missing;
        tc "parity" test_parity;
        tc "dictator" test_dictator;
        tc "sum_mod" test_sum_mod;
        tc "weighted majority" test_weighted_majority;
      ] );
    ( "coinflip.strategy",
      [
        tc "do nothing" test_do_nothing;
        tc "greedy on parity" test_greedy_on_parity;
        tc "toward_value on majority" test_toward_value_on_majority;
        tc "toward_value budget" test_toward_value_budget_respected;
        tc "first_success" test_first_success;
        tc "exhaustive minimal" test_exhaustive_minimal;
        tc "exhaustive subset cap is exact" test_exhaustive_cap_is_exact;
        tc "budget discipline" test_forced_outcome_discipline;
      ] );
    ( "coinflip.control",
      [
        tc "extremes" test_control_probability_extremes;
        tc "ci sane" test_control_ci_sane;
        tc "best controllable outcome" test_best_controllable_outcome;
        tc "exact majority0 oracle" test_exact_force_probability_majority0;
        tc "exact parity oracle" test_exact_force_probability_parity;
        tc "controls criterion" test_controls_criterion;
      ] );
    ( "coinflip.bounds",
      [
        tc "values" test_bounds_values;
        tc "schechtman" test_schechtman;
        tc "Lemma 2.1 consistency" test_bounds_lemma_21_consistency;
        tc "invalid" test_bounds_invalid;
      ] );
  ]

(* --- Multi-round games (Aspnes's setting, Section 1.2) --------------------- *)

let multiround_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let test_make_validation () =
    check_bool "rounds >= 1" true
      (try
         ignore (Coinflip.Multiround.make ~rounds:0 (Coinflip.Games.parity 4));
         false
       with Invalid_argument _ -> true);
    check_bool "k = 2 required" true
      (try
         ignore
           (Coinflip.Multiround.make ~rounds:3 (Coinflip.Games.sum_mod ~k:3 4));
         false
       with Invalid_argument _ -> true)
  in
  let test_passive_unbiased () =
    let mr = Coinflip.Multiround.make ~rounds:5 (Coinflip.Games.majority_default_zero 15) in
    let p =
      Coinflip.Multiround.bias_probability ~trials:500 ~seed:1 ~budget:0
        ~target:1 ~strategy:Coinflip.Multiround.passive mr
    in
    check_bool "near 1/2 without an adversary" true (p > 0.35 && p < 0.65)
  in
  let test_budget_discipline () =
    let mr = Coinflip.Multiround.make ~rounds:3 (Coinflip.Games.parity 6) in
    let cheater =
      {
        Coinflip.Multiround.sname = "cheater";
        act =
          (fun _ ~round:_ _ ~budget_left:_ ~target:_ ->
            [ 0; 1; 2; 3 ]);
      }
    in
    check_bool "overspend rejected" true
      (try
         ignore
           (Coinflip.Multiround.play mr (Prng.Rng.create 2) ~strategy:cheater
              ~budget:2 ~target:0);
         false
       with Invalid_argument _ -> true)
  in
  let test_halted_stay_halted () =
    (* A strategy that halts player 0 in every round must fail on reuse. *)
    let mr = Coinflip.Multiround.make ~rounds:3 (Coinflip.Games.parity 6) in
    let repeat_halter =
      {
        Coinflip.Multiround.sname = "repeat";
        act =
          (fun _ ~round:_ _ ~budget_left:_ ~target:_ ->
            [ 0 ]);
      }
    in
    check_bool "double halt rejected" true
      (try
         ignore
           (Coinflip.Multiround.play mr (Prng.Rng.create 3)
              ~strategy:repeat_halter ~budget:5 ~target:0);
         false
       with Invalid_argument _ -> true)
  in
  let test_front_loaded_beats_uniform () =
    (* On majority-with-default-0, permanently halting 1-voters early wins
       all later rounds too: the front-loaded allocation dominates. *)
    let mr =
      Coinflip.Multiround.make ~rounds:5 (Coinflip.Games.majority_default_zero 21)
    in
    let budget = 8 in
    let bias strategy =
      Coinflip.Multiround.bias_probability ~trials:400 ~seed:4 ~budget ~target:0
        ~strategy mr
    in
    let fl =
      bias (Coinflip.Multiround.front_loaded Coinflip.Strategy.best_available)
    in
    let us =
      bias (Coinflip.Multiround.uniform_split Coinflip.Strategy.best_available)
    in
    check_bool
      (Printf.sprintf "front-loaded %.3f >= uniform %.3f" fl us)
      true (fl >= us);
    check_bool "front-loaded controls with sqrt-ish budget" true (fl > 0.9)
  in
  ( "coinflip.multiround",
    [
      tc "validation" test_make_validation;
      tc "passive unbiased" test_passive_unbiased;
      tc "budget discipline" test_budget_discipline;
      tc "halted stay halted" test_halted_stay_halted;
      tc "front-loaded dominates" test_front_loaded_beats_uniform;
    ] )

let suites = suites @ [ multiround_suite ]

(* --- Tribes and recursive majority ([BOL89]) --------------------------------- *)

let bol89_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let test_tribes_eval () =
    let g = Coinflip.Games.tribes ~tribe_size:3 ~tribes:2 in
    check_int "n" 6 g.Coinflip.Game.n;
    (* First tribe unanimous. *)
    check_int "unanimous tribe wins" 1
      (Coinflip.Game.eval_with_hidden g [| 1; 1; 1; 0; 0; 0 |] ~hidden:[]);
    (* No unanimous tribe. *)
    check_int "no unanimous tribe" 0
      (Coinflip.Game.eval_with_hidden g [| 1; 1; 0; 1; 1; 0 |] ~hidden:[]);
    (* Hiding one member of the winning tribe kills its unanimity. *)
    check_int "hidden member breaks the tribe" 0
      (Coinflip.Game.eval_with_hidden g [| 1; 1; 1; 0; 0; 0 |] ~hidden:[ 0 ])
  in
  let test_tribes_one_sided () =
    (* Like majority0, tribes can be forced to 0 (hide a member per live
       tribe) but never to 1 by hiding. *)
    let g = Coinflip.Games.tribes ~tribe_size:2 ~tribes:3 in
    let est =
      Coinflip.Control.control_probability ~trials:300 ~seed:1
        ~budget:g.Coinflip.Game.n ~target:0
        ~strategy:Coinflip.Strategy.best_available g
    in
    Alcotest.(check (float 1e-9)) "always forceable to 0" 1.0
      est.Coinflip.Control.proportion;
    let est1 =
      Coinflip.Control.control_probability ~trials:300 ~seed:2
        ~budget:g.Coinflip.Game.n ~target:1
        ~strategy:Coinflip.Strategy.best_available g
    in
    check_bool "toward 1 stuck at base rate" true
      (est1.Coinflip.Control.proportion < 0.8)
  in
  let test_recursive_majority_eval () =
    let g = Coinflip.Games.recursive_majority ~depth:2 in
    check_int "n = 9" 9 g.Coinflip.Game.n;
    (* Two subtree majorities of 1 suffice. *)
    check_int "two winning subtrees" 1
      (Coinflip.Game.eval_with_hidden g [| 1; 1; 0; 1; 1; 0; 0; 0; 0 |] ~hidden:[]);
    check_int "one winning subtree is not enough" 0
      (Coinflip.Game.eval_with_hidden g [| 1; 1; 0; 0; 0; 0; 1; 0; 0 |] ~hidden:[])
  in
  let test_recursive_majority_small_coalition () =
    (* A coalition of 2^depth leaves (one per level-path) flips the root:
       exhaustive search finds a forcing set of at most 4 at depth 2 when
       the drawn values admit one. *)
    let g = Coinflip.Games.recursive_majority ~depth:2 in
    let est =
      Coinflip.Control.control_probability ~trials:200 ~seed:3 ~budget:4
        ~target:0 ~strategy:Coinflip.Strategy.best_available g
    in
    check_bool "budget 4 = 2^depth controls toward 0" true
      (est.Coinflip.Control.proportion > 0.95)
  in
  let test_validate () =
    let rng = Prng.Rng.create 4 in
    Coinflip.Game.validate (Coinflip.Games.tribes ~tribe_size:3 ~tribes:4) rng;
    Coinflip.Game.validate (Coinflip.Games.recursive_majority ~depth:3) rng
  in
  ( "coinflip.bol89-games",
    [
      tc "tribes evaluation" test_tribes_eval;
      tc "tribes one-sided" test_tribes_one_sided;
      tc "recursive majority evaluation" test_recursive_majority_eval;
      tc "recursive majority small coalition" test_recursive_majority_small_coalition;
      tc "validate" test_validate;
    ] )

let suites = suites @ [ bol89_suite ]

(* --- The hide cursor against independent references ----------------------- *)

(* Hand-written masked-array evaluators for the four counting games,
   spelled apart from their [decide] rules. *)
let reference_counting_games n =
  let ones m =
    Array.fold_left (fun a v -> match v with Some 1 -> a + 1 | _ -> a) 0 m
  in
  let present m =
    Array.fold_left (fun a v -> match v with Some _ -> a + 1 | None -> a) 0 m
  in
  let total m =
    Array.fold_left (fun a v -> match v with Some x -> a + x | None -> a) 0 m
  in
  [
    (Coinflip.Games.majority_default_zero n, fun m -> if 2 * ones m > n then 1 else 0);
    ( Coinflip.Games.majority_ignore_missing n,
      fun m -> if 2 * ones m > present m then 1 else 0 );
    (Coinflip.Games.parity n, fun m -> ones m mod 2);
    (Coinflip.Games.sum_mod ~k:3 n, fun m -> total m mod 3);
  ]

(* The same game with its counting rule forgotten: the cursor falls back to
   the masked array and [eval]. *)
let eval_only (g : Coinflip.Game.t) =
  Coinflip.Game.make ~name:g.name ~n:g.n ~k:g.k ~draw:g.draw g.eval

let prop_cursor_matches_reference =
  QCheck.Test.make ~name:"cursor = masked reference after hide/unhide runs"
    ~count:100
    QCheck.(pair small_int (int_range 1 64))
    (fun (seed, n) ->
      let rng = Prng.Rng.create seed in
      List.for_all
        (fun (g, reference) ->
          let values = Coinflip.Game.sample g rng in
          let masked = Array.map Option.some values in
          let c = Coinflip.Game.cursor g values in
          List.for_all
            (fun _ ->
              let i = Prng.Rng.int rng n in
              if Coinflip.Game.is_hidden c i then begin
                Coinflip.Game.unhide c i;
                masked.(i) <- Some values.(i)
              end
              else begin
                let ahead =
                  let m = Array.copy masked in
                  m.(i) <- None;
                  reference m
                in
                if Coinflip.Game.outcome_if_hidden c i <> ahead then
                  QCheck.Test.fail_reportf "%s: outcome_if_hidden %d" g.name i;
                Coinflip.Game.hide c i;
                masked.(i) <- None
              end;
              Coinflip.Game.outcome c = reference masked)
            (List.init 40 Fun.id))
        (reference_counting_games n))

let prop_tally_strategies_match_eval_only =
  QCheck.Test.make
    ~name:"strategies hide the same players via tally and via eval" ~count:60
    QCheck.(triple small_int (int_range 1 64) (int_bound 64))
    (fun (seed, n, budget) ->
      let rng = Prng.Rng.create seed in
      List.for_all
        (fun (g, _) ->
          let values = Coinflip.Game.sample g rng in
          List.for_all
            (fun s ->
              List.for_all
                (fun target ->
                  let hides g =
                    s.Coinflip.Strategy.act (Coinflip.Game.cursor g values)
                      ~budget ~target
                  in
                  hides g = hides (eval_only g))
                (List.init g.Coinflip.Game.k Fun.id))
            Coinflip.Strategy.[ greedy; toward_value; best_available ])
        (reference_counting_games n))

(* Phase A draws with the game's own [draw]: a sum_mod 3 game must see
   every value in [0, 3), and under no adversary every process decides
   the sum of all of them mod 3. *)
let test_sim_game_draws_game_values () =
  let n = 12 in
  let e =
    Sim.Engine.start
      (Coinflip.Sim_game.of_game (Coinflip.Games.sum_mod ~k:3 n))
      ~inputs:(Array.make n 0) ~t:0 ~rng:(Prng.Rng.create 1)
  in
  Sim.Engine.run_until e Sim.Adversary.null ~max_rounds:1;
  let values = Array.map Coinflip.Sim_game.value (Sim.Engine.states e) in
  check_bool "some process drew 2" true (Array.exists (( = ) 2) values);
  let sum = Array.fold_left ( + ) 0 values in
  Array.iter
    (fun s ->
      Alcotest.(check (option int)) "decides the sum mod 3" (Some (sum mod 3))
        (Coinflip.Sim_game.outcome s))
    (Sim.Engine.states e)

let suites =
  suites
  @ [
      ( "coinflip.cursor",
        [
          QCheck_alcotest.to_alcotest prop_cursor_matches_reference;
          QCheck_alcotest.to_alcotest prop_tally_strategies_match_eval_only;
          tc "sim_game draws the game's values" test_sim_game_draws_game_values;
        ] );
    ]
