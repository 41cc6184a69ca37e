(* Unit tests for the paper's protocol: the one-side-biased rule ladder,
   SynRan's stage machine, its correctness under adversaries, and agreement
   between the simulator and the exact chain analysis (Explorer). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Onesided ladder ---------------------------------------------------- *)

let action =
  Alcotest.testable
    (fun ppf -> function
      | Core.Onesided.Decide v -> Format.fprintf ppf "Decide %d" v
      | Core.Onesided.Propose v -> Format.fprintf ppf "Propose %d" v
      | Core.Onesided.Flip -> Format.fprintf ppf "Flip")
    ( = )

let classify_paper ~ones ~zeros ~n_prev =
  Core.Onesided.classify Core.Onesided.paper ~ones ~zeros ~n_prev

let test_ladder_paper_cases () =
  let n_prev = 10 in
  let case ~ones expected =
    Alcotest.check action
      (Printf.sprintf "ones=%d" ones)
      expected
      (classify_paper ~ones ~zeros:(n_prev - ones) ~n_prev)
  in
  case ~ones:10 (Core.Onesided.Decide 1);
  case ~ones:8 (Core.Onesided.Decide 1);
  case ~ones:7 (Core.Onesided.Propose 1) (* 70 > 70 is false: boundary *);
  case ~ones:6 Core.Onesided.Flip (* 60 > 60 false: boundary of propose 1 *);
  case ~ones:5 Core.Onesided.Flip;
  case ~ones:4 (Core.Onesided.Propose 0);
  case ~ones:3 (Core.Onesided.Decide 0);
  case ~ones:0 (Core.Onesided.Decide 0)

let test_ladder_boundaries_are_strict () =
  (* 10*O = 7*N' exactly: NOT a decision (strict >). *)
  Alcotest.check action "exact 7/10" (Core.Onesided.Propose 1)
    (classify_paper ~ones:7 ~zeros:3 ~n_prev:10);
  (* 10*O = 4*N' exactly: NOT a 0-decision (strict <). *)
  Alcotest.check action "exact 4/10" (Core.Onesided.Propose 0)
    (classify_paper ~ones:4 ~zeros:6 ~n_prev:10);
  (* 10*O = 5*N' exactly: not propose-0, lands in the flip band. *)
  Alcotest.check action "exact 5/10" Core.Onesided.Flip
    (classify_paper ~ones:5 ~zeros:5 ~n_prev:10)

let test_zero_rule () =
  (* Seeing no zeros forces a 1-proposal even with very few ones. *)
  Alcotest.check action "zero rule fires" (Core.Onesided.Propose 1)
    (classify_paper ~ones:2 ~zeros:0 ~n_prev:10);
  (* Without the rule the same observation decides 0. *)
  Alcotest.check action "ablated ladder decides 0" (Core.Onesided.Decide 0)
    (Core.Onesided.classify Core.Onesided.no_zero_rule ~ones:2 ~zeros:0
       ~n_prev:10);
  (* The rule is shadowed by the decide-1 branch when ones dominate. *)
  Alcotest.check action "decide-1 shadows it" (Core.Onesided.Decide 1)
    (classify_paper ~ones:8 ~zeros:0 ~n_prev:10)

let test_rules_validation () =
  Core.Onesided.validate Core.Onesided.paper;
  Core.Onesided.validate Core.Onesided.no_zero_rule;
  Core.Onesided.validate Core.Onesided.symmetric;
  let bad = { Core.Onesided.paper with Core.Onesided.decide_lo = 6 } in
  check_bool "inverted thresholds rejected" true
    (try
       Core.Onesided.validate bad;
       false
     with Invalid_argument _ -> true)

let test_apply_flip_uses_rng () =
  let rng = Prng.Rng.create 3 in
  let seen = Hashtbl.create 2 in
  for _ = 1 to 40 do
    let b, decided =
      Core.Onesided.apply Core.Onesided.paper ~ones:5 ~zeros:5 ~n_prev:10 rng
    in
    check_bool "flip never sets decided" false decided;
    Hashtbl.replace seen b ()
  done;
  check_int "both coin values appear" 2 (Hashtbl.length seen)

let test_classify_invalid () =
  check_bool "negative counts rejected" true
    (try
       ignore (classify_paper ~ones:(-1) ~zeros:0 ~n_prev:10);
       false
     with Invalid_argument _ -> true)

(* --- SynRan: deterministic behaviours ------------------------------------ *)

let run_synran ?(rules = Core.Onesided.paper) ?(max_rounds = 2000) ~inputs ~t
    ~seed adversary =
  let n = Array.length inputs in
  Sim.Engine.run ~max_rounds (Core.Synran.protocol ~rules n) adversary ~inputs
    ~t ~rng:(Prng.Rng.create seed)

let test_unanimous_ones_two_rounds () =
  let o = run_synran ~inputs:(Array.make 16 1) ~t:0 ~seed:1 Sim.Adversary.null in
  Alcotest.(check (option int)) "two rounds" (Some 2) o.Sim.Engine.rounds_to_decide;
  Array.iter
    (fun d -> Alcotest.(check (option int)) "decides 1" (Some 1) d)
    o.Sim.Engine.decisions

let test_unanimous_zeros_two_rounds () =
  let o = run_synran ~inputs:(Array.make 16 0) ~t:0 ~seed:2 Sim.Adversary.null in
  Alcotest.(check (option int)) "two rounds" (Some 2) o.Sim.Engine.rounds_to_decide;
  Array.iter
    (fun d -> Alcotest.(check (option int)) "decides 0" (Some 0) d)
    o.Sim.Engine.decisions

let test_decisive_majority_fast () =
  (* 13 of 16 ones: first receive decides 1 (13*10 > 7*16 = false: 130 > 112
     true), so everyone decides at round 1 and stops at round 2. *)
  let inputs = Array.init 16 (fun i -> if i < 13 then 1 else 0) in
  let o = run_synran ~inputs ~t:0 ~seed:3 Sim.Adversary.null in
  Alcotest.(check (option int)) "decides at 2" (Some 2) o.Sim.Engine.rounds_to_decide;
  check_bool "decides 1" true (o.Sim.Engine.decisions.(0) = Some 1)

let test_validity_all_ones_under_heavy_kills () =
  (* Validity with unanimous-1 inputs must survive a 70% massacre in round 1
     thanks to the zero rule. *)
  let inputs = Array.make 20 1 in
  let o =
    run_synran ~inputs ~t:14 ~seed:4 (Baselines.Adversaries.crash_all_at ~round:1)
  in
  Sim.Checker.assert_ok ~inputs o

let test_validity_violated_without_zero_rule () =
  (* The same massacre against the ablated rules shows why the rule exists:
     survivors see few ones against n_prev = n and decide 0 — a validity
     violation. This is the E8 headline, asserted as a regression. *)
  let inputs = Array.make 20 1 in
  let adversary =
    {
      Sim.Adversary.name = "massacre";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round = 1 then
            Sim.Adversary.active_pids view
            |> List.filteri (fun i _ -> i < 14)
            |> List.map Sim.Adversary.kill_silent
          else []);
    }
  in
  let o =
    run_synran ~rules:Core.Onesided.no_zero_rule ~inputs ~t:14 ~seed:5 adversary
  in
  let v = Sim.Checker.check ~inputs o in
  check_bool "validity broken" false v.Sim.Checker.validity

let test_stage_transitions () =
  (* Force the deterministic stage by killing most processes. *)
  let n = 64 in
  let inputs = Array.init n (fun i -> i land 1) in
  let adversary =
    {
      Sim.Adversary.name = "massacre@1";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round = 1 then
            Sim.Adversary.active_pids view
            |> List.filteri (fun i _ -> i < 61)
            |> List.map Sim.Adversary.kill_silent
          else []);
    }
  in
  let exec =
    Sim.Engine.start (Core.Synran.protocol n) ~inputs ~t:61
      ~rng:(Prng.Rng.create 6)
  in
  ignore (Sim.Engine.step exec adversary);
  let stages =
    Sim.Engine.states exec |> Array.to_list |> List.map Core.Synran.stage_name
    |> List.sort_uniq compare
  in
  (* After round 1 the 3 survivors saw N = 3 < sqrt(64/ln 64) = 3.92. *)
  ignore stages;
  let survivors =
    Sim.Engine.states exec |> Array.to_list
    |> List.filteri (fun i _ -> not (Sim.Engine.outcome exec).faulty.(i))
  in
  List.iter
    (fun s ->
      Alcotest.(check string) "switching" "switching" (Core.Synran.stage_name s))
    survivors;
  ignore (Sim.Engine.step exec adversary);
  let survivors =
    Sim.Engine.states exec |> Array.to_list
    |> List.filteri (fun i _ -> not (Sim.Engine.outcome exec).faulty.(i))
  in
  List.iter
    (fun s ->
      Alcotest.(check string) "deterministic" "deterministic"
        (Core.Synran.stage_name s))
    survivors;
  Sim.Engine.run_until exec adversary ~max_rounds:100;
  let o = Sim.Engine.outcome exec in
  Sim.Checker.assert_ok ~inputs o

(* --- The round by hand (Section 4) ---------------------------------------- *)

(* These cases drive the protocol record directly — init, phase_a, then
   phase_b on a hand-built delivery — so the transition is checked against
   hand-computed values, not against another engine. *)

let hand_rng = Prng.Rng.create 17

(* [k] copies of message [m], from senders [first], [first + 1], ... *)
let copies ?(first = 0) k m = Array.init k (fun i -> (first + i, m))

(* One round of process [s]: its Phase A, then Phase B on [received]. *)
let hand_round (p : _ Sim.Protocol.t) s ~round received =
  let s, _ = p.phase_a s hand_rng in
  p.phase_b s ~round ~received

let hand_msg (p : _ Sim.Protocol.t) ~n v = snd (p.phase_a (p.init ~n ~pid:0 ~input:v) hand_rng)

let test_hand_stop_window () =
  (* N^0 = n = 110. Round 1 hears 70 ones of N^1 = 100 (Propose 1: 700 is in
     (660, 770]); round 2 hears N^2 = 100 ones (Decide 1). At round 3 the
     stop rule 10·(N^0 − N^3) ≤ N^1 holds with equality at N^3 = 100, and
     one more kill (N^3 = 99) breaks it. *)
  let n = 110 in
  let p = Core.Synran.protocol n in
  let m1 = hand_msg p ~n 1 and m0 = hand_msg p ~n 0 in
  let s = hand_round p (p.init ~n ~pid:0 ~input:1) ~round:1
      (Array.append (copies 70 m1) (copies ~first:70 30 m0)) in
  check_bool "round 1 proposes" false (Core.Synran.decided_flag s);
  check_int "round 1 b" 1 (Core.Synran.current_b s);
  let s = hand_round p s ~round:2 (copies 100 m1) in
  check_bool "round 2 decides" true (Core.Synran.decided_flag s);
  check_bool "round 2 runs on" false (p.halted s);
  let stop = hand_round p s ~round:3 (copies 100 m1) in
  Alcotest.(check (option int)) "N^3 = 100 stops with b" (Some 1) (p.decision stop);
  check_bool "N^3 = 100 halts" true (p.halted stop);
  let go_on = hand_round p s ~round:3 (copies 99 m1) in
  Alcotest.(check (option int)) "N^3 = 99 does not stop" None (p.decision go_on);
  check_bool "N^3 = 99 runs on" false (p.halted go_on);
  check_bool "N^3 = 99 decides again" true (Core.Synran.decided_flag go_on)

let test_hand_switch_threshold () =
  (* sqrt(64 / ln 64) = 3.92: hearing 3 switches, hearing 4 does not. *)
  let n = 64 in
  let p = Core.Synran.protocol n in
  let m1 = hand_msg p ~n 1 in
  let after k = hand_round p (p.init ~n ~pid:0 ~input:1) ~round:1 (copies k m1) in
  Alcotest.(check string) "nrecv 3" "switching" (Core.Synran.stage_name (after 3));
  Alcotest.(check string) "nrecv 4" "probabilistic" (Core.Synran.stage_name (after 4))

let test_hand_det_stage () =
  (* Both values survive every round: round 1 switches (3 < 3.92), round 2
     enters the deterministic stage, and the stage decides the default 0
     after exactly det_stage_rounds = 4 more rounds. *)
  let n = 64 in
  let p = Core.Synran.protocol n in
  let m1 = hand_msg p ~n 1 and m0 = hand_msg p ~n 0 in
  let both = [| (0, m1); (1, m0); (2, m1) |] in
  let s = ref (p.init ~n ~pid:0 ~input:1) in
  let det = Core.Synran.det_stage_rounds ~n in
  check_int "det_stage_rounds" 4 det;
  for round = 1 to 2 + det - 1 do
    s := hand_round p !s ~round both;
    Alcotest.(check (option int)) (Printf.sprintf "undecided after round %d" round)
      None (p.decision !s)
  done;
  Alcotest.(check string) "stage" "deterministic" (Core.Synran.stage_name !s);
  let s = hand_round p !s ~round:(2 + det) both in
  Alcotest.(check (option int)) "decides 0" (Some 0) (p.decision s);
  check_bool "halts" true (p.halted s)

let test_hand_leader_flip () =
  (* 5 ones and 5 zeros of N = 10 is a flip; under Leader_priority it takes
     the bit of the max-(priority, pid) sender, ties going to the larger pid. *)
  let n = 10 in
  let p = Core.Synran.protocol ~coin:Core.Synran.Leader_priority n in
  let m1 = hand_msg p ~n 1 and m0 = hand_msg p ~n 0 in
  let flip prios =
    let received =
      Array.init n (fun pid ->
          let m = if pid mod 2 = 0 then m1 else m0 in
          (pid, { m with Sim.Protocol.priv = prios.(pid) }))
    in
    let s = hand_round p (p.init ~n ~pid:0 ~input:1) ~round:1 received in
    check_bool "a flip does not decide" false (Core.Synran.decided_flag s);
    Core.Synran.current_b s
  in
  check_int "top priority is a 0-sender" 0 (flip [| 5; 5; 5; 9; 5; 5; 5; 5; 5; 5 |]);
  check_int "top priority is a 1-sender" 1 (flip [| 5; 5; 5; 5; 5; 5; 9; 5; 5; 5 |]);
  check_int "tie: larger pid, a 0-sender" 0 (flip [| 9; 5; 5; 5; 5; 9; 5; 5; 5; 5 |]);
  check_int "tie: larger pid, a 1-sender" 1 (flip [| 5; 9; 5; 5; 5; 5; 5; 5; 9; 5 |])

let test_det_stage_round_count () =
  check_int "n=64" 4 (Core.Synran.det_stage_rounds ~n:64);
  check_int "n=1" 1 (Core.Synran.det_stage_rounds ~n:1);
  close ~eps:1e-9 "threshold n=64"
    (sqrt (64.0 /. log 64.0))
    (Core.Synran.switch_threshold ~n:64)

let test_single_process () =
  List.iter
    (fun v ->
      let o = run_synran ~inputs:[| v |] ~t:0 ~seed:7 Sim.Adversary.null in
      Alcotest.(check (option int)) "decides own input" (Some v)
        o.Sim.Engine.decisions.(0))
    [ 0; 1 ]

let test_two_processes () =
  for seed = 1 to 10 do
    let inputs = [| 0; 1 |] in
    let o = run_synran ~inputs ~t:1 ~seed (Baselines.Adversaries.random_crash ~p:0.3) in
    Sim.Checker.assert_ok ~inputs o
  done

let test_protocol_size_mismatch () =
  check_bool "init checks n" true
    (try
       ignore
         (Sim.Engine.run (Core.Synran.protocol 8) Sim.Adversary.null
            ~inputs:(Array.make 4 0) ~t:0 ~rng:(Prng.Rng.create 8));
       false
     with Invalid_argument _ -> true)

(* --- SynRan vs the exact chain (Explorer) --------------------------------- *)

let test_explorer_ladder_matches_onesided () =
  let n = 20 in
  for ones = 0 to n do
    let expected =
      match
        Core.Onesided.classify Core.Onesided.paper ~ones ~zeros:(n - ones)
          ~n_prev:n
      with
      | Core.Onesided.Decide 1 -> Core.Explorer.Decide_one
      | Core.Onesided.Decide _ -> Core.Explorer.Decide_zero
      | Core.Onesided.Propose 1 -> Core.Explorer.Propose_one
      | Core.Onesided.Propose _ -> Core.Explorer.Propose_zero
      | Core.Onesided.Flip -> Core.Explorer.Flip_all
    in
    check_bool
      (Printf.sprintf "ones=%d" ones)
      true
      (Core.Explorer.ladder ~ones n = expected)
  done

let test_explorer_hand_values_n3 () =
  (* n=3: ones=3 -> Decide 1 (2 rounds); ones=2 -> Propose 1 (3 rounds);
     ones<=1 -> Decide 0 (2 rounds); no flip band. *)
  close "rounds from 3 ones" 2.0 (Core.Explorer.expected_rounds ~ones:3 3);
  close "rounds from 2 ones" 3.0 (Core.Explorer.expected_rounds ~ones:2 3);
  close "rounds from 1 one" 2.0 (Core.Explorer.expected_rounds ~ones:1 3);
  close "P1 from 2 ones" 1.0 (Core.Explorer.decision_prob ~ones:2 3);
  close "P1 from 1 one" 0.0 (Core.Explorer.decision_prob ~ones:1 3);
  close "no flip band at n=3" 0.0 (Core.Explorer.flip_band_mass 3)

let test_explorer_flip_band_mass () =
  (* n=10: flip band is ones in {5, 6}: mass C(10,5)+C(10,6) over 2^10. *)
  close ~eps:1e-12 "n=10 band mass"
    ((252.0 +. 210.0) /. 1024.0)
    (Core.Explorer.flip_band_mass 10)

let test_simulation_matches_explorer_rounds () =
  (* Monte-Carlo SynRan (null adversary) vs the exact chain. *)
  let n = 16 in
  let trials = 4000 in
  let ones = 8 in
  let inputs = Array.init n (fun i -> if i < ones then 1 else 0) in
  let protocol = Core.Synran.protocol n in
  let master = Prng.Rng.create 99 in
  let rounds = Stats.Welford.create () in
  let decided_one = ref 0 in
  for _ = 1 to trials do
    let rng = Prng.Rng.split master in
    let o = Sim.Engine.run protocol Sim.Adversary.null ~inputs ~t:0 ~rng in
    (match o.Sim.Engine.rounds_to_decide with
    | Some r -> Stats.Welford.add_int rounds r
    | None -> Alcotest.fail "no termination under null adversary");
    if o.Sim.Engine.decisions.(0) = Some 1 then incr decided_one
  done;
  let exact_rounds = Core.Explorer.expected_rounds ~ones n in
  let mc_rounds = Stats.Welford.mean rounds in
  check_bool
    (Printf.sprintf "rounds: exact %.4f vs mc %.4f" exact_rounds mc_rounds)
    true
    (Float.abs (exact_rounds -. mc_rounds) < 0.1);
  let exact_p1 = Core.Explorer.decision_prob ~ones n in
  let mc_p1 = float_of_int !decided_one /. float_of_int trials in
  check_bool
    (Printf.sprintf "P1: exact %.4f vs mc %.4f" exact_p1 mc_p1)
    true
    (Float.abs (exact_p1 -. mc_p1) < 0.03)

let test_simulation_matches_explorer_from_propose_state () =
  let n = 12 in
  (* ones = 9 of 12: 90 > 7*12 = 84: Decide 1 at round 1, stop at 2. *)
  let inputs = Array.init n (fun i -> if i < 9 then 1 else 0) in
  let o = run_synran ~inputs ~t:0 ~seed:11 Sim.Adversary.null in
  close "exact expectation" 2.0 (Core.Explorer.expected_rounds ~ones:9 n);
  Alcotest.(check (option int)) "simulated" (Some 2) o.Sim.Engine.rounds_to_decide

(* --- Theory ------------------------------------------------------------------ *)

let test_theory_formulas () =
  close ~eps:1e-9 "lower bound" (100.0 /. ((4.0 *. sqrt (100.0 *. log 100.0)) +. 1.0))
    (Core.Theory.lower_bound_rounds ~n:100 ~t:100);
  close ~eps:1e-9 "tight shape"
    (50.0 /. sqrt (100.0 *. log (2.0 +. 5.0)))
    (Core.Theory.tight_bound_shape ~n:100 ~t:50);
  check_int "deterministic" 8 (Core.Theory.deterministic_rounds ~t:7);
  close ~eps:1e-9 "large-t shape" (sqrt (100.0 /. log 100.0))
    (Core.Theory.upper_bound_large_t_shape ~n:100)

let test_theory_monotonicity () =
  (* The tight bound grows with t and shrinks (at fixed t) with n. *)
  let prev = ref 0.0 in
  List.iter
    (fun t ->
      let v = Core.Theory.tight_bound_shape ~n:256 ~t in
      check_bool "monotone in t" true (v >= !prev);
      prev := v)
    [ 0; 10; 50; 100; 200; 255 ];
  check_bool "shrinks with n" true
    (Core.Theory.tight_bound_shape ~n:1024 ~t:100
    < Core.Theory.tight_bound_shape ~n:128 ~t:100)

let test_theory_success_prob () =
  check_bool "in [0,1)" true
    (let p = Core.Theory.lower_bound_success_prob ~n:1000 in
     p > 0.0 && p < 1.0);
  close "vacuous at n=2" 0.0 (Core.Theory.lower_bound_success_prob ~n:2)

let test_theory_crossover () =
  let c = Core.Theory.crossover_t ~n:256 in
  check_bool "crossover exists and is tiny" true (c >= 1 && c < 20)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "core.onesided",
      [
        tc "paper ladder cases" test_ladder_paper_cases;
        tc "strict boundaries" test_ladder_boundaries_are_strict;
        tc "zero rule" test_zero_rule;
        tc "rules validation" test_rules_validation;
        tc "apply flips" test_apply_flip_uses_rng;
        tc "invalid counts" test_classify_invalid;
      ] );
    ( "core.synran",
      [
        tc "unanimous ones" test_unanimous_ones_two_rounds;
        tc "unanimous zeros" test_unanimous_zeros_two_rounds;
        tc "decisive majority" test_decisive_majority_fast;
        tc "validity under massacre" test_validity_all_ones_under_heavy_kills;
        tc "zero-rule ablation breaks validity"
          test_validity_violated_without_zero_rule;
        tc "stage transitions" test_stage_transitions;
        tc "by hand: stop window" test_hand_stop_window;
        tc "by hand: switch threshold" test_hand_switch_threshold;
        tc "by hand: deterministic stage" test_hand_det_stage;
        tc "by hand: leader flip" test_hand_leader_flip;
        tc "det stage rounds" test_det_stage_round_count;
        tc "single process" test_single_process;
        tc "two processes" test_two_processes;
        tc "size mismatch" test_protocol_size_mismatch;
      ] );
    ( "core.explorer",
      [
        tc "ladder matches onesided" test_explorer_ladder_matches_onesided;
        tc "hand values n=3" test_explorer_hand_values_n3;
        tc "flip band mass n=10" test_explorer_flip_band_mass;
        tc "simulation matches exact rounds" test_simulation_matches_explorer_rounds;
        tc "decide state exact" test_simulation_matches_explorer_from_propose_state;
      ] );
    ( "core.theory",
      [
        tc "formulas" test_theory_formulas;
        tc "monotonicity" test_theory_monotonicity;
        tc "success probability" test_theory_success_prob;
        tc "crossover" test_theory_crossover;
      ] );
  ]

(* --- Leader-coin variant (CMS89 contrast, E7) ------------------------------ *)

let leader_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let run_leader ~inputs ~t ~seed adversary =
    let n = Array.length inputs in
    Sim.Engine.run ~max_rounds:3000
      (Core.Synran.protocol ~coin:Core.Synran.Leader_priority n)
      adversary ~inputs ~t ~rng:(Prng.Rng.create seed)
  in
  let test_fast_without_adversary () =
    (* The leader coin resolves every flip uniformly, so even maximally
       divided inputs finish in O(1) rounds. *)
    let rng = Prng.Rng.create 1 in
    let w = Stats.Welford.create () in
    for seed = 1 to 30 do
      let inputs = Sim.Runner.input_gen_split ~n:64 rng in
      let o = run_leader ~inputs ~t:0 ~seed Sim.Adversary.null in
      match o.Sim.Engine.rounds_to_decide with
      | Some r -> Stats.Welford.add_int w r
      | None -> Alcotest.fail "must terminate"
    done;
    check_bool "constant rounds" true (Stats.Welford.mean w < 5.0)
  in
  let test_safety_under_adversaries () =
    for seed = 1 to 10 do
      let n = 24 in
      let rng = Prng.Rng.create seed in
      let inputs = Sim.Runner.input_gen_random ~n rng in
      let killer =
        Core.Lb_adversary.leader_killer ~rules:Core.Onesided.paper
          ~bit_of_msg:Core.Synran.bit_of_msg ()
      in
      let o = run_leader ~inputs ~t:(n - 1) ~seed killer in
      Sim.Checker.assert_ok ~inputs o;
      let o' =
        run_leader ~inputs ~t:(n - 1) ~seed
          (Baselines.Adversaries.random_partial ~p:0.2)
      in
      Sim.Checker.assert_ok ~inputs o'
    done
  in
  let test_validity () =
    List.iter
      (fun v ->
        let inputs = Array.make 16 v in
        let o =
          run_leader ~inputs ~t:8 ~seed:3
            (Baselines.Adversaries.random_crash ~p:0.2)
        in
        Sim.Checker.assert_ok ~inputs o;
        Array.iteri
          (fun i d ->
            if not o.Sim.Engine.faulty.(i) then
              Alcotest.(check (option int)) "decides input" (Some v) d)
          o.Sim.Engine.decisions)
      [ 0; 1 ]
  in
  let test_killer_stalls_leader_not_synran () =
    let n = 64 in
    let killer () =
      Core.Lb_adversary.leader_killer ~rules:Core.Onesided.paper
        ~bit_of_msg:Core.Synran.bit_of_msg ()
    in
    let run protocol =
      Sim.Runner.run_trials ~max_rounds:3000 ~trials:20 ~seed:9
        ~gen_inputs:(Sim.Runner.input_gen_split ~n)
        ~t:(n - 1) protocol killer
    in
    let leader = run (Core.Synran.protocol ~coin:Core.Synran.Leader_priority n) in
    let plain = run (Core.Synran.protocol n) in
    check_bool
      (Printf.sprintf "leader %.1f >> synran %.1f"
         (Sim.Runner.mean_rounds leader)
         (Sim.Runner.mean_rounds plain))
      true
      (Sim.Runner.mean_rounds leader > 2.0 *. Sim.Runner.mean_rounds plain);
    Alcotest.(check (list string)) "leader runs stay safe" []
      leader.Sim.Runner.safety_errors
  in
  ( "core.leader-coin",
    [
      tc "O(1) rounds adversary-free" test_fast_without_adversary;
      tc "safe under adversaries" test_safety_under_adversaries;
      tc "validity" test_validity;
      tc "killer stalls leader only" test_killer_stalls_leader_not_synran;
    ] )

let suites = suites @ [ leader_suite ]

(* --- Symmetric-band agreement regression (E8) ------------------------------ *)

let symmetric_agreement_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let test_symmetric_band_breaks_agreement () =
    (* Regression pin for the E8 finding: under the voting attack, the
       symmetric flip band loses agreement at small n because survivors of
       a stop re-toss instead of being forced to propose the decided value
       (the zero rule is the paper's backstop). Paper rules never break. *)
    let n = 48 in
    let run rules =
      Sim.Runner.run_trials ~max_rounds:400 ~trials:200 ~seed:42
        ~gen_inputs:(Sim.Runner.input_gen_random ~n)
        ~t:(n - 1)
        (Core.Synran.protocol ~rules n)
        (fun () ->
          Core.Lb_adversary.band_control
            ~config:Core.Lb_adversary.voting_config ~rules
            ~bit_of_msg:Core.Synran.bit_of_msg ())
    in
    let symmetric = run Core.Onesided.symmetric in
    let paper = run Core.Onesided.paper in
    check_bool "symmetric band violates agreement" true
      (symmetric.Sim.Runner.safety_errors <> []);
    Alcotest.(check (list string)) "paper rules never do" []
      paper.Sim.Runner.safety_errors
  in
  ( "core.symmetric-agreement",
    [ tc "voting attack breaks the symmetric band" test_symmetric_band_breaks_agreement ] )

let suites = suites @ [ symmetric_agreement_suite ]

(* --- Shared-oracle coin (Rabin-style, E10) ---------------------------------- *)

let oracle_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let protocol n = Core.Synran.protocol ~coin:(Core.Synran.Shared_oracle 99) n in
  let test_safety () =
    for seed = 1 to 8 do
      let n = 24 in
      let rng = Prng.Rng.create seed in
      let inputs = Sim.Runner.input_gen_random ~n rng in
      let adversary =
        Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
          ~bit_of_msg:Core.Synran.bit_of_msg ()
      in
      let o =
        Sim.Engine.run ~max_rounds:2000 (protocol n) adversary ~inputs
          ~t:(n - 1) ~rng
      in
      Sim.Checker.assert_ok ~inputs o
    done
  in
  let test_voting_attack_neutralized () =
    (* The voting attack trims based on last round's proposals, but the
       oracle coin resolves every flip identically and unpredictably, so
       the run unanimizes in O(1) rounds no matter the trimming. *)
    let n = 96 in
    let run p =
      Sim.Runner.run_trials ~max_rounds:2000 ~trials:25 ~seed:3
        ~gen_inputs:(Sim.Runner.input_gen_random ~n)
        ~t:(n - 1) p
        (fun () ->
          Core.Lb_adversary.band_control
            ~config:Core.Lb_adversary.voting_config ~rules:Core.Onesided.paper
            ~bit_of_msg:Core.Synran.bit_of_msg ())
    in
    let oracle = run (protocol n) in
    let private_coin = run (Core.Synran.protocol n) in
    check_bool
      (Printf.sprintf "oracle %.1f << private %.1f"
         (Sim.Runner.mean_rounds oracle)
         (Sim.Runner.mean_rounds private_coin))
      true
      (2.0 *. Sim.Runner.mean_rounds oracle < Sim.Runner.mean_rounds private_coin);
    Alcotest.(check (list string)) "oracle runs safe" []
      oracle.Sim.Runner.safety_errors
  in
  let test_oracle_deterministic_per_round () =
    (* Same seed, same round: every process flips to the same value (the
       chain unanimizes right after the first flip round). *)
    let n = 32 in
    let inputs = Array.init n (fun i -> i land 1) in
    let o =
      Sim.Engine.run (protocol n) Sim.Adversary.null ~inputs ~t:0
        ~rng:(Prng.Rng.create 4)
    in
    (match o.Sim.Engine.rounds_to_decide with
    | Some r -> check_bool "O(1) rounds" true (r <= 4)
    | None -> Alcotest.fail "must terminate");
    Sim.Checker.assert_ok ~inputs o
  in
  ( "core.shared-oracle",
    [
      tc "safety under band control" test_safety;
      tc "voting attack neutralized" test_voting_attack_neutralized;
      tc "unanimizes after one flip" test_oracle_deterministic_per_round;
    ] )

let suites = suites @ [ oracle_suite ]

(* --- Explorer variance oracle ------------------------------------------------- *)

let variance_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let test_deterministic_states_zero_variance () =
    close "decide state" 0.0 (Core.Explorer.rounds_variance ~ones:16 16);
    close "propose state" 0.0 (Core.Explorer.rounds_variance ~ones:2 3)
  in
  let test_simulation_matches_variance () =
    let n = 16 in
    let ones = 8 in
    let inputs = Array.init n (fun i -> if i < ones then 1 else 0) in
    let protocol = Core.Synran.protocol n in
    let master = Prng.Rng.create 321 in
    let w = Stats.Welford.create () in
    for _ = 1 to 4000 do
      let rng = Prng.Rng.split master in
      let o = Sim.Engine.run protocol Sim.Adversary.null ~inputs ~t:0 ~rng in
      match o.Sim.Engine.rounds_to_decide with
      | Some r -> Stats.Welford.add_int w r
      | None -> Alcotest.fail "must terminate"
    done;
    let exact = Core.Explorer.rounds_variance ~ones n in
    let sampled = Stats.Welford.variance w in
    check_bool
      (Printf.sprintf "variance: exact %.4f vs sampled %.4f" exact sampled)
      true
      (Float.abs (exact -. sampled) < 0.25 *. exact +. 0.05)
  in
  let test_variance_positive_in_band () =
    check_bool "flip band has positive variance" true
      (Core.Explorer.rounds_variance ~ones:8 16 > 0.0)
  in
  ( "core.explorer-variance",
    [
      tc "deterministic states" test_deterministic_states_zero_variance;
      tc "simulation matches exact variance" test_simulation_matches_variance;
      tc "positive in the flip band" test_variance_positive_in_band;
    ] )

let suites = suites @ [ variance_suite ]

(* --- Stopping-rule window ------------------------------------------------------- *)

(* The stability rule keeps four receive counts and stops once decided and
   N^(r-3) - N^r <= N^(r-2)/10, i.e. the kills of the last THREE rounds stay
   within a tenth of the population. That width is load-bearing: it is what
   guarantees every survivor at least proposed the decided bit before anyone
   stops (see the derivation in synran.ml). A plausible-looking shortening to
   N^(r-2) - N^r <= N^(r-1)/10 was audited during the parallel-runner work
   and found unsound — it admits real agreement violations (pinned by the
   regression below). These tests pin both the halt round and agreement. *)
let halt_window_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let test_no_failure_halts_immediately () =
    (* Decided at round 1; with no drop the very next stability check
       passes, so output lands at round 2 — the minimum possible. *)
    let o =
      run_synran ~inputs:(Array.make 40 1) ~t:0 ~seed:5 Sim.Adversary.null
    in
    Alcotest.(check (option int)) "halt round" (Some 2)
      o.Sim.Engine.rounds_to_decide
  in
  let test_drop_delays_halt_three_checks () =
    (* 10 of 40 die silently in round 2. Survivors' counts are
       40, 30, 30, 30, ...; the drop of 10 > 40/10 sits inside the
       three-round window of the stability checks at rounds 2, 3 and 4, so
       all three fail; round 5 is the first whose window is fully stable.
       A shortened two-count window would halt at round 4 — this value is
       the discriminator. *)
    let killer =
      {
        Sim.Adversary.name = "burst@2";
        plan =
          (fun view _ ->
            if view.Sim.Adversary.round = 2 then
              List.init 10 Sim.Adversary.kill_silent
            else []);
      }
    in
    let o = run_synran ~inputs:(Array.make 40 1) ~t:10 ~seed:6 killer in
    Alcotest.(check (option int)) "halt round" (Some 5)
      o.Sim.Engine.rounds_to_decide;
    Array.iteri
      (fun pid d ->
        if pid >= 10 then
          Alcotest.(check (option int))
            (Printf.sprintf "survivor %d decides 1" pid)
            (Some 1) d)
      o.Sim.Engine.decisions
  in
  let test_voting_attack_agreement () =
    (* Agreement counterexample for the shortened window: n = 192, t = n-1,
       private coins, band voting attack, the exact randomness of trial 30
       of experiment E10 (seed 42). Under the two-count variant some
       processes output 1 while others, seeing one round of kills too many,
       fall back and decide 0. The four-count rule keeps this run safe;
       this test must stay green for any future change to the rule. *)
    let n = 192 in
    let rng = Prng.Rng.of_seed_index ~seed:42 ~index:29 in
    let inputs = Sim.Runner.input_gen_random ~n rng in
    let adversary =
      Core.Lb_adversary.band_control ~config:Core.Lb_adversary.voting_config
        ~rules:Core.Onesided.paper ~bit_of_msg:Core.Synran.bit_of_msg ()
    in
    let o =
      Sim.Engine.run ~max_rounds:2000 (Core.Synran.protocol n) adversary
        ~inputs ~t:(n - 1) ~rng
    in
    let verdict = Sim.Checker.check ~inputs o in
    Alcotest.(check (list string)) "no safety errors" []
      verdict.Sim.Checker.errors
  in
  ( "core.synran-halt-window",
    [
      tc "no failures: halt at round 2" test_no_failure_halts_immediately;
      tc "round-2 burst: halt at round 5" test_drop_delays_halt_three_checks;
      tc "voting attack, E10 trial 30: agreement" test_voting_attack_agreement;
    ] )

let suites = suites @ [ halt_window_suite ]
