(* Unit tests for the Section 3 machinery: valency classification, the
   band-control adversary's discipline and effectiveness, and the
   Monte-Carlo valency driver. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Valency ---------------------------------------------------------------- *)

let classification =
  Alcotest.testable
    (fun ppf c -> Format.pp_print_string ppf (Core.Valency.to_string c))
    ( = )

let test_epsilon () =
  close ~eps:1e-12 "eps_0" 0.1 (Core.Valency.epsilon ~n:100 ~k:0);
  close ~eps:1e-12 "eps_5" (0.1 -. 0.05) (Core.Valency.epsilon ~n:100 ~k:5);
  check_bool "negative for large k" true (Core.Valency.epsilon ~n:100 ~k:50 < 0.0)

let test_classify_table () =
  let n = 100 and k = 0 in
  (* eps = 0.1. *)
  Alcotest.check classification "bivalent" Core.Valency.Bivalent
    (Core.Valency.classify ~n ~k ~min_r:0.01 ~max_r:0.99);
  Alcotest.check classification "0-valent" Core.Valency.Zero_valent
    (Core.Valency.classify ~n ~k ~min_r:0.01 ~max_r:0.5);
  Alcotest.check classification "1-valent" Core.Valency.One_valent
    (Core.Valency.classify ~n ~k ~min_r:0.5 ~max_r:0.99);
  Alcotest.check classification "null-valent" Core.Valency.Null_valent
    (Core.Valency.classify ~n ~k ~min_r:0.3 ~max_r:0.7)

let test_classify_boundaries () =
  let n = 100 and k = 0 in
  (* min_r = eps exactly is NOT < eps: the 1-side of the table. *)
  Alcotest.check classification "min at eps" Core.Valency.One_valent
    (Core.Valency.classify ~n ~k ~min_r:0.1 ~max_r:0.95);
  Alcotest.check classification "max at 1-eps" Core.Valency.Null_valent
    (Core.Valency.classify ~n ~k ~min_r:0.1 ~max_r:0.9)

let test_classify_predicates () =
  check_bool "univalent" true (Core.Valency.is_univalent Core.Valency.Zero_valent);
  check_bool "bivalent not univalent" false
    (Core.Valency.is_univalent Core.Valency.Bivalent);
  check_bool "null keeps running" true
    (Core.Valency.keeps_running Core.Valency.Null_valent);
  check_bool "1-valent ends" false (Core.Valency.keeps_running Core.Valency.One_valent)

let test_classify_invalid () =
  check_bool "min > max rejected" true
    (try
       ignore (Core.Valency.classify ~n:100 ~k:0 ~min_r:0.9 ~max_r:0.1);
       false
     with Invalid_argument _ -> true)

let test_classification_exhaustive () =
  (* Every (min_r, max_r) grid point lands in exactly one class. *)
  let n = 64 in
  for k = 0 to 5 do
    List.iter
      (fun min_r ->
        List.iter
          (fun max_r ->
            if min_r <= max_r then
              ignore (Core.Valency.classify ~n ~k ~min_r ~max_r))
          [ 0.0; 0.05; 0.12; 0.5; 0.88; 0.95; 1.0 ])
      [ 0.0; 0.05; 0.12; 0.5; 0.88; 0.95; 1.0 ]
  done

(* --- Band control ------------------------------------------------------------- *)

let band ?config () =
  Core.Lb_adversary.band_control ?config ~rules:Core.Onesided.paper
    ~bit_of_msg:Core.Synran.bit_of_msg ()

let test_band_respects_budget_and_safety () =
  for seed = 1 to 8 do
    let n = 48 in
    let rng = Prng.Rng.create seed in
    let inputs = Sim.Runner.input_gen_random ~n rng in
    let o =
      Sim.Engine.run ~max_rounds:2000 (Core.Synran.protocol n) (band ())
        ~inputs ~t:(n - 1) ~rng
    in
    check_bool "within budget" true (o.Sim.Engine.kills_used <= n - 1);
    Sim.Checker.assert_ok ~inputs o
  done

let test_band_per_round_cap () =
  let n = 64 in
  let cap = 5 in
  let adversary =
    band
      ~config:{ Core.Lb_adversary.default_config with per_round_cap = Some cap }
      ()
  in
  let rng = Prng.Rng.create 3 in
  let inputs = Sim.Runner.input_gen_split ~n rng in
  let tr = Sim.Trace.create () in
  ignore
    (Sim.Engine.run ~sink:(Sim.Trace.sink tr) ~max_rounds:2000
       (Core.Synran.protocol n) adversary ~inputs ~t:(n - 1) ~rng);
  List.iter
    (fun r ->
      check_bool "per-round cap held" true
        (Array.length r.Sim.Trace.killed <= cap))
    (Sim.Trace.records tr)

let test_band_forces_long_executions () =
  (* The paper's qualitative claim: adaptive band control forces far more
     rounds than the adversary-free baseline. *)
  let n = 96 in
  let protocol = Core.Synran.protocol n in
  let run make_adversary =
    Sim.Runner.run_trials ~max_rounds:2000 ~trials:25 ~seed:7
      ~gen_inputs:(Sim.Runner.input_gen_random ~n)
      ~t:(n - 1) protocol make_adversary
  in
  let free = run (fun () -> Sim.Adversary.null) in
  let attacked = run (fun () -> band ()) in
  check_bool
    (Printf.sprintf "adaptive %.1f >> free %.1f"
       (Sim.Runner.mean_rounds attacked)
       (Sim.Runner.mean_rounds free))
    true
    (Sim.Runner.mean_rounds attacked > 3.0 *. Sim.Runner.mean_rounds free);
  Alcotest.(check (list string)) "no safety errors" []
    attacked.Sim.Runner.safety_errors

let test_band_resets_between_trials () =
  let n = 32 in
  let protocol = Core.Synran.protocol n in
  let adversary = band () in
  let run () =
    Sim.Runner.run_trials ~max_rounds:2000 ~jobs:1 ~trials:10 ~seed:9
      ~gen_inputs:(Sim.Runner.input_gen_random ~n)
      ~t:(n - 1) protocol
      (fun () -> adversary)
  in
  (* Reusing the same adversary value must give identical results because
     its per-run state resets on round 1 (jobs = 1: sharing one stateful
     adversary across trials is only legal sequentially). *)
  let a = run () in
  let b = run () in
  close ~eps:1e-12 "identical reruns" (Sim.Runner.mean_rounds a)
    (Sim.Runner.mean_rounds b)

let test_band_idles_when_budget_zero () =
  let n = 32 in
  let rng = Prng.Rng.create 11 in
  let inputs = Sim.Runner.input_gen_random ~n rng in
  let o =
    Sim.Engine.run (Core.Synran.protocol n) (band ()) ~inputs ~t:0 ~rng
  in
  check_int "no kills possible" 0 o.Sim.Engine.kills_used;
  Sim.Checker.assert_ok ~inputs o

let test_band_empty_receive_set () =
  (* Regression: with [min_active = 0] the planner can be invoked with an
     empty receiver set. The min-fold over delivered counts used a
     [max_int] sentinel that leaked into the flip-band arithmetic
     ([propose_hi * nmin / 10] wraps); the fix bails out to "idle" before
     any band math, so the emitted Band event carries an all-zero band. *)
  let events = ref [] in
  let sink = Obs.Sink.create (fun ev -> events := ev :: !events) in
  let adversary =
    Core.Lb_adversary.band_control
      ~config:{ Core.Lb_adversary.default_config with min_active = 0 }
      ~sink ~rules:Core.Onesided.paper
      ~bit_of_msg:Core.Synran.bit_of_msg ()
  in
  let view =
    {
      Sim.Adversary.round = 1;
      n = 4;
      t = 4;
      budget_left = 4;
      active = (fun _ -> false);
      count = (fun _ -> 0);
      iter_senders = (fun _ _ -> ());
      priv = (fun _ -> 0);
    }
  in
  let plan = adversary.Sim.Adversary.plan view (Prng.Rng.create 11) in
  check_int "no kills planned" 0 (List.length plan);
  match !events with
  | [ Obs.Event.Band { action; flip_lo; flip_hi; margin; kills; _ } ] ->
      Alcotest.(check string) "action" "idle" action;
      check_int "flip_lo" 0 flip_lo;
      check_int "flip_hi" 0 flip_hi;
      check_int "margin" 0 margin;
      check_int "kills" 0 kills
  | _ -> Alcotest.fail "expected exactly one Band event"

let test_band_against_ablated_rules () =
  (* Band control parameterized by the ablated rule set still respects the
     engine's discipline (budget, liveness of the run loop); safety of the
     protocol itself is the E8 finding, not asserted here. *)
  let n = 40 in
  let rules = Core.Onesided.no_zero_rule in
  let adversary =
    Core.Lb_adversary.band_control ~rules ~bit_of_msg:Core.Synran.bit_of_msg ()
  in
  let rng = Prng.Rng.create 13 in
  let inputs = Sim.Runner.input_gen_random ~n rng in
  let o =
    Sim.Engine.run ~max_rounds:2000
      (Core.Synran.protocol ~rules n)
      adversary ~inputs ~t:(n - 1) ~rng
  in
  check_bool "terminates" true (o.Sim.Engine.rounds_to_decide <> None);
  check_bool "within budget" true (o.Sim.Engine.kills_used <= n - 1)

(* --- Monte-Carlo valency driver -------------------------------------------------- *)

let test_mc_outcome_valid () =
  let n = 8 in
  let rng = Prng.Rng.create 17 in
  let inputs = Sim.Runner.input_gen_split ~n rng in
  let o =
    Core.Lb_adversary.force_long_execution
      ~config:
        { Core.Lb_adversary.default_mc_config with samples = 8; horizon = 20 }
      ~max_rounds:120 (Core.Synran.protocol n) ~inputs ~t:(n - 2) ~rng
  in
  check_bool "budget respected" true (o.Sim.Engine.kills_used <= n - 2);
  Sim.Checker.assert_ok ~inputs o

let test_mc_beats_null () =
  let n = 8 in
  let protocol = Core.Synran.protocol n in
  let master = Prng.Rng.create 19 in
  let mc_rounds = Stats.Welford.create () in
  let null_rounds = Stats.Welford.create () in
  for _ = 1 to 8 do
    let rng = Prng.Rng.split master in
    let inputs = Sim.Runner.input_gen_split ~n rng in
    let o =
      Core.Lb_adversary.force_long_execution
        ~config:
          { Core.Lb_adversary.default_mc_config with samples = 10; horizon = 25 }
        ~max_rounds:150 protocol ~inputs ~t:(n - 2) ~rng
    in
    (match o.Sim.Engine.rounds_to_decide with
    | Some r -> Stats.Welford.add_int mc_rounds r
    | None -> Stats.Welford.add_int mc_rounds o.Sim.Engine.rounds_executed);
    let rng' = Prng.Rng.split master in
    let o' =
      Sim.Engine.run protocol Sim.Adversary.null
        ~inputs:(Sim.Runner.input_gen_split ~n rng')
        ~t:0 ~rng:rng'
    in
    match o'.Sim.Engine.rounds_to_decide with
    | Some r -> Stats.Welford.add_int null_rounds r
    | None -> Alcotest.fail "null adversary must terminate"
  done;
  check_bool
    (Printf.sprintf "mc %.1f > null %.1f"
       (Stats.Welford.mean mc_rounds)
       (Stats.Welford.mean null_rounds))
    true
    (Stats.Welford.mean mc_rounds > Stats.Welford.mean null_rounds)

let test_lower_bound_respected_by_all_adversaries () =
  (* Sanity: nothing we measured ever dips below Theorem 1's curve in
     expectation (on these sizes the curve is far below the measurements,
     so this asserts the plumbing, not the theorem's tightness). *)
  let n = 32 in
  let protocol = Core.Synran.protocol n in
  let s =
    Sim.Runner.run_trials ~max_rounds:2000 ~trials:20 ~seed:23
      ~gen_inputs:(Sim.Runner.input_gen_random ~n)
      ~t:(n - 1) protocol
      (fun () -> band ())
  in
  check_bool "above theory lower bound" true
    (Sim.Runner.mean_rounds s >= Core.Theory.lower_bound_rounds ~n ~t:(n - 1))

(* Bursts and the endgame kill the first k senders, found by a walk that
   stops after them. On every engine's view, for every selector, that
   walk must equal the first k of the staged words it selects, for any
   k, k >= q included, and [count] must be their number; every burst or
   endgame plan must kill exactly the prefix of [active_pids], silently.
   The staged words are rebuilt apart from the walks under test: the
   senders are the pids [view.active] admits, and each one's registers
   are read off the whole [Ones r] walks. At n = 400, t = 392 leaves the
   budget thin enough at the end for the endgame move. *)
let test_first_senders () =
  let n = 400 and t = 392 in
  let rules = Core.Onesided.paper in
  let protocol = Core.Synran.protocol ~rules n in
  let inputs = Prng.Sample.random_bits (Prng.Rng.create 3) n in
  let rec take k = function
    | x :: rest when k > 0 -> x :: take (k - 1) rest
    | _ -> []
  in
  let actions = Hashtbl.create 8 in
  let checked what =
    let action = ref "" in
    let sink =
      Obs.Sink.create (function
        | Obs.Event.Band { action = a; _ } -> action := a
        | _ -> ())
    in
    let band =
      Core.Lb_adversary.band_control ~sink ~rules
        ~bit_of_msg:Core.Synran.bit_of_msg ()
    in
    {
      band with
      Sim.Adversary.plan =
        (fun view rng ->
          let active = Sim.Adversary.active_pids view in
          let q = List.length active in
          let regs = Array.make n 0 in
          for r = 0 to 3 do
            view.Sim.Adversary.iter_senders (Ones r) (fun i ->
                regs.(i) <- regs.(i) lor (1 lsl r))
          done;
          let senders =
            List.filter view.Sim.Adversary.active (List.init n Fun.id)
          in
          List.iter
            (fun (sname, s, keep) ->
              let selected = List.filter (fun i -> keep regs.(i)) senders in
              let label =
                Printf.sprintf "%s round %d %s" what view.Sim.Adversary.round
                  sname
              in
              check_int (label ^ ": count") (List.length selected)
                (view.Sim.Adversary.count s);
              List.iter
                (fun k ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "%s: first %d senders" label k)
                    (take k selected)
                    (Sim.Adversary.first_senders view s k))
                [ 0; 1; 2; 62; 63; 64; q - 1; q; q + 1; n + 5 ])
            [
              ("all", Sim.Adversary.All, fun _ -> true);
              ("ones 0", Ones 0, fun r -> r land 1 = 1);
              ("zeros 0", Zeros 0, fun r -> r land 1 = 0);
              ("ones 1", Ones 1, fun r -> r land 2 = 2);
              ("zeros 3", Zeros 3, fun r -> r land 8 = 0);
            ];
          Alcotest.(check (list int))
            (what ^ ": active_pids = the senders")
            senders active;
          let kills = band.Sim.Adversary.plan view rng in
          if !action = "burst" || !action = "endgame" then begin
            Hashtbl.replace actions !action ();
            Alcotest.(check (list int))
              (Printf.sprintf "%s round %d: %s victims" what
                 view.Sim.Adversary.round !action)
              (take (List.length kills) active)
              (List.map (fun k -> k.Sim.Adversary.victim) kills);
            check_bool "silent" true
              (List.for_all (fun k -> k.Sim.Adversary.deliver_to = []) kills)
          end;
          kills);
    }
  in
  let rng () = Prng.Rng.create 8 in
  let concrete =
    Sim.Engine.run ~max_rounds:2000 protocol (checked "engine") ~inputs
      ~t ~rng:(rng ())
  in
  let bit =
    Sim.Bitkernel.run ~max_rounds:2000 protocol (checked "bitkernel") ~inputs
      ~t ~rng:(rng ())
  in
  let cohort =
    Sim.Cohort.run ~max_rounds:2000 protocol
      (Sim.Cohort.Concrete (checked "cohort"))
      ~inputs ~t ~rng:(rng ())
  in
  check_bool "bitkernel = engine" true (Test_delivery.outcomes_equal concrete bit);
  check_bool "cohort = engine" true (Test_delivery.outcomes_equal concrete cohort);
  check_bool "bursts covered" true (Hashtbl.mem actions "burst");
  check_bool "endgame covered" true (Hashtbl.mem actions "endgame")

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "core.valency",
      [
        tc "epsilon" test_epsilon;
        tc "classification table" test_classify_table;
        tc "boundaries" test_classify_boundaries;
        tc "predicates" test_classify_predicates;
        tc "invalid" test_classify_invalid;
        tc "exhaustive grid" test_classification_exhaustive;
      ] );
    ( "core.band-control",
      [
        tc "budget and safety" test_band_respects_budget_and_safety;
        tc "per-round cap" test_band_per_round_cap;
        tc "forces long executions" test_band_forces_long_executions;
        tc "resets between trials" test_band_resets_between_trials;
        tc "idles at zero budget" test_band_idles_when_budget_zero;
        tc "idles on empty receive set" test_band_empty_receive_set;
        tc "works with ablated rules" test_band_against_ablated_rules;
        tc "bursts kill the first senders" test_first_senders;
      ] );
    ( "core.mc-valency",
      [
        tc "outcome valid" test_mc_outcome_valid;
        tc "beats null adversary" test_mc_beats_null;
        tc "above theory curve" test_lower_bound_respected_by_all_adversaries;
      ] );
  ]

(* --- Valency probe (Section 3.2 made executable) ----------------------------- *)

let valency_probe_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let test_initial_state_bivalent () =
    (* Lemma 3.5: from split inputs with a full budget, both outcomes are
       still forceable — the probe must certify bivalence at round 0. *)
    let traj =
      Core.Valency_probe.trajectory ~samples:25 ~rounds:1 ~n:20 ~t:19 ~seed:3
        Sim.Adversary.null
    in
    match traj with
    | (0, e) :: _ ->
        check_bool "initial bivalent" true
          (e.Core.Valency_probe.classification = Core.Valency.Bivalent);
        check_bool "max near 1" true (e.Core.Valency_probe.max_r > 0.9);
        check_bool "min near 0" true (e.Core.Valency_probe.min_r < 0.1)
    | _ -> Alcotest.fail "no round-0 probe"
  in
  let test_collapse_without_intervention () =
    (* With nobody intervening, a flip round that lands on one side makes
       the state univalent: eventually min_r = max_r. *)
    let traj =
      Core.Valency_probe.trajectory ~samples:25 ~rounds:6 ~n:20 ~t:19 ~seed:3
        Sim.Adversary.null
    in
    let final_univalent =
      List.exists
        (fun (_, e) ->
          Core.Valency.is_univalent e.Core.Valency_probe.classification
          || e.Core.Valency_probe.max_r -. e.Core.Valency_probe.min_r < 0.05)
        traj
    in
    check_bool "collapses to univalence" true final_univalent
  in
  let test_rescue_preserves_bivalence_longer () =
    let count_bivalent adversary =
      Core.Valency_probe.trajectory ~samples:25 ~rounds:5 ~n:20 ~t:19 ~seed:3
        adversary
      |> List.filter (fun (_, e) ->
             e.Core.Valency_probe.classification = Core.Valency.Bivalent)
      |> List.length
    in
    let voting =
      count_bivalent
        (Core.Lb_adversary.band_control
           ~config:Core.Lb_adversary.voting_config ~rules:Core.Onesided.paper
           ~bit_of_msg:Core.Synran.bit_of_msg ())
    in
    let idle = count_bivalent Sim.Adversary.null in
    check_bool
      (Printf.sprintf "voting %d >= idle %d bivalent rounds" voting idle)
      true (voting >= idle);
    check_bool "voting keeps it bivalent at least 3 rounds" true (voting >= 3)
  in
  let test_stops_where_table_is_vacuous () =
    (* At n = 16, eps_4 = 1/4 - 4/16 = 0: from round 4 on every estimate
       would read null-valent, so the trajectory ends at round 3 even when
       asked for 8 rounds. *)
    let traj =
      Core.Valency_probe.trajectory ~samples:5 ~rounds:8 ~n:16 ~t:15 ~seed:42
        (Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
           ~bit_of_msg:Core.Synran.bit_of_msg ())
    in
    Alcotest.(check (list int)) "rounds probed" [ 0; 1; 2; 3 ]
      (List.map fst traj)
  in
  let test_probe_estimate_fields () =
    let rng = Prng.Rng.create 7 in
    let inputs = Sim.Runner.input_gen_split ~n:12 rng in
    let exec =
      Sim.Bitkernel.start (Core.Synran.protocol 12) ~inputs ~t:11 ~rng
    in
    let e = Core.Valency_probe.probe ~samples:10 ~horizon:30 exec ~rng in
    check_bool "min <= max" true
      (e.Core.Valency_probe.min_r <= e.Core.Valency_probe.max_r);
    check_bool "bounded" true
      (e.Core.Valency_probe.min_r >= 0.0 && e.Core.Valency_probe.max_r <= 1.0);
    Alcotest.(check int) "samples recorded" 10 e.Core.Valency_probe.samples_per_policy;
    (* Probing must not disturb the caller's execution. *)
    Alcotest.(check int) "exec untouched" 0 (Sim.Bitkernel.round exec)
  in
  (* Band control tracks its run, so a continuation that inherits another
     sample's tracker plans from the wrong delivered counts. Each sample
     must get a fresh adversary: a 60-sample estimate is then the mean of
     60 one-sample estimates drawn from the same stream. At n = 24, seed
     42, two band-control rounds in, the continuations decide 1 in every
     sample; one band control shared by all 60 (as the palette once was)
     has them decide 1 in one. *)
  let test_samples_independent () =
    let n = 24 in
    let rng = Prng.Rng.create 42 in
    let inputs = Sim.Runner.input_gen_split ~n rng in
    let exec =
      Sim.Bitkernel.start (Core.Synran.protocol n) ~inputs ~t:(n - 1) ~rng
    in
    let band () =
      Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
        ~bit_of_msg:Core.Synran.bit_of_msg ()
    in
    let driver = band () in
    for _ = 1 to 2 do
      ignore (Sim.Bitkernel.step exec driver)
    done;
    let estimate ~samples make rng =
      Core.Valency_probe.decide_probability exec make ~samples ~horizon:60 ~rng
    in
    let palette_band =
      List.find
        (fun make ->
          String.starts_with ~prefix:"band-control"
            (make ()).Sim.Adversary.name)
        (Core.Valency_probe.policies ~rules:Core.Onesided.paper)
    in
    let joint = estimate ~samples:60 palette_band (Prng.Rng.create 5) in
    let singles =
      let rng = Prng.Rng.create 5 in
      List.init 60 (fun _ -> estimate ~samples:1 palette_band rng)
    in
    let shared =
      let a = band () in
      estimate ~samples:60 (fun () -> a) (Prng.Rng.create 5)
    in
    check_bool "every sample decided" true
      (List.for_all (fun r -> r = 0.0 || r = 1.0) singles);
    Alcotest.(check (float 1e-12))
      "60 samples = mean of 60 one-sample estimates"
      (List.fold_left ( +. ) 0.0 singles /. 60.0)
      joint;
    Alcotest.(check (float 1e-12)) "every continuation decides 1" 1.0 joint;
    Alcotest.(check (float 1e-12))
      "a shared band control: 1 of 60" (1.0 /. 60.0) shared
  in
  ( "core.valency-probe",
    [
      tc "initial state bivalent (Lemma 3.5)" test_initial_state_bivalent;
      tc "collapse without intervention" test_collapse_without_intervention;
      tc "rescue preserves bivalence" test_rescue_preserves_bivalence_longer;
      tc "probe fields" test_probe_estimate_fields;
      tc "each continuation sample gets a fresh adversary"
        test_samples_independent;
      tc "trajectory stops where eps_k <= 0" test_stops_where_table_is_vacuous;
    ] )

let suites = suites @ [ valency_probe_suite ]

(* --- Experiment driver determinism -------------------------------------------- *)

let determinism_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let test_tables_reproducible () =
    (* The whole harness is seed-deterministic: regenerating a table gives
       byte-identical output. E2 is pure; E5 exercises engine + adversary +
       MC sampling end to end. *)
    List.iter
      (fun id ->
        match Core.Experiments.by_id id with
        | None -> Alcotest.failf "unknown experiment %s" id
        | Some f ->
            let a = Stats.Table.render (f Core.Experiments.Quick ~seed:42) in
            let b = Stats.Table.render (f Core.Experiments.Quick ~seed:42) in
            Alcotest.(check string) (id ^ " reproducible") a b)
      [ "e2"; "e5" ]
  in
  let test_quick_tables_pinned () =
    (* MD5 of every rendered quick-profile table at seed 42 — the tables
       `consensus_cli experiments` prints — so any byte of drift in E1-E12
       fails tier-1. The E9/E11 digests date from the list-based async
       engine and the int-list EIG tree, which the array-backed stores
       must reproduce; E9 is also pinned at a second seed. *)
    List.iter
      (fun (id, seed, md5) ->
        match Core.Experiments.by_id id with
        | None -> Alcotest.failf "unknown experiment %s" id
        | Some f ->
            let r = Stats.Table.render (f Core.Experiments.Quick ~seed) in
            Alcotest.(check string)
              (Printf.sprintf "%s seed %d" id seed)
              md5
              (Digest.to_hex (Digest.string r)))
      [
        ("e1", 42, "453908beda5f04f4172d849bf2bd9f69");
        ("e2", 42, "1bcbb8fe69a5b712fd588b79cb0c66ca");
        ("e3", 42, "b4410557fd7c158389295317492b5a46");
        ("e4", 42, "261590e3fddbbff8df1c572043b4c2a0");
        ("e5", 42, "f6602d7da65f171efdb090abe851d009");
        ("e6", 42, "31884f322aa241a1432f3376741f915f");
        ("e7", 42, "029f1d9e39bb6e68339166153b99f0bc");
        ("e8", 42, "00a306eaca83422e9dcae857d7404e24");
        ("e9", 42, "615547139cc06f249cb91e5baa47df34");
        ("e10", 42, "9983c2876cd565e7a0e8da7ac2e55b5a");
        ("e11", 42, "e19e8006e06451dfafcdbb8e4162cf99");
        ("e12", 42, "e483af5d8fa1d300de25bb9844d3e8dc");
        ("e9", 7, "6cbbd529df1d99fa2cc29604586bda34");
      ]
  in
  let test_full_e9_pinned () =
    (* The full-profile E9 table: the MD5 of its block in
       results/full_tables.txt without the two trailing newlines. The
       splitter rows at n = 8 and 10 run hundreds of phases, so this pins
       the incremental splitter far past the quick profile. *)
    match Core.Experiments.by_id "e9" with
    | None -> Alcotest.fail "unknown experiment e9"
    | Some f ->
        Alcotest.(check string)
          "e9 full seed 42" "96f38df53bb3efb6749e344b43adab1c"
          (Digest.to_hex
             (Digest.string
                (Stats.Table.render (f Core.Experiments.Full ~seed:42))))
  in
  let test_ids_complete () =
    Alcotest.(check int) "twelve experiments" 12
      (List.length Core.Experiments.ids);
    List.iter
      (fun id ->
        Alcotest.(check bool)
          (id ^ " resolvable") true
          (Option.is_some (Core.Experiments.by_id id)))
      Core.Experiments.ids
  in
  let test_ids_in_order () =
    Alcotest.(check (list string)) "e1 .. e12 in table order"
      (List.init 12 (fun i -> Printf.sprintf "e%d" (i + 1)))
      Core.Experiments.ids
  in
  let test_unknown_id () =
    List.iter
      (fun id ->
        Alcotest.(check bool)
          (Printf.sprintf "%S unknown" id)
          true
          (Option.is_none (Core.Experiments.by_id id)))
      [ ""; "e0"; "e13"; "E1"; " e1" ]
  in
  ( "core.experiments",
    [
      tc "tables reproducible" test_tables_reproducible;
      tc "E1–E12 quick tables pinned" test_quick_tables_pinned;
      tc "E9 full table pinned" test_full_e9_pinned;
      tc "all ids resolvable" test_ids_complete;
      tc "ids in table order" test_ids_in_order;
      tc "unknown ids rejected" test_unknown_id;
    ] )

let suites = suites @ [ determinism_suite ]
