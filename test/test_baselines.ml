(* Unit tests for the comparator protocols and the generic adversary zoo. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_floodset ?(rounds_param = None) ~inputs ~t ~seed adversary =
  let n = Array.length inputs in
  ignore n;
  let rounds = Option.value rounds_param ~default:(t + 1) in
  Sim.Engine.run
    (Baselines.Floodset.protocol ~rounds ())
    adversary ~inputs ~t ~rng:(Prng.Rng.create seed)

(* --- FloodSet ------------------------------------------------------------ *)

let test_floodset_exact_rounds () =
  List.iter
    (fun t ->
      let inputs = Array.init 8 (fun i -> i land 1) in
      let o = run_floodset ~inputs ~t ~seed:1 Sim.Adversary.null in
      Alcotest.(check (option int))
        (Printf.sprintf "t=%d takes t+1 rounds" t)
        (Some (t + 1)) o.Sim.Engine.rounds_to_decide)
    [ 0; 1; 3; 7 ]

let test_floodset_validity () =
  List.iter
    (fun v ->
      let inputs = Array.make 6 v in
      let o =
        run_floodset ~inputs ~t:3 ~seed:2
          (Baselines.Adversaries.random_partial ~p:0.2)
      in
      Array.iteri
        (fun i d ->
          if not o.Sim.Engine.faulty.(i) then
            Alcotest.(check (option int))
              (Printf.sprintf "process %d decides %d" i v)
              (Some v) d)
        o.Sim.Engine.decisions)
    [ 0; 1 ]

let test_floodset_agreement_under_partial_kills () =
  for seed = 1 to 25 do
    let inputs = [| 0; 1; 1; 0; 1; 0; 1; 0 |] in
    let o =
      run_floodset ~inputs ~t:4 ~seed
        (Baselines.Adversaries.random_partial ~p:0.25)
    in
    Sim.Checker.assert_ok ~inputs o
  done

let test_floodset_needs_t_plus_one () =
  (* With fewer than t+1 rounds FloodSet is breakable: n=4, t=2, a single
     flooding round. Both 0-holders crash mid-broadcast, delivering their
     value to process 1 only: process 0 ends with W = {1} and decides 1,
     process 1 ends with W = {0,1} and decides the default 0. *)
  let adversary =
    {
      Sim.Adversary.name = "split";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round = 1 then
            [
              Sim.Adversary.kill_after_send 2 ~recipients:[ 1 ];
              Sim.Adversary.kill_after_send 3 ~recipients:[ 1 ];
            ]
          else []);
    }
  in
  let inputs = [| 1; 1; 0; 0 |] in
  let o = run_floodset ~rounds_param:(Some 1) ~inputs ~t:2 ~seed:3 adversary in
  let v = Sim.Checker.check ~inputs o in
  check_bool "one round is not enough at t=2" false v.Sim.Checker.agreement;
  (* The same adversary against the full t+1 = 3 rounds is harmless. *)
  let o' = run_floodset ~inputs ~t:2 ~seed:3 adversary in
  Sim.Checker.assert_ok ~inputs o'

let test_floodset_default_value () =
  let o =
    run_floodset ~inputs:[| 0; 1 |] ~t:0 ~seed:4 Sim.Adversary.null
  in
  Alcotest.(check (option int)) "mixed inputs decide default 0" (Some 0)
    o.Sim.Engine.decisions.(0);
  let o' =
    Sim.Engine.run
      (Baselines.Floodset.protocol ~rounds:1 ~default:1 ())
      Sim.Adversary.null ~inputs:[| 0; 1 |] ~t:0 ~rng:(Prng.Rng.create 5)
  in
  Alcotest.(check (option int)) "custom default 1" (Some 1)
    o'.Sim.Engine.decisions.(0)

let test_floodset_invalid () =
  check_bool "rounds >= 1 enforced" true
    (try
       ignore (Baselines.Floodset.protocol ~rounds:0 ());
       false
     with Invalid_argument _ -> true)

(* --- Generic adversaries --------------------------------------------------- *)

let run_synran ~n ~t ~seed adversary =
  let protocol = Core.Synran.protocol n in
  let rng = Prng.Rng.create seed in
  let inputs = Sim.Runner.input_gen_random ~n rng in
  (inputs, Sim.Engine.run ~max_rounds:2000 protocol adversary ~inputs ~t ~rng)

let test_null_no_kills () =
  let _, o = run_synran ~n:16 ~t:8 ~seed:1 Sim.Adversary.null in
  check_int "no kills" 0 o.Sim.Engine.kills_used

let test_random_crash_respects_budget () =
  for seed = 1 to 10 do
    let _, o =
      run_synran ~n:24 ~t:5 ~seed (Baselines.Adversaries.random_crash ~p:0.5)
    in
    check_bool "kills within budget" true (o.Sim.Engine.kills_used <= 5)
  done

let test_random_crash_invalid_p () =
  check_bool "p out of range" true
    (try
       ignore (Baselines.Adversaries.random_crash ~p:1.5);
       false
     with Invalid_argument _ -> true)

let test_static_schedule_fires_once () =
  let adversary = Baselines.Adversaries.static_schedule [ (2, 3); (2, 4); (5, 0) ] in
  let _, o = run_synran ~n:16 ~t:16 ~seed:2 adversary in
  check_bool "at most three kills" true (o.Sim.Engine.kills_used <= 3)

let test_static_schedule_skips_dead () =
  (* Scheduling the same pid twice in different rounds: the second entry
     finds it dead and must be skipped. *)
  let adversary = Baselines.Adversaries.static_schedule [ (1, 0); (2, 0) ] in
  let _, o = run_synran ~n:8 ~t:8 ~seed:3 adversary in
  check_int "killed once" 1 o.Sim.Engine.kills_used

let test_static_random_budget () =
  for seed = 1 to 10 do
    let adversary =
      Baselines.Adversaries.static_random ~seed ~n:20 ~budget:6 ~horizon:4
    in
    let _, o = run_synran ~n:20 ~t:6 ~seed adversary in
    check_bool "within budget" true (o.Sim.Engine.kills_used <= 6)
  done

let test_crash_all_at () =
  let adversary = Baselines.Adversaries.crash_all_at ~round:1 in
  let _, o = run_synran ~n:12 ~t:5 ~seed:4 adversary in
  check_int "whole budget in one round" 5 o.Sim.Engine.kills_used

let test_drip () =
  let adversary = Baselines.Adversaries.drip ~per_round:2 in
  let inputs = Array.make 12 1 in
  let tr = Sim.Trace.create () in
  let o =
    Sim.Engine.run ~sink:(Sim.Trace.sink tr) (Core.Synran.protocol 12)
      adversary ~inputs ~t:7 ~rng:(Prng.Rng.create 5)
  in
  check_int "budget exhausted" 7 o.Sim.Engine.kills_used;
  List.iter
    (fun r ->
      check_bool "at most 2 kills per round" true
        (Array.length r.Sim.Trace.killed <= 2))
    (Sim.Trace.records tr)

let test_all_generic_adversaries_safe_for_synran () =
  (* SynRan (paper rules) must stay safe under every generic adversary. *)
  let adversaries ~n ~t ~seed =
    [
      Sim.Adversary.null;
      Baselines.Adversaries.random_crash ~p:0.1;
      Baselines.Adversaries.random_partial ~p:0.15;
      Baselines.Adversaries.static_random ~seed ~n ~budget:t ~horizon:6;
      Baselines.Adversaries.crash_all_at ~round:2;
      Baselines.Adversaries.drip ~per_round:1;
    ]
  in
  for seed = 1 to 6 do
    List.iter
      (fun adversary ->
        let inputs, o = run_synran ~n:20 ~t:19 ~seed adversary in
        Sim.Checker.assert_ok ~inputs o)
      (adversaries ~n:20 ~t:19 ~seed)
  done

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "baselines.floodset",
      [
        tc "exactly t+1 rounds" test_floodset_exact_rounds;
        tc "validity" test_floodset_validity;
        tc "agreement under partial kills" test_floodset_agreement_under_partial_kills;
        tc "one round fails at t=2" test_floodset_needs_t_plus_one;
        tc "default value" test_floodset_default_value;
        tc "invalid rounds" test_floodset_invalid;
      ] );
    ( "baselines.adversaries",
      [
        tc "null" test_null_no_kills;
        tc "random crash budget" test_random_crash_respects_budget;
        tc "random crash invalid p" test_random_crash_invalid_p;
        tc "static schedule" test_static_schedule_fires_once;
        tc "static schedule skips dead" test_static_schedule_skips_dead;
        tc "static random budget" test_static_random_budget;
        tc "crash all at" test_crash_all_at;
        tc "drip" test_drip;
        tc "all safe for synran" test_all_generic_adversaries_safe_for_synran;
      ] );
  ]

(* --- Early-stopping FloodSet -------------------------------------------------- *)

let early_stop_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let run ~inputs ~t ~seed adversary =
    Sim.Engine.run
      (Baselines.Early_stop.protocol ~rounds:(t + 1) ())
      adversary ~inputs ~t ~rng:(Prng.Rng.create seed)
  in
  let test_failure_free_two_rounds () =
    let inputs = Array.init 12 (fun i -> i land 1) in
    let o = run ~inputs ~t:9 ~seed:1 Sim.Adversary.null in
    Alcotest.(check (option int)) "two rounds, not t+1" (Some 2)
      o.Sim.Engine.rounds_to_decide;
    Sim.Checker.assert_ok ~inputs o
  in
  let test_drip_forces_late_decision () =
    (* One kill per round keeps the sender set changing: no clean round
       until the budget is gone. *)
    let inputs = Array.init 12 (fun i -> i land 1) in
    let o = run ~inputs ~t:5 ~seed:2 (Baselines.Adversaries.drip ~per_round:1) in
    (match o.Sim.Engine.rounds_to_decide with
    | Some r -> check_bool "later than 2" true (r >= 4)
    | None -> Alcotest.fail "must decide");
    Sim.Checker.assert_ok ~inputs o
  in
  let test_safety_under_partial_kills () =
    for seed = 1 to 25 do
      let n = 10 in
      let rng = Prng.Rng.create seed in
      let inputs = Sim.Runner.input_gen_random ~n rng in
      let t = 5 in
      let o =
        Sim.Engine.run
          (Baselines.Early_stop.protocol ~rounds:(t + 1) ())
          (Baselines.Adversaries.random_partial ~p:0.25)
          ~inputs ~t ~rng
      in
      Sim.Checker.assert_ok ~inputs o
    done
  in
  let test_never_beyond_t_plus_one () =
    let inputs = Array.init 8 (fun i -> i land 1) in
    let o = run ~inputs ~t:3 ~seed:3 (Baselines.Adversaries.drip ~per_round:1) in
    match o.Sim.Engine.rounds_to_decide with
    | Some r -> check_bool "bounded by t+1" true (r <= 4)
    | None -> Alcotest.fail "must decide"
  in
  ( "baselines.early-stop",
    [
      tc "failure-free: 2 rounds" test_failure_free_two_rounds;
      tc "drip delays the clean round" test_drip_forces_late_decision;
      tc "safe under partial kills" test_safety_under_partial_kills;
      tc "never beyond t+1" test_never_beyond_t_plus_one;
    ] )

let suites = suites @ [ early_stop_suite ]
