(* Unit tests for the simulator: round structure, fail-stop semantics
   (partial sends, permanent death), adversary validation, decision
   discipline, snapshot/reseed, runner, and checker. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A diagnostic protocol: every round, broadcast own pid; remember exactly
   who was heard from each round; decide own input after [decide_at]
   receives; halt one round after deciding. *)
type probe_state = {
  pid : int;
  input : int;
  decide_at : int;
  heard : int list list;  (* most recent first *)
  decision : int option;
  halted : bool;
}

let probe ?(decide_at = max_int) () =
  {
    Sim.Protocol.name = "probe";
    init =
      (fun ~n:_ ~pid ~input ->
        { pid; input; decide_at; heard = []; decision = None; halted = false });
    phase_a = (fun s _rng -> (s, s.pid));
    phase_b =
      (fun s ~round:_ ~received ->
        let senders = Array.to_list (Array.map fst received) in
        let rounds_done = List.length s.heard + 1 in
        let decision =
          if rounds_done >= s.decide_at then Some s.input else s.decision
        in
        let halted = s.decision <> None in
        { s with heard = senders :: s.heard; decision; halted });
    decision = (fun s -> s.decision);
    halted = (fun s -> s.halted);
    aggregate = None;
    bitops = None;
  }

let run_probe ?sink ?max_rounds ?(decide_at = max_int) ~inputs ~t adversary =
  Sim.Engine.run ?sink ?max_rounds (probe ~decide_at ()) adversary ~inputs ~t
    ~rng:(Prng.Rng.create 7)

let heard_at exec_states pid round_from_latest =
  List.nth (exec_states.(pid) : probe_state).heard round_from_latest

(* --- Engine basics ---------------------------------------------------- *)

let test_null_full_delivery () =
  let e =
    Sim.Engine.start (probe ()) ~inputs:[| 0; 1; 0; 1 |] ~t:0
      ~rng:(Prng.Rng.create 1)
  in
  (match Sim.Engine.step e Sim.Adversary.null with
  | `Continue -> ()
  | `Quiescent -> Alcotest.fail "should run");
  let states = Sim.Engine.states e in
  for pid = 0 to 3 do
    Alcotest.(check (list int))
      (Printf.sprintf "pid %d hears everyone" pid)
      [ 0; 1; 2; 3 ] (heard_at states pid 0)
  done

let test_own_message_always_received () =
  (* Kill pid 0 silently in round 1; everyone else loses its message, but a
     killed process is dead and no longer receives at all — here we check
     that a *surviving* process always hears itself even when others die. *)
  let adversary =
    {
      Sim.Adversary.name = "kill0";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round = 1 then [ Sim.Adversary.kill_silent 0 ]
          else []);
    }
  in
  let e =
    Sim.Engine.start (probe ()) ~inputs:[| 0; 1; 1 |] ~t:1
      ~rng:(Prng.Rng.create 2)
  in
  ignore (Sim.Engine.step e adversary);
  let states = Sim.Engine.states e in
  Alcotest.(check (list int)) "pid 1 hears 1 and 2 only" [ 1; 2 ]
    (heard_at states 1 0)

let test_partial_send () =
  (* Victim 0's last message reaches only pid 2. *)
  let adversary =
    {
      Sim.Adversary.name = "partial";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round = 1 then
            [ Sim.Adversary.kill_after_send 0 ~recipients:[ 2 ] ]
          else []);
    }
  in
  let e =
    Sim.Engine.start (probe ()) ~inputs:[| 1; 1; 1; 1 |] ~t:1
      ~rng:(Prng.Rng.create 3)
  in
  ignore (Sim.Engine.step e adversary);
  let states = Sim.Engine.states e in
  Alcotest.(check (list int)) "pid 1 missed it" [ 1; 2; 3 ] (heard_at states 1 0);
  Alcotest.(check (list int)) "pid 2 got it" [ 0; 1; 2; 3 ] (heard_at states 2 0);
  Alcotest.(check (list int)) "pid 3 missed it" [ 1; 2; 3 ] (heard_at states 3 0)

let test_dead_stay_dead () =
  let adversary =
    {
      Sim.Adversary.name = "kill0@1";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round = 1 then [ Sim.Adversary.kill_silent 0 ]
          else []);
    }
  in
  let e =
    Sim.Engine.start (probe ()) ~inputs:[| 1; 0; 0 |] ~t:1
      ~rng:(Prng.Rng.create 4)
  in
  ignore (Sim.Engine.step e adversary);
  ignore (Sim.Engine.step e adversary);
  ignore (Sim.Engine.step e adversary);
  let states = Sim.Engine.states e in
  (* Rounds 2 and 3: the dead pid 0 never appears again. *)
  Alcotest.(check (list int)) "round 3" [ 1; 2 ] (heard_at states 1 0);
  Alcotest.(check (list int)) "round 2" [ 1; 2 ] (heard_at states 1 1);
  let alive = Sim.Engine.alive e in
  check_bool "pid 0 dead" false alive.(0);
  check_int "one kill used" 1 (Sim.Engine.kills_used e)

let test_halted_stop_sending_and_receiving () =
  (* decide_at 1: everyone decides after round 1, halts after round 2
     (halt is one round after decision in the probe). *)
  let o = run_probe ~decide_at:1 ~inputs:[| 0; 0; 0 |] ~t:0 Sim.Adversary.null in
  check_bool "quiescent" true o.Sim.Engine.quiescent;
  Alcotest.(check (option int)) "decided at round 1" (Some 1)
    o.Sim.Engine.rounds_to_decide;
  check_int "two rounds executed (decide, then halt)" 2
    o.Sim.Engine.rounds_executed

let test_max_rounds_cap () =
  let o = run_probe ~max_rounds:5 ~inputs:[| 0; 1 |] ~t:0 Sim.Adversary.null in
  check_int "capped" 5 o.Sim.Engine.rounds_executed;
  check_bool "not quiescent" false o.Sim.Engine.quiescent;
  Alcotest.(check (option int)) "no decision" None o.Sim.Engine.rounds_to_decide

let test_outcome_fields () =
  let adversary =
    {
      Sim.Adversary.name = "kill1@2";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round = 2 then [ Sim.Adversary.kill_silent 1 ]
          else []);
    }
  in
  let o =
    run_probe ~decide_at:4 ~max_rounds:20 ~inputs:[| 1; 1; 0 |] ~t:2 adversary
  in
  check_int "kills used" 1 o.Sim.Engine.kills_used;
  check_bool "pid 1 faulty" true o.Sim.Engine.faulty.(1);
  check_bool "pid 0 not faulty" false o.Sim.Engine.faulty.(0);
  Alcotest.(check (option int)) "pid 1 never decided" None o.Sim.Engine.decisions.(1);
  Alcotest.(check (option int)) "pid 0 decided input" (Some 1)
    o.Sim.Engine.decisions.(0);
  Alcotest.(check (option int)) "all non-faulty decided at 4" (Some 4)
    o.Sim.Engine.rounds_to_decide

let test_all_dead_vacuous_termination () =
  let adversary =
    {
      Sim.Adversary.name = "kill-everyone";
      plan =
        (fun view _ ->
          Sim.Adversary.active_pids view |> List.map Sim.Adversary.kill_silent);
    }
  in
  let o = run_probe ~inputs:[| 0; 1 |] ~t:2 adversary in
  check_bool "quiescent" true o.Sim.Engine.quiescent;
  Alcotest.(check (option int)) "vacuous termination" (Some 1)
    o.Sim.Engine.rounds_to_decide

(* --- Adversary validation --------------------------------------------- *)

let test_budget_enforced () =
  let adversary =
    {
      Sim.Adversary.name = "greedy";
      plan =
        (fun view _ ->
          Sim.Adversary.active_pids view |> List.map Sim.Adversary.kill_silent);
    }
  in
  check_bool "raises Budget_exceeded" true
    (try
       ignore (run_probe ~inputs:[| 0; 1; 0 |] ~t:1 adversary);
       false
     with Sim.Engine.Budget_exceeded _ -> true)

let test_invalid_victim () =
  let dead_killer =
    {
      Sim.Adversary.name = "kill0-twice";
      plan = (fun _ _ -> [ Sim.Adversary.kill_silent 0; Sim.Adversary.kill_silent 0 ]);
    }
  in
  check_bool "duplicate victim rejected" true
    (try
       ignore (run_probe ~inputs:[| 0; 1; 0 |] ~t:3 dead_killer);
       false
     with Sim.Engine.Invalid_kill _ -> true);
  let out_of_range =
    {
      Sim.Adversary.name = "kill99";
      plan = (fun _ _ -> [ Sim.Adversary.kill_silent 99 ]);
    }
  in
  check_bool "out-of-range victim rejected" true
    (try
       ignore (run_probe ~inputs:[| 0; 1 |] ~t:2 out_of_range);
       false
     with Sim.Engine.Invalid_kill _ -> true);
  let bad_recipient =
    {
      Sim.Adversary.name = "bad-recipient";
      plan = (fun _ _ -> [ Sim.Adversary.kill_after_send 0 ~recipients:[ 42 ] ]);
    }
  in
  check_bool "out-of-range recipient rejected" true
    (try
       ignore (run_probe ~inputs:[| 0; 1 |] ~t:2 bad_recipient);
       false
     with Sim.Engine.Invalid_kill _ -> true)

(* Every engine validates a plan with the same shared rules: each bad
   plan must raise the same exception, with the same message, on concrete,
   bitkernel and cohort. SynRan runs on all three. *)
let test_bad_plans_fail_alike () =
  let n = 8 in
  let protocol = Core.Synran.protocol n in
  let inputs = [| 0; 1; 0; 1; 1; 0; 0; 1 |] in
  let raised run =
    match run () with
    | (_ : Sim.Engine.outcome) -> "no exception"
    | exception Sim.Engine.Invalid_kill m -> "Invalid_kill: " ^ m
    | exception Sim.Engine.Budget_exceeded m -> "Budget_exceeded: " ^ m
  in
  let plans =
    [
      ("victim out of range", n, (fun _ -> [ Sim.Adversary.kill_silent 99 ]),
        "Invalid_kill: victim 99 out of range");
      ( "victim not active",
        n,
        (* Process 3 dies in round 1, so naming it in round 2 is invalid. *)
        (fun _ -> [ Sim.Adversary.kill_silent 3 ]),
        "Invalid_kill: victim 3 is not active" );
      ( "victim named twice",
        n,
        (fun _ -> [ Sim.Adversary.kill_silent 2; Sim.Adversary.kill_silent 2 ]),
        "Invalid_kill: victim 2 named twice" );
      ( "recipient out of range",
        n,
        (fun _ -> [ Sim.Adversary.kill_after_send 0 ~recipients:[ 1; 42 ] ]),
        "Invalid_kill: recipient 42 out of range" );
      ( "over budget",
        1,
        (fun _ -> [ Sim.Adversary.kill_silent 0; Sim.Adversary.kill_silent 1 ]),
        "Budget_exceeded: round 1: 2 kills requested, 1 left" );
      (* Precedence: each kill is checked in plan order, victim range,
         then liveness, then repetition, then its recipients; the budget
         only once the whole plan passed. *)
      ( "inactive before named twice",
        n,
        (fun v ->
          if v.Sim.Adversary.round = 1 then [ Sim.Adversary.kill_silent 3 ]
          else Sim.Adversary.[ kill_silent 2; kill_silent 3; kill_silent 2 ]),
        "Invalid_kill: victim 3 is not active" );
      ( "named twice before its recipients",
        n,
        (fun _ ->
          Sim.Adversary.
            [ kill_silent 2; kill_after_send 2 ~recipients:[ 42 ] ]),
        "Invalid_kill: victim 2 named twice" );
      ( "recipients before a later victim",
        n,
        (fun _ ->
          Sim.Adversary.
            [ kill_after_send 1 ~recipients:[ -1 ]; kill_silent 99 ]),
        "Invalid_kill: recipient -1 out of range" );
      ( "out-of-range victim before budget",
        1,
        (fun _ -> Sim.Adversary.[ kill_silent 0; kill_silent 1; kill_silent 8 ]),
        "Invalid_kill: victim 8 out of range" );
      ( "named twice before budget",
        1,
        (fun _ -> Sim.Adversary.[ kill_silent 0; kill_silent 1; kill_silent 1 ]),
        "Invalid_kill: victim 1 named twice" );
    ]
  in
  List.iter
    (fun (what, t, kills, expected) ->
      let adversary = { Sim.Adversary.name = what; plan = (fun v _ -> kills v) } in
      let rng () = Prng.Rng.create 11 in
      let concrete =
        raised (fun () -> Sim.Engine.run protocol adversary ~inputs ~t ~rng:(rng ()))
      in
      let bitkernel =
        raised (fun () ->
            Sim.Bitkernel.run protocol adversary ~inputs ~t ~rng:(rng ()))
      in
      let cohort =
        raised (fun () ->
            Sim.Cohort.run protocol (Sim.Cohort.Concrete adversary) ~inputs ~t
              ~rng:(rng ()))
      in
      Alcotest.(check string) (what ^ ": concrete") expected concrete;
      Alcotest.(check string) (what ^ ": bitkernel") expected bitkernel;
      Alcotest.(check string) (what ^ ": cohort") expected cohort)
    plans

(* --- Protocol discipline ----------------------------------------------- *)

(* A buggy protocol that flips its decision every round. *)
let flip_flop =
  {
    Sim.Protocol.name = "flip-flop";
    init = (fun ~n:_ ~pid:_ ~input:_ -> 0);
    phase_a = (fun s _ -> (s, ()));
    phase_b = (fun s ~round:_ ~received:_ -> s + 1);
    decision = (fun s -> Some (s mod 2));
    halted = (fun _ -> false);
    aggregate = None;
    bitops = None;
  }

let test_decision_change_detected () =
  check_bool "raises Decision_changed" true
    (try
       ignore
         (Sim.Engine.run flip_flop Sim.Adversary.null ~inputs:[| 0; 0 |] ~t:0
            ~rng:(Prng.Rng.create 5));
       false
     with Sim.Engine.Decision_changed _ -> true)

let halt_without_decide =
  {
    Sim.Protocol.name = "halt-no-decide";
    init = (fun ~n:_ ~pid:_ ~input:_ -> ());
    phase_a = (fun s _ -> (s, ()));
    phase_b = (fun s ~round:_ ~received:_ -> s);
    decision = (fun _ -> None);
    halted = (fun _ -> true);
    aggregate = None;
    bitops = None;
  }

let test_halt_without_decision_detected () =
  check_bool "raises Decision_changed" true
    (try
       ignore
         (Sim.Engine.run halt_without_decide Sim.Adversary.null
            ~inputs:[| 0; 0 |] ~t:0 ~rng:(Prng.Rng.create 6));
       false
     with Sim.Engine.Decision_changed _ -> true)

let test_engine_input_validation () =
  check_bool "bad input bit" true
    (try
       ignore
         (Sim.Engine.start (probe ()) ~inputs:[| 0; 2 |] ~t:0
            ~rng:(Prng.Rng.create 7));
       false
     with Invalid_argument _ -> true);
  check_bool "bad budget" true
    (try
       ignore
         (Sim.Engine.start (probe ()) ~inputs:[| 0; 1 |] ~t:3
            ~rng:(Prng.Rng.create 7));
       false
     with Invalid_argument _ -> true)

(* --- Snapshot / reseed -------------------------------------------------- *)

(* A coin protocol: each process decides its first coin flip at round 1. *)
let coin_protocol =
  {
    Sim.Protocol.name = "coin";
    init = (fun ~n:_ ~pid:_ ~input:_ -> None);
    phase_a =
      (fun s rng ->
        match s with
        | None -> (Some (Prng.Rng.bit rng), ())
        | Some _ -> (s, ()));
    phase_b = (fun s ~round:_ ~received:_ -> s);
    decision = (fun s -> s);
    halted = (fun s -> Option.is_some s);
    aggregate = None;
    bitops = None;
  }

let decisions_key o =
  Array.to_list o.Sim.Engine.decisions
  |> List.map (function None -> "-" | Some v -> string_of_int v)
  |> String.concat ""

let test_snapshot_independent () =
  let e =
    Sim.Engine.start (probe ()) ~inputs:[| 0; 1; 0 |] ~t:0
      ~rng:(Prng.Rng.create 8)
  in
  ignore (Sim.Engine.step e Sim.Adversary.null);
  let c = Sim.Engine.snapshot e in
  ignore (Sim.Engine.step c Sim.Adversary.null);
  ignore (Sim.Engine.step c Sim.Adversary.null);
  check_int "original unchanged" 1 (Sim.Engine.round e);
  check_int "copy advanced" 3 (Sim.Engine.round c)

let test_snapshot_replays_same_coins () =
  let e =
    Sim.Engine.start coin_protocol ~inputs:(Array.make 16 0) ~t:0
      ~rng:(Prng.Rng.create 9)
  in
  let c = Sim.Engine.snapshot e in
  Sim.Engine.run_until e Sim.Adversary.null ~max_rounds:3;
  Sim.Engine.run_until c Sim.Adversary.null ~max_rounds:3;
  Alcotest.(check string) "same coins"
    (decisions_key (Sim.Engine.outcome e))
    (decisions_key (Sim.Engine.outcome c))

(* Kill validation stamps each victim with the round, and a snapshot steps
   the same round as its original (the Monte-Carlo valency continuations
   do), so the copy needs its own stamps: a victim the copy names must not
   read as already named when the original names it, in either order. *)
let test_snapshot_stamps_own () =
  let n = 8 in
  let protocol = Core.Synran.protocol n in
  let kill pids =
    {
      Sim.Adversary.name = "kill";
      plan = (fun _ _ -> List.map Sim.Adversary.kill_silent pids);
    }
  in
  let e =
    Sim.Engine.start protocol ~inputs:(Array.make n 0) ~t:4
      ~rng:(Prng.Rng.create 3)
  in
  (* A kill round first, so the original's stamps exist before the copy. *)
  ignore (Sim.Engine.step e (kill [ 0 ]));
  let c = Sim.Engine.snapshot e in
  ignore (Sim.Engine.step c (kill [ 5; 6 ]));
  ignore (Sim.Engine.step e (kill [ 5; 6 ]));
  let c' = Sim.Engine.snapshot e in
  ignore (Sim.Engine.step e (kill [ 7 ]));
  ignore (Sim.Engine.step c' (kill [ 7 ]));
  List.iter
    (fun (what, x, dead) ->
      Alcotest.(check (list bool))
        (what ^ ": faulty")
        (List.init n (fun i -> List.mem i dead))
        (Array.to_list (Sim.Engine.outcome x).Sim.Engine.faulty))
    [
      ("original", e, [ 0; 5; 6; 7 ]);
      ("first copy", c, [ 0; 5; 6 ]);
      ("second copy", c', [ 0; 5; 6; 7 ]);
    ]

(* [run] hands its ledger's arrays to the outcome, but an exec that lives
   on must not: stepping it after [outcome] leaves that outcome as it was. *)
let test_live_outcome_copies () =
  let e =
    Sim.Engine.start coin_protocol ~inputs:(Array.make 8 0) ~t:0
      ~rng:(Prng.Rng.create 9)
  in
  let before = Sim.Engine.outcome e in
  Sim.Engine.run_until e Sim.Adversary.null ~max_rounds:3;
  Alcotest.(check string) "decisions untouched" "--------"
    (decisions_key before);
  check_bool "halted untouched" true
    (Array.for_all not before.Sim.Engine.halted);
  check_bool "the exec moved on" true
    (Array.for_all Fun.id (Sim.Engine.outcome e).Sim.Engine.halted)

(* Snapshot mid-run under voting band control, reseed the copy so the two
   executions diverge, then step the original and the copy alternately
   through the kill rounds that follow, whose partial sends go through each
   execution's own delivery scratch. Each must finish exactly like an
   un-snapshotted run from the same state: the original like a run from
   the start, the copy like a twin execution reseeded at the same round.
   Band control keeps per-run trackers, so every execution gets its own
   adversary, brought to the snapshot round by the same views. *)
let test_snapshot_through_kill_rounds () =
  let n = 64 and split = 2 and max_rounds = 500 in
  let protocol = Core.Synran.protocol n in
  let inputs = Prng.Sample.random_bits (Prng.Rng.create 5) n in
  let prefix ?sink () =
    let x =
      Sim.Engine.start ?sink protocol ~inputs ~t:(n - 1)
        ~rng:(Prng.Rng.create 6)
    in
    let adv =
      Core.Lb_adversary.band_control ~config:Core.Lb_adversary.voting_config
        ~rules:Core.Onesided.paper ~bit_of_msg:Core.Synran.bit_of_msg ()
    in
    Sim.Engine.run_until x adv ~max_rounds:split;
    (x, adv)
  in
  let e, be = prefix () in
  let _, bc = prefix () in
  let c = Sim.Engine.snapshot e in
  Sim.Engine.reseed c (Prng.Rng.create 77);
  let live x adv =
    Sim.Engine.round x < max_rounds && Sim.Engine.step x adv = `Continue
  in
  let rec alternate () =
    let a = live e be in
    let b = live c bc in
    if a || b then alternate ()
  in
  alternate ();
  let reference_trace = Sim.Trace.create () in
  let reference, br = prefix ~sink:(Sim.Trace.sink reference_trace) () in
  Sim.Engine.run_until reference br ~max_rounds;
  let twin_trace = Sim.Trace.create () in
  let twin, bt = prefix ~sink:(Sim.Trace.sink twin_trace) () in
  Sim.Engine.reseed twin (Prng.Rng.create 77);
  Sim.Engine.run_until twin bt ~max_rounds;
  let partial_kill_rounds tr =
    List.length
      (List.filter
         (fun r -> r.Sim.Trace.round > split && r.Sim.Trace.partial_sends > 0)
         (Sim.Trace.records tr))
  in
  check_bool "original: partial-send kill rounds after the snapshot" true
    (partial_kill_rounds reference_trace > 0);
  check_bool "copy: partial-send kill rounds after the snapshot" true
    (partial_kill_rounds twin_trace > 0);
  check_bool "the reseeded copy diverged" false
    (Sim.Engine.states e = Sim.Engine.states c);
  let same x y =
    Sim.Engine.outcome x = Sim.Engine.outcome y
    && Sim.Engine.states x = Sim.Engine.states y
  in
  check_bool "original = un-snapshotted run" true (same e reference);
  check_bool "copy = un-snapshotted reseeded twin" true (same c twin)

let test_reseed_changes_coins () =
  let e =
    Sim.Engine.start coin_protocol ~inputs:(Array.make 64 0) ~t:0
      ~rng:(Prng.Rng.create 10)
  in
  let c = Sim.Engine.snapshot e in
  Sim.Engine.reseed c (Prng.Rng.create 999);
  Sim.Engine.run_until e Sim.Adversary.null ~max_rounds:3;
  Sim.Engine.run_until c Sim.Adversary.null ~max_rounds:3;
  check_bool "coins resampled" false
    (decisions_key (Sim.Engine.outcome e) = decisions_key (Sim.Engine.outcome c))

(* --- Runner -------------------------------------------------------------- *)

let test_runner_reproducible () =
  let protocol = Core.Synran.protocol 16 in
  let run () =
    Sim.Runner.run_trials ~trials:20 ~seed:5
      ~gen_inputs:(Sim.Runner.input_gen_random ~n:16)
      ~t:8 protocol (fun () -> Baselines.Adversaries.random_crash ~p:0.1)
  in
  let a = run () and b = run () in
  Alcotest.(check (float 1e-12))
    "same mean rounds" (Sim.Runner.mean_rounds a) (Sim.Runner.mean_rounds b);
  check_int "same zero-decisions" a.Sim.Runner.decided_zero b.Sim.Runner.decided_zero

let test_runner_counts () =
  let protocol = Core.Synran.protocol 8 in
  let s =
    Sim.Runner.run_trials ~trials:25 ~seed:6
      ~gen_inputs:(Sim.Runner.input_gen_const ~n:8 1)
      ~t:0 protocol (fun () -> Sim.Adversary.null)
  in
  check_int "trials" 25 s.Sim.Runner.trials;
  check_int "all decided one" 25 s.Sim.Runner.decided_one;
  check_int "none decided zero" 0 s.Sim.Runner.decided_zero;
  check_int "all terminated" 0 s.Sim.Runner.non_terminating;
  Alcotest.(check (list string)) "no safety errors" [] s.Sim.Runner.safety_errors

let test_input_generators () =
  let rng = Prng.Rng.create 11 in
  let split = Sim.Runner.input_gen_split ~n:10 rng in
  check_int "split has five ones" 5 (Array.fold_left ( + ) 0 split);
  let const = Sim.Runner.input_gen_const ~n:4 1 rng in
  Alcotest.(check (list int)) "const ones" [ 1; 1; 1; 1 ] (Array.to_list const);
  let random = Sim.Runner.input_gen_random ~n:100 rng in
  check_int "random length" 100 (Array.length random)

(* --- Checker ---------------------------------------------------------------- *)

let outcome_with ~decisions ~faulty =
  {
    Sim.Engine.rounds_executed = 5;
    rounds_to_decide = Some 5;
    decisions;
    faulty;
    halted = Array.map (fun d -> Option.is_some d) decisions;
    kills_used = 0;
    quiescent = true;
  }

let test_checker_agreement_violation () =
  let o =
    outcome_with
      ~decisions:[| Some 0; Some 1; Some 0 |]
      ~faulty:[| false; false; false |]
  in
  let v = Sim.Checker.check ~inputs:[| 0; 1; 0 |] o in
  check_bool "agreement flagged" false v.Sim.Checker.agreement;
  check_bool "not ok" false (Sim.Checker.ok v)

let test_checker_strict_vs_lenient () =
  (* The disagreeing process is faulty: strict flags it, lenient does not. *)
  let o =
    outcome_with
      ~decisions:[| Some 0; Some 1; Some 0 |]
      ~faulty:[| false; true; false |]
  in
  let strict = Sim.Checker.check ~inputs:[| 0; 1; 0 |] o in
  check_bool "strict flags faulty decider" false strict.Sim.Checker.agreement;
  let lenient = Sim.Checker.check ~strict:false ~inputs:[| 0; 1; 0 |] o in
  check_bool "lenient ignores faulty decider" true lenient.Sim.Checker.agreement

let test_checker_validity_violation () =
  let o =
    outcome_with
      ~decisions:[| Some 0; Some 0 |]
      ~faulty:[| false; false |]
  in
  let v = Sim.Checker.check ~inputs:[| 1; 1 |] o in
  check_bool "validity flagged" false v.Sim.Checker.validity;
  (* Mixed inputs: any common decision is valid. *)
  let v' = Sim.Checker.check ~inputs:[| 0; 1 |] o in
  check_bool "mixed inputs ok" true v'.Sim.Checker.validity

let test_checker_termination_violation () =
  let o =
    outcome_with ~decisions:[| Some 1; None |] ~faulty:[| false; false |]
  in
  let v = Sim.Checker.check ~inputs:[| 1; 1 |] o in
  check_bool "termination flagged" false v.Sim.Checker.termination;
  (* If the undecided process is faulty, termination is satisfied. *)
  let o' = outcome_with ~decisions:[| Some 1; None |] ~faulty:[| false; true |] in
  let v' = Sim.Checker.check ~inputs:[| 1; 1 |] o' in
  check_bool "faulty excluded" true v'.Sim.Checker.termination

let test_checker_assert_ok () =
  let o = outcome_with ~decisions:[| Some 1; Some 1 |] ~faulty:[| false; false |] in
  Sim.Checker.assert_ok ~inputs:[| 1; 1 |] o;
  let bad = outcome_with ~decisions:[| Some 0; Some 0 |] ~faulty:[| false; false |] in
  check_bool "assert_ok raises" true
    (try
       Sim.Checker.assert_ok ~inputs:[| 1; 1 |] bad;
       false
     with Failure _ -> true)

(* Hand-built outcomes of random size, decisions and faults: two
   disagreeing deciders must fail agreement, a decision other than a
   unanimous input must fail validity, and a clean outcome must pass. *)
let checker_property =
  QCheck.Test.make ~name:"checker flags disagreement and invalidity, passes clean"
    ~count:300
    QCheck.(pair (int_range 2 8) small_nat)
    (fun (n, seed) ->
      let rng = Prng.Rng.create seed in
      let bit () = Prng.Rng.bit rng in
      let faulty = Array.init n (fun _ -> Prng.Rng.int rng 4 = 0) in
      let some_decisions () =
        Array.init n (fun _ -> if bit () = 1 then Some (bit ()) else None)
      in
      let check ~inputs decisions =
        Sim.Checker.check ~inputs (outcome_with ~decisions ~faulty)
      in
      let inputs = Array.init n (fun _ -> bit ()) in
      let i = Prng.Rng.int rng n in
      let j = (i + 1 + Prng.Rng.int rng (n - 1)) mod n in
      let disagree = some_decisions () in
      disagree.(i) <- Some 0;
      disagree.(j) <- Some 1;
      let v = bit () in
      let invalid = some_decisions () in
      invalid.(i) <- Some (1 - v);
      let w = inputs.(j) in
      let clean = Array.map (fun f -> if f && bit () = 1 then None else Some w) faulty in
      (not (check ~inputs disagree).Sim.Checker.agreement)
      && (not (check ~inputs:(Array.make n v) invalid).Sim.Checker.validity)
      && Sim.Checker.ok (check ~inputs clean))

(* --- Trace ------------------------------------------------------------------- *)

let test_trace_records () =
  let adversary =
    {
      Sim.Adversary.name = "kill1@1-partial";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round = 1 then
            [ Sim.Adversary.kill_after_send 1 ~recipients:[ 0 ] ]
          else []);
    }
  in
  let tr = Sim.Trace.create () in
  ignore
    (run_probe ~sink:(Sim.Trace.sink tr) ~decide_at:2 ~inputs:[| 1; 1; 1 |]
       ~t:1 adversary);
  let records = Sim.Trace.records tr in
  check_int "total kills" 1
    (List.fold_left
       (fun acc r -> acc + Array.length r.Sim.Trace.killed)
       0 records);
  let r1 = List.hd records in
  check_int "round 1 actives" 3 r1.Sim.Trace.active_before;
  Alcotest.(check (list int)) "round 1 victims" [ 1 ]
    (Array.to_list r1.Sim.Trace.killed);
  check_int "partial send counted" 1 r1.Sim.Trace.partial_sends;
  (* 2 survivors get (self + other + partial-to-0): pid0 gets 0,1,2 = 3;
     pid2 gets 2,0 = 2... plus own always: total = 5. *)
  check_int "deliveries" 5 r1.Sim.Trace.messages_delivered;
  check_bool "render non-empty" true (String.length (Sim.Trace.render tr) > 0)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "sim.engine",
      [
        tc "null adversary full delivery" test_null_full_delivery;
        tc "own message always received" test_own_message_always_received;
        tc "partial send" test_partial_send;
        tc "dead stay dead" test_dead_stay_dead;
        tc "halted stop participating" test_halted_stop_sending_and_receiving;
        tc "max rounds cap" test_max_rounds_cap;
        tc "outcome fields" test_outcome_fields;
        tc "all dead is vacuous termination" test_all_dead_vacuous_termination;
      ] );
    ( "sim.adversary-validation",
      [
        tc "budget enforced" test_budget_enforced;
        tc "invalid kills rejected" test_invalid_victim;
        tc "bad plans fail alike on every engine" test_bad_plans_fail_alike;
      ] );
    ( "sim.protocol-discipline",
      [
        tc "decision change detected" test_decision_change_detected;
        tc "halt without decision detected" test_halt_without_decision_detected;
        tc "input validation" test_engine_input_validation;
      ] );
    ( "sim.snapshot",
      [
        tc "snapshot independent" test_snapshot_independent;
        tc "snapshot replays coins" test_snapshot_replays_same_coins;
        tc "reseed changes coins" test_reseed_changes_coins;
        tc "snapshot through kill rounds" test_snapshot_through_kill_rounds;
        tc "snapshot has its own kill stamps" test_snapshot_stamps_own;
        tc "live outcome is a copy" test_live_outcome_copies;
      ] );
    ( "sim.runner",
      [
        tc "reproducible" test_runner_reproducible;
        tc "counts" test_runner_counts;
        tc "input generators" test_input_generators;
      ] );
    ( "sim.checker",
      [
        tc "agreement violation" test_checker_agreement_violation;
        tc "strict vs lenient" test_checker_strict_vs_lenient;
        tc "validity violation" test_checker_validity_violation;
        tc "termination violation" test_checker_termination_violation;
        tc "assert_ok" test_checker_assert_ok;
        QCheck_alcotest.to_alcotest checker_property;
      ] );
    ("sim.trace", [ tc "records" test_trace_records ]);
  ]

(* --- Trace CSV export --------------------------------------------------------- *)

let csv_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let test_to_csv () =
    let tr = Sim.Trace.create () in
    ignore
      (run_probe ~sink:(Sim.Trace.sink tr) ~decide_at:2 ~inputs:[| 1; 0; 1 |]
         ~t:0 Sim.Adversary.null);
    let csv = Sim.Trace.to_csv tr in
    let lines = String.split_on_char '\n' csv in
    Alcotest.(check int) "header + one line per round"
      (List.length (Sim.Trace.records tr) + 1) (List.length lines);
    Alcotest.(check string) "header"
      "round,active,kills,partial_sends,delivered,newly_decided,newly_halted,ones_pending"
      (List.hd lines);
    (* Round 1: 3 actives, 9 deliveries, no kills; no observer, so the
       ones_pending cell is empty. *)
    Alcotest.(check string) "round 1 row" "1,3,0,0,9,0,0,"
      (List.nth lines 1)
  in
  ("sim.trace-csv", [ tc "to_csv" test_to_csv ])

let suites = suites @ [ csv_suite ]

(* --- The trial fold on the parallel pool --------------------------------- *)

let parallel_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  (* A plain all-or-nothing fold over trials [0 .. trials-1]. *)
  let fold ?jobs ?chunk_size ~trials ~create ~merge run =
    Sim.Runner.value
      (Sim.Runner.fold ?jobs ?chunk_size ~engine:"test" ~trials ~create ~merge
         (fun ~index _ acc -> run index acc))
  in
  let test_fold_sum_invariant () =
    (* The same fold over 0..99 for every (jobs, chunk_size) combination. *)
    let expected = 100 * 99 / 2 in
    List.iter
      (fun jobs ->
        List.iter
          (fun chunk_size ->
            let r =
              fold ~jobs ~chunk_size ~trials:100
                ~create:(fun () -> ref 0)
                ~merge:(fun a b ->
                  a := !a + !b;
                  a)
                (fun i acc -> acc := !acc + i)
            in
            check_int
              (Printf.sprintf "sum 0..99 (jobs=%d chunk=%d)" jobs chunk_size)
              expected !r)
          [ 1; 3; 8; 100 ])
      [ 1; 2; 4 ]
  in
  let test_fold_float_bit_identical () =
    (* Welford moments are a non-associative float fold; fixed chunk
       boundaries and in-order merging must make every worker count agree
       bit for bit, not just approximately. *)
    let run jobs =
      fold ~jobs ~trials:257 ~create:Stats.Welford.create
        ~merge:Stats.Welford.merge (fun i w ->
          Stats.Welford.add w (sin (float_of_int i) *. 1e3))
    in
    let base = run 1 in
    List.iter
      (fun jobs ->
        let w = run jobs in
        check_bool
          (Printf.sprintf "mean (jobs=%d)" jobs)
          true
          (Stats.Welford.mean base = Stats.Welford.mean w);
        check_bool
          (Printf.sprintf "variance (jobs=%d)" jobs)
          true
          (Stats.Welford.variance base = Stats.Welford.variance w))
      [ 2; 4 ]
  in
  let test_empty_and_invalid () =
    let rejects what ~trials ~chunk_size =
      Alcotest.check_raises what (Invalid_argument what) (fun () ->
          fold ~chunk_size ~trials
            ~create:(fun () -> ())
            ~merge:(fun () () -> ())
            (fun _ () -> Alcotest.fail "trial run by a rejected fold"))
    in
    rejects "Runner.fold: trials must be positive" ~trials:0 ~chunk_size:8;
    rejects "Runner.fold: trials must be positive" ~trials:(-1) ~chunk_size:8;
    rejects "Runner.fold: chunk_size" ~trials:4 ~chunk_size:0
  in
  let test_exception_propagates () =
    List.iter
      (fun jobs ->
        check_bool
          (Printf.sprintf "worker failure re-raised (jobs=%d)" jobs)
          true
          (try
             fold ~jobs ~chunk_size:2 ~trials:40
               ~create:(fun () -> ())
               ~merge:(fun () () -> ())
               (fun i () -> if i = 13 then failwith "boom");
             false
           with Failure m -> m = "boom"))
      [ 1; 4 ]
  in
  let test_pool_claims () =
    (* The pool entry under the fold: every task index runs exactly once,
       a task reporting failure stops new claims, and [cancel] is
       reported back. *)
    let runs ?(cancel = fun () -> false) ~jobs ~tasks ok =
      let ran = Array.init tasks (fun _ -> Atomic.make 0) in
      let cancelled =
        Sim.Parallel.run_workers ~jobs ~tasks ~cancel (fun k ->
            Atomic.incr ran.(k);
            ok k)
      in
      (cancelled, Array.map Atomic.get ran)
    in
    List.iter
      (fun jobs ->
        let cancelled, ran = runs ~jobs ~tasks:50 (fun _ -> true) in
        check_bool (Printf.sprintf "not cancelled (jobs=%d)" jobs) false
          cancelled;
        Array.iteri
          (fun k n -> check_int (Printf.sprintf "task %d (jobs=%d)" k jobs) 1 n)
          ran;
        let _, ran = runs ~jobs ~tasks:50 (fun k -> k <> 5) in
        Array.iteri
          (fun k n ->
            if k <= 5 then
              check_int (Printf.sprintf "claimed before poison %d" k) 1 n
            else check_bool (Printf.sprintf "at most once %d" k) true (n <= 1))
          ran)
      [ 1; 2; 4 ];
    let _, ran = runs ~jobs:1 ~tasks:50 (fun k -> k <> 5) in
    check_int "no claim after poison (jobs=1)" 6
      (Array.fold_left ( + ) 0 ran);
    let polls = ref 0 in
    let cancelled, ran =
      runs ~jobs:1 ~tasks:50
        ~cancel:(fun () ->
          incr polls;
          !polls > 3)
        (fun _ -> true)
    in
    check_bool "cancel reported" true cancelled;
    check_int "claims before cancel" 3 (Array.fold_left ( + ) 0 ran)
  in
  ( "sim.parallel",
    [
      tc "pool runs each claimed task once" test_pool_claims;
      tc "fold invariant under jobs and chunk size" test_fold_sum_invariant;
      tc "float folds bit-identical across jobs" test_fold_float_bit_identical;
      tc "empty and invalid arguments" test_empty_and_invalid;
      tc "worker exception propagates" test_exception_propagates;
    ] )

(* --- Parallel / sequential runner equivalence ----------------------------------- *)

let summaries_identical name (a : Sim.Runner.summary) (b : Sim.Runner.summary) =
  let float_eq tag get =
    check_bool (name ^ ": " ^ tag) true
      (let x = get a and y = get b in
       x = y || (Float.is_nan x && Float.is_nan y))
  in
  check_int (name ^ ": trials") a.Sim.Runner.trials b.Sim.Runner.trials;
  float_eq "mean rounds" (fun s -> Stats.Welford.mean s.Sim.Runner.rounds);
  float_eq "rounds variance" (fun s ->
      Stats.Welford.variance s.Sim.Runner.rounds);
  float_eq "mean kills" (fun s -> Stats.Welford.mean s.Sim.Runner.kills);
  Alcotest.(check (list (pair int int)))
    (name ^ ": histogram bins")
    (Stats.Histogram.bins a.Sim.Runner.rounds_hist)
    (Stats.Histogram.bins b.Sim.Runner.rounds_hist);
  check_int (name ^ ": decided zero") a.Sim.Runner.decided_zero
    b.Sim.Runner.decided_zero;
  check_int (name ^ ": decided one") a.Sim.Runner.decided_one
    b.Sim.Runner.decided_one;
  check_int (name ^ ": non-terminating") a.Sim.Runner.non_terminating
    b.Sim.Runner.non_terminating;
  Alcotest.(check (list string))
    (name ^ ": safety errors")
    a.Sim.Runner.safety_errors b.Sim.Runner.safety_errors

let runner_parallel_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let grid_case ~label ~n ~t ~trials ~seeds make_adversary () =
    List.iter
      (fun seed ->
        let run jobs =
          Sim.Runner.run_trials ~max_rounds:2000 ~jobs ~trials ~seed
            ~gen_inputs:(Sim.Runner.input_gen_random ~n)
            ~t (Core.Synran.protocol n) make_adversary
        in
        let base = run 1 in
        List.iter
          (fun jobs ->
            summaries_identical
              (Printf.sprintf "%s n=%d t=%d seed=%d jobs=%d" label n t seed
                 jobs)
              base (run jobs))
          [ 2; 4 ])
      seeds
  in
  ( "sim.runner-parallel",
    [
      tc "null adversary grid"
        (grid_case ~label:"null" ~n:16 ~t:0 ~trials:24 ~seeds:[ 1; 2 ]
           (fun () -> Sim.Adversary.null));
      tc "random-crash grid"
        (grid_case ~label:"crash" ~n:16 ~t:8 ~trials:20 ~seeds:[ 3; 9 ]
           (fun () -> Baselines.Adversaries.random_crash ~p:0.1));
      tc "stateful band-control grid"
        (grid_case ~label:"band" ~n:24 ~t:23 ~trials:10 ~seeds:[ 5 ] (fun () ->
             Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
               ~bit_of_msg:Core.Synran.bit_of_msg ()));
    ] )

(* --- Safety-error ordering across a multi-error trial --------------------------- *)

(* Every process decides (own pid mod 2) under unanimous-1 inputs, producing
   two agreement violations and two validity violations in one trial. The
   runner must report them per trial in Checker order (agreement before
   validity, ascending pid) — the old accumulator reversed them. *)
type disagree_state = { dpid : int; ddecided : bool; dhalted : bool }

let disagree_protocol =
  {
    Sim.Protocol.name = "disagree";
    init =
      (fun ~n:_ ~pid ~input:_ ->
        { dpid = pid; ddecided = false; dhalted = false });
    phase_a = (fun s _rng -> (s, 0));
    phase_b =
      (fun s ~round:_ ~received:_ ->
        if s.ddecided then { s with dhalted = true }
        else { s with ddecided = true });
    decision = (fun s -> if s.ddecided then Some (s.dpid land 1) else None);
    halted = (fun s -> s.dhalted);
    aggregate = None;
    bitops = None;
  }

let error_order_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let expected_errors trials =
    List.concat_map
      (fun trial ->
        List.map
          (Printf.sprintf "trial %d: %s" trial)
          [
            "agreement: process 0 decided 0 but process 1 decided 1";
            "agreement: process 0 decided 0 but process 3 decided 1";
            "validity: unanimous input 1 but process 0 decided 0";
            "validity: unanimous input 1 but process 2 decided 0";
          ])
      (List.init trials (fun i -> i + 1))
  in
  let test_checker_order_within_trial jobs () =
    (* 10 trials spans two chunks, so this also pins the cross-chunk
       concatenation order. *)
    let trials = 10 in
    let s =
      Sim.Runner.run_trials ~jobs ~trials ~seed:4
        ~gen_inputs:(Sim.Runner.input_gen_const ~n:4 1)
        ~t:0 disagree_protocol
        (fun () -> Sim.Adversary.null)
    in
    Alcotest.(check (list string))
      "per-trial errors in Checker order" (expected_errors trials)
      s.Sim.Runner.safety_errors
  in
  ( "sim.runner-error-order",
    [
      tc "multi-error trial, jobs=1" (test_checker_order_within_trial 1);
      tc "multi-error trial, jobs=2" (test_checker_order_within_trial 2);
    ] )

let suites =
  suites @ [ parallel_suite; runner_parallel_suite; error_order_suite ]
