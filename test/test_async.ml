(* Unit tests for the asynchronous substrate: engine semantics (delivery,
   crashes, decision discipline), Ben-Or's protocol, and the splitter
   scheduler. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A trivial protocol: decide your input as soon as you hear from anyone
   (including yourself); send one hello to everyone at start. *)
type echo_state = { input : int; heard : int; decided : bool }

let echo =
  {
    Async.Protocol.name = "echo";
    init =
      (fun ~n ~pid:_ ~input ->
        ({ input; heard = 0; decided = false }, Async.Protocol.broadcast ~n ()));
    on_message =
      (fun s ~sender:_ () _rng ->
        ({ s with heard = s.heard + 1; decided = true }, []));
    decision = (fun s -> if s.decided then Some s.input else None);
    coin_flips = (fun _ -> 0);
  }

let run_echo ?max_steps scheduler ~inputs ~t ~seed =
  Async.Engine.run ?max_steps echo scheduler ~inputs ~t
    ~rng:(Prng.Rng.create seed)

(* --- Engine ------------------------------------------------------------- *)

let test_echo_terminates () =
  let o = run_echo Async.Scheduler.fair ~inputs:[| 0; 1; 1 |] ~t:0 ~seed:1 in
  check_bool "all decided" true o.Async.Engine.all_decided;
  check_int "nine sends" 9 o.Async.Engine.sends;
  Alcotest.(check (option int)) "p0 decides its input" (Some 0)
    o.Async.Engine.decisions.(0)

let test_fifo_deterministic () =
  let a = run_echo Async.Scheduler.fifo ~inputs:[| 1; 0 |] ~t:0 ~seed:2 in
  let b = run_echo Async.Scheduler.fifo ~inputs:[| 1; 0 |] ~t:0 ~seed:99 in
  (* FIFO ignores randomness entirely: identical step counts. *)
  check_int "same steps" a.Async.Engine.steps b.Async.Engine.steps

let test_crash_drops_messages () =
  (* A scheduler that crashes process 0 first, then delivers fairly:
     p0's hellos evaporate, and p0 never decides. *)
  let crash0 =
    {
      Async.Scheduler.name = "crash0";
      pick =
        (fun view rng ->
          if not view.Async.Scheduler.crashed.(0) then Async.Scheduler.Crash 0
          else
            let k = Prng.Rng.int rng view.Async.Scheduler.pending_count in
            Async.Scheduler.Deliver
              (view.Async.Scheduler.pending_nth k).Async.Scheduler.id);
    }
  in
  let o = run_echo crash0 ~inputs:[| 1; 0; 0 |] ~t:1 ~seed:3 in
  check_bool "p0 crashed" true o.Async.Engine.crashed.(0);
  Alcotest.(check (option int)) "p0 undecided" None o.Async.Engine.decisions.(0);
  (* Survivors decided from each other's hellos. *)
  check_bool "all live decided" true o.Async.Engine.all_decided;
  (* p0's 3 hellos evaporated; messages TO p0 from others too. *)
  check_bool "fewer deliveries than sends" true
    (o.Async.Engine.deliveries < o.Async.Engine.sends)

let test_redelivery_rejected () =
  (* Deliver message 0, then ask for it again. *)
  let again =
    {
      Async.Scheduler.name = "again";
      pick = (fun _ _ -> Async.Scheduler.Deliver 0);
    }
  in
  check_bool "re-delivery raises" true
    (try
       ignore (run_echo again ~inputs:[| 1; 0; 0 |] ~t:0 ~seed:4);
       false
     with Async.Engine.Invalid_action _ -> true)

let pending_list view =
  List.init view.Async.Scheduler.pending_count view.Async.Scheduler.pending_nth

let test_crash_purges_view () =
  (* Crash p1 at step 2; from step 3 on no pending message may touch it. *)
  let violations = ref 0 and checked = ref 0 in
  let purger =
    {
      Async.Scheduler.name = "purger";
      pick =
        (fun view rng ->
          if view.Async.Scheduler.steps_taken = 2 then Async.Scheduler.Crash 1
          else begin
            if view.Async.Scheduler.crashed.(1) then begin
              incr checked;
              List.iter
                (fun m ->
                  if m.Async.Scheduler.src = 1 || m.Async.Scheduler.dst = 1 then
                    incr violations)
                (pending_list view)
            end;
            Async.Scheduler.fair.Async.Scheduler.pick view rng
          end);
    }
  in
  let o =
    Async.Engine.run (Async.Benor.protocol ~t:1) purger
      ~inputs:[| 0; 1; 0; 1 |] ~t:1 ~rng:(Prng.Rng.create 14)
  in
  check_bool "p1 crashed" true o.Async.Engine.crashed.(1);
  check_bool "views checked after the crash" true (!checked > 0);
  check_int "no message to or from p1" 0 !violations

let test_pending_ascending () =
  (* Under the splitter (deliveries from the middle of the store) and
     random crashes (in-place filtering), ids stay strictly ascending. *)
  let bad = ref 0 and steps = ref 0 in
  let watch (inner : Async.Benor.msg Async.Scheduler.t) =
    {
      inner with
      Async.Scheduler.pick =
        (fun view rng ->
          incr steps;
          for k = 1 to view.Async.Scheduler.pending_count - 1 do
            if
              (view.Async.Scheduler.pending_nth (k - 1)).Async.Scheduler.id
              >= (view.Async.Scheduler.pending_nth k).Async.Scheduler.id
            then incr bad
          done;
          inner.Async.Scheduler.pick view rng);
    }
  in
  (* One worker: the watch counters are shared across trials. *)
  List.iter
    (fun make_scheduler ->
      ignore
        (Async.Engine.run_trials ~max_steps:20_000 ~jobs:1 ~trials:3 ~seed:15
           ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng 5)
           ~t:2 (Async.Benor.protocol ~t:2)
           (fun () -> watch (make_scheduler ()))))
    [ Async.Benor.splitter; (fun () -> Async.Scheduler.random_crash ~p:0.05) ];
  check_bool "steps observed" true (!steps > 0);
  check_int "strictly ascending ids" 0 !bad

let test_crash_budget_enforced () =
  let crasher =
    {
      Async.Scheduler.name = "over-crasher";
      pick = (fun view _ ->
        let live = ref (-1) in
        Array.iteri
          (fun i c -> if (not c) && !live < 0 then live := i)
          view.Async.Scheduler.crashed;
        Async.Scheduler.Crash !live);
    }
  in
  check_bool "budget enforced" true
    (try
       ignore (run_echo crasher ~inputs:[| 1; 0; 0 |] ~t:1 ~seed:4);
       false
     with Async.Engine.Invalid_action _ -> true)

let test_step_cap () =
  (* A ping-pong protocol that never decides. *)
  let ping_pong =
    {
      Async.Protocol.name = "ping-pong";
      init = (fun ~n ~pid:_ ~input:_ -> ((), Async.Protocol.broadcast ~n ()));
      on_message =
        (fun () ~sender () _ -> ((), [ { Async.Protocol.dst = sender; payload = () } ]));
      decision = (fun () -> None);
      coin_flips = (fun () -> 0);
    }
  in
  let o =
    Async.Engine.run ~max_steps:500 ping_pong Async.Scheduler.fair
      ~inputs:[| 0; 1 |] ~t:0 ~rng:(Prng.Rng.create 5)
  in
  check_bool "hits the cap" true (o.Async.Engine.steps = 500);
  check_bool "not all decided" false o.Async.Engine.all_decided

let test_decision_discipline () =
  (* Process 0 flips its decision on every delivery; process 1 never
     decides, so the engine cannot stop early and must catch the flip. *)
  let flip_flopper =
    {
      Async.Protocol.name = "flip-flop";
      init = (fun ~n ~pid ~input:_ -> ((pid, 0), Async.Protocol.broadcast ~n ()));
      on_message = (fun (pid, k) ~sender:_ () _ -> ((pid, k + 1), []));
      decision =
        (fun (pid, k) -> if pid = 0 && k >= 1 then Some (k mod 2) else None);
      coin_flips = (fun _ -> 0);
    }
  in
  check_bool "changed decision detected" true
    (try
       ignore
         (Async.Engine.run flip_flopper Async.Scheduler.fifo ~inputs:[| 0; 1 |]
            ~t:0 ~rng:(Prng.Rng.create 6));
       false
     with Async.Engine.Decision_changed _ -> true)

let test_trials_count_trials () =
  (* Every process decides [min pid 1] on its first delivery: on unanimous
     zero inputs, one trial of decisions 0, 1, 1 — two deciders against
     the first, two wrong deciders — is one disagreement and one validity
     error. *)
  let split =
    {
      echo with
      Async.Protocol.init =
        (fun ~n ~pid ~input:_ ->
          ( { input = Stdlib.min pid 1; heard = 0; decided = false },
            Async.Protocol.broadcast ~n () ));
    }
  in
  let s =
    Sim.Runner.value
      (Async.Engine.run_trials ~trials:1 ~seed:11
         ~gen_inputs:(fun _ -> [| 0; 0; 0 |])
         ~t:0 split
         (fun () -> Async.Scheduler.fair))
  in
  check_int "disagreeing trials" 1 s.Async.Engine.disagreements;
  check_int "invalid trials" 1 s.Async.Engine.validity_errors

(* --- Ben-Or ----------------------------------------------------------------- *)

let benor_summary ?(max_steps = 300_000) ~n ~t ~trials ~seed make_scheduler =
  Sim.Runner.value
    (Async.Engine.run_trials ~max_steps ~phase_of:Async.Benor.phase ~trials
       ~seed
       ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng n)
       ~t (Async.Benor.protocol ~t) make_scheduler)

let test_benor_validity_unanimous () =
  List.iter
    (fun v ->
      let o =
        Async.Engine.run ~phase_of:Async.Benor.phase (Async.Benor.protocol ~t:1)
          Async.Scheduler.fair ~inputs:(Array.make 5 v) ~t:0
          ~rng:(Prng.Rng.create 7)
      in
      check_bool "decided" true o.Async.Engine.all_decided;
      Array.iter
        (fun d -> Alcotest.(check (option int)) "unanimous value" (Some v) d)
        o.Async.Engine.decisions;
      (* Unanimous inputs decide in the first phase, no coins needed. *)
      check_int "no flips" 0 o.Async.Engine.coin_flips)
    [ 0; 1 ]

let test_benor_safe_under_fair () =
  let s = benor_summary ~n:7 ~t:3 ~trials:40 ~seed:8 (fun () -> Async.Scheduler.fair) in
  check_int "no disagreement" 0 s.Async.Engine.disagreements;
  check_int "no validity errors" 0 s.Async.Engine.validity_errors;
  check_int "all terminate" 0 s.Async.Engine.non_terminating

let test_benor_safe_under_crashes () =
  let s =
    benor_summary ~n:9 ~t:4 ~trials:40 ~seed:9
      (fun () -> Async.Scheduler.random_crash ~p:0.02)
  in
  check_int "no disagreement" 0 s.Async.Engine.disagreements;
  check_int "all terminate" 0 s.Async.Engine.non_terminating

let test_benor_safe_under_splitter () =
  let s =
    benor_summary ~n:6 ~t:2 ~trials:8 ~seed:10 Async.Benor.splitter
  in
  check_int "no disagreement" 0 s.Async.Engine.disagreements;
  check_int "all terminate" 0 s.Async.Engine.non_terminating

let test_benor_resilience_validation () =
  check_bool "t >= n/2 rejected" true
    (try
       ignore
         (Async.Engine.run (Async.Benor.protocol ~t:2) Async.Scheduler.fair
            ~inputs:[| 0; 1; 0; 1 |] ~t:0 ~rng:(Prng.Rng.create 11));
       false
     with Invalid_argument _ -> true)

let test_splitter_exponential_slowdown () =
  let fair = benor_summary ~n:6 ~t:2 ~trials:10 ~seed:12 (fun () -> Async.Scheduler.fair) in
  let split =
    benor_summary ~n:6 ~t:2 ~trials:10 ~seed:12 Async.Benor.splitter
  in
  let fp = Stats.Welford.mean fair.Async.Engine.phases in
  let sp = Stats.Welford.mean split.Async.Engine.phases in
  check_bool
    (Printf.sprintf "splitter %.1f >> fair %.1f phases" sp fp)
    true
    (sp > 3.0 *. fp)

let test_splitter_flip_count_grows () =
  (* The Aspnes measure: total coin flips explode with the population under
     the adversarial scheduler. *)
  let flips n =
    let s =
      benor_summary ~n ~t:((n - 1) / 2) ~trials:6 ~seed:13
        Async.Benor.splitter
    in
    Stats.Welford.mean s.Async.Engine.flips
  in
  check_bool "flips grow superlinearly" true (flips 8 > 4.0 *. flips 4)

(* The splitter's specification as a plain arg-min scan: score every
   pending message against this scan's own tally of delivered reports and
   take the earliest minimum. *)
let reference_pick tally (view : Async.Benor.msg Async.Scheduler.view) =
  let half = view.Async.Scheduler.n / 2 in
  let delivered dst phase v =
    Option.value ~default:0 (Hashtbl.find_opt tally (dst, phase, v))
  in
  let score (m : Async.Benor.msg Async.Scheduler.in_flight) =
    match m.Async.Scheduler.payload with
    | Async.Benor.Proposal { v = None; _ } -> 0
    | Async.Benor.Proposal { v = Some _; _ } -> 4
    | Async.Benor.Report { phase; v } ->
        let dst = m.Async.Scheduler.dst in
        let same = delivered dst phase v and other = delivered dst phase (1 - v) in
        if same >= half then 3 else if same <= other then 1 else 2
  in
  let best = ref (view.Async.Scheduler.pending_nth 0) in
  for k = 1 to view.Async.Scheduler.pending_count - 1 do
    let m = view.Async.Scheduler.pending_nth k in
    if score m < score !best then best := m
  done;
  !best

(* Run the splitter and the reference side by side, counting the steps on
   which they pick different ids. With [crash_p > 0] the wrapper also
   crashes random processes after the first step, so the splitter sees
   its pending store shrink behind its back. *)
let splitter_vs_reference ~n ~seed ~max_steps ~crash_p =
  let t = (n - 1) / 2 in
  let split = Async.Benor.splitter () in
  let tally = Hashtbl.create 64 in
  let picks = ref 0 and mismatches = ref 0 in
  let both =
    {
      Async.Scheduler.name = "splitter-vs-scan";
      pick =
        (fun view rng ->
          let live =
            List.filter
              (fun i -> not view.Async.Scheduler.crashed.(i))
              (List.init n Fun.id)
          in
          if
            view.Async.Scheduler.steps_taken > 1
            && view.Async.Scheduler.crash_budget_left > 0
            && Prng.Rng.bernoulli rng crash_p
          then Async.Scheduler.Crash (List.nth live (Prng.Rng.int rng (List.length live)))
          else begin
            let want = reference_pick tally view in
            let got = split.Async.Scheduler.pick view rng in
            incr picks;
            if got <> Async.Scheduler.Deliver want.Async.Scheduler.id then
              incr mismatches;
            (match want.Async.Scheduler.payload with
            | Async.Benor.Report { phase; v } ->
                let key = (want.Async.Scheduler.dst, phase, v) in
                Hashtbl.replace tally key
                  (1 + Option.value ~default:0 (Hashtbl.find_opt tally key))
            | Async.Benor.Proposal _ -> ());
            got
          end);
    }
  in
  let rng = Prng.Rng.create seed in
  let inputs = Prng.Sample.random_bits rng n in
  ignore
    (Async.Engine.run ~max_steps (Async.Benor.protocol ~t) both ~inputs ~t ~rng);
  (!picks, !mismatches)

let prop_splitter_matches_scan =
  QCheck.Test.make ~count:60
    ~name:"splitter picks the reference scan's id at every step"
    QCheck.(
      quad (int_range 3 7) (int_range 0 100_000) (int_range 1_000 4_000) bool)
    (fun (n, seed, max_steps, crashes) ->
      let picks, mismatches =
        splitter_vs_reference ~n ~seed ~max_steps
          ~crash_p:(if crashes then 0.01 else 0.0)
      in
      picks > 0 && mismatches = 0)

let test_splitter_reused_across_runs () =
  (* One instance serving two consecutive runs must play the second
     exactly as a fresh instance would: it resets on that run's first
     step instead of carrying the first run's tallies and queues. *)
  let run scheduler inputs seed =
    let o =
      Async.Engine.run ~phase_of:Async.Benor.phase (Async.Benor.protocol ~t:2)
        scheduler ~inputs ~t:2 ~rng:(Prng.Rng.create seed)
    in
    ( o.Async.Engine.steps,
      o.Async.Engine.deliveries,
      o.Async.Engine.coin_flips,
      o.Async.Engine.max_phase,
      Array.to_list o.Async.Engine.decisions )
  in
  (* The second run also has a different n, so stale groups would not
     even line up. *)
  let first = [| 0; 1; 1; 0; 1 |] and second = [| 1; 0; 0; 1; 0; 1 |] in
  let shared = Async.Benor.splitter () in
  let a = run shared first 21 in
  let b = run shared second 22 in
  check_bool "first run as fresh" true (a = run (Async.Benor.splitter ()) first 21);
  check_bool "second run as fresh" true
    (b = run (Async.Benor.splitter ()) second 22)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "async.engine",
      [
        tc "echo terminates" test_echo_terminates;
        tc "fifo deterministic" test_fifo_deterministic;
        tc "crash drops messages" test_crash_drops_messages;
        tc "re-delivery rejected" test_redelivery_rejected;
        tc "crash purges the view" test_crash_purges_view;
        tc "pending ascending by id" test_pending_ascending;
        tc "crash budget enforced" test_crash_budget_enforced;
        tc "step cap" test_step_cap;
        tc "decision discipline" test_decision_discipline;
        tc "trials counted, not deciders" test_trials_count_trials;
      ] );
    ( "async.benor",
      [
        tc "validity on unanimous inputs" test_benor_validity_unanimous;
        tc "safe under fair scheduling" test_benor_safe_under_fair;
        tc "safe under crashes" test_benor_safe_under_crashes;
        tc "safe under the splitter" test_benor_safe_under_splitter;
        tc "resilience validation" test_benor_resilience_validation;
        tc "splitter slows exponentially" test_splitter_exponential_slowdown;
        tc "flip count grows" test_splitter_flip_count_grows;
        tc "splitter reused across runs" test_splitter_reused_across_runs;
        QCheck_alcotest.to_alcotest prop_splitter_matches_scan;
      ] );
  ]
