(* Unit tests for the Byzantine substrate: engine semantics (corruption,
   equivocation, budget), Phase King, and the Rabin oracle-coin protocol. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let gen_random n rng = Prng.Sample.random_bits rng n

(* --- Engine ----------------------------------------------------------------- *)

(* A probe that decides the majority of what it hears in round 1. *)
type probe_state = { n : int; input : int; decision : int option }

let probe =
  {
    Byz.Protocol.name = "probe";
    init = (fun ~n ~pid:_ ~input -> { n; input; decision = None });
    phase_a = (fun s _ -> (s, s.input));
    phase_b =
      (fun s ~round:_ ~received ->
        let ones = Array.fold_left (fun acc (_, v) -> acc + v) 0 received in
        { s with decision = Some (if 2 * ones > s.n then 1 else 0) });
    decision = (fun s -> s.decision);
    halted = (fun s -> Option.is_some s.decision);
  }

let test_probe_majority () =
  let o =
    Byz.Engine.run probe Byz.Adversary.null ~inputs:[| 1; 1; 1; 0; 0 |] ~t:0
      ~rng:(Prng.Rng.create 1)
  in
  Array.iter
    (fun d -> Alcotest.(check (option int)) "majority" (Some 1) d)
    o.Byz.Engine.decisions;
  Alcotest.(check (option int)) "one round" (Some 1) o.Byz.Engine.rounds_to_decide

let test_forged_messages_delivered () =
  (* Corrupt process 0 and forge a 1 to everyone: it flips the majority. *)
  let flipper =
    {
      Byz.Adversary.name = "flip0";
      act =
        (fun view _ ->
          {
            Byz.Adversary.new_corruptions =
              (if view.Byz.Adversary.round = 1 then [ 0 ] else []);
            behaviour = (fun ~src:_ ~dst:_ -> Byz.Adversary.Forge 1);
          });
    }
  in
  let o =
    Byz.Engine.run probe flipper ~inputs:[| 0; 1; 1; 0; 0 |] ~t:1
      ~rng:(Prng.Rng.create 2)
  in
  (* Honest votes 1,1,0,0 plus forged 1 = majority 1 for every honest. *)
  Array.iteri
    (fun i d ->
      if not o.Byz.Engine.corrupted.(i) then
        Alcotest.(check (option int)) "flipped majority" (Some 1) d)
    o.Byz.Engine.decisions

let test_equivocation_splits_views () =
  let split =
    {
      Byz.Adversary.name = "split0";
      act =
        (fun view _ ->
          {
            Byz.Adversary.new_corruptions =
              (if view.Byz.Adversary.round = 1 then [ 0 ] else []);
            behaviour =
              (fun ~src:_ ~dst ->
                Byz.Adversary.Forge (if dst land 1 = 0 then 0 else 1));
          });
    }
  in
  (* With 2 honest ones and 2 honest zeros, the equivocator decides the
     outcome per receiver parity: a genuine probe-level disagreement. *)
  let o =
    Byz.Engine.run probe split ~inputs:[| 0; 1; 1; 0; 0 |] ~t:1
      ~rng:(Prng.Rng.create 3)
  in
  let v = Byz.Engine.check ~inputs:[| 0; 1; 1; 0; 0 |] o in
  check_bool "one-round majority vote is not Byzantine-safe" false
    v.Sim.Checker.agreement

let test_budget_enforced () =
  let greedy =
    {
      Byz.Adversary.name = "greedy";
      act =
        (fun view _ ->
          let first_honest = ref [] in
          Array.iteri
            (fun i c -> if (not c) && !first_honest = [] then first_honest := [ i ])
            view.Byz.Adversary.corrupted;
          {
            Byz.Adversary.new_corruptions = !first_honest;
            behaviour = (fun ~src:_ ~dst:_ -> Byz.Adversary.Silent);
          });
    }
  in
  check_bool "budget enforced" true
    (try
       ignore
         (Byz.Engine.run
            (Byz.Phase_king.protocol ~t:0)
            greedy ~inputs:(Array.make 5 1) ~t:0 ~rng:(Prng.Rng.create 4));
       false
     with Byz.Engine.Budget_exceeded _ -> true)

let test_double_corruption_rejected () =
  let doubler =
    {
      Byz.Adversary.name = "doubler";
      act =
        (fun view _ ->
          {
            Byz.Adversary.new_corruptions =
              (if view.Byz.Adversary.round = 1 then [ 0 ]
               else if view.Byz.Adversary.round = 2 then [ 0 ]
               else []);
            behaviour = (fun ~src:_ ~dst:_ -> Byz.Adversary.Silent);
          });
    }
  in
  check_bool "double corruption rejected" true
    (try
       ignore
         (Byz.Engine.run
            (Byz.Phase_king.protocol ~t:3)
            doubler
            ~inputs:(Array.make 13 1)
            ~t:13 ~rng:(Prng.Rng.create 5));
       false
     with Byz.Engine.Invalid_corruption _ -> true)

(* --- The adversary's view ---------------------------------------------------- *)

(* Hands every view to [on_view] before [inner] plans from it. *)
let spy ~on_view (inner : _ Byz.Adversary.t) =
  {
    inner with
    Byz.Adversary.act =
      (fun view rng ->
        on_view view;
        inner.Byz.Adversary.act view rng);
  }

let corrupted_count view =
  Array.fold_left
    (fun k c -> if c then k + 1 else k)
    0 view.Byz.Adversary.corrupted

let test_view_budget_left () =
  let n = 13 and t = 3 in
  List.iter
    (fun (name, adversary) ->
      let rounds = ref 0 in
      let on_view view =
        incr rounds;
        check_int
          (Printf.sprintf "%s: round %d" name view.Byz.Adversary.round)
          (t - corrupted_count view) view.Byz.Adversary.budget_left
      in
      let o =
        Byz.Engine.run
          (Byz.Phase_king.protocol ~t)
          (spy ~on_view adversary) ~inputs:(Array.make n 1) ~t
          ~rng:(Prng.Rng.create 7)
      in
      check_bool (name ^ ": spends its budget") true
        (o.Byz.Engine.corruptions_used > 0);
      check_int (name ^ ": every round seen") o.Byz.Engine.rounds_executed
        !rounds)
    [
      ( "crash-like",
        Byz.Adversary.crash_like
          ~victims:[ (1, 0); (2, 3); (2, 4); (4, 7); (5, 9) ] );
      ( "equivocator",
        Byz.Adversary.equivocator ~corrupt_at:2 ~budget_fraction:1.0 () );
    ]

(* Process [pid] stages its pid each round and halts, decided, at the end
   of round [pid mod 4 + 1] unless corrupted first. *)
let halting =
  {
    Byz.Protocol.name = "halting";
    init = (fun ~n:_ ~pid ~input:_ -> (pid, 0));
    phase_a = (fun s _ -> (s, fst s));
    phase_b = (fun (pid, r) ~round:_ ~received:_ -> (pid, r + 1));
    decision = (fun (pid, r) -> if r > pid mod 4 then Some 0 else None);
    halted = (fun (pid, r) -> r > pid mod 4);
  }

let test_view_pending () =
  (* Pid 4 is corrupted before it halts, pid 1 after (it halts at the end
     of round 2 and is corrupted in round 3). *)
  let adversary = Byz.Adversary.crash_like ~victims:[ (1, 4); (3, 1) ] in
  let seen = ref 0 in
  let on_view view =
    let r = view.Byz.Adversary.round in
    Array.iteri
      (fun pid m ->
        let staged =
          view.Byz.Adversary.corrupted.(pid) || r <= (pid mod 4) + 1
        in
        incr seen;
        Alcotest.(check (option int))
          (Printf.sprintf "round %d, pid %d" r pid)
          (if staged then Some pid else None)
          m)
      view.Byz.Adversary.pending
  in
  let o =
    Byz.Engine.run halting (spy ~on_view adversary) ~inputs:(Array.make 8 0)
      ~t:2 ~rng:(Prng.Rng.create 8)
  in
  check_int "rounds" 4 o.Byz.Engine.rounds_executed;
  check_int "every pid of every round seen" 32 !seen;
  check_bool "the late corruption counts" true o.Byz.Engine.corrupted.(1)

let test_view_windows () =
  (* The view's arrays are the engine's own, not a copy per round. *)
  let first = ref None and later = ref 0 in
  let on_view view =
    match !first with
    | None -> first := Some view
    | Some v0 ->
        incr later;
        check_bool "same corrupted array" true
          (v0.Byz.Adversary.corrupted == view.Byz.Adversary.corrupted);
        check_bool "same pending array" true
          (v0.Byz.Adversary.pending == view.Byz.Adversary.pending)
  in
  ignore
    (Byz.Engine.run (Byz.Phase_king.protocol ~t:2)
       (spy ~on_view (Byz.Phase_king.king_spoofer ()))
       ~inputs:(Array.make 9 0) ~t:2 ~rng:(Prng.Rng.create 9));
  check_int "later rounds" 5 !later

let test_one_decision_discipline () =
  (* A Byzantine protocol that revokes its decision raises the exception
     every model shares, with the synchronous engine's message. *)
  let revoker =
    {
      probe with
      Byz.Protocol.phase_b =
        (fun s ~round ~received:_ ->
          { s with decision = (if round = 1 then Some 1 else None) });
      halted = (fun _ -> false);
    }
  in
  Alcotest.(check string) "revoked" "process 0 revoked decision 1"
    (match
       Byz.Engine.run revoker Byz.Adversary.null ~inputs:[| 0 |] ~t:0
         ~rng:(Prng.Rng.create 10)
     with
    | _ -> "no exception"
    | exception Sim.Engine.Decision_changed msg -> msg)

(* --- Phase King --------------------------------------------------------------- *)

(* The summary helpers share one stateless adversary across trials. *)
let pk_summary ?(n = 13) ?(t = 3) ?(t_actual = 3) ~seed adversary =
  Sim.Runner.value
    (Byz.Engine.run_trials ~trials:60 ~seed ~gen_inputs:(gen_random n)
       ~t:t_actual (Byz.Phase_king.protocol ~t) (fun () -> adversary))

let test_pk_rounds_exact () =
  List.iter
    (fun t ->
      let n = (4 * t) + 1 in
      let o =
        Byz.Engine.run
          (Byz.Phase_king.protocol ~t)
          Byz.Adversary.null
          ~inputs:(Array.init n (fun i -> i land 1))
          ~t:0 ~rng:(Prng.Rng.create 6)
      in
      Alcotest.(check (option int))
        (Printf.sprintf "t=%d takes 2(t+1) rounds" t)
        (Some (Byz.Phase_king.rounds_needed ~t))
        o.Byz.Engine.rounds_to_decide)
    [ 0; 1; 2; 4 ]

let test_pk_needs_n_over_4t () =
  check_bool "n <= 4t rejected" true
    (try
       ignore (Byz.Phase_king.protocol ~t:1 |> fun p ->
               p.Byz.Protocol.init ~n:4 ~pid:0 ~input:0);
       false
     with Invalid_argument _ -> true)

let test_pk_safe_within_budget () =
  List.iter
    (fun (name, adversary) ->
      let s = pk_summary ~seed:7 adversary in
      check_int (name ^ ": no agreement errors") 0 s.Byz.Engine.agreement_errors;
      check_int (name ^ ": no validity errors") 0 s.Byz.Engine.validity_errors;
      check_int (name ^ ": all terminate") 0 s.Byz.Engine.non_terminating)
    [
      ("null", Byz.Adversary.null);
      ("equivocator", Byz.Adversary.equivocator ~budget_fraction:1.0 ());
      ("king-spoofer", Byz.Phase_king.king_spoofer ());
      ("crash-like", Byz.Adversary.crash_like ~victims:[ (1, 0); (3, 5); (5, 9) ]);
    ]

let test_pk_validity_unanimous () =
  List.iter
    (fun v ->
      let o =
        Byz.Engine.run
          (Byz.Phase_king.protocol ~t:2)
          (Byz.Adversary.equivocator ~budget_fraction:1.0 ())
          ~inputs:(Array.make 9 v) ~t:2 ~rng:(Prng.Rng.create 8)
      in
      Array.iteri
        (fun i d ->
          if not o.Byz.Engine.corrupted.(i) then
            Alcotest.(check (option int)) "unanimous honest inputs" (Some v) d)
        o.Byz.Engine.decisions)
    [ 0; 1 ]

let test_pk_breaks_over_budget () =
  (* One corruption past the design point: the king schedule runs out of
     honest kings and agreement collapses — the t+1 necessity. *)
  let s =
    pk_summary ~t_actual:4 ~seed:9 (Byz.Phase_king.king_spoofer ())
  in
  check_bool "agreement violated over budget" true
    (s.Byz.Engine.agreement_errors > 0)

(* --- Rabin oracle-coin --------------------------------------------------------- *)

let rabin_summary ?(n = 16) ?(t = 3) ~seed adversary =
  Sim.Runner.value
    (Byz.Engine.run_trials ~max_rounds:500 ~trials:80 ~seed
       ~gen_inputs:(gen_random n) ~t
       (Byz.Rabin.protocol ~t ~oracle_seed:1234)
       (fun () -> adversary))

let test_rabin_constant_rounds () =
  let s = rabin_summary ~seed:10 (Byz.Adversary.equivocator ~budget_fraction:1.0 ()) in
  check_bool "O(1) expected rounds" true (Stats.Welford.mean s.Byz.Engine.rounds < 6.0);
  check_int "no agreement errors" 0 s.Byz.Engine.agreement_errors;
  check_int "all terminate" 0 s.Byz.Engine.non_terminating

let test_rabin_validity () =
  List.iter
    (fun v ->
      let o =
        Byz.Engine.run
          (Byz.Rabin.protocol ~t:2 ~oracle_seed:55)
          (Byz.Adversary.equivocator ~budget_fraction:1.0 ())
          ~inputs:(Array.make 11 v) ~t:2 ~rng:(Prng.Rng.create 11)
      in
      Array.iteri
        (fun i d ->
          if not o.Byz.Engine.corrupted.(i) then
            Alcotest.(check (option int)) "unanimous honest inputs" (Some v) d)
        o.Byz.Engine.decisions)
    [ 0; 1 ]

let test_rabin_resilience_check () =
  check_bool "n <= 5t rejected" true
    (try
       ignore
         ((Byz.Rabin.protocol ~t:1 ~oracle_seed:1).Byz.Protocol.init ~n:5 ~pid:0
            ~input:0);
       false
     with Invalid_argument _ -> true)

let test_rabin_faster_than_phase_king () =
  let n = 16 and t = 3 in
  let rb = rabin_summary ~n ~t ~seed:12 Byz.Adversary.null in
  check_bool "beats 2(t+1)" true
    (Stats.Welford.mean rb.Byz.Engine.rounds
    < float_of_int (Byz.Phase_king.rounds_needed ~t))

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "byz.engine",
      [
        tc "probe majority" test_probe_majority;
        tc "forged messages delivered" test_forged_messages_delivered;
        tc "equivocation splits views" test_equivocation_splits_views;
        tc "budget enforced" test_budget_enforced;
        tc "double corruption rejected" test_double_corruption_rejected;
        tc "one decision discipline" test_one_decision_discipline;
      ] );
    ( "byz.view",
      [
        tc "budget_left counts down" test_view_budget_left;
        tc "pending: halted honest None, corrupted Some" test_view_pending;
        tc "windows are the engine's arrays" test_view_windows;
      ] );
    ( "byz.phase-king",
      [
        tc "exactly 2(t+1) rounds" test_pk_rounds_exact;
        tc "needs n > 4t" test_pk_needs_n_over_4t;
        tc "safe within budget" test_pk_safe_within_budget;
        tc "validity unanimous" test_pk_validity_unanimous;
        tc "breaks one corruption over budget" test_pk_breaks_over_budget;
      ] );
    ( "byz.rabin",
      [
        tc "constant expected rounds" test_rabin_constant_rounds;
        tc "validity" test_rabin_validity;
        tc "resilience check" test_rabin_resilience_check;
        tc "faster than phase king" test_rabin_faster_than_phase_king;
      ] );
  ]

(* --- Chor-Coan ----------------------------------------------------------------- *)

let chor_coan_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let n = 31 and t = 5 in
  let summary ~group_size ~seed adversary =
    Sim.Runner.value
      (Byz.Engine.run_trials ~max_rounds:300 ~trials:50 ~seed
         ~gen_inputs:(gen_random n) ~t
         (Byz.Chor_coan.protocol ~t ~group_size)
         (fun () -> adversary))
  in
  let test_groups_arithmetic () =
    check_int "ceil division" 11 (Byz.Chor_coan.groups ~n:31 ~group_size:3);
    check_int "exact division" 5 (Byz.Chor_coan.groups ~n:30 ~group_size:6);
    check_int "rotation" 0 (Byz.Chor_coan.active_group ~round:1 ~n:30 ~group_size:6);
    check_int "wraps" 0 (Byz.Chor_coan.active_group ~round:6 ~n:30 ~group_size:6)
  in
  let test_validation () =
    check_bool "n <= 5t rejected" true
      (try
         ignore
           ((Byz.Chor_coan.protocol ~t:2 ~group_size:1).Byz.Protocol.init ~n:10
              ~pid:0 ~input:0);
         false
       with Invalid_argument _ -> true);
    check_bool "group size validated" true
      (try
         ignore
           ((Byz.Chor_coan.protocol ~t:1 ~group_size:0).Byz.Protocol.init ~n:6
              ~pid:0 ~input:0);
         false
       with Invalid_argument _ -> true)
  in
  let test_safe_under_attacks () =
    List.iter
      (fun (name, adversary) ->
        let s = summary ~group_size:3 ~seed:4 adversary in
        check_int (name ^ ": agreement") 0 s.Byz.Engine.agreement_errors;
        check_int (name ^ ": validity") 0 s.Byz.Engine.validity_errors;
        check_int (name ^ ": termination") 0 s.Byz.Engine.non_terminating)
      [
        ("null", Byz.Adversary.null);
        ("equivocator", Byz.Adversary.equivocator ~budget_fraction:1.0 ());
        ("group-corruptor", Byz.Chor_coan.group_corruptor ~group_size:3 ());
      ]
  in
  let test_adaptive_cost_scales_with_group () =
    let rounds g =
      let s = summary ~group_size:g ~seed:5 (Byz.Chor_coan.group_corruptor ~group_size:g ()) in
      Stats.Welford.mean s.Byz.Engine.rounds
    in
    let r1 = rounds 1 and r5 = rounds 5 in
    check_bool
      (Printf.sprintf "g=1 (%.1f) slower than g=5 (%.1f)" r1 r5)
      true (r1 > r5 +. 2.0)
  in
  let test_nonadaptive_constant () =
    let rng = Prng.Rng.create 77 in
    let victims =
      Prng.Sample.choose_k rng n t |> Array.to_list
      |> List.map (fun pid -> (1, pid))
    in
    let s = summary ~group_size:3 ~seed:6 (Byz.Adversary.crash_like ~victims) in
    check_bool "O(1) rounds" true (Stats.Welford.mean s.Byz.Engine.rounds < 6.0)
  in
  ( "byz.chor-coan",
    [
      tc "groups arithmetic" test_groups_arithmetic;
      tc "validation" test_validation;
      tc "safe under attacks" test_safe_under_attacks;
      tc "adaptive cost scales with group size" test_adaptive_cost_scales_with_group;
      tc "non-adaptive gets O(1)" test_nonadaptive_constant;
    ] )

let suites = suites @ [ chor_coan_suite ]

(* --- EIG ------------------------------------------------------------------------ *)

let eig_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let summary ?(n = 7) ?(t = 2) ?t_actual ~seed adversary =
    let t_actual = Option.value t_actual ~default:t in
    Sim.Runner.value
      (Byz.Engine.run_trials ~trials:50 ~seed ~gen_inputs:(gen_random n)
         ~t:t_actual (Byz.Eig.protocol ~t) (fun () -> adversary))
  in
  let test_rounds_exact () =
    List.iter
      (fun t ->
        let n = (3 * t) + 1 in
        let o =
          Byz.Engine.run (Byz.Eig.protocol ~t) Byz.Adversary.null
            ~inputs:(Array.init n (fun i -> i land 1))
            ~t:0 ~rng:(Prng.Rng.create 1)
        in
        Alcotest.(check (option int))
          (Printf.sprintf "t=%d decides at t+1" t)
          (Some (t + 1)) o.Byz.Engine.rounds_to_decide)
      [ 0; 1; 2; 3 ]
  in
  let test_resilience_check () =
    check_bool "n <= 3t rejected" true
      (try
         ignore ((Byz.Eig.protocol ~t:1).Byz.Protocol.init ~n:3 ~pid:0 ~input:0);
         false
       with Invalid_argument _ -> true)
  in
  let test_safe_within_budget () =
    List.iter
      (fun (name, adversary) ->
        let s = summary ~seed:2 adversary in
        check_int (name ^ ": agreement") 0 s.Byz.Engine.agreement_errors;
        check_int (name ^ ": validity") 0 s.Byz.Engine.validity_errors)
      [
        ("null", Byz.Adversary.null);
        ("liar", Byz.Eig.liar ());
        ("equivocator", Byz.Adversary.equivocator ~budget_fraction:1.0 ());
        ("crash-like", Byz.Adversary.crash_like ~victims:[ (1, 0); (2, 3) ]);
      ]
  in
  let test_validity_unanimous () =
    List.iter
      (fun v ->
        let o =
          Byz.Engine.run (Byz.Eig.protocol ~t:2) (Byz.Eig.liar ())
            ~inputs:(Array.make 7 v) ~t:2 ~rng:(Prng.Rng.create 3)
        in
        Array.iteri
          (fun i d ->
            if not o.Byz.Engine.corrupted.(i) then
              Alcotest.(check (option int)) "honest unanimous" (Some v) d)
          o.Byz.Engine.decisions)
      [ 0; 1 ]
  in
  let test_breaks_over_budget () =
    let s = summary ~seed:4 ~t_actual:3 (Byz.Eig.liar ()) in
    (* The liar only corrupts up to the protocol's t in round 1; hand it a
       deeper schedule via equivocator at full actual budget instead. *)
    ignore s;
    let s =
      Sim.Runner.value
        (Byz.Engine.run_trials ~trials:50 ~seed:4 ~gen_inputs:(gen_random 7)
           ~t:3 (Byz.Eig.protocol ~t:2) (fun () ->
             Byz.Adversary.equivocator ~budget_fraction:1.0 ()))
    in
    check_bool "violations appear past n > 3t" true
      (s.Byz.Engine.agreement_errors + s.Byz.Engine.validity_errors > 0)
  in
  let test_tree_grows () =
    (* Drive the protocol record by hand, all honest: every process stores
       all labels of distinct pids at levels 1..t+1 = 7 + 7*6 + 7*6*5. *)
    let n = 7 and t = 2 in
    let p = Byz.Eig.protocol ~t in
    let rng = Prng.Rng.create 5 in
    let states =
      Array.init n (fun pid -> p.Byz.Protocol.init ~n ~pid ~input:(pid land 1))
    in
    for round = 1 to t + 1 do
      let staged =
        Array.mapi
          (fun pid s ->
            let s', m = p.Byz.Protocol.phase_a s rng in
            states.(pid) <- s';
            (pid, m))
          states
      in
      Array.iteri
        (fun pid s ->
          states.(pid) <- p.Byz.Protocol.phase_b s ~round ~received:staged)
        states
    done;
    Array.iter
      (fun s ->
        check_int "tree size" (7 + 42 + 210) (Byz.Eig.tree_size s);
        check_bool "decided" true (p.Byz.Protocol.decision s <> None))
      states
  in
  let test_liar_directives () =
    (* [Eig.msg] is abstract, so the liar is judged by its directives: in
       round 1 it corrupts the first t processes and forges a flipped copy
       of each one's staged message toward every odd receiver, and lets
       the message through to every even one. *)
    let n = 7 and t = 2 in
    let p = Byz.Eig.protocol ~t in
    let rng = Prng.Rng.create 1 in
    let pending =
      Array.init n (fun pid ->
          Some
            (snd
               (p.Byz.Protocol.phase_a
                  (p.Byz.Protocol.init ~n ~pid ~input:(pid land 1))
                  rng)))
    in
    let corrupted = Array.make n false in
    let plan =
      (Byz.Eig.liar ()).Byz.Adversary.act
        { Byz.Adversary.round = 1; n; t; budget_left = t; corrupted; pending }
        (Prng.Rng.create 2)
    in
    Alcotest.(check (list int))
      "corrupts the first t" [ 0; 1 ] plan.Byz.Adversary.new_corruptions;
    List.iter (fun pid -> corrupted.(pid) <- true) plan.new_corruptions;
    List.iter
      (fun src ->
        for dst = 0 to n - 1 do
          let what = Printf.sprintf "src %d to dst %d" src dst in
          match plan.Byz.Adversary.behaviour ~src ~dst with
          | Byz.Adversary.Forge m ->
              check_bool (what ^ ": forged toward odd") true (dst land 1 = 1);
              check_bool (what ^ ": forged message differs") true
                (Some m <> pending.(src))
          | Byz.Adversary.Honest ->
              check_bool (what ^ ": honest toward even") true (dst land 1 = 0)
          | Byz.Adversary.Silent -> Alcotest.failf "%s: silent" what
        done)
      plan.new_corruptions
  in
  let test_oversized_tree_rejected () =
    (* n > 3t holds, but 61^21 leaf slots overflow any array. *)
    check_bool "n^(t+1) past the array limit rejected" true
      (try
         ignore ((Byz.Eig.protocol ~t:20).Byz.Protocol.init ~n:61 ~pid:0 ~input:0);
         false
       with Invalid_argument msg ->
         msg = "Eig.protocol: n^(t+1) labels do not fit an array")
  in
  ( "byz.eig",
    [
      tc "decides at exactly t+1" test_rounds_exact;
      tc "needs n > 3t" test_resilience_check;
      tc "safe within budget" test_safe_within_budget;
      tc "validity unanimous under liar" test_validity_unanimous;
      tc "breaks over budget" test_breaks_over_budget;
      tc "tree machinery" test_tree_grows;
      tc "oversized tree rejected" test_oversized_tree_rejected;
      tc "liar forges toward odd receivers only" test_liar_directives;
    ] )

let suites = suites @ [ eig_suite ]
