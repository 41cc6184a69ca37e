(* Differential tests for the engine's aggregate-delivery fast path: for
   every ported protocol, under every adversary class, a full run through
   the aggregate path must be byte-identical — outcomes, decision rounds,
   kills, and the complete per-round trace — to the same run through the
   legacy materialized [~received] exchange ([Sim.Protocol.legacy] strips
   the aggregate). Both paths consume randomness identically, so any
   divergence is a delivery bug, not noise. *)

let to_alcotest = QCheck_alcotest.to_alcotest

let outcomes_equal (a : Sim.Engine.outcome) (b : Sim.Engine.outcome) =
  a.Sim.Engine.rounds_executed = b.Sim.Engine.rounds_executed
  && a.rounds_to_decide = b.rounds_to_decide
  && a.decisions = b.decisions
  && a.faulty = b.faulty
  && a.halted = b.halted
  && a.kills_used = b.kills_used
  && a.quiescent = b.quiescent

(* [run sink] with a fresh trace teed into [sink]: the outcome and the
   trace's round records. *)
let traced ?(sink = Obs.Sink.null) run =
  let tr = Sim.Trace.create () in
  let o = run (Obs.Sink.tee (Sim.Trace.sink tr) sink) in
  (o, Sim.Trace.records tr)

let traced_equal (a, ra) (b, rb) = outcomes_equal a b && ra = rb

(* Fresh adversary per run: band_control and leader_killer carry mutable
   round-to-round trackers. *)
let differential ~name ?(count = 30) ~protocol ~adversary ~n ~max_t () =
  QCheck.Test.make ~name ~count
    QCheck.(pair small_int small_int)
    (fun (seed, tsel) ->
      let t = tsel mod (max_t + 1) in
      let run p =
        traced (fun sink ->
            Sim.Engine.run ~sink ~max_rounds:500 p (adversary ())
              ~inputs:(Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n)
              ~t
              ~rng:(Prng.Rng.create seed))
      in
      traced_equal (run protocol) (run (Sim.Protocol.legacy protocol)))

let synran_adversaries =
  let rules = Core.Onesided.paper in
  [
    ("null", fun () -> Sim.Adversary.null);
    ("crash", fun () -> Baselines.Adversaries.random_crash ~p:0.15);
    ("partial", fun () -> Baselines.Adversaries.random_partial ~p:0.15);
    ("drip", fun () -> Baselines.Adversaries.drip ~per_round:1);
    ( "band",
      fun () ->
        Core.Lb_adversary.band_control ~rules
          ~bit_of_msg:Core.Synran.bit_of_msg () );
    ( "band-voting",
      fun () ->
        Core.Lb_adversary.band_control ~config:Core.Lb_adversary.voting_config
          ~rules ~bit_of_msg:Core.Synran.bit_of_msg () );
    ( "leader-killer",
      fun () ->
        Core.Lb_adversary.leader_killer ~rules
          ~bit_of_msg:Core.Synran.bit_of_msg () );
  ]

(* Message-generic adversaries, usable against protocols of any state/msg
   type (hence the polymorphic field). *)
type gen_adv = {
  aname : string;
  make : 'state 'msg. unit -> ('state, 'msg) Sim.Adversary.t;
}

let generic_adversaries =
  [
    { aname = "null"; make = (fun () -> Sim.Adversary.null) };
    { aname = "crash"; make = (fun () -> Baselines.Adversaries.random_crash ~p:0.2) };
    {
      aname = "partial";
      make = (fun () -> Baselines.Adversaries.random_partial ~p:0.2);
    };
    {
      aname = "crash-all";
      make = (fun () -> Baselines.Adversaries.crash_all_at ~round:2);
    };
  ]

let synran_tests =
  List.concat_map
    (fun (aname, adversary) ->
      [
        differential
          ~name:(Printf.sprintf "synran n=33 vs %s" aname)
          ~protocol:(Core.Synran.protocol 33) ~adversary ~n:33 ~max_t:32 ();
        differential ~count:15
          ~name:(Printf.sprintf "synran-leader n=24 vs %s" aname)
          ~protocol:(Core.Synran.protocol ~coin:Core.Synran.Leader_priority 24)
          ~adversary ~n:24 ~max_t:23 ();
      ])
    synran_adversaries

let baseline_tests =
  List.concat_map
    (fun { aname; make } ->
      [
        differential
          ~name:(Printf.sprintf "floodset n=21 vs %s" aname)
          ~protocol:(Baselines.Floodset.protocol ~rounds:6 ())
          ~adversary:make ~n:21 ~max_t:20 ();
        differential
          ~name:(Printf.sprintf "early-stop n=21 vs %s" aname)
          ~protocol:(Baselines.Early_stop.protocol ~rounds:6 ())
          ~adversary:make ~n:21 ~max_t:20 ();
      ])
    generic_adversaries

let game_tests =
  List.concat_map
    (fun { aname; make } ->
      List.map
        (fun p ->
          differential
            ~name:(Printf.sprintf "%s vs %s" p.Sim.Protocol.name aname)
            ~protocol:p ~adversary:make ~n:19 ~max_t:18 ())
        [
          Coinflip.Sim_game.of_game (Coinflip.Games.majority_default_zero 19);
          Coinflip.Sim_game.of_game (Coinflip.Games.majority_ignore_missing 19);
          Coinflip.Sim_game.of_game (Coinflip.Games.parity 19);
          Coinflip.Sim_game.of_game (Coinflip.Games.sum_mod ~k:3 19);
        ])
    generic_adversaries

(* Hostile partial-send plans: victims listed in descending or shuffled pid
   order, each delivering to itself, to every victim of the round and to
   pids drawn from all of [0, n), dead and halted ones included, with
   repeats. The adversaries in lib/ never send such a plan. *)
let hostile () =
  {
    Sim.Adversary.name = "hostile";
    plan =
      (fun view rng ->
        let n = view.Sim.Adversary.n in
        let victims =
          Sim.Adversary.active_pids view
          |> List.filter (fun _ -> Prng.Rng.bernoulli rng 0.2)
          |> List.filteri (fun i _ -> i < view.Sim.Adversary.budget_left)
          |> Array.of_list
        in
        if Prng.Rng.bool rng then Prng.Sample.shuffle rng victims
        else Array.sort (fun a b -> Int.compare b a) victims;
        let victims = Array.to_list victims in
        List.map
          (fun v ->
            let drawn =
              List.init (Prng.Rng.int rng (2 * n)) (fun _ -> Prng.Rng.int rng n)
            in
            Sim.Adversary.kill_after_send v
              ~recipients:((v :: victims) @ drawn @ [ v ]))
          victims);
  }

(* Four runs of one execution: the concrete engine's aggregate path, its
   legacy exchange, Bitkernel (whose kill rounds run the concrete delivery
   code) and Cohort (whose class-level delivery shares none of it). *)
let hostile_four_engines ~name ~protocol ~n =
  QCheck.Test.make ~name ~count:20
    QCheck.(pair small_int small_int)
    (fun (seed, tsel) ->
      let t = (n / 2) + (tsel mod (n / 2)) in
      let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
      let rng () = Prng.Rng.create seed in
      let concrete p =
        traced (fun sink ->
            Sim.Engine.run ~sink ~max_rounds:500 p (hostile ()) ~inputs ~t
              ~rng:(rng ()))
      in
      let reference = concrete protocol in
      traced_equal reference (concrete (Sim.Protocol.legacy protocol))
      && traced_equal reference
           (traced (fun sink ->
                Sim.Bitkernel.run ~sink ~max_rounds:500 protocol (hostile ())
                  ~inputs ~t ~rng:(rng ())))
      && traced_equal reference
           (traced (fun sink ->
                Sim.Cohort.run ~sink ~max_rounds:500 protocol
                  (Sim.Cohort.Concrete (hostile ()))
                  ~inputs ~t ~rng:(rng ()))))

let hostile_tests =
  [
    hostile_four_engines ~name:"synran n=33 vs hostile plans"
      ~protocol:(Core.Synran.protocol 33) ~n:33;
    hostile_four_engines ~name:"floodset n=21 vs hostile plans"
      ~protocol:(Baselines.Floodset.protocol ~rounds:6 ())
      ~n:21;
  ]

(* By hand, n = 5: every process broadcasts its pid and records the set of
   senders it heard each round; pid 4 decides and halts after round 1.
   Round 1 (all active): victims 3 and 1, listed in descending order;
   3 -> [0; 0; 3; 1; 2], 1 -> [2; 4; 4]. Receivers 0, 2 and 4 hear the
   survivors {0, 2, 4}; 0 also hears 3 (once), 2 hears 3 and 1, 4 hears 1
   (once): 4 + 5 + 4 = 13 deliveries. Round 2 (active 0 and 2; 1 and 3
   dead, 4 halted): victim 2 -> [0; 1; 3; 4; 2; 0]; receiver 0 hears
   itself and 2 (once): 2 deliveries. *)
type heard = { pid : int; heard : int list list (* most recent first *) }

(* [halts pid]: the process decides and halts after round 1. *)
let heard_with ~halts =
  let halted s = halts s.pid && s.heard <> [] in
  Sim.Protocol.with_aggregate ~name:"heard"
    ~init:(fun ~n:_ ~pid ~input:_ -> { pid; heard = [] })
    ~phase_a:(fun s _rng -> (s, s.pid))
    ~decision:(fun s -> if halted s then Some 0 else None)
    ~halted
    (Sim.Protocol.Aggregate
       {
         init = (fun () -> []);
         absorb = (fun acc ~pid:_ sender -> List.merge Int.compare [ sender ] acc);
         finish = (fun s ~round:_ acc -> { s with heard = acc :: s.heard });
         cohort = None;
       })

let heard_protocol = heard_with ~halts:(fun pid -> pid = 4)

let test_hand_computed_deliveries () =
  let adversary =
    {
      Sim.Adversary.name = "by-hand";
      plan =
        (fun view _ ->
          match view.Sim.Adversary.round with
          | 1 ->
              [
                Sim.Adversary.kill_after_send 3 ~recipients:[ 0; 0; 3; 1; 2 ];
                Sim.Adversary.kill_after_send 1 ~recipients:[ 2; 4; 4 ];
              ]
          | 2 -> [ Sim.Adversary.kill_after_send 2 ~recipients:[ 0; 1; 3; 4; 2; 0 ] ]
          | _ -> []);
    }
  in
  List.iter
    (fun (path, protocol) ->
      let tr = Sim.Trace.create () in
      let e =
        Sim.Engine.start ~sink:(Sim.Trace.sink tr) protocol
          ~inputs:(Array.make 5 0) ~t:3 ~rng:(Prng.Rng.create 1)
      in
      Sim.Engine.run_until e adversary ~max_rounds:2;
      let heard = Array.map (fun s -> s.heard) (Sim.Engine.states e) in
      Alcotest.(check (array (list (list int))))
        (path ^ ": senders heard per round")
        [| [ [ 0; 2 ]; [ 0; 2; 3; 4 ] ]; []; [ [ 0; 1; 2; 3; 4 ] ]; [];
           [ [ 0; 1; 2; 4 ] ] |]
        heard;
      let records = Sim.Trace.records tr in
      Alcotest.(check (list (pair int int)))
        (path ^ ": (partial sends, delivered) per round")
        [ (2, 13); (1, 2) ]
        (List.map
           (fun r -> (r.Sim.Trace.partial_sends, r.Sim.Trace.messages_delivered))
           records))
    [ ("aggregate", heard_protocol); ("legacy", Sim.Protocol.legacy heard_protocol) ]

(* An honest round folds its senders in ascending pid order on the
   aggregate path, exactly as the legacy exchange folds its received
   array, so the two agree even for a fold that does not commute. Every
   process broadcasts its pid and [absorb] prepends the sender: each
   round's accumulator is the senders in descending order. *)
let test_honest_fold_order () =
  let n = 7 in
  let order =
    Sim.Protocol.with_aggregate ~name:"order"
      ~init:(fun ~n:_ ~pid ~input:_ -> { pid; heard = [] })
      ~phase_a:(fun s _rng -> (s, s.pid))
      ~decision:(fun _ -> None)
      ~halted:(fun _ -> false)
      (Sim.Protocol.Aggregate
         {
           init = (fun () -> []);
           absorb = (fun acc ~pid:_ sender -> sender :: acc);
           finish = (fun s ~round:_ acc -> { s with heard = acc :: s.heard });
           cohort = None;
         })
  in
  let heard protocol =
    let e =
      Sim.Engine.start protocol ~inputs:(Array.make n 0) ~t:0
        ~rng:(Prng.Rng.create 1)
    in
    Sim.Engine.run_until e Sim.Adversary.null ~max_rounds:3;
    Array.map (fun s -> s.heard) (Sim.Engine.states e)
  in
  let aggregate = heard order and legacy = heard (Sim.Protocol.legacy order) in
  let descending = List.init n (fun i -> n - 1 - i) in
  Alcotest.(check (array (list (list int))))
    "legacy: senders prepended in ascending order"
    (Array.make n [ descending; descending; descending ])
    legacy;
  Alcotest.(check (array (list (list int))))
    "aggregate = legacy" legacy aggregate

(* The soundness condition the engine relies on for kill rounds: absorbing
   the messages in any order yields the same accumulator. *)
let prop_synran_absorb_commutes =
  QCheck.Test.make ~name:"synran absorb is order-independent" ~count:100
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let p = Core.Synran.protocol n in
      match p.Sim.Protocol.aggregate with
      | None -> false
      | Some (Sim.Protocol.Aggregate a) ->
          let rng = Prng.Rng.create seed in
          let msgs =
            Array.init n (fun pid ->
                let s =
                  p.Sim.Protocol.init ~n ~pid ~input:(Prng.Rng.bit rng)
                in
                let _, m = p.Sim.Protocol.phase_a s rng in
                (pid, m))
          in
          let fold arr =
            Array.fold_left
              (fun acc (pid, m) -> a.absorb acc ~pid m)
              (a.init ()) arr
          in
          let sorted = fold msgs in
          Prng.Sample.shuffle rng msgs;
          let shuffled = fold msgs in
          (* The accumulator is a plain record of scalars, so structural
             equality is exactly "same aggregate". *)
          sorted = shuffled)

(* --- Shared versus copied recipient lists --------------------------- *)

(* [copied adv] is [adv] with every [deliver_to] rebuilt as a fresh list:
   each group (Sim.Adversary.kill_group) becomes per-victim kills with
   equal lists, which the engines take as one-victim groups. The grouping
   must not be observable: a run and its copied twin are compared on
   outcome, trace, the full event stream (Kill events' order and
   [delivered_to] included) and, where the engine exposes them, the final
   states. *)
let copied (adv : ('s, 'm) Sim.Adversary.t) =
  {
    adv with
    Sim.Adversary.plan =
      (fun view rng ->
        List.map
          (fun k ->
            let fresh = List.map Fun.id k.Sim.Adversary.deliver_to in
            { k with Sim.Adversary.deliver_to = fresh })
          (adv.Sim.Adversary.plan view rng));
  }

let rec split_at k = function
  | x :: rest when k > 0 ->
      let a, b = split_at (k - 1) rest in
      (x :: a, b)
  | l -> ([], l)

(* Plans that mix every grouping case: each round, active victims in
   shuffled order, cut into runs of one to four; a run is silenced,
   killed with a fresh list per victim, or a group sharing one list. A
   group's list repeats pids and names its own victims and pids drawn
   from all of [0, n) (dead, halted and this round's other victims
   included), or is the last group's list again, so one list recurs
   after other runs in between (or next to its first use, making one
   longer run). *)
let grouping () =
  {
    Sim.Adversary.name = "grouping";
    plan =
      (fun view rng ->
        let n = view.Sim.Adversary.n in
        let victims =
          Sim.Adversary.active_pids view
          |> List.filter (fun _ -> Prng.Rng.bernoulli rng 0.35)
          |> List.filteri (fun i _ -> i < view.Sim.Adversary.budget_left)
          |> Array.of_list
        in
        Prng.Sample.shuffle rng victims;
        let drawn () =
          List.init (Prng.Rng.int rng (2 * n)) (fun _ -> Prng.Rng.int rng n)
        in
        let rec runs last = function
          | [] -> []
          | vs ->
              let run, rest = split_at (1 + Prng.Rng.int rng 4) vs in
              let kills, last =
                match Prng.Rng.int rng 4 with
                | 0 -> (List.map Sim.Adversary.kill_silent run, last)
                | 1 ->
                    ( List.map
                        (fun v ->
                          Sim.Adversary.kill_after_send v ~recipients:(drawn ()))
                        run,
                      last )
                | 2 when last <> [] ->
                    (Sim.Adversary.kill_group run ~recipients:last, last)
                | _ ->
                    let shared = run @ drawn () @ List.rev run in
                    (Sim.Adversary.kill_group run ~recipients:shared, shared)
              in
              kills @ runs last rest
        in
        runs [] (Array.to_list victims));
  }

(* [heard_protocol] with pids 3, 7, 11, ... halting after round 1, so
   later lists name halted recipients; its states record every sender
   each process heard, so a misdelivered message shows in them. *)
let heard_n = heard_with ~halts:(fun pid -> pid mod 4 = 3)

(* One run's observable result: its outcome with its trace, its event
   stream, and its final states if the engine exposes them; or the
   [Invalid_kill] message it raised. *)
type 's observed =
  | Ran of
      (Sim.Engine.outcome * Sim.Trace.round_record list)
      * Obs.Event.t list
      * 's array option
  | Refused of string

let observe run =
  let events = ref [] and tr = Sim.Trace.create () in
  let sink =
    Obs.Sink.tee (Sim.Trace.sink tr)
      (Obs.Sink.create (fun ev -> events := ev :: !events))
  in
  match run sink with
  | outcome, states ->
      Ran ((outcome, Sim.Trace.records tr), List.rev !events, states)
  | exception Sim.Engine.Invalid_kill msg -> Refused msg

let same_observed a b =
  match (a, b) with
  | Ran (oa, ea, sa), Ran (ob, eb, sb) ->
      traced_equal oa ob && ea = eb && sa = sb
  | Refused ma, Refused mb -> String.equal ma mb
  | Ran _, Refused _ | Refused _, Ran _ -> false

let max_rounds = 40

let on_engine p ~inputs ~t ~seed adversary sink =
  let e = Sim.Engine.start ~sink p ~inputs ~t ~rng:(Prng.Rng.create seed) in
  Sim.Engine.run_until e adversary ~max_rounds;
  (Sim.Engine.outcome e, Some (Sim.Engine.states e))

let on_bitkernel p ~inputs ~t ~seed adversary sink =
  ( Sim.Bitkernel.run ~sink ~max_rounds p adversary ~inputs ~t
      ~rng:(Prng.Rng.create seed),
    None )

(* The concrete engine's aggregate path, its legacy exchange and, for a
   register protocol, Bitkernel (whose kill rounds run the concrete
   delivery code): on each, a run of [adversary] (built from the run's
   sink: band control emits its Band events there) equals its copied
   twin. *)
let shared_vs_copied ~name ?(count = 20) ~protocol ~adversary ~n () =
  QCheck.Test.make ~name ~count
    QCheck.(pair small_int small_int)
    (fun (seed, tsel) ->
      let t = (n / 2) + (tsel mod (n / 2)) in
      let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
      let runs =
        [ on_engine protocol; on_engine (Sim.Protocol.legacy protocol) ]
        @
        if Sim.Protocol.bitkernel_capable protocol then
          [ on_bitkernel protocol ]
        else []
      in
      List.for_all
        (fun run ->
          let observed wrap =
            observe (fun sink ->
                run ~inputs ~t ~seed (wrap (adversary sink)) sink)
          in
          same_observed (observed Fun.id) (observed copied))
        runs)

let shared_tests =
  let rules = Core.Onesided.paper in
  [
    shared_vs_copied ~name:"synran n=40 vs grouping plans"
      ~protocol:(Core.Synran.protocol 40)
      ~adversary:(fun _ -> grouping ())
      ~n:40 ();
    shared_vs_copied ~name:"floodset n=40 vs grouping plans"
      ~protocol:(Baselines.Floodset.protocol ~rounds:6 ())
      ~adversary:(fun _ -> grouping ())
      ~n:40 ();
    shared_vs_copied ~name:"heard n=24 vs grouping plans" ~protocol:heard_n
      ~adversary:(fun _ -> grouping ())
      ~n:24 ();
    shared_vs_copied ~count:10 ~name:"synran n=64 vs voting band control"
      ~protocol:(Core.Synran.protocol 64)
      ~adversary:(fun sink ->
        Core.Lb_adversary.band_control ~config:Core.Lb_adversary.voting_config
          ~sink ~rules ~bit_of_msg:Core.Synran.bit_of_msg ())
      ~n:64 ();
    shared_vs_copied ~count:10 ~name:"synran-leader n=64 vs leader-killer"
      ~protocol:(Core.Synran.protocol ~coin:Core.Synran.Leader_priority 64)
      ~adversary:(fun _ ->
        Core.Lb_adversary.leader_killer ~rules
          ~bit_of_msg:Core.Synran.bit_of_msg ())
      ~n:64 ();
  ]

(* An out-of-range recipient in a shared list is refused with the
   message a per-victim list gets, on every engine, whoever's turn it is
   to be checked: the group's later victims are not re-checked. *)
let test_shared_out_of_range () =
  let n = 12 in
  let adversary =
    {
      Sim.Adversary.name = "out-of-range";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round < 2 then []
          else
            Sim.Adversary.kill_after_send 1 ~recipients:[ 0; 2 ]
            :: Sim.Adversary.kill_group [ 4; 3; 5 ]
                 ~recipients:[ 0; 6; n + 3; 6 ]);
    }
  in
  let inputs = Array.init n (fun i -> i land 1) in
  let protocol = Core.Synran.protocol n in
  List.iter
    (fun (engine, run) ->
      List.iter
        (fun (plan, adversary) ->
          match observe (run ~inputs ~t:(n - 1) ~seed:3 adversary) with
          | Refused msg ->
              Alcotest.(check string)
                (Printf.sprintf "%s, %s" engine plan)
                (Printf.sprintf "recipient %d out of range" (n + 3))
                msg
          | Ran _ -> Alcotest.failf "%s, %s: plan accepted" engine plan)
        [ ("shared", adversary); ("copied", copied adversary) ])
    [
      ("engine", on_engine protocol);
      ("legacy", on_engine (Sim.Protocol.legacy protocol));
      ("bitkernel", on_bitkernel protocol);
    ]

let suites =
  [
    ( "delivery.differential",
      List.map to_alcotest (synran_tests @ baseline_tests @ game_tests) );
    ( "delivery.hostile-plans",
      Alcotest.test_case "by hand: n=5 deliveries" `Quick test_hand_computed_deliveries
      :: List.map to_alcotest hostile_tests );
    ( "delivery.shared-recipients",
      Alcotest.test_case "out-of-range recipient in a shared list" `Quick
        test_shared_out_of_range
      :: List.map to_alcotest shared_tests );
    ( "delivery.algebra",
      Alcotest.test_case "honest rounds fold senders ascending" `Quick
        test_honest_fold_order
      :: List.map to_alcotest [ prop_synran_absorb_commutes ] );
  ]
