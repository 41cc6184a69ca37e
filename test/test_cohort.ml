(* Differential tests for the population-compressed cohort engine: a run
   through [Sim.Cohort] must be byte-identical — outcomes, decision rounds,
   the full per-round trace, and the observability stream (metrics and
   recorder digests) — to the same run through the concrete [Sim.Engine].
   Both engines consume randomness identically (same per-process streams,
   same adversary stream), so any divergence is a compression bug, not
   noise. Lockstep tests additionally pin the class-decomposition
   invariants round by round: classes are disjoint, members ascending,
   their union is exactly the active set, and every member's class state
   equals the concrete engine's per-process state — i.e. kill-splitting
   preserves the population count and the state multiset. *)

let to_alcotest = QCheck_alcotest.to_alcotest

(* One engine run with the full observability stack attached. *)
let observed_engine ?observer ~protocol ~adversary ~inputs ~t ~seed () =
  let m = Obs.Metrics.create () and rc = Obs.Recorder.create () in
  let sink =
    Obs.Sink.create (fun ev ->
        Obs.Metrics.absorb_event m ev;
        Obs.Recorder.push rc ev)
  in
  let o =
    Test_delivery.traced ~sink (fun sink ->
        Sim.Engine.run ?observer ~sink ~max_rounds:400 protocol (adversary ())
          ~inputs ~t ~rng:(Prng.Rng.create seed))
  in
  (o, Obs.Metrics.digest m, Obs.Recorder.digest rc)

let observed_cohort ?observer ~protocol ~cohort_adversary ~inputs ~t ~seed () =
  let m = Obs.Metrics.create () and rc = Obs.Recorder.create () in
  let sink =
    Obs.Sink.create (fun ev ->
        Obs.Metrics.absorb_event m ev;
        Obs.Recorder.push rc ev)
  in
  let o =
    Test_delivery.traced ~sink (fun sink ->
        Sim.Cohort.run ?observer ~sink ~max_rounds:400 protocol
          (cohort_adversary ()) ~inputs ~t ~rng:(Prng.Rng.create seed))
  in
  (o, Obs.Metrics.digest m, Obs.Recorder.digest rc)

(* Fresh adversaries per run: band_control carries mutable trackers. *)
let differential ~name ?(count = 25) ?observer ~protocol ~adversary
    ~cohort_adversary ~n ~max_t () =
  QCheck.Test.make ~name ~count
    QCheck.(pair small_int small_int)
    (fun (seed, tsel) ->
      let t = tsel mod (max_t + 1) in
      let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
      let o1, m1, r1 =
        observed_engine ?observer ~protocol ~adversary ~inputs ~t ~seed ()
      in
      let o2, m2, r2 =
        observed_cohort ?observer ~protocol ~cohort_adversary ~inputs ~t ~seed
          ()
      in
      Test_delivery.traced_equal o1 o2 && String.equal m1 m2
      && String.equal r1 r2)

let rules = Core.Onesided.paper

let band () =
  Core.Lb_adversary.band_control ~rules ~bit_of_msg:Core.Synran.bit_of_msg ()

let voting () =
  Core.Lb_adversary.band_control ~config:Core.Lb_adversary.voting_config
    ~rules ~bit_of_msg:Core.Synran.bit_of_msg ()

let band_aware () =
  Core.Lb_adversary.band_control_cohort ~rules
    ~bit_of_msg:Core.Synran.bit_of_msg ()

let voting_aware () =
  Core.Lb_adversary.band_control_cohort
    ~config:Core.Lb_adversary.voting_config ~rules
    ~bit_of_msg:Core.Synran.bit_of_msg ()

let wrap make () = Sim.Cohort.Concrete (make ())

let synran_tests =
  let concrete_pairs =
    [
      ("null", fun () -> Sim.Adversary.null);
      ("crash", fun () -> Baselines.Adversaries.random_crash ~p:0.15);
      ("partial", fun () -> Baselines.Adversaries.random_partial ~p:0.15);
      ("drip", fun () -> Baselines.Adversaries.drip ~per_round:1);
      ("band", band);
      ("band-voting", voting);
    ]
  in
  List.map
    (fun (aname, adversary) ->
      differential
        ~name:(Printf.sprintf "synran n=33 cohort vs concrete (%s wrapped)" aname)
        ~observer:Core.Synran.msg_is_one ~protocol:(Core.Synran.protocol 33)
        ~adversary ~cohort_adversary:(wrap adversary) ~n:33 ~max_t:32 ())
    concrete_pairs
  @ [
      (* The cohort-native band planner against the concrete band_control:
         same decisions, same Band events, compressed bookkeeping. *)
      differential
        ~name:"synran n=33 aware band = concrete band"
        ~observer:Core.Synran.msg_is_one ~protocol:(Core.Synran.protocol 33)
        ~adversary:band ~cohort_adversary:band_aware ~n:33 ~max_t:32 ();
      differential
        ~name:"synran n=33 aware voting = concrete voting"
        ~observer:Core.Synran.msg_is_one ~protocol:(Core.Synran.protocol 33)
        ~adversary:voting ~cohort_adversary:voting_aware ~n:33 ~max_t:32 ();
      differential ~count:8
        ~name:"synran n=129 aware band = concrete band"
        ~observer:Core.Synran.msg_is_one ~protocol:(Core.Synran.protocol 129)
        ~adversary:band ~cohort_adversary:band_aware ~n:129 ~max_t:128 ();
      (* Voting's rescues put the most partial deliveries through the
         shared delivered-count tracker. *)
      differential ~count:8
        ~name:"synran n=129 aware voting = concrete voting"
        ~observer:Core.Synran.msg_is_one ~protocol:(Core.Synran.protocol 129)
        ~adversary:voting ~cohort_adversary:voting_aware ~n:129 ~max_t:128 ();
    ]

let floodset_tests =
  List.map
    (fun (aname, adversary) ->
      differential
        ~name:(Printf.sprintf "floodset n=21 cohort vs concrete (%s)" aname)
        ~protocol:(Baselines.Floodset.protocol ~rounds:6 ())
        ~adversary ~cohort_adversary:(wrap adversary) ~n:21 ~max_t:20 ())
    [
      ("null", fun () -> Sim.Adversary.null);
      ("crash", fun () -> Baselines.Adversaries.random_crash ~p:0.2);
      ("partial", fun () -> Baselines.Adversaries.random_partial ~p:0.2);
      ("crash-all", fun () -> Baselines.Adversaries.crash_all_at ~round:2);
    ]

(* Lockstep invariants: step both engines with identical adversaries and
   check the decomposition against the concrete population after every
   round. This is the kill-split conservation property: killing members
   out of a class splits it but never loses or duplicates a process, and
   the class states remain exactly the concrete per-process states. *)
let decomposition_ok e c n =
  let states = Sim.Engine.states e in
  let mask = Sim.Engine.active_mask e in
  let cls = Sim.Cohort.classes c in
  let seen = Array.make n false in
  let ok = ref true in
  let last_least = ref (-1) in
  List.iter
    (fun (st, members) ->
      if Array.length members = 0 then ok := false
      else begin
        (* Sorted by least member across classes. *)
        if members.(0) <= !last_least then ok := false;
        last_least := members.(0)
      end;
      Array.iteri
        (fun i pid ->
          if i > 0 && members.(i - 1) >= pid then ok := false;
          if seen.(pid) then ok := false;
          seen.(pid) <- true;
          if not mask.(pid) then ok := false;
          (* Same state as the concrete process. Physical sharing of any
             closure-bearing substructure (e.g. the rules record) makes
             structural equality safe here. *)
          if not (states.(pid) = st) then ok := false)
        members)
    cls;
  Array.iteri (fun pid m -> if m && not seen.(pid) then ok := false) mask;
  let active = Array.fold_left (fun a m -> if m then a + 1 else a) 0 mask in
  if Sim.Cohort.active_count c <> active then ok := false;
  if List.fold_left (fun acc (_, ms) -> acc + Array.length ms) 0 cls <> active
  then ok := false;
  !ok

let lockstep ~name ?(count = 20) ?(rounds = 12) ~protocol ~adversary ~n ~max_t
    () =
  QCheck.Test.make ~name ~count
    QCheck.(pair small_int small_int)
    (fun (seed, tsel) ->
      let t = tsel mod (max_t + 1) in
      let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
      let e =
        Sim.Engine.start protocol ~inputs ~t ~rng:(Prng.Rng.create seed)
      in
      let c =
        Sim.Cohort.start protocol ~inputs ~t ~rng:(Prng.Rng.create seed)
      in
      let adv_e = adversary () in
      let adv_c = Sim.Cohort.Concrete (adversary ()) in
      let ok = ref (decomposition_ok e c n) in
      (try
         for _ = 1 to rounds do
           if !ok then begin
             let a = Sim.Engine.step e adv_e in
             let b = Sim.Cohort.step c adv_c in
             if a <> b then ok := false;
             if not (decomposition_ok e c n) then ok := false
           end
         done
       with exn ->
         ignore exn;
         ok := false);
      !ok)

(* Runtime witness for lint rule R7 (cohort class-member order): the round
   outcome a protocol's cohort ops compute must not depend on the order in
   which subclasses are enumerated. We run [c_phase_a] once, fold
   [c_absorb] over the subclass list in ascending enumeration order and
   over a random permutation of it, and require the two accumulators to
   induce byte-identical Phase-B results — same state (structural equality
   is safe here for the same reason as in [decomposition_ok]), same
   decision, same halting. The static rule forbids order-sensitive code in
   cohort closures; this property checks the algebra it protects. *)
let shuffle rng a =
  for i = 1 to Array.length a - 1 do
    let j = Prng.Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation_invariance ~name ?(count = 40) ~protocol ~n () =
  let open Sim.Protocol in
  match protocol.aggregate with
  | Some (Aggregate { init; finish; cohort = Some co; _ }) ->
      QCheck.Test.make ~name ~count
        QCheck.(pair small_int small_int)
        (fun (seed, esel) ->
          let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
          let states =
            Array.init n (fun pid -> protocol.init ~n ~pid ~input:inputs.(pid))
          in
          (* Group pids into initial classes by state equality, preserving
             ascending member order within each class. *)
          let classes = ref [] in
          Array.iteri
            (fun pid st ->
              match List.find_opt (fun (s, _) -> co.c_equal s st) !classes with
              | Some (_, members) -> members := pid :: !members
              | None -> classes := !classes @ [ (st, ref [ pid ]) ])
            states;
          let classes =
            List.map
              (fun (st, members) -> (st, Array.of_list (List.rev !members)))
              !classes
          in
          let bank = Prng.Rng.Bank.split (Prng.Rng.create seed) n in
          let subs =
            List.concat_map
              (fun (st, members) -> co.c_phase_a st ~members ~bank)
              classes
          in
          let permuted =
            let a = Array.of_list subs in
            shuffle (Prng.Rng.create (seed + 17)) a;
            Array.to_list a
          in
          (* Alternate between full delivery and a fixed kill set, so the
             [except] path is exercised under permutation too. *)
          let except =
            if esel mod 2 = 0 then None else Some (fun pid -> pid mod 5 = 1)
          in
          let absorb_all l =
            List.fold_left (fun acc s -> co.c_absorb acc s ~except) (init ()) l
          in
          let acc_fwd = absorb_all subs and acc_perm = absorb_all permuted in
          List.for_all
            (fun s ->
              let a = finish s.sub_state ~round:1 acc_fwd in
              let b = finish s.sub_state ~round:1 acc_perm in
              a = b && co.c_equal a b
              && protocol.decision a = protocol.decision b
              && protocol.halted a = protocol.halted b)
            subs)
  | _ ->
      QCheck.Test.make ~name ~count:1 QCheck.unit (fun () ->
          (* A protocol under this property must declare cohort ops. *)
          false)

let permutation_tests =
  [
    permutation_invariance
      ~name:"synran subclass absorb order invariance (R7 witness)"
      ~protocol:(Core.Synran.protocol 33) ~n:33 ();
    permutation_invariance
      ~name:"floodset subclass absorb order invariance (R7 witness)"
      ~protocol:(Baselines.Floodset.protocol ~rounds:4 ())
      ~n:21 ();
  ]

let lockstep_tests =
  [
    lockstep ~name:"lockstep synran vs drip"
      ~protocol:(Core.Synran.protocol 29)
      ~adversary:(fun () -> Baselines.Adversaries.drip ~per_round:2)
      ~n:29 ~max_t:28 ();
    lockstep ~name:"lockstep synran vs partial"
      ~protocol:(Core.Synran.protocol 29)
      ~adversary:(fun () -> Baselines.Adversaries.random_partial ~p:0.25)
      ~n:29 ~max_t:28 ();
    lockstep ~name:"lockstep synran vs band"
      ~protocol:(Core.Synran.protocol 29)
      ~adversary:band ~n:29 ~max_t:28 ();
    lockstep ~name:"lockstep floodset vs partial" ~rounds:6
      ~protocol:(Baselines.Floodset.protocol ~rounds:6 ())
      ~adversary:(fun () -> Baselines.Adversaries.random_partial ~p:0.3)
      ~n:23 ~max_t:22 ();
  ]

(* The engine refuses protocols without cohort operations instead of
   silently running them wrong; capability is declared per protocol. *)
let test_refuses_uncapable () =
  let p = Baselines.Early_stop.protocol ~rounds:4 () in
  Alcotest.(check bool)
    "early-stop is not cohort-capable" false
    (Sim.Protocol.cohort_capable p);
  Alcotest.check_raises "start refuses"
    (Invalid_argument
       (Printf.sprintf "Cohort.start: protocol %s declares no cohort ops"
          p.Sim.Protocol.name))
    (fun () ->
      ignore
        (Sim.Cohort.start p ~inputs:(Array.make 8 0) ~t:2
           ~rng:(Prng.Rng.create 7)))

let test_capability_flags () =
  Alcotest.(check bool)
    "synran is cohort-capable" true
    (Sim.Protocol.cohort_capable (Core.Synran.protocol 16));
  Alcotest.(check bool)
    "floodset is cohort-capable" true
    (Sim.Protocol.cohort_capable (Baselines.Floodset.protocol ~rounds:3 ()))

(* Compression sanity: with no adversary, SynRan's population collapses to
   a handful of classes (coin x bit splits), far below n. *)
let test_compresses () =
  let n = 512 in
  let p = Core.Synran.protocol n in
  let c =
    Sim.Cohort.start p
      ~inputs:(Prng.Sample.random_bits (Prng.Rng.create 3) n)
      ~t:0
      ~rng:(Prng.Rng.create 4)
  in
  for _ = 1 to 5 do
    ignore (Sim.Cohort.step c Sim.Cohort.(Concrete Sim.Adversary.null))
  done;
  let k = List.length (Sim.Cohort.classes c) in
  Alcotest.(check bool)
    (Printf.sprintf "class count %d stays far below n=%d" k n)
    true
    (k > 0 && k <= 24)

let suites =
  [
    ( "cohort.differential",
      List.map to_alcotest (synran_tests @ floodset_tests) );
    ( "cohort.invariants",
      List.map to_alcotest (lockstep_tests @ permutation_tests) );
    ( "cohort.api",
      [
        Alcotest.test_case "refuses non-cohort protocols" `Quick
          test_refuses_uncapable;
        Alcotest.test_case "capability flags" `Quick test_capability_flags;
        Alcotest.test_case "population compresses" `Quick test_compresses;
      ] );
  ]
