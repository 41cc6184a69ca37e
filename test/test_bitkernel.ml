(* The bit-packed engine's correctness battery.

   [bitkernel.differential]: a run through [Sim.Bitkernel] must be
   byte-identical — outcomes, decision rounds, the full per-round trace,
   and the observability stream (metrics and recorder digests) — to the
   same run through the concrete [Sim.Engine]. Both engines consume
   randomness identically (same per-process streams, same adversary
   stream), so any divergence is a packing bug, not noise.

   [bitkernel.words]: QCheck laws for the word-packing primitives —
   pack/unpack round-trips, popcount against a naive bit loop, coin_word
   against the scalar per-process draws, and lockstep-batch vs
   sequential-trial equality at awkward boundaries (n not a multiple of
   the lane count, batch size not a multiple of it either). *)

let to_alcotest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Word-packing primitive laws                                         *)
(* ------------------------------------------------------------------ *)

let naive_popcount w =
  let c = ref 0 in
  for k = 0 to Sim.Bitwords.lanes - 1 do
    if (w lsr k) land 1 = 1 then incr c
  done;
  !c

let word_gen = QCheck.(map (fun (a, b) -> a lxor (b lsl 31)) (pair int int))

let popcount_vs_naive =
  QCheck.Test.make ~name:"popcount = naive bit loop" ~count:1000 word_gen
    (fun w -> Sim.Bitwords.popcount w = naive_popcount w)

let mask_upto_popcount =
  QCheck.Test.make ~name:"mask_upto k has k bits (capped at lanes)" ~count:200
    QCheck.(int_bound 200)
    (fun k ->
      Sim.Bitwords.popcount (Sim.Bitwords.mask_upto k)
      = Stdlib.min k Sim.Bitwords.lanes)

(* Pack a random bool vector into a plane bit by bit; read it back and
   count it both ways. Uses n = 100: not a multiple of the 63-bit lane
   count, so the last word is partial. *)
let pack_unpack_roundtrip =
  QCheck.Test.make ~name:"plane set/get round-trip, n=100" ~count:200
    QCheck.(list_of_size (Gen.return 100) bool)
    (fun bits ->
      let n = List.length bits in
      let nw = Sim.Bitwords.words_for n in
      let plane = Array.make nw 0 in
      List.iteri (fun i b -> Sim.Bitwords.set plane i b) bits;
      let ok = ref true in
      List.iteri
        (fun i b -> if Sim.Bitwords.get plane i <> b then ok := false)
        bits;
      let expected = List.length (List.filter Fun.id bits) in
      let full = Array.make nw 0 in
      List.iteri (fun i _ -> Sim.Bitwords.set full i true) bits;
      !ok && Sim.Bitwords.popcount_masked plane full nw = expected)

let iter_ones_ascending =
  QCheck.Test.make ~name:"iter_ones visits set bits ascending" ~count:200
    QCheck.(list_of_size (Gen.return 130) bool)
    (fun bits ->
      let n = List.length bits in
      let nw = Sim.Bitwords.words_for n in
      let plane = Array.make nw 0 in
      List.iteri (fun i b -> Sim.Bitwords.set plane i b) bits;
      let seen = ref [] in
      Sim.Bitwords.iter_ones plane nw (fun i -> seen := i :: !seen);
      let seen = List.rev !seen in
      let expected =
        List.mapi (fun i b -> (i, b)) bits
        |> List.filter_map (fun (i, b) -> if b then Some i else None)
      in
      seen = expected)

(* coin_word must consume exactly the scalar per-process draws: one
   Rng.bit from each masked stream, ascending. Splitting the same parent
   twice gives two identical stream families to compare against. *)
let coin_word_matches_scalar =
  QCheck.Test.make ~name:"coin_word = scalar per-process bits" ~count:200
    QCheck.(pair small_int word_gen)
    (fun (seed, mask) ->
      let streams1 = Prng.Rng.split_n (Prng.Rng.create seed) Sim.Bitwords.lanes in
      let streams2 = Prng.Rng.split_n (Prng.Rng.create seed) Sim.Bitwords.lanes in
      let w =
        Prng.Sample.coin_word ~rng_of:(fun k -> streams1.(k)) ~base:0 ~mask
      in
      let scalar = ref 0 in
      for k = 0 to Sim.Bitwords.lanes - 1 do
        if (mask lsr k) land 1 = 1 then
          if Prng.Rng.bit streams2.(k) = 1 then scalar := !scalar lor (1 lsl k)
      done;
      (* Identical packed bits, and identical leftover stream state. *)
      w = !scalar
      && Array.for_all2
           (fun a b -> Prng.Rng.bits64 a = Prng.Rng.bits64 b)
           streams1 streams2)

(* ------------------------------------------------------------------ *)
(* Differential suite: Bitkernel vs Engine                             *)
(* ------------------------------------------------------------------ *)

let observed run_engine ~protocol ~adversary ~observer ~inputs ~t ~seed =
  let m = Obs.Metrics.create () and rc = Obs.Recorder.create () in
  let sink =
    Obs.Sink.create (fun ev ->
        Obs.Metrics.absorb_event m ev;
        Obs.Recorder.push rc ev)
  in
  let o =
    run_engine ~record_trace:true ~observer ~sink ~max_rounds:400 protocol
      (adversary ()) ~inputs ~t
      ~rng:(Prng.Rng.create seed)
  in
  (o, Obs.Metrics.digest m, Obs.Recorder.digest rc)

let engine_run ~record_trace ~observer ~sink ~max_rounds protocol adversary
    ~inputs ~t ~rng =
  Sim.Engine.run ~record_trace ~observer ~sink ~max_rounds protocol adversary
    ~inputs ~t ~rng

let bitkernel_run ~record_trace ~observer ~sink ~max_rounds protocol adversary
    ~inputs ~t ~rng =
  Sim.Bitkernel.run ~record_trace ~observer ~sink ~max_rounds protocol
    adversary ~inputs ~t ~rng

(* Fresh adversaries per run: band_control and valency_steer carry
   mutable or stream-consuming behaviour. *)
let differential ~name ?(count = 25) ~observer ~protocol ~adversary ~n ~max_t
    () =
  QCheck.Test.make ~name ~count
    QCheck.(pair small_int small_int)
    (fun (seed, tsel) ->
      let t = tsel mod (max_t + 1) in
      let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
      let o1, m1, r1 =
        observed engine_run ~protocol ~adversary ~observer ~inputs ~t ~seed
      in
      let o2, m2, r2 =
        observed bitkernel_run ~protocol ~adversary ~observer ~inputs ~t ~seed
      in
      Test_delivery.outcomes_equal o1 o2 && String.equal m1 m2
      && String.equal r1 r2)

let rules = Core.Onesided.paper

let synran_adversaries =
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
    ( "valency-steer",
      fun () ->
        Baselines.Adversaries.valency_steer ~per_round:2
          ~msg_is_one:Core.Synran.msg_is_one () );
  ]

let synran_tests =
  List.map
    (fun (aname, adversary) ->
      differential
        ~name:(Printf.sprintf "synran n=33 bitkernel vs engine (%s)" aname)
        ~observer:Core.Synran.msg_is_one ~protocol:(Core.Synran.protocol 33)
        ~adversary ~n:33 ~max_t:32 ())
    synran_adversaries
  @ [
      differential ~count:8
        ~name:"synran n=129 bitkernel vs engine (band)"
        ~observer:Core.Synran.msg_is_one ~protocol:(Core.Synran.protocol 129)
        ~adversary:(fun () ->
          Core.Lb_adversary.band_control ~rules
            ~bit_of_msg:Core.Synran.bit_of_msg ())
        ~n:129 ~max_t:128 ();
      (* Leader_priority flips read the max-(priv, pid) sender's bit:
         packed rounds compute it from the lanes, kill rounds from the
         aggregate, and both must match. *)
      differential ~count:15
        ~name:"synran n=33 leader coin bitkernel vs engine (crash)"
        ~observer:Core.Synran.msg_is_one
        ~protocol:(Core.Synran.protocol ~coin:Core.Synran.Leader_priority 33)
        ~adversary:(fun () -> Baselines.Adversaries.random_crash ~p:0.15)
        ~n:33 ~max_t:32 ();
      differential ~count:15
        ~name:"synran n=33 oracle coin bitkernel vs engine (partial)"
        ~observer:Core.Synran.msg_is_one
        ~protocol:
          (Core.Synran.protocol ~coin:(Core.Synran.Shared_oracle 7) 33)
        ~adversary:(fun () -> Baselines.Adversaries.random_partial ~p:0.15)
        ~n:33 ~max_t:32 ();
    ]

let floodset_tests =
  List.map
    (fun (aname, adversary) ->
      differential
        ~name:(Printf.sprintf "floodset n=40 bitkernel vs engine (%s)" aname)
        ~observer:Baselines.Floodset.msg_has_one
        ~protocol:(Baselines.Floodset.protocol ~rounds:9 ())
        ~adversary ~n:40 ~max_t:39 ())
    [
      ("null", fun () -> Sim.Adversary.null);
      ("crash", fun () -> Baselines.Adversaries.random_crash ~p:0.2);
      ("partial", fun () -> Baselines.Adversaries.random_partial ~p:0.2);
      ( "valency-steer",
        fun () ->
          Baselines.Adversaries.valency_steer ~per_round:2
            ~msg_is_one:Baselines.Floodset.msg_has_one
            () );
    ]

(* The kernel must actually batch: under the null adversary every round
   is uniform, so no scalar fallback may fire. *)
(* Step [e] until quiescent, at most 400 rounds. *)
let drive e adversary =
  while
    Sim.Bitkernel.round e < 400
    && Sim.Bitkernel.step e adversary = `Continue
  do
    ()
  done

let test_null_rounds_all_packed () =
  let protocol = Core.Synran.protocol 200 in
  let inputs = Prng.Sample.random_bits (Prng.Rng.create 11) 200 in
  let e =
    Sim.Bitkernel.start protocol ~inputs ~t:0 ~rng:(Prng.Rng.create 3)
  in
  drive e Sim.Adversary.null;
  Alcotest.(check int) "no scalar fallback rounds" 0
    (Sim.Bitkernel.scalar_rounds e);
  Alcotest.(check bool)
    "batched at least one round" true
    (Sim.Bitkernel.packed_rounds e > 0);
  Alcotest.(check bool)
    "run decided" true
    (Option.is_some (Sim.Bitkernel.outcome e).Sim.Engine.rounds_to_decide)

(* A Leader_priority flip is packed too: 65 ones of 129 is a flip round,
   and the leader's bit comes from a lane scan, with no scalar fallback. *)
let test_leader_flips_packed () =
  let n = 129 in
  let protocol = Core.Synran.protocol ~coin:Core.Synran.Leader_priority n in
  let inputs = Array.init n (fun i -> if i < 65 then 1 else 0) in
  let e = Sim.Bitkernel.start protocol ~inputs ~t:0 ~rng:(Prng.Rng.create 4) in
  drive e Sim.Adversary.null;
  Alcotest.(check int) "no scalar fallback rounds" 0
    (Sim.Bitkernel.scalar_rounds e);
  let concrete =
    Sim.Engine.run protocol Sim.Adversary.null ~inputs ~t:0
      ~rng:(Prng.Rng.create 4)
  in
  Alcotest.(check bool)
    "same outcome as the concrete engine" true
    (Test_delivery.outcomes_equal concrete (Sim.Bitkernel.outcome e))

(* Adaptive kills force the fallback, and the kernel re-packs after.
   FloodSet runs exactly 9 rounds; drip with budget 3 individuates the
   first three, so the last six must re-enter packed mode. *)
let test_kills_fall_back_and_repack () =
  let protocol = Baselines.Floodset.protocol ~rounds:9 () in
  let inputs = Prng.Sample.random_bits (Prng.Rng.create 21) 96 in
  let e =
    Sim.Bitkernel.start protocol ~inputs ~t:3 ~rng:(Prng.Rng.create 5)
  in
  drive e (Baselines.Adversaries.drip ~per_round:1);
  Alcotest.(check int) "three drip rounds ran scalar" 3
    (Sim.Bitkernel.scalar_rounds e);
  Alcotest.(check int) "remaining rounds stayed word-level" 6
    (Sim.Bitkernel.packed_rounds e)

let suites =
  [
    ( "bitkernel.words",
      List.map to_alcotest
        [
          popcount_vs_naive;
          mask_upto_popcount;
          pack_unpack_roundtrip;
          iter_ones_ascending;
          coin_word_matches_scalar;
        ] );
    ( "bitkernel.differential",
      List.map to_alcotest (synran_tests @ floodset_tests)
      @ [
          Alcotest.test_case "null-adversary rounds all batched" `Quick
            test_null_rounds_all_packed;
          Alcotest.test_case "leader flips stay packed" `Quick
            test_leader_flips_packed;
          Alcotest.test_case "kills fall back to scalar then re-pack" `Quick
            test_kills_fall_back_and_repack;
        ] );
  ]
