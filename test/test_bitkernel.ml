(* The bit-packed engine's correctness battery.

   [bitkernel.differential]: a run through [Sim.Bitkernel] must be
   byte-identical — outcomes, decision rounds, the full per-round trace,
   and the observability stream (metrics and recorder digests) — to the
   same run through the concrete [Sim.Engine]. Both engines consume
   randomness identically (same per-process streams, same adversary
   stream), so any divergence is a packing bug, not noise.

   [bitkernel.words]: QCheck laws for the word-packing primitives —
   pack/unpack round-trips, popcount against a naive bit loop, the PRNG's
   word kernel against the scalar per-process draws, and lockstep-batch vs
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

(* The word kernel must consume exactly the scalar per-process draws:
   from each masked stream, ascending, one Rng.bit (when [coin]) and then
   one Rng.int bound (when bound > 0). The kernel steps a bank in place;
   the scalar loop draws from the [Rng.split] oracle of each stream, the
   master's sequential splits. [base] puts the word at lanes 63..125 of
   126 streams. Bounds cover no aux draw (0), the draw-free 1,
   rejection-heavy ones and SynRan's 10^9. *)
let draw_word_matches_scalar =
  QCheck.Test.make ~name:"draw_word = scalar bit-then-int per process"
    ~count:300
    QCheck.(
      quad small_int word_gen bool
        (oneofl [ 0; 1; 2; 3; 5; 1 lsl 20 + 1; 1_000_000_000; max_int ]))
    (fun (seed, mask, coin, bound) ->
      let lanes = Sim.Bitwords.lanes in
      let base = lanes and n = 2 * lanes in
      let bank = Prng.Rng.Bank.split (Prng.Rng.create seed) n in
      let master = Prng.Rng.create seed in
      let streams = Array.init n (fun _ -> Prng.Rng.split master) in
      let priv1 = Array.make n (-1) and priv2 = Array.make n (-1) in
      let w = Prng.Rng.Bank.draw_word bank ~base ~mask ~coin ~bound priv1 in
      let scalar = ref 0 in
      for k = 0 to lanes - 1 do
        if (mask lsr k) land 1 = 1 then begin
          let g = streams.(base + k) in
          if coin && Prng.Rng.bit g = 1 then scalar := !scalar lor (1 lsl k);
          if bound > 0 then priv2.(base + k) <- Prng.Rng.int g bound
        end
      done;
      (* Identical coin word, every priv (untouched lanes included), and
         identical leftover stream state. *)
      w = !scalar && priv1 = priv2
      && Array.for_all Fun.id
           (Array.init n (fun i ->
                Prng.Rng.bits64 (Prng.Rng.Bank.load bank i)
                = Prng.Rng.bits64 streams.(i))))

(* ------------------------------------------------------------------ *)
(* Differential suite: Bitkernel vs Engine                             *)
(* ------------------------------------------------------------------ *)

(* One run on [engine], through the Runner's dispatch, from a copy of
   [rng]: its outcome and trace, and the digests of its metrics and event
   stream. *)
let observed ?(max_rounds = 400) engine ~protocol ~adversary ~observer
    ~inputs ~t ~rng =
  let m = Obs.Metrics.create () and rc = Obs.Recorder.create () in
  let sink =
    Obs.Sink.create (fun ev ->
        Obs.Metrics.absorb_event m ev;
        Obs.Recorder.push rc ev)
  in
  let o =
    Test_delivery.traced ~sink (fun sink ->
        Sim.Runner.run_engine engine ~observer ~sink ~max_rounds protocol
          (adversary ()) ~inputs ~t ~rng:(Prng.Rng.copy rng))
  in
  (o, Obs.Metrics.digest m, Obs.Recorder.digest rc)

(* Fresh adversaries per run: band_control and valency_steer carry
   mutable or stream-consuming behaviour. *)
let differential ~name ?(count = 25) ~observer ~protocol ~adversary ~n ~max_t
    () =
  QCheck.Test.make ~name ~count
    QCheck.(pair small_int small_int)
    (fun (seed, tsel) ->
      let t = tsel mod (max_t + 1) in
      let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
      let rng = Prng.Rng.create seed in
      let o1, m1, r1 =
        observed `Concrete ~protocol ~adversary ~observer ~inputs ~t ~rng
      in
      let o2, m2, r2 =
        observed `Bitkernel ~protocol ~adversary ~observer ~inputs ~t ~rng
      in
      Test_delivery.traced_equal o1 o2 && String.equal m1 m2
      && String.equal r1 r2)

(* One fixed-input run through both engines: outcome, metrics digest and
   event-stream digest must agree. *)
let same_as_engine ?max_rounds ?(what = "") ~observer ~protocol ~adversary
    ~inputs ~t ~rng () =
  let observed engine =
    observed ?max_rounds engine ~protocol ~adversary ~observer ~inputs ~t ~rng
  in
  let o1, m1, r1 = observed `Concrete in
  let o2, m2, r2 = observed `Bitkernel in
  Alcotest.(check bool)
    (what ^ "outcome and trace") true
    (Test_delivery.traced_equal o1 o2);
  Alcotest.(check string) (what ^ "metrics digest") m1 m2;
  Alcotest.(check string) (what ^ "event-stream digest") r1 r2

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
      (* 100 = 63 + 37: the last word is partial, and silent kills land
         in both words. *)
      differential ~count:15 ~name:"synran n=100 bitkernel vs engine (crash)"
        ~observer:Core.Synran.msg_is_one ~protocol:(Core.Synran.protocol 100)
        ~adversary:(fun () -> Baselines.Adversaries.random_crash ~p:0.15)
        ~n:100 ~max_t:99 ();
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

(* ------------------------------------------------------------------ *)
(* The E-table populations: Bitkernel vs Engine                        *)
(* ------------------------------------------------------------------ *)

(* [--engine auto] runs every register protocol on Bitkernel, so the
   E-tables are Bitkernel's. Each population an experiment folds through
   the Runner (its protocol, adversary, t, round cap and inputs) is
   replayed here on both engines for the Runner's first two trials at
   the experiments' default seed: outcome, trace, metrics and event
   stream must agree. *)
let population label ?(observer = Core.Synran.msg_is_one) ?(max_rounds = 2000)
    ?(gen = `Random) ~n ~t protocol adversary exp =
  List.iter
    (fun index ->
      let rng = Prng.Rng.of_seed_index ~seed:42 ~index in
      let inputs =
        match gen with
        | `Random -> Sim.Runner.input_gen_random ~n rng
        | `Split -> Sim.Runner.input_gen_split ~n rng
        | `Const f -> Array.init n f
      in
      let what =
        Printf.sprintf "%s %s n=%d t=%d, trial %d: " exp label n t index
      in
      same_as_engine ~max_rounds ~what ~observer ~protocol ~adversary ~inputs
        ~t ~rng ())
    [ 0; 1 ]

let band ?(config = Core.Lb_adversary.default_config) rules () =
  Core.Lb_adversary.band_control ~config ~rules
    ~bit_of_msg:Core.Synran.bit_of_msg ()

let strongest = band rules
let voting = band ~config:Core.Lb_adversary.voting_config rules

let leader_killer () =
  Core.Lb_adversary.leader_killer ~rules ~bit_of_msg:Core.Synran.bit_of_msg ()

let fractions n fs = List.map (fun f -> int_of_float (f *. float_of_int n)) fs

(* E3 at the quick sizes and the full profile's n = 512. *)
let e3_populations =
  List.concat_map
    (fun n ->
      let t = n - 1 and p = Core.Synran.protocol n in
      [
        population "strongest" ~n ~t p strongest;
        population "voting" ~n ~t p voting;
      ])
    [ 32; 64; 128; 512 ]

let e4_populations =
  let n = 96 in
  let p = Core.Synran.protocol n in
  List.concat_map
    (fun t ->
      [
        population "strongest" ~n ~t p strongest;
        population "voting" ~n ~t p voting;
      ])
    (fractions n [ 0.1; 0.25; 0.5; 0.75; 0.9 ] @ [ n - 1 ])

(* E5 at both profiles' n: split inputs, t = n - 2. *)
let e5_populations =
  List.concat_map
    (fun n ->
      let t = n - 2 and p = Core.Synran.protocol n in
      let pop label = population label ~max_rounds:500 ~gen:`Split ~n ~t p in
      [
        pop "null" (fun () -> Sim.Adversary.null);
        pop "random-crash" (fun () ->
            Baselines.Adversaries.random_crash ~p:0.2);
        pop "static-random" (fun () ->
            Baselines.Adversaries.static_random ~seed:42 ~n ~budget:t
              ~horizon:8);
        pop "drip" (fun () -> Baselines.Adversaries.drip ~per_round:1);
        pop "band-control"
          (band ~config:{ Core.Lb_adversary.default_config with min_active = 4 }
             rules);
      ])
    [ 10; 16 ]

(* E6: SynRan under the strongest attack, and FloodSet's t+1 rounds on
   alternating inputs under drip. *)
let e6_populations =
  let n = 64 in
  List.concat_map
    (fun t ->
      [
        population "synran strongest" ~n ~t (Core.Synran.protocol n) strongest;
        population "floodset drip" ~observer:Baselines.Floodset.msg_has_one
          ~gen:(`Const (fun i -> i land 1))
          ~n ~t
          (Baselines.Floodset.protocol ~rounds:(t + 1) ())
          (fun () -> Baselines.Adversaries.drip ~per_round:1);
      ])
    (List.map (Stdlib.max 1) (fractions n [ 0.05; 0.1; 0.25; 0.5; 0.75 ])
    @ [ n - 1 ])

(* E7 at the quick sizes and the full profile's n = 256, the leader coin
   included. *)
let e7_populations =
  List.concat_map
    (fun n ->
      let t = n - 1 in
      let pop label coin =
        population label ~max_rounds:3000 ~gen:`Split ~n ~t
          (Core.Synran.protocol ~coin n)
      in
      let static () =
        Baselines.Adversaries.static_random ~seed:42 ~n ~budget:t ~horizon:6
      in
      let paper = Core.Synran.Local_flip
      and leader = Core.Synran.Leader_priority in
      [
        pop "synran oblivious" paper static;
        pop "synran voting" paper voting;
        pop "synran strongest" paper strongest;
        pop "synran leader-killer" paper leader_killer;
        pop "leader null" leader (fun () -> Sim.Adversary.null);
        pop "leader oblivious" leader static;
        pop "leader leader-killer" leader leader_killer;
      ])
    [ 64; 128; 256 ]

(* E8: every rule set, the static-schedule massacre included. *)
let e8_populations =
  let n = 48 in
  let t = n - 1 in
  List.concat_map
    (fun (r : Core.Onesided.rules) ->
      let pop name =
        population (r.Core.Onesided.label ^ " " ^ name) ~max_rounds:400 ~n ~t
          (Core.Synran.protocol ~rules:r n)
      in
      [
        pop "null" (fun () -> Sim.Adversary.null);
        pop "voting" (band ~config:Core.Lb_adversary.voting_config r);
        pop "strongest"
          (band
             ~config:{ Core.Lb_adversary.default_config with desperate = true }
             r);
        population (r.Core.Onesided.label ^ " massacre") ~max_rounds:400
          ~gen:(`Const (fun _ -> 1))
          ~n ~t
          (Core.Synran.protocol ~rules:r n)
          (fun () ->
            Baselines.Adversaries.static_schedule
              (List.init (7 * n / 10) (fun pid -> (1, pid))));
      ])
    Core.Onesided.[ paper; no_zero_rule; symmetric ]

(* E10: every coin, so the shared oracle's rounds are covered too. *)
let e10_populations =
  let n = 96 in
  let t = n - 1 in
  List.concat_map
    (fun (cname, coin) ->
      let pop aname =
        population (cname ^ " " ^ aname) ~n ~t (Core.Synran.protocol ~coin n)
      in
      [
        pop "null" (fun () -> Sim.Adversary.null);
        pop "voting" voting;
        pop "strongest" strongest;
        pop "leader-killer" leader_killer;
      ])
    Core.Synran.
      [
        ("private", Local_flip);
        ("leader", Leader_priority);
        ("shared-oracle", Shared_oracle 271828);
      ]

let etable_test (exp, populations) =
  Alcotest.test_case (exp ^ " populations: bitkernel = engine") `Quick
    (fun () -> List.iter (fun check -> check exp) populations)

let etable_tests =
  List.map etable_test
    [
      ("E3", e3_populations);
      ("E4", e4_populations);
      ("E5", e5_populations);
      ("E6", e6_populations);
      ("E7", e7_populations);
      ("E8", e8_populations);
      ("E10", e10_populations);
    ]

(* A register protocol whose outcome is the carried count of a
   [Not]-sourced register: every round complements both registers into
   each other, folds the received count of register 1 into [acc], and
   the last round decides [acc]. An off count for a [Not] source, in any
   round, changes the decision. *)
type swap = { r : int; acc : int; x : bool; y : bool; out : int option }

let not_swap ~rounds =
  Sim.Protocol.registers ~name:"not-swap"
    ~init:(fun ~n:_ ~input ->
      { r = 0; acc = 0; x = input = 1; y = false; out = None })
    ~decision:(fun s -> s.out)
    ~halted:(fun s -> Option.is_some s.out)
    ~hash:(fun s -> Hashtbl.hash (s.r, s.acc, s.x, s.y, s.out))
    ~transition:(fun s ~round:_ ~nrecv:_ ~(tallies : Sim.Protocol.tallies) ->
      let r = s.r + 1 and acc = (128 * s.acc) + tallies.counts.(1) in
      let last = r >= rounds in
      let out = if last then Some acc else None in
      {
        Sim.Protocol.ws_state = { s with r; acc; out };
        ws_regs = [| Sim.Protocol.Not 1; Not 0 |];
        ws_decide = Option.map (fun v -> Sim.Protocol.Decide_const v) out;
        ws_halt = last;
      })
    {
      Sim.Protocol.bo_width = 2;
      bo_pack = (fun s -> Bool.to_int s.x lor (Bool.to_int s.y lsl 1));
      bo_unpack =
        (fun t regs -> { t with x = regs land 1 = 1; y = regs land 2 = 2 });
      bo_uniform = (fun a b -> a.r = b.r && a.acc = b.acc && a.out = b.out);
      bo_coin_reg = None;
      bo_aux_bound = None;
    }

(* n = 100 spans two words; counts stay below 128, so [acc] keeps every
   round's count. *)
let not_swap_tests =
  List.map
    (fun (aname, adversary) ->
      differential
        ~name:(Printf.sprintf "not-swap n=100 bitkernel vs engine (%s)" aname)
        ~observer:(fun (m : Sim.Protocol.word) -> m.regs land 2 <> 0)
        ~protocol:(not_swap ~rounds:6) ~adversary ~n:100 ~max_t:40 ())
    [
      ("null", fun () -> Sim.Adversary.null);
      ("crash", fun () -> Baselines.Adversaries.random_crash ~p:0.1);
      ("drip", fun () -> Baselines.Adversaries.drip ~per_round:3);
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

(* A partial delivery splits the receivers into classes, each running the
   word transition on its own lanes: FloodSet runs exactly 9 rounds, and
   a fixed schedule delivers one victim's message to one receiver in each
   of the first three, so the receivers hold different value words and
   templates, yet every round stays packed. *)
let partial_schedule ~rounds =
  {
    Sim.Adversary.name = "partial-schedule";
    plan =
      (fun view _rng ->
        if view.Sim.Adversary.round > rounds then []
        else
          match Sim.Adversary.active_pids view with
          | victim :: first :: _ ->
              [ Sim.Adversary.kill_after_send victim ~recipients:[ first ] ]
          | _ -> []);
  }

let test_partial_kills_stay_packed () =
  let protocol = Baselines.Floodset.protocol ~rounds:9 () in
  let inputs = Prng.Sample.random_bits (Prng.Rng.create 21) 96 in
  same_as_engine ~observer:Baselines.Floodset.msg_has_one ~protocol
    ~adversary:(fun () -> partial_schedule ~rounds:3)
    ~inputs ~t:3 ~rng:(Prng.Rng.create 5) ();
  let e =
    Sim.Bitkernel.start protocol ~inputs ~t:3 ~rng:(Prng.Rng.create 5)
  in
  drive e (partial_schedule ~rounds:3);
  Alcotest.(check int) "no scalar fallback rounds" 0
    (Sim.Bitkernel.scalar_rounds e);
  Alcotest.(check int) "every round word-level" 9
    (Sim.Bitkernel.packed_rounds e)

(* Per-victim recipient lists are the one shape that leaves the packed
   path: random-partial's lists split the receivers into more classes
   than the kernel runs, so those rounds take Engine's delivery code, and
   the run still matches Engine. n = 256 leaves room for more than 64
   receiver classes. *)
let test_per_victim_lists_fall_back () =
  let n = 256 in
  let protocol = Core.Synran.protocol n in
  let inputs = Prng.Sample.random_bits (Prng.Rng.create 22) n in
  let adversary () = Baselines.Adversaries.random_partial ~p:0.1 in
  same_as_engine ~observer:Core.Synran.msg_is_one ~protocol ~adversary ~inputs
    ~t:(n / 2) ~rng:(Prng.Rng.create 6) ();
  let e =
    Sim.Bitkernel.start protocol ~inputs ~t:(n / 2) ~rng:(Prng.Rng.create 6)
  in
  drive e (adversary ());
  Alcotest.(check bool)
    (Printf.sprintf "scalar fallback rounds (%d)" (Sim.Bitkernel.scalar_rounds e))
    true
    (Sim.Bitkernel.scalar_rounds e > 0)

(* Silent kills leave every survivor hearing the same senders, so drip's
   rounds stay packed: the victims leave the mask and nothing unpacks. *)
let test_silent_kills_stay_packed () =
  let protocol = Baselines.Floodset.protocol ~rounds:9 () in
  let inputs = Prng.Sample.random_bits (Prng.Rng.create 21) 96 in
  let e =
    Sim.Bitkernel.start protocol ~inputs ~t:3 ~rng:(Prng.Rng.create 5)
  in
  drive e (Baselines.Adversaries.drip ~per_round:1);
  Alcotest.(check int) "no scalar fallback rounds" 0
    (Sim.Bitkernel.scalar_rounds e);
  Alcotest.(check int) "every round word-level" 9
    (Sim.Bitkernel.packed_rounds e);
  Alcotest.(check int) "drip spent its budget" 3
    (Sim.Bitkernel.outcome e).Sim.Engine.kills_used

(* The band_n1e5 mechanism at a multi-word n: every kill the default band
   control makes in this run is silent (its stability-breaking bursts
   are), so the whole run stays packed while the adversary spends its
   budget. *)
let test_band_control_stays_packed () =
  let n = 200 in
  let protocol = Core.Synran.protocol n in
  let inputs = Prng.Sample.random_bits (Prng.Rng.create 12) n in
  let band () =
    Core.Lb_adversary.band_control ~rules ~bit_of_msg:Core.Synran.bit_of_msg ()
  in
  let e =
    Sim.Bitkernel.start protocol ~inputs ~t:(n - 1) ~rng:(Prng.Rng.create 6)
  in
  drive e (band ());
  let o = Sim.Bitkernel.outcome e in
  Alcotest.(check int) "no scalar fallback rounds" 0
    (Sim.Bitkernel.scalar_rounds e);
  Alcotest.(check bool)
    "band control killed" true
    (o.Sim.Engine.kills_used > 0);
  let concrete =
    Sim.Engine.run ~max_rounds:400 protocol (band ()) ~inputs ~t:(n - 1)
      ~rng:(Prng.Rng.create 6)
  in
  Alcotest.(check bool)
    "same outcome as the concrete engine" true
    (Test_delivery.outcomes_equal concrete o)

(* ------------------------------------------------------------------ *)
(* Edges of the silent-kill packed path                                *)
(* ------------------------------------------------------------------ *)

(* [protocol] with its packed transition counted: [calls] counts the
   kernel's [bo_step] calls and [leaders] the leader tallies it forced. *)
let counting_steps protocol =
  let calls = ref 0 and leaders = ref 0 in
  let bo = Option.get protocol.Sim.Protocol.bitops in
  let bo_step s ~round ~nrecv ~(tallies : Sim.Protocol.tallies) =
    incr calls;
    let leader =
      lazy
        (incr leaders;
         Lazy.force tallies.leader)
    in
    bo.Sim.Protocol.bo_step s ~round ~nrecv ~tallies:{ tallies with leader }
  in
  ( { protocol with Sim.Protocol.bitops = Some { bo with bo_step } },
    calls,
    leaders )

(* Round 2 kills every active process silently: nobody receives, so the
   transition does not run, the leader is never forced, and the round
   delivers nothing. *)
let test_kill_all_active () =
  let n = 129 in
  let protocol, calls, leaders =
    counting_steps (Core.Synran.protocol ~coin:Core.Synran.Leader_priority n)
  in
  let inputs = Array.init n (fun i -> if i < 65 then 1 else 0) in
  let adversary () = Baselines.Adversaries.crash_all_at ~round:2 in
  same_as_engine ~observer:Core.Synran.msg_is_one ~protocol ~adversary ~inputs
    ~t:n ~rng:(Prng.Rng.create 4) ();
  let delivered = ref [] in
  let sink =
    Obs.Sink.create (function
      | Obs.Event.Round r -> delivered := r.delivered :: !delivered
      | _ -> ())
  in
  let e =
    Sim.Bitkernel.start ~sink protocol ~inputs ~t:n ~rng:(Prng.Rng.create 4)
  in
  calls := 0;
  leaders := 0;
  drive e (adversary ());
  Alcotest.(check int) "both rounds packed" 2 (Sim.Bitkernel.packed_rounds e);
  Alcotest.(check int) "transition ran in round 1 only" 1 !calls;
  Alcotest.(check int) "round 1's flip forced the leader once" 1 !leaders;
  Alcotest.(check (list int)) "deliveries per round" [ 0; n * n ] !delivered;
  Alcotest.(check int) "everyone dead" n
    (Sim.Bitkernel.outcome e).Sim.Engine.kills_used

(* FloodSet's last round is a silent-kill round: the survivors decide and
   halt on it, the victims stay undecided. *)
let test_survivors_decide_and_halt () =
  let protocol = Baselines.Floodset.protocol ~rounds:3 () in
  let inputs = Prng.Sample.random_bits (Prng.Rng.create 8) 40 in
  let adversary () =
    Baselines.Adversaries.static_schedule [ (3, 0); (3, 17); (3, 39) ]
  in
  same_as_engine ~observer:Baselines.Floodset.msg_has_one ~protocol ~adversary
    ~inputs ~t:3 ~rng:(Prng.Rng.create 2) ();
  let e = Sim.Bitkernel.start protocol ~inputs ~t:3 ~rng:(Prng.Rng.create 2) in
  drive e (adversary ());
  let o = Sim.Bitkernel.outcome e in
  Alcotest.(check int) "no scalar fallback rounds" 0
    (Sim.Bitkernel.scalar_rounds e);
  Alcotest.(check (option int)) "decided in round 3" (Some 3)
    o.Sim.Engine.rounds_to_decide;
  Array.iteri
    (fun i d ->
      let victim = i = 0 || i = 17 || i = 39 in
      Alcotest.(check bool) (Printf.sprintf "process %d decided" i) (not victim)
        (Option.is_some d);
      Alcotest.(check bool) (Printf.sprintf "process %d halted" i) (not victim)
        o.Sim.Engine.halted.(i))
    o.Sim.Engine.decisions

(* Kill this round's leader, the max-(priv, pid) sender, silently. *)
let kill_leader =
  {
    Sim.Adversary.name = "kill-leader";
    plan =
      (fun view _rng ->
        let priv = view.Sim.Adversary.priv and best = ref (-1) in
        (* Senders ascend, so a priv tie goes to the larger pid. *)
        view.Sim.Adversary.iter_senders All (fun i ->
            if !best < 0 || priv i >= priv !best then best := i);
        if !best >= 0 && view.Sim.Adversary.budget_left > 0 then
          [ Sim.Adversary.kill_silent !best ]
        else []);
  }

(* Under Leader_priority the flip reads the leader's bit; with the leader
   killed silently it must be picked among the survivors only. 65 ones of
   129 makes round 1 a flip round. *)
let test_leader_among_survivors () =
  let n = 129 in
  let protocol = Core.Synran.protocol ~coin:Core.Synran.Leader_priority n in
  let inputs = Array.init n (fun i -> if i < 65 then 1 else 0) in
  for seed = 1 to 6 do
    same_as_engine ~observer:Core.Synran.msg_is_one ~protocol
      ~adversary:(fun () -> kill_leader) ~inputs ~t:20
      ~rng:(Prng.Rng.create seed) ()
  done

(* A register protocol that halts in round 2 without ever deciding. *)
let halts_undecided =
  Sim.Protocol.registers ~name:"halts-undecided"
    ~init:(fun ~n:_ ~input -> (0, input = 1))
    ~decision:(fun _ -> None)
    ~halted:(fun (r, _) -> r >= 2)
    ~hash:(fun (r, b) -> (2 * r) + Bool.to_int b)
    ~transition:(fun (r, _) ~round:_ ~nrecv:_ ~tallies:_ ->
      {
        Sim.Protocol.ws_state = (r + 1, false);
        ws_regs = [| Sim.Protocol.Keep |];
        ws_decide = None;
        ws_halt = r + 1 >= 2;
      })
    {
      Sim.Protocol.bo_width = 1;
      bo_pack = (fun (_, b) -> Bool.to_int b);
      bo_unpack = (fun (r, _) regs -> (r, regs land 1 = 1));
      bo_uniform = (fun (a, _) (b, _) -> a = b);
      bo_coin_reg = None;
      bo_aux_bound = None;
    }

(* The halted-undecided check names the first survivor, as the scalar
   path does, not process 0, which dies in the same round: silently, or
   delivering to process 1 only, which puts process 1 in a receiver class
   of its own, split off after the class of everyone else. *)
let test_check_names_first_survivor () =
  let inputs = Array.make 70 1 in
  let partial =
    {
      Sim.Adversary.name = "partial-to-1";
      plan =
        (fun view _rng ->
          if view.Sim.Adversary.round = 2 then
            [ Sim.Adversary.kill_after_send 0 ~recipients:[ 1 ] ]
          else []);
    }
  in
  List.iter
    (fun (what, adversary) ->
      let message run =
        match run adversary with
        | (_ : Sim.Engine.outcome) -> "no exception"
        | exception Sim.Engine.Decision_changed msg -> msg
      in
      let expected = "process 1 halted without deciding" in
      Alcotest.(check string) (what ^ ": engine") expected
        (message (fun a ->
             Sim.Engine.run halts_undecided a ~inputs ~t:1
               ~rng:(Prng.Rng.create 1)));
      Alcotest.(check string) (what ^ ": bitkernel") expected
        (message (fun a ->
             Sim.Bitkernel.run halts_undecided a ~inputs ~t:1
               ~rng:(Prng.Rng.create 1))))
    [
      ("silent", Baselines.Adversaries.static_schedule [ (2, 0) ]);
      ("partial", partial);
    ]

(* A register protocol whose two initial states are not uniform: the
   input-1 state carries a different [tag], a non-register field, so under
   mixed inputs the population starts as two template classes. Round 1
   resets every tag, and the two classes merge. The rest is [not_swap]'s
   carried count, so a wrong tally in either class, or after the merge,
   changes the decision. *)
type tagged = { tr : int; tag : int; tacc : int; tx : bool; tout : int option }

let tagged_start ~rounds =
  Sim.Protocol.registers ~name:"tagged-start"
    ~init:(fun ~n:_ ~input ->
      { tr = 0; tag = 3 * input; tacc = 0; tx = input = 1; tout = None })
    ~decision:(fun s -> s.tout)
    ~halted:(fun s -> Option.is_some s.tout)
    ~hash:(fun s -> Hashtbl.hash (s.tr, s.tag, s.tacc, s.tx, s.tout))
    ~transition:(fun s ~round:_ ~nrecv:_ ~(tallies : Sim.Protocol.tallies) ->
      let tr = s.tr + 1 and tacc = (128 * s.tacc) + tallies.counts.(0) in
      let last = tr >= rounds in
      let tout = if last then Some tacc else None in
      {
        Sim.Protocol.ws_state = { s with tr; tag = 0; tacc; tout };
        ws_regs = [| Sim.Protocol.Not 0 |];
        ws_decide = Option.map (fun v -> Sim.Protocol.Decide_const v) tout;
        ws_halt = last;
      })
    {
      Sim.Protocol.bo_width = 1;
      bo_pack = (fun s -> Bool.to_int s.tx);
      bo_unpack = (fun t regs -> { t with tx = regs land 1 = 1 });
      bo_uniform =
        (fun a b -> a.tr = b.tr && a.tag = b.tag && a.tacc = b.tacc && a.tout = b.tout);
      bo_coin_reg = None;
      bo_aux_bound = None;
    }

(* A non-uniform [init] starts as two packed classes, round 1 runs one
   word transition per class, and the classes merge once the tags agree;
   every run stays byte-identical to Engine, partial deliveries included.
   n = 100 spans two words. *)
let test_two_class_start () =
  let n = 100 and rounds = 5 in
  let protocol = tagged_start ~rounds in
  let observer (m : Sim.Protocol.word) = m.regs land 1 = 1 in
  for seed = 1 to 3 do
    let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
    List.iter
      (fun adversary ->
        same_as_engine ~observer ~protocol ~adversary ~inputs ~t:12
          ~rng:(Prng.Rng.create seed) ())
      [
        (fun () -> Sim.Adversary.null);
        (fun () -> Baselines.Adversaries.drip ~per_round:3);
        (fun () -> partial_schedule ~rounds:3);
      ]
  done;
  let inputs = Prng.Sample.random_bits (Prng.Rng.create 2) n in
  let e = Sim.Bitkernel.start protocol ~inputs ~t:0 ~rng:(Prng.Rng.create 1) in
  drive e Sim.Adversary.null;
  Alcotest.(check int) "every round packed" rounds
    (Sim.Bitkernel.packed_rounds e);
  Alcotest.(check int) "no scalar round" 0 (Sim.Bitkernel.scalar_rounds e)

(* A packed halting SynRan round touches words, not processes: its minor
   allocation is a bounded constant, the same at n = 630 and n = 6300.
   Native only: bytecode boxes the PRNG's int64 steps. *)
let halting_step_words n =
  let protocol = Core.Synran.protocol n in
  let inputs = Prng.Sample.random_bits (Prng.Rng.create 9) n in
  let start () =
    Sim.Bitkernel.start protocol ~inputs ~t:0 ~rng:(Prng.Rng.create 9)
  in
  let e = start () in
  drive e Sim.Adversary.null;
  let rounds = Sim.Bitkernel.round e in
  let e = start () in
  for _ = 1 to rounds - 1 do
    ignore (Sim.Bitkernel.step e Sim.Adversary.null)
  done;
  let before = Gc.minor_words () in
  ignore (Sim.Bitkernel.step e Sim.Adversary.null);
  let words = Gc.minor_words () -. before in
  let o = Sim.Bitkernel.outcome e in
  Alcotest.(check int) (Printf.sprintf "n=%d: every round packed" n) rounds
    (Sim.Bitkernel.packed_rounds e);
  Alcotest.(check bool) (Printf.sprintf "n=%d: everyone halted" n) true
    (Array.for_all Fun.id o.Sim.Engine.halted);
  words

(* A FloodSet deciding round with a partial delivery, at size [n]: the
   last of two rounds, where a victim's message reaches the odd pids
   only, so the survivors form two receiver classes, both deciding and
   halting. Round 1 is the same kind of split, whose classes merge again,
   so round 2 finds its masks and recipient scratch made. *)
let split_deciding_words n =
  let protocol = Baselines.Floodset.protocol ~rounds:2 () in
  let odd = List.filter (fun j -> j land 1 = 1) (List.init n Fun.id) in
  let kill victim =
    {
      Sim.Adversary.name = "to-odd";
      plan = (fun _ _ -> Sim.Adversary.kill_group [ victim ] ~recipients:odd);
    }
  in
  let e =
    Sim.Bitkernel.start protocol ~inputs:(Array.make n 1) ~t:2
      ~rng:(Prng.Rng.create 9)
  in
  ignore (Sim.Bitkernel.step e (kill 0));
  let before = Gc.minor_words () in
  ignore (Sim.Bitkernel.step e (kill 2));
  let words = Gc.minor_words () -. before in
  let o = Sim.Bitkernel.outcome e in
  Alcotest.(check int) (Printf.sprintf "n=%d: both rounds packed" n) 2
    (Sim.Bitkernel.packed_rounds e);
  Alcotest.(check bool) (Printf.sprintf "n=%d: every survivor decided" n) true
    (Array.for_all Fun.id
       (Array.mapi (fun j d -> o.Sim.Engine.faulty.(j) || Option.is_some d)
          o.Sim.Engine.decisions));
  words

(* Both deciding rounds allocate a bounded constant, the same at n = 630
   as at n = 6300. A commit walk that makes a closure per plane word
   costs about 12 words a word: 500 words for the split round at
   n = 630, 1,580 at n = 6300. *)
let test_halting_step_allocation () =
  if Sys.backend_type = Sys.Native then
    List.iter
      (fun (what, words, bound) ->
        List.iter
          (fun n ->
            let w = words n in
            Alcotest.(check bool)
              (Printf.sprintf "%s n=%d: %.0f words < %g" what n w bound)
              true (w < bound))
          [ 630; 6300 ])
      [
        ("synran null", halting_step_words, 200.);
        ("floodset split", split_deciding_words, 256.);
      ]

(* A null FloodSet round has one receiver class: it receives as the
   active mask, writes whole plane words and carries its tallies, so it
   allocates only the transition's own words, the same at n = 4096 as at
   n = 65536: 30 words at most, the mean over 20 rounds at n = 1024.
   The first round, which makes the kernel's scratch, is not counted.
   Native only, as above. *)
let one_class_round_words n =
  let e =
    Sim.Bitkernel.start
      (Baselines.Floodset.protocol ~rounds:n ())
      ~inputs:(Prng.Sample.random_bits (Prng.Rng.create 5) n)
      ~t:0 ~rng:(Prng.Rng.create 5)
  in
  ignore (Sim.Bitkernel.step e Sim.Adversary.null);
  let before = Gc.minor_words () in
  for _ = 1 to 20 do
    ignore (Sim.Bitkernel.step e Sim.Adversary.null)
  done;
  let words = (Gc.minor_words () -. before) /. 20. in
  Alcotest.(check int) (Printf.sprintf "n=%d: every round packed" n) 21
    (Sim.Bitkernel.packed_rounds e);
  words

let test_one_class_round_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let small = one_class_round_words 1024 in
    Alcotest.(check bool)
      (Printf.sprintf "n=1024: %.1f words a round <= 30" small)
      true (small <= 30.);
    Alcotest.(check (float 0.)) "n=4096 = n=65536" (one_class_round_words 4096)
      (one_class_round_words 65536)
  end

(* ------------------------------------------------------------------ *)
(* Receiver classes                                                    *)
(* ------------------------------------------------------------------ *)

(* A hand-built plan of overlapping groups, for the class tallies: in
   rounds 1 to [rounds], the five top-(priv, pid) senders die in three
   groups, so each receiver class's leader is one of its victims. Group
   A (two victims) names the four lowest other senders, the third of
   them twice, its own first victim and, from round 2, a process that is
   no longer active; group B (one victim) overlaps A and C and names
   itself; group C (two victims) names the inactive process too. *)
let crossed ~rounds =
  {
    Sim.Adversary.name = "crossed-groups";
    plan =
      (fun view _rng ->
        let priv = view.Sim.Adversary.priv in
        let senders = Sim.Adversary.active_pids view in
        if
          view.Sim.Adversary.round > rounds
          || view.Sim.Adversary.budget_left < 5
          || List.length senders < 16
        then []
        else
          let ranked =
            List.sort (fun a b -> compare (priv b, b) (priv a, a)) senders
          in
          let top = List.filteri (fun i _ -> i < 5) ranked in
          let others = List.filter (fun p -> not (List.mem p top)) senders in
          let inactive =
            List.init view.Sim.Adversary.n Fun.id
            |> List.filter (fun i -> not (view.Sim.Adversary.active i))
            |> List.filteri (fun i _ -> i = 0)
          in
          match (top, others) with
          | [ v1; v2; v3; v4; v5 ], r0 :: r1 :: r2 :: r3 :: r4 :: r5 :: r6 :: _ ->
              Sim.Adversary.kill_group [ v1; v2 ]
                ~recipients:([ r0; r1; r2; r3; r2; v1 ] @ inactive)
              @ [
                  Sim.Adversary.kill_after_send v3
                    ~recipients:[ r2; r3; r4; r5; v3; r5 ];
                ]
              @ Sim.Adversary.kill_group [ v4; v5 ]
                  ~recipients:([ r4; r0; r6; v4 ] @ inactive)
          | _ -> []);
  }

(* [crossed] against Engine, event for event, on SynRan with the local
   and the leader coin (55% ones keeps the first rounds in the flip band,
   where the leader's bit is read) and on FloodSet, whose top-five
   victims are the only 0-inputs in round 1: a class that misses their
   zero decides 1, not 0. Every round stays packed. n = 100 spans two
   words. *)
let test_crossed_groups () =
  let n = 100 in
  let flip_band i = if i < 55 * n / 100 then 1 else 0 in
  let check what protocol observer inputs =
    for seed = 1 to 6 do
      same_as_engine
        ~what:(Printf.sprintf "%s seed %d: " what seed)
        ~observer ~protocol
        ~adversary:(fun () -> crossed ~rounds:3)
        ~inputs ~t:30 ~rng:(Prng.Rng.create seed) ();
      let e = Sim.Bitkernel.start protocol ~inputs ~t:30 ~rng:(Prng.Rng.create seed) in
      drive e (crossed ~rounds:3);
      Alcotest.(check int)
        (Printf.sprintf "%s seed %d: no scalar round" what seed)
        0 (Sim.Bitkernel.scalar_rounds e)
    done
  in
  check "synran local" (Core.Synran.protocol n) Core.Synran.msg_is_one
    (Array.init n flip_band);
  check "synran leader"
    (Core.Synran.protocol ~coin:Core.Synran.Leader_priority n)
    Core.Synran.msg_is_one (Array.init n flip_band);
  check "floodset"
    (Baselines.Floodset.protocol ~rounds:6 ())
    Baselines.Floodset.msg_has_one
    (Array.init n (fun i -> if i >= n - 5 then 0 else 1))

(* One receiver class decides and halts while another goes on. Unanimous
   1-inputs make every SynRan process decide in round 1, so round 2's
   stop check passes exactly for the receivers that hear all n messages:
   15 victims die, delivering to the odd pids only. The odd receivers
   halt with their decisions, ascending, interleaved with even pids that
   do not decide until later. *)
let test_class_halts_alone () =
  let n = 100 in
  let protocol = Core.Synran.protocol n in
  let inputs = Array.make n 1 in
  let odd = List.filter (fun j -> j >= 15 && j land 1 = 1) (List.init n Fun.id) in
  let adversary () =
    {
      Sim.Adversary.name = "odd-receivers";
      plan =
        (fun view _rng ->
          if view.Sim.Adversary.round = 2 then
            Sim.Adversary.kill_group (List.init 15 Fun.id) ~recipients:odd
          else []);
    }
  in
  same_as_engine ~observer:Core.Synran.msg_is_one ~protocol ~adversary ~inputs
    ~t:15 ~rng:(Prng.Rng.create 3) ();
  let e = Sim.Bitkernel.start protocol ~inputs ~t:15 ~rng:(Prng.Rng.create 3) in
  ignore (Sim.Bitkernel.step e (adversary ()));
  ignore (Sim.Bitkernel.step e (adversary ()));
  let o = Sim.Bitkernel.outcome e in
  List.iter
    (fun j ->
      let halts = j >= 15 && j land 1 = 1 in
      Alcotest.(check (pair bool bool))
        (Printf.sprintf "process %d after round 2: decided, halted" j)
        (halts, halts)
        (Option.is_some o.Sim.Engine.decisions.(j), o.Sim.Engine.halted.(j)))
    [ 15; 16; 17; 98; 99 ];
  drive e (adversary ());
  Alcotest.(check int) "no scalar round" 0 (Sim.Bitkernel.scalar_rounds e);
  Alcotest.(check bool) "every survivor decided" true
    (Option.is_some (Sim.Bitkernel.outcome e).Sim.Engine.rounds_to_decide)

(* ------------------------------------------------------------------ *)
(* Band control at the sizes the engines run it at                     *)
(* ------------------------------------------------------------------ *)

(* Every register read a SynRan view answers. *)
let synran_selectors =
  Sim.Adversary.All
  :: List.concat_map (fun r -> Sim.Adversary.[ Ones r; Zeros r ]) [ 0; 1; 2; 3 ]

(* One run of band control against SynRan at t = n - 1 on [engine], with
   everything it shows: the outcome; the full event stream, band
   control's Band events interleaved with the engine's (one sink for
   both); and per round the view's counts for every register and the
   adversary stream's next draw before and after the plan. Returns them
   with the run's packed round count (0 on Engine). *)
let band_at_scale engine ~config ~inputs ~seed =
  let n = Array.length inputs in
  let events = ref [] and reads = ref [] in
  let sink = Obs.Sink.create (fun ev -> events := ev :: !events) in
  let band =
    Core.Lb_adversary.band_control ~config ~sink ~rules
      ~bit_of_msg:Core.Synran.bit_of_msg ()
  in
  let next rng = Prng.Rng.bits64 (Prng.Rng.copy rng) in
  let adversary =
    {
      band with
      Sim.Adversary.plan =
        (fun view rng ->
          let before = next rng in
          let counts = List.map view.Sim.Adversary.count synran_selectors in
          let kills = band.Sim.Adversary.plan view rng in
          reads := (view.Sim.Adversary.round, counts, before, next rng) :: !reads;
          kills);
    }
  in
  let protocol = Core.Synran.protocol ~rules n and t = n - 1 in
  let observer = Core.Synran.msg_is_one and rng = Prng.Rng.create seed in
  let o, packed =
    match engine with
    | `Engine ->
        ( Sim.Engine.run ~observer ~sink ~max_rounds:2000 protocol adversary
            ~inputs ~t ~rng,
          0 )
    | `Bitkernel ->
        let e = Sim.Bitkernel.start ~observer ~sink protocol ~inputs ~t ~rng in
        Sim.Bitkernel.run_until e adversary ~max_rounds:2000;
        (Sim.Bitkernel.outcome e, Sim.Bitkernel.packed_rounds e)
  in
  ((o, List.rev !events, List.rev !reads), packed)

(* Band control at n = 8192, the paper's attack at a size where most
   rounds stay packed: both configurations, on split and on
   random inputs, must match Engine outcome for outcome, event for event
   (Band events included), count for count and draw for draw. Each run
   must cover packed rounds, so the packed counts are what is compared. *)
let test_band_at_scale () =
  let n = 8192 in
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun (iname, inputs, seed) ->
          let what = Printf.sprintf "%s, %s inputs" cname iname in
          let (eo, eev, ereads), _ = band_at_scale `Engine ~config ~inputs ~seed in
          let (bo, bev, breads), packed =
            band_at_scale `Bitkernel ~config ~inputs ~seed
          in
          Alcotest.(check bool) (what ^ ": outcome") true
            (Test_delivery.outcomes_equal eo bo);
          Alcotest.(check int) (what ^ ": events") (List.length eev)
            (List.length bev);
          Alcotest.(check bool) (what ^ ": event stream") true (eev = bev);
          Alcotest.(check bool) (what ^ ": counts and draws") true
            (ereads = breads);
          Alcotest.(check bool) (what ^ ": packed rounds") true (packed > 0))
        [
          ("split", Sim.Runner.input_gen_split ~n (Prng.Rng.create 1), 42);
          ("random", Sim.Runner.input_gen_random ~n (Prng.Rng.create 2), 7);
        ])
    [
      ("default", Core.Lb_adversary.default_config);
      ("voting", Core.Lb_adversary.voting_config);
    ]

(* Minor words one [step] allocates. *)
let step_words e adversary =
  let before = Gc.minor_words () in
  ignore (Sim.Bitkernel.step e adversary);
  Gc.minor_words () -. before

(* The words of round 1 of SynRan at size [n] under band control, whose
   Band action is returned with them; the round must run packed. 55% of
   the inputs are 1, inside the paper rules' flip band [n/2, 6n/10]. *)
let band_round_words ~n ~t =
  let inputs = Array.init n (fun i -> if i < 55 * n / 100 then 1 else 0) in
  let e =
    Sim.Bitkernel.start (Core.Synran.protocol ~rules n) ~inputs ~t
      ~rng:(Prng.Rng.create 4)
  in
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
  let words = step_words e band in
  Alcotest.(check int) (Printf.sprintf "n=%d: packed" n) 1
    (Sim.Bitkernel.packed_rounds e);
  (words, !action)

(* A packed round that band control idles or sits in band on reads two
   counts and builds nothing per process: it allocates the same words at
   n = 4096 as at n = 65536. Native only, as above. *)
let test_band_round_allocation () =
  if Sys.backend_type = Sys.Native then
    List.iter
      (fun (want, t_of) ->
        let small, a = band_round_words ~n:4096 ~t:(t_of 4096)
        and large, b = band_round_words ~n:65536 ~t:(t_of 65536) in
        Alcotest.(check (list string)) (want ^ ": actions") [ want; want ] [ a; b ];
        Alcotest.(check (float 0.))
          (Printf.sprintf "%s: n=4096 %.0f words, n=65536 %.0f" want small large)
          small large)
      [ ("in-band", fun n -> n - 1); ("idle", fun _ -> 0) ]

(* A packed drip round takes its victim from a sender walk that stops
   after it, so it allocates within a small constant of a null round: at
   n = 1024 a per-process list would add thousands of words. Both rounds
   run on snapshots of one execution, so they see the same coins. *)
let test_drip_round_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let n = 1024 in
    let e =
      Sim.Bitkernel.start (Core.Synran.protocol n)
        ~inputs:(Prng.Sample.random_bits (Prng.Rng.create 6) n)
        ~t:(n - 1) ~rng:(Prng.Rng.create 6)
    in
    ignore (Sim.Bitkernel.step e Sim.Adversary.null);
    let a = Sim.Bitkernel.snapshot e and b = Sim.Bitkernel.snapshot e in
    let null = step_words a Sim.Adversary.null in
    let drip = step_words b (Baselines.Adversaries.drip ~per_round:1) in
    Alcotest.(check int) "drip killed one" 1 (Sim.Bitkernel.kills_used b);
    let packed = Sim.Bitkernel.packed_rounds e + 1 in
    Alcotest.(check (list int)) "both packed" [ packed; packed ]
      [ Sim.Bitkernel.packed_rounds a; Sim.Bitkernel.packed_rounds b ];
    Alcotest.(check bool)
      (Printf.sprintf "drip %.0f words <= null %.0f + 128" drip null)
      true
      (drip <= null +. 128.)
  end

(* Words [f ()] allocates on either heap: minor plus major, less what
   was promoted (counted twice). A per-process array goes straight to the
   major heap, so [Gc.minor_words] alone would not see it; the minor part
   is still read from it, as OCaml 5.1's [Gc.counters] undercounts minor
   words (376 for a 3,000-word loop of conses). *)
let allocated f =
  let minor = Gc.minor_words () and _, promoted, major = Gc.counters () in
  let r = f () in
  let minor' = Gc.minor_words () and _, promoted', major' = Gc.counters () in
  (r, minor' -. minor +. (major' -. major) -. (promoted' -. promoted))

(* Words one [Bitkernel.start] of [protocol] allocates at size [n] on
   random inputs; the start must pack. *)
let start_words protocol n =
  let inputs = Prng.Sample.random_bits (Prng.Rng.create 11) n in
  let start () =
    Sim.Bitkernel.start (protocol n) ~inputs ~t:(n - 1) ~rng:(Prng.Rng.create 11)
  in
  ignore (start ());
  let e, words = allocated start in
  ignore (Sim.Bitkernel.step e Sim.Adversary.null);
  Alcotest.(check int) (Printf.sprintf "n=%d: packed start" n) 1
    (Sim.Bitkernel.packed_rounds e);
  words

(* A packed start builds the two initial states once, keeps the streams
   in one bank and builds no scalar half, so it allocates only the
   ledger's four n-arrays, the bank's four words a process and [priv]:
   nine words a process, plus the bit planes. The scalar half would add
   three more (states, staged messages, kill flags), and one state or
   stream per process 20 to 30. Native only, as above. *)
let test_start_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let n = 65536 and bound = 9.5 in
    let check name words =
      let per = words /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%s: n=%d %.2f words a process <= %g" name n per bound)
        true (per <= bound)
    in
    check "synran" (start_words (fun n -> Core.Synran.protocol n) n);
    check "floodset"
      (start_words (fun n -> Baselines.Floodset.protocol ~rounds:n ()) n)
  end

(* A packed silent-kill round keeps nothing per victim: at n = 4096, a
   round that kills 64 processes allocates within 64 words of an idle
   round on the same coins, where one kept state per victim would add
   over a thousand. Both executions have run a kill round already, so
   neither allocates its kill stamps here, and the plan is built before
   the round. Native only, as above. *)
let test_silent_kill_round_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let n = 4096 in
    let fixed kills = { Sim.Adversary.name = "fixed"; plan = (fun _ _ -> kills) } in
    let warmed () =
      let e =
        Sim.Bitkernel.start (Core.Synran.protocol n)
          ~inputs:(Prng.Sample.random_bits (Prng.Rng.create 6) n)
          ~t:(n - 1) ~rng:(Prng.Rng.create 6)
      in
      ignore (Sim.Bitkernel.step e (fixed [ Sim.Adversary.kill_silent 0 ]));
      e
    in
    let a = warmed () and b = warmed () in
    let victims = fixed (List.init 64 (fun i -> Sim.Adversary.kill_silent (1 + (2 * i)))) in
    let idle = fixed [] in
    let (), none = allocated (fun () -> ignore (Sim.Bitkernel.step a idle)) in
    let (), many = allocated (fun () -> ignore (Sim.Bitkernel.step b victims)) in
    Alcotest.(check int) "64 more killed" 65 (Sim.Bitkernel.kills_used b);
    Alcotest.(check (list int)) "both packed" [ 2; 2 ]
      [ Sim.Bitkernel.packed_rounds a; Sim.Bitkernel.packed_rounds b ];
    Alcotest.(check bool)
      (Printf.sprintf "64 victims %.0f words <= idle %.0f + 64" many none)
      true
      (many <= none +. 64.)
  end

(* Voting band control's trim and rescue rounds at n = 4096, on the
   engine's side: a replay of each round's plan on a second execution in
   lockstep (same coins, a plan built before the round) allocates words
   for its receiver classes (a few class records and masks of 66 words)
   and none per process or per recipient, where unpacking every active
   state cost about 46 words a process. Rounds before the replay's first
   kill are skipped, so it never allocates its kill stamps here. Native
   only, as above. *)
let test_partial_round_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let n = 4096 and bound = 2048. in
    let protocol = Core.Synran.protocol ~rules n in
    let inputs = Sim.Runner.input_gen_random ~n (Prng.Rng.create 7) in
    let start () =
      Sim.Bitkernel.start protocol ~inputs ~t:(n - 1) ~rng:(Prng.Rng.create 7)
    in
    let action = ref "" and planned = ref [] in
    let sink =
      Obs.Sink.create (function
        | Obs.Event.Band { action = a; _ } -> action := a
        | _ -> ())
    in
    let voting =
      Core.Lb_adversary.band_control ~config:Core.Lb_adversary.voting_config
        ~sink ~rules ~bit_of_msg:Core.Synran.bit_of_msg ()
    in
    let planning =
      {
        voting with
        Sim.Adversary.plan =
          (fun view rng ->
            planned := voting.Sim.Adversary.plan view rng;
            !planned);
      }
    in
    let replay = { Sim.Adversary.name = "replay"; plan = (fun _ _ -> !planned) } in
    let a = start () and b = start () in
    let words = Hashtbl.create 2 in
    while Sim.Bitkernel.round a < 200 && Sim.Bitkernel.step a planning = `Continue do
      let killed = Sim.Bitkernel.kills_used b > 0 in
      let (_ : [ `Continue | `Quiescent ]), w =
        allocated (fun () -> Sim.Bitkernel.step b replay)
      in
      if killed && (!action = "trim" || !action = "rescue") then
        Hashtbl.replace words !action
          (Float.max w (Option.value (Hashtbl.find_opt words !action) ~default:0.))
    done;
    Alcotest.(check bool) "replay = original" true
      (Test_delivery.outcomes_equal (Sim.Bitkernel.outcome a)
         (Sim.Bitkernel.outcome b));
    Alcotest.(check (pair int int)) "both packed" (0, 0)
      (Sim.Bitkernel.scalar_rounds a, Sim.Bitkernel.scalar_rounds b);
    List.iter
      (fun action ->
        match Hashtbl.find_opt words action with
        | None -> Alcotest.fail (action ^ ": no such round after a kill")
        | Some w ->
            Alcotest.(check bool)
              (Printf.sprintf "%s round: %.0f words <= %g" action w bound)
              true (w <= bound))
      [ "trim"; "rescue" ]
  end

(* Voting band control's partial deliveries stay packed: five SynRan
   trials at n = 1024 (the band_n1024 benchmark's population) run no
   scalar round and match Engine's outcomes. *)
let test_voting_stays_packed () =
  let n = 1024 in
  let protocol = Core.Synran.protocol ~rules n in
  for index = 0 to 4 do
    let rng () = Prng.Rng.of_seed_index ~seed:42 ~index in
    let inputs = Sim.Runner.input_gen_random ~n (rng ()) in
    let e = Sim.Bitkernel.start protocol ~inputs ~t:(n - 1) ~rng:(rng ()) in
    Sim.Bitkernel.run_until e (voting ()) ~max_rounds:2000;
    let concrete =
      Sim.Engine.run ~max_rounds:2000 protocol (voting ()) ~inputs ~t:(n - 1)
        ~rng:(rng ())
    in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: same outcome as the concrete engine" index)
      true
      (Test_delivery.outcomes_equal concrete (Sim.Bitkernel.outcome e));
    Alcotest.(check int)
      (Printf.sprintf "trial %d: no scalar round" index)
      0 (Sim.Bitkernel.scalar_rounds e)
  done

(* Reseeding a snapshot writes the stream bank in place: at n = 1024 it
   allocates only the adversary's fresh stream, where one stream per
   process would cost five words each. The reseeded snapshot then draws
   what a snapshot reseeded from the same source on Engine draws. *)
let test_reseed_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let n = 1024 in
    let protocol = Core.Synran.protocol n in
    let inputs = Prng.Sample.random_bits (Prng.Rng.create 12) n in
    let e = Sim.Bitkernel.start protocol ~inputs ~t:(n - 1) ~rng:(Prng.Rng.create 12) in
    ignore (Sim.Bitkernel.step e Sim.Adversary.null);
    let c = Sim.Bitkernel.snapshot e in
    let src = Prng.Rng.create 13 in
    Sim.Bitkernel.reseed c src;
    let before = Gc.minor_words () in
    Sim.Bitkernel.reseed c src;
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool)
      (Printf.sprintf "n=%d: reseed %.0f words < 64" n words)
      true (words < 64.)
  end

(* ------------------------------------------------------------------ *)
(* The view's own iteration                                            *)
(* ------------------------------------------------------------------ *)

(* [protocol]'s register count. *)
let width_of (protocol : _ Sim.Protocol.t) =
  match protocol.Sim.Protocol.bitops with
  | Some bo -> bo.Sim.Protocol.bo_codec.Sim.Protocol.bo_width
  | None -> 0

(* [inner], recording each round's view in [walks], most recent round
   first, as (round, reads): the [view.count] and whole
   [view.iter_senders] walk of [All] and of [Ones r] and [Zeros r] at
   every register r < [width], and the [view.priv] of every sender,
   ascending. A register protocol's message is its registers plus its
   priv, so per round that is the whole staged word set. *)
let recording ~width walks inner =
  {
    inner with
    Sim.Adversary.plan =
      (fun view rng ->
        let read s =
          ( view.Sim.Adversary.count s,
            Sim.Adversary.first_senders view s max_int )
        in
        let all = read All in
        let regs =
          List.init width (fun r -> (read (Ones r), read (Zeros r)))
        in
        let privs = List.map view.Sim.Adversary.priv (snd all) in
        walks := (view.Sim.Adversary.round, (all, regs, privs)) :: !walks;
        inner.Sim.Adversary.plan view rng);
  }

(* Every round's reads equal the oracle's reads of the same round, pid by
   pid, checked from the first round on. *)
let check_walks what ~oracle walks =
  Alcotest.(check int)
    (what ^ ": rounds walked") (List.length oracle) (List.length walks);
  List.iter2
    (fun (round, expected) (round', reads) ->
      Alcotest.(check int) (what ^ ": round") round round';
      Alcotest.(check bool)
        (Printf.sprintf
           "%s round %d: counts, register walks and privs = engine's" what
           round)
        true (reads = expected))
    (List.rev oracle) (List.rev walks)

(* More receiver classes than the kernel runs (64), from per-victim lists:
   the first [k] senders die, victim i delivering to every other sender
   from the i-th on, so the i-th receiver hears i + 1 victims (from the
   k-th on, all k). That is k receiver classes, and the next round k
   templates, since the received count is a non-register field of SynRan
   (and of not-swap's sums). *)
let staircase view k =
  let active = Sim.Adversary.active_pids view in
  let victims = List.filteri (fun i _ -> i < k) active
  and receivers = List.filteri (fun i _ -> i >= k) active in
  List.mapi
    (fun i v ->
      Sim.Adversary.kill_after_send v
        ~recipients:(List.filteri (fun j _ -> j >= i) receivers))
    victims

(* More receiver classes than the kernel runs from [g] victims (2^g > 64
   for g = 7): victim b delivers to the receivers whose rank has bit b
   set, so every rank below 2^g is a class of its own; the received
   counts take only g + 1 values, so the next round re-packs. *)
let scatter view g =
  let active = Sim.Adversary.active_pids view in
  let victims = List.filteri (fun i _ -> i < g) active
  and receivers = List.filteri (fun i _ -> i >= g) active in
  List.mapi
    (fun b v ->
      Sim.Adversary.kill_after_send v
        ~recipients:(List.filteri (fun j _ -> (j lsr b) land 1 = 1) receivers))
    victims

(* Round 1 idles; round 2 silently kills the lowest third of the pids, so
   whole words go dead; round 3 kills the first survivor but delivers its
   message to the next two only, a partial delivery the kernel runs on
   three receiver classes; round 4 is a 66-victim [staircase], which
   falls back to the scalar path and leaves more templates than the
   kernel packs, so round 5's plan is read unpacked; rounds 5-10 silently
   kill the first eighth of the survivors, which keeps SynRan running
   past the round where the kernel re-packs; later rounds idle. *)
let view_schedule =
  {
    Sim.Adversary.name = "view-schedule";
    plan =
      (fun view _rng ->
        match view.Sim.Adversary.round with
        | 2 -> List.init (view.Sim.Adversary.n / 3) Sim.Adversary.kill_silent
        | 3 -> (
            match Sim.Adversary.active_pids view with
            | v :: a :: b :: _ ->
                [ Sim.Adversary.kill_after_send v ~recipients:[ a; b ] ]
            | _ -> [])
        | 4 -> staircase view 66
        | r when r >= 5 && r <= 10 ->
            let active = Sim.Adversary.active_pids view in
            List.filteri (fun i _ -> i < List.length active / 8) active
            |> List.map Sim.Adversary.kill_silent
        | _ -> []);
  }

(* On every engine, every view the schedule reads shows exactly its
   staged words: it counts and walks the senders of every register
   exactly and reads every sender's priv. The oracle is Engine's reads of
   its staged array, and Cohort's and Bitkernel's must match it pid by
   pid. On Bitkernel the run must cover a packed idle round, a packed
   silent-kill round, a packed partial delivery, the scalar fallback's
   partial delivery, a plan read unpacked after it (a scalar round under
   a silent plan) and a re-packed round, and still match Engine. *)
let test_view_iteration () =
  List.iter
    (fun n ->
      let protocol = Core.Synran.protocol n in
      let inputs = Prng.Sample.random_bits (Prng.Rng.create 5) n in
      let rng () = Prng.Rng.create 9 in
      let what engine = Printf.sprintf "%s n=%d" engine n in
      let recording = recording ~width:(width_of protocol) in
      let oracle = ref [] in
      let concrete =
        Sim.Engine.run ~max_rounds:400 protocol
          (recording oracle view_schedule)
          ~inputs ~t:(n - 1) ~rng:(rng ())
      in
      let cohort_walks = ref [] in
      let cohort =
        Sim.Cohort.run ~max_rounds:400 protocol
          (Sim.Cohort.Concrete (recording cohort_walks view_schedule))
          ~inputs ~t:(n - 1) ~rng:(rng ())
      in
      Alcotest.(check bool)
        (what "cohort = engine") true
        (Test_delivery.outcomes_equal concrete cohort);
      check_walks (what "cohort") ~oracle:!oracle !cohort_walks;
      let e = Sim.Bitkernel.start protocol ~inputs ~t:(n - 1) ~rng:(rng ()) in
      let bit_walks = ref [] and last = ref [] in
      let adversary =
        let inner = recording bit_walks view_schedule in
        {
          inner with
          Sim.Adversary.plan =
            (fun view rng ->
              last := inner.Sim.Adversary.plan view rng;
              !last);
        }
      in
      let seen = Hashtbl.create 8 and prev_scalar = ref false in
      while
        let packed0 = Sim.Bitkernel.packed_rounds e in
        Sim.Bitkernel.round e < 400
        && Sim.Bitkernel.step e adversary = `Continue
        &&
        let packed = Sim.Bitkernel.packed_rounds e > packed0 in
        let silent = List.for_all (fun k -> k.Sim.Adversary.deliver_to = []) !last in
        Hashtbl.replace seen
          (match (packed, !last) with
          | true, [] -> "packed idle"
          | true, _ when silent -> "packed silent kills"
          | true, _ -> "packed partial delivery"
          | false, _ when not silent -> "partial delivery"
          | false, _ -> "unpacked plan")
          ();
        if packed && !prev_scalar then Hashtbl.replace seen "re-packed" ();
        prev_scalar := not packed;
        true
      do
        ()
      done;
      List.iter
        (fun case ->
          Alcotest.(check bool) (what ("covers " ^ case)) true (Hashtbl.mem seen case))
        [
          "packed idle"; "packed silent kills"; "packed partial delivery";
          "partial delivery"; "unpacked plan"; "re-packed";
        ];
      Alcotest.(check bool)
        (what "bitkernel = engine") true
        (Test_delivery.outcomes_equal concrete (Sim.Bitkernel.outcome e));
      check_walks (what "bitkernel") ~oracle:!oracle !bit_walks)
    [ 200; 1000 ]

(* Under leader-killer every plan reads each sender's [priv], its
   Leader_priority priority. Engine's reads are the oracle: Cohort's
   compatibility view and Bitkernel must read the same senders and the
   same privs, and end in the same outcome. 55% ones keeps round 1 in the
   flip band, so the killer acts at once; its partial deliveries split
   the receivers' delivered counts, a non-register field, into template
   classes, and every plan is still read packed. A snapshot stepped under
   the null adversary tells which rounds begin packed. The unpacked
   reads of [priv] are [test_view_iteration]'s. *)
let test_priv_under_leader_killer () =
  List.iter
    (fun (n, max_rounds) ->
      let protocol = Core.Synran.protocol ~coin:Core.Synran.Leader_priority n in
      let inputs = Array.init n (fun i -> if i < 55 * n / 100 then 1 else 0) in
      let t = n - 1 and rng () = Prng.Rng.create 3 in
      let what engine = Printf.sprintf "%s n=%d" engine n in
      (* Each round's senders and their privs, most recent round first. *)
      let privs reads =
        let inner =
          Core.Lb_adversary.leader_killer ~rules:Core.Onesided.paper
            ~bit_of_msg:Core.Synran.bit_of_msg ()
        in
        {
          inner with
          Sim.Adversary.plan =
            (fun view rng ->
              let senders =
                Array.of_list (Sim.Adversary.first_senders view All max_int)
              in
              reads :=
                (senders, Array.map view.Sim.Adversary.priv senders) :: !reads;
              inner.Sim.Adversary.plan view rng);
        }
      in
      let oracle = ref [] in
      let concrete =
        Sim.Engine.run ~max_rounds protocol (privs oracle) ~inputs ~t
          ~rng:(rng ())
      in
      let cohort_reads = ref [] in
      let cohort =
        Sim.Cohort.run ~max_rounds protocol
          (Sim.Cohort.Concrete (privs cohort_reads))
          ~inputs ~t ~rng:(rng ())
      in
      let e = Sim.Bitkernel.start protocol ~inputs ~t ~rng:(rng ()) in
      let bit_reads = ref [] and packed = ref 0 and unpacked = ref 0 in
      let adversary = privs bit_reads in
      while
        Sim.Bitkernel.round e < max_rounds
        &&
        let probe = Sim.Bitkernel.snapshot e in
        ignore (Sim.Bitkernel.step probe Sim.Adversary.null);
        let starts_packed =
          Sim.Bitkernel.packed_rounds probe > Sim.Bitkernel.packed_rounds e
        in
        Sim.Bitkernel.step e adversary = `Continue
        &&
        (incr (if starts_packed then packed else unpacked);
         true)
      do
        ()
      done;
      Alcotest.(check bool)
        (what "some priv is non-zero") true
        (List.exists (fun (_, p) -> Array.exists (fun x -> x <> 0) p) !oracle);
      Alcotest.(check bool) (what "plans read packed") true (!packed > 0);
      Alcotest.(check int) (what "no plan read unpacked") 0 !unpacked;
      List.iter
        (fun (engine, o, reads) ->
          Alcotest.(check bool)
            (what (engine ^ " = engine")) true
            (Test_delivery.outcomes_equal concrete o);
          Alcotest.(check int)
            (what (engine ^ ": rounds read")) (List.length !oracle)
            (List.length reads);
          List.iteri
            (fun i (expected, got) ->
              Alcotest.(check bool)
                (what (Printf.sprintf "%s read %d: senders and privs" engine i))
                true (expected = got))
            (List.combine (List.rev !oracle) (List.rev reads)))
        [
          ("cohort", cohort, !cohort_reads);
          ("bitkernel", Sim.Bitkernel.outcome e, !bit_reads);
        ])
    [ (64, 400); (8192, 40) ]

(* [priv] reads a sender's register word: every engine refuses a pid
   that stages nothing this round (pid 0, killed silently in round 1, so
   Bitkernel's round 2 is packed), and a protocol without bitops. *)
let test_priv_refusals () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  let refused = ref [] in
  let probe =
    {
      Sim.Adversary.name = "priv-probe";
      plan =
        (fun view _ ->
          match view.Sim.Adversary.round with
          | 1 -> [ Sim.Adversary.kill_silent 0 ]
          | 2 ->
              let r = raises (fun () -> view.Sim.Adversary.priv 0) in
              refused := r :: !refused;
              []
          | _ -> []);
    }
  in
  let n = 64 in
  let protocol = Core.Synran.protocol n in
  let inputs = Prng.Sample.random_bits (Prng.Rng.create 1) n in
  let rng () = Prng.Rng.create 2 in
  ignore
    (Sim.Engine.run ~max_rounds:2 protocol probe ~inputs ~t:1 ~rng:(rng ()));
  let e = Sim.Bitkernel.start protocol ~inputs ~t:1 ~rng:(rng ()) in
  Sim.Bitkernel.run_until e probe ~max_rounds:2;
  ignore
    (Sim.Cohort.run ~max_rounds:2 protocol (Sim.Cohort.Concrete probe) ~inputs
       ~t:1 ~rng:(rng ()));
  Alcotest.(check int)
    "bitkernel's round 2 packed" 2
    (Sim.Bitkernel.packed_rounds e);
  Alcotest.(check (list bool))
    "engine, bitkernel and cohort refuse a non-sender" [ true; true; true ]
    !refused;
  let no_bitops = ref false in
  ignore
    (Sim.Engine.run ~max_rounds:1
       (Baselines.Early_stop.protocol ~rounds:3 ())
       {
         Sim.Adversary.name = "priv-probe";
         plan =
           (fun view _ ->
             no_bitops := raises (fun () -> view.Sim.Adversary.priv 0);
             []);
       }
       ~inputs:(Array.make 4 1) ~t:0 ~rng:(rng ()));
  Alcotest.(check bool) "a protocol without bitops is refused" true !no_bitops

(* ------------------------------------------------------------------ *)
(* Snapshots: Engine's contract on packed state                        *)
(* ------------------------------------------------------------------ *)

module type SNAPSHOTS = sig
  type ('state, 'msg) exec

  val start :
    ?observer:('msg -> bool) ->
    ?sink:Obs.Sink.t ->
    ('state, 'msg) Sim.Protocol.t ->
    inputs:int array ->
    t:int ->
    rng:Prng.Rng.t ->
    ('state, 'msg) exec

  val step :
    ('state, 'msg) exec ->
    ('state, 'msg) Sim.Adversary.t ->
    [ `Continue | `Quiescent ]

  val snapshot : ('state, 'msg) exec -> ('state, 'msg) exec
  val reseed : ('state, 'msg) exec -> Prng.Rng.t -> unit
  val round : ('state, 'msg) exec -> int
  val outcome : ('state, 'msg) exec -> Sim.Engine.outcome
end

(* One snapshot script on one engine: [split] rounds under [driver ()]
   from the start, a snapshot (reseeded from [reseed] when given), then
   the copy under a fresh [copy_adv ()] and the original under its driver,
   stepped alternately (the copy first) until both stop or reach round
   400. Returns both execs and the views each one's adversary walked after
   the snapshot. *)
module Script (E : SNAPSHOTS) = struct
  let run ?reseed ~protocol ~inputs ~t ~seed ~split ~driver ~copy_adv () =
    let e = E.start protocol ~inputs ~t ~rng:(Prng.Rng.create seed) in
    let drv = driver () in
    for _ = 1 to split do
      ignore (E.step e drv)
    done;
    let c = E.snapshot e in
    Option.iter (fun s -> E.reseed c (Prng.Rng.create s)) reseed;
    let we = ref [] and wc = ref [] in
    let recording = recording ~width:(width_of protocol) in
    let ae = recording we drv and ac = recording wc (copy_adv ()) in
    let live x a = E.round x < 400 && E.step x a = `Continue in
    let rec alternate () =
      let b = live c ac in
      let a = live e ae in
      if a || b then alternate ()
    in
    alternate ();
    (e, c, !we, !wc)
end

module On_engine = Script (Sim.Engine)
module On_bitkernel = Script (Sim.Bitkernel)

(* The script on both engines; Engine's snapshot is the reference, so the
   Bitkernel original and copy must match it outcome for outcome and view
   for view. Returns the Bitkernel side. *)
let snapshot_differential what ?reseed ~protocol ~inputs ~t ~seed ~split
    ~driver ~copy_adv () =
  let ee, ec, wee, wec =
    On_engine.run ?reseed ~protocol ~inputs ~t ~seed ~split ~driver ~copy_adv ()
  in
  let ((be, bc, wbe, wbc) as bit) =
    On_bitkernel.run ?reseed ~protocol ~inputs ~t ~seed ~split ~driver
      ~copy_adv ()
  in
  List.iter
    (fun (side, eo, bo, ew, bw) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s outcome = engine's" what side)
        true
        (Test_delivery.outcomes_equal eo bo);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s views = engine's" what side)
        true (ew = bw))
    [
      ("original", Sim.Engine.outcome ee, Sim.Bitkernel.outcome be, wee, wbe);
      ("copy", Sim.Engine.outcome ec, Sim.Bitkernel.outcome bc, wec, wbc);
    ];
  bit

let synran_inputs n seed = Prng.Sample.random_bits (Prng.Rng.create seed) n

(* FloodSet runs its nine rounds whatever the coins. *)
let test_snapshot_independent () =
  let n = 16 in
  let e =
    Sim.Bitkernel.start
      (Baselines.Floodset.protocol ~rounds:9 ())
      ~inputs:(synran_inputs n 1) ~t:0 ~rng:(Prng.Rng.create 8)
  in
  ignore (Sim.Bitkernel.step e Sim.Adversary.null);
  let c = Sim.Bitkernel.snapshot e in
  ignore (Sim.Bitkernel.step c Sim.Adversary.null);
  ignore (Sim.Bitkernel.step c Sim.Adversary.null);
  Alcotest.(check int) "original unchanged" 1 (Sim.Bitkernel.round e);
  Alcotest.(check int) "copy advanced" 3 (Sim.Bitkernel.round c)

(* Without a reseed the copy replays the original's coins: the same views
   every round and the same outcome. *)
let test_snapshot_replays_same_coins () =
  let n = 64 in
  let e, c, we, wc =
    snapshot_differential "replay" ~protocol:(Core.Synran.protocol n)
      ~inputs:(synran_inputs n 2) ~t:0 ~seed:9 ~split:0
      ~driver:(fun () -> Sim.Adversary.null)
      ~copy_adv:(fun () -> Sim.Adversary.null)
      ()
  in
  Alcotest.(check bool) "same views" true (we = wc && we <> []);
  Alcotest.(check bool)
    "same outcome" true
    (Test_delivery.outcomes_equal (Sim.Bitkernel.outcome e)
       (Sim.Bitkernel.outcome c))

let test_snapshot_reseed_changes_coins () =
  let n = 64 in
  let _, _, we, wc =
    snapshot_differential "reseed" ~reseed:999
      ~protocol:(Core.Synran.protocol n) ~inputs:(synran_inputs n 3) ~t:0
      ~seed:10 ~split:0
      ~driver:(fun () -> Sim.Adversary.null)
      ~copy_adv:(fun () -> Sim.Adversary.null)
      ()
  in
  (* Walks are recorded most recent round first. *)
  let first w = List.nth w (List.length w - 1) in
  Alcotest.(check bool) "round-1 coins resampled" false (first we = first wc);
  (* The adversary's stream is resampled too. *)
  let e =
    Sim.Bitkernel.start (Core.Synran.protocol n) ~inputs:(synran_inputs n 4)
      ~t:0 ~rng:(Prng.Rng.create 12)
  in
  let c = Sim.Bitkernel.snapshot e in
  Sim.Bitkernel.reseed c (Prng.Rng.create 13);
  let draw x =
    let d = ref 0L in
    ignore
      (Sim.Bitkernel.step x
         {
           Sim.Adversary.name = "draw";
           plan =
             (fun _ rng ->
               d := Prng.Rng.bits64 rng;
               []);
         });
    !d
  in
  Alcotest.(check bool) "adversary stream resampled" false (draw e = draw c)

(* test_sim's stamps case on the packed path: a copy steps the same round
   as its original, silent kills included, so its victims must not read
   as already named when the original names them, in either order. *)
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
    Sim.Bitkernel.start protocol ~inputs:(Array.make n 0) ~t:4
      ~rng:(Prng.Rng.create 3)
  in
  ignore (Sim.Bitkernel.step e (kill [ 0 ]));
  let c = Sim.Bitkernel.snapshot e in
  ignore (Sim.Bitkernel.step c (kill [ 5; 6 ]));
  ignore (Sim.Bitkernel.step e (kill [ 5; 6 ]));
  let c' = Sim.Bitkernel.snapshot e in
  ignore (Sim.Bitkernel.step e (kill [ 7 ]));
  ignore (Sim.Bitkernel.step c' (kill [ 7 ]));
  List.iter
    (fun (what, x, dead) ->
      Alcotest.(check (list bool))
        (what ^ ": faulty")
        (List.init n (fun i -> List.mem i dead))
        (Array.to_list (Sim.Bitkernel.outcome x).Sim.Engine.faulty))
    [
      ("original", e, [ 0; 5; 6; 7 ]);
      ("first copy", c, [ 0; 5; 6 ]);
      ("second copy", c', [ 0; 5; 6; 7 ]);
    ];
  Alcotest.(check int) "every round packed" 0 (Sim.Bitkernel.scalar_rounds e)

(* Snapshot mid-run under voting band control, reseed the copy, and step
   both through the partial-send kill rounds that follow: each runs them
   packed, on its own receiver classes, and both match Engine's
   snapshot. *)
let test_snapshot_through_kill_rounds () =
  let n = 64 and split = 2 in
  let partial = ref 0 in
  let voting () =
    let band =
      Core.Lb_adversary.band_control ~config:Core.Lb_adversary.voting_config
        ~rules ~bit_of_msg:Core.Synran.bit_of_msg ()
    in
    {
      band with
      Sim.Adversary.plan =
        (fun view rng ->
          let kills = band.Sim.Adversary.plan view rng in
          if
            view.Sim.Adversary.round > split
            && List.exists (fun k -> k.Sim.Adversary.deliver_to <> []) kills
          then incr partial;
          kills);
    }
  in
  let pre =
    Sim.Bitkernel.start (Core.Synran.protocol n) ~inputs:(synran_inputs n 5)
      ~t:(n - 1) ~rng:(Prng.Rng.create 6)
  in
  let drv = voting () in
  for _ = 1 to split do
    ignore (Sim.Bitkernel.step pre drv)
  done;
  Alcotest.(check int) "packed before the snapshot" 0
    (Sim.Bitkernel.scalar_rounds pre);
  partial := 0;
  let e, c, we, wc =
    snapshot_differential "kill rounds" ~reseed:77
      ~protocol:(Core.Synran.protocol n) ~inputs:(synran_inputs n 5)
      ~t:(n - 1) ~seed:6 ~split ~driver:voting ~copy_adv:voting ()
  in
  Alcotest.(check bool) "partial deliveries after the snapshot" true
    (!partial > 0);
  Alcotest.(check (pair int int))
    "original and copy: every round packed" (0, 0)
    (Sim.Bitkernel.scalar_rounds e, Sim.Bitkernel.scalar_rounds c);
  Alcotest.(check bool) "the reseeded copy diverged" false (we = wc)

(* The packed fields are the copy's own: while the original idles, the
   reseeded copy loses two processes a round to silent kills, so its
   active mask, coin plane and carried tallies all move, every round
   packed. A plane, mask or tally array shared with the original would
   show in the original's views or outcome. n = 200 spans four words. *)
let test_snapshot_packed_fields_own () =
  let n = 200 in
  let e, c, _, _ =
    snapshot_differential "packed fields" ~reseed:5
      ~protocol:(Core.Synran.protocol n) ~inputs:(synran_inputs n 7)
      ~t:(n / 4) ~seed:8 ~split:1
      ~driver:(fun () -> Sim.Adversary.null)
      ~copy_adv:(fun () -> Baselines.Adversaries.drip ~per_round:2)
      ()
  in
  Alcotest.(check int) "original: every round packed" 0
    (Sim.Bitkernel.scalar_rounds e);
  Alcotest.(check int) "copy: every round packed" 0
    (Sim.Bitkernel.scalar_rounds c);
  Alcotest.(check bool)
    "copy killed" true
    ((Sim.Bitkernel.outcome c).Sim.Engine.kills_used > 0)

(* A snapshot taken unpacked, after [view_schedule]'s staircase round 4:
   the copy's next round is scalar, and it re-packs on its own later,
   with its own planes, while the original does the same. *)
let test_snapshot_unpacked_repacks () =
  let n = 200 and split = 4 in
  let protocol = Core.Synran.protocol n and inputs = synran_inputs n 5 in
  let pre =
    Sim.Bitkernel.start protocol ~inputs ~t:(n - 1) ~rng:(Prng.Rng.create 9)
  in
  for _ = 1 to split do
    ignore (Sim.Bitkernel.step pre view_schedule)
  done;
  let packed0 = Sim.Bitkernel.packed_rounds pre
  and scalar0 = Sim.Bitkernel.scalar_rounds pre in
  let probe = Sim.Bitkernel.snapshot pre in
  ignore (Sim.Bitkernel.step probe view_schedule);
  Alcotest.(check (pair int int))
    "snapshot taken unpacked: its next round is scalar"
    (packed0, scalar0 + 1)
    (Sim.Bitkernel.packed_rounds probe, Sim.Bitkernel.scalar_rounds probe);
  let e, c, _, _ =
    snapshot_differential "unpacked" ~reseed:11 ~protocol ~inputs ~t:(n - 1)
      ~seed:9 ~split
      ~driver:(fun () -> view_schedule)
      ~copy_adv:(fun () -> view_schedule)
      ()
  in
  List.iter
    (fun (side, x) ->
      Alcotest.(check bool)
        (side ^ ": re-packed after the snapshot")
        true
        (Sim.Bitkernel.packed_rounds x > packed0))
    [ ("original", e); ("copy", c) ]

(* Silent kills every round (the first eighth of the active senders),
   except a 7-victim [scatter] in each round of [partial], which takes
   the scalar fallback. *)
let shadow_schedule ~partial =
  {
    Sim.Adversary.name = "shadow-schedule";
    plan =
      (fun view _rng ->
        let active = Sim.Adversary.active_pids view in
        if List.mem view.Sim.Adversary.round partial then scatter view 7
        else
          List.filteri (fun i _ -> i < List.length active / 8) active
          |> List.map Sim.Adversary.kill_silent);
  }

(* The scalar half is built by the first round that unpacks, from the
   current template. Here the original only ever kills silently, so it
   never builds one; its copy, snapshotted after three silent-kill rounds
   have moved the template (SynRan's receive-count history, not-swap's
   round counter and sum), takes a scatter at once and builds its own.
   Both match Engine's snapshot pair. Not-swap runs at n = 160, so that
   more than 64 receivers are left for the scatter's classes. *)
let test_snapshot_copy_unpacks_alone () =
  let split = 3 in
  let check what protocol n =
    let e, c, _, _ =
      snapshot_differential what ~protocol ~inputs:(synran_inputs n 13)
        ~t:(n - 1) ~seed:14 ~split
        ~driver:(fun () -> shadow_schedule ~partial:[])
        ~copy_adv:(fun () -> shadow_schedule ~partial:[ split + 1 ])
        ()
    in
    Alcotest.(check int) (what ^ ": original: every round packed") 0
      (Sim.Bitkernel.scalar_rounds e);
    Alcotest.(check bool) (what ^ ": copy: unpacked") true
      (Sim.Bitkernel.scalar_rounds c > 0)
  in
  check "synran" (Core.Synran.protocol 200) 200;
  check "not-swap" (not_swap ~rounds:8) 160

(* Silent-kill rounds come before each execution's first scatter, so the
   dead have no scalar state when it is built. The original unpacks at
   round 3 and re-packs; the snapshot is taken packed after that, so the
   copy does not get the original's scalar half and builds its own at the
   scatter of round 8, as the original unpacks again. Both match Engine's
   snapshot pair. *)
let test_snapshot_after_silent_kills () =
  let n = 200 and split = 6 in
  let protocol = Core.Synran.protocol n and inputs = synran_inputs n 15 in
  let schedule () = shadow_schedule ~partial:[ 3; split + 2 ] in
  let pre =
    Sim.Bitkernel.start protocol ~inputs ~t:(n - 1) ~rng:(Prng.Rng.create 16)
  in
  let drv = schedule () in
  for _ = 1 to split - 1 do
    ignore (Sim.Bitkernel.step pre drv)
  done;
  let packed0 = Sim.Bitkernel.packed_rounds pre in
  ignore (Sim.Bitkernel.step pre drv);
  let scalar0 = Sim.Bitkernel.scalar_rounds pre in
  Alcotest.(check bool) "unpacked before the snapshot" true (scalar0 > 0);
  Alcotest.(check int) "packed at it" (packed0 + 1) (Sim.Bitkernel.packed_rounds pre);
  let e, c, _, _ =
    snapshot_differential "after silent kills" ~reseed:17 ~protocol ~inputs
      ~t:(n - 1) ~seed:16 ~split ~driver:schedule ~copy_adv:schedule ()
  in
  List.iter
    (fun (side, x) ->
      Alcotest.(check bool)
        (side ^ ": unpacked after the snapshot")
        true
        (Sim.Bitkernel.scalar_rounds x > scalar0))
    [ ("original", e); ("copy", c) ]

let suites =
  [
    ( "bitkernel.words",
      List.map to_alcotest
        [
          popcount_vs_naive;
          mask_upto_popcount;
          pack_unpack_roundtrip;
          iter_ones_ascending;
          draw_word_matches_scalar;
        ] );
    ( "bitkernel.differential",
      List.map to_alcotest (synran_tests @ floodset_tests @ not_swap_tests)
      @ [
          Alcotest.test_case "null-adversary rounds all batched" `Quick
            test_null_rounds_all_packed;
          Alcotest.test_case "leader flips stay packed" `Quick
            test_leader_flips_packed;
          Alcotest.test_case "partial kills stay packed" `Quick
            test_partial_kills_stay_packed;
          Alcotest.test_case "per-victim lists fall back to scalar" `Quick
            test_per_victim_lists_fall_back;
          Alcotest.test_case "overlapping groups run per receiver class"
            `Quick test_crossed_groups;
          Alcotest.test_case "one class halts while another goes on" `Quick
            test_class_halts_alone;
          Alcotest.test_case "silent kills stay packed" `Quick
            test_silent_kills_stay_packed;
          Alcotest.test_case "band control at n=200 stays packed" `Quick
            test_band_control_stays_packed;
          Alcotest.test_case "killing every active process" `Quick
            test_kill_all_active;
          Alcotest.test_case "survivors decide and halt on a kill round" `Quick
            test_survivors_decide_and_halt;
          Alcotest.test_case "leader picked among survivors" `Quick
            test_leader_among_survivors;
          Alcotest.test_case "checks name the first survivor" `Quick
            test_check_names_first_survivor;
          Alcotest.test_case "non-uniform init starts as two packed classes"
            `Quick test_two_class_start;
          Alcotest.test_case "packed halting step allocates O(1)" `Quick
            test_halting_step_allocation;
          Alcotest.test_case "packed one-class round allocates O(1)" `Quick
            test_one_class_round_allocation;
          Alcotest.test_case "band control at n=8192 = engine" `Quick
            test_band_at_scale;
          Alcotest.test_case "packed band-control round allocates O(1)" `Quick
            test_band_round_allocation;
          Alcotest.test_case "packed drip round allocates O(1)" `Quick
            test_drip_round_allocation;
          Alcotest.test_case "packed start allocates no scalar half" `Quick
            test_start_allocation;
          Alcotest.test_case "packed silent kills keep no victim state" `Quick
            test_silent_kill_round_allocation;
          Alcotest.test_case "trim and rescue rounds allocate per class" `Quick
            test_partial_round_allocation;
          Alcotest.test_case "voting at n=1024 stays packed" `Quick
            test_voting_stays_packed;
          Alcotest.test_case "snapshot reseed allocates no stream per process"
            `Quick test_reseed_allocation;
        ] );
    ("bitkernel.etables", etable_tests);
    ( "bitkernel.view",
      [
        Alcotest.test_case "register walks and privs match Engine's"
          `Quick test_view_iteration;
        Alcotest.test_case "priv agrees across engines under leader-killer"
          `Quick test_priv_under_leader_killer;
        Alcotest.test_case "priv refuses non-senders and non-register protocols"
          `Quick test_priv_refusals;
      ] );
    ( "bitkernel.snapshot",
      [
        Alcotest.test_case "snapshot independent" `Quick
          test_snapshot_independent;
        Alcotest.test_case "snapshot replays same coins" `Quick
          test_snapshot_replays_same_coins;
        Alcotest.test_case "snapshot keeps its own stamps" `Quick
          test_snapshot_stamps_own;
        Alcotest.test_case "snapshot steps through kill rounds" `Quick
          test_snapshot_through_kill_rounds;
        Alcotest.test_case "reseed changes coins" `Quick
          test_snapshot_reseed_changes_coins;
        Alcotest.test_case "copy shares no plane, mask or tally" `Quick
          test_snapshot_packed_fields_own;
        Alcotest.test_case "unpacked snapshot re-packs on its own" `Quick
          test_snapshot_unpacked_repacks;
        Alcotest.test_case "copy unpacks while its original stays packed"
          `Quick test_snapshot_copy_unpacks_alone;
        Alcotest.test_case "first unpack after silent kills" `Quick
          test_snapshot_after_silent_kills;
      ] );
  ]
