(* Fast-path smoke test: one quick aggregate-vs-legacy equivalence
   workload, wired into tier-1 as `dune build @bench-smoke` (a dep of
   @runtest). Exits non-zero on any divergence between the engine's
   aggregate delivery and the legacy materialized exchange, so a fast-path
   regression fails plain `dune runtest` — the QCheck differential
   properties in test_delivery.ml then localize it. The cohort and
   bitkernel legs replay the same discipline against the compressed and
   bit-packed engines (outcomes, traces, metrics digest, event-stream
   digest — any byte of difference fails tier-1). A large-n leg compares
   all three engines and the legacy exchange at n up to 4096 under the
   null adversary, the legacy exchange at n = 1024
   under voting band control, the engines at n = 8192 under band
   control, bitkernel against concrete at n = 2048 and n = 8192 under
   voting band control, shared recipient lists against copied ones at
   n = 2048, and per-victim recipient lists on concrete, legacy and
   bitkernel at n = 2048, where the differential suites do not reach. A
   coin-game leg plays E1's counting games at n = 1024 through the hide
   cursor's tally and through the same games rebuilt from their [eval]
   alone.

   Also smoke-validates the observability layer: one captured band-control
   workload at --jobs 1 vs --jobs 3 must produce byte-identical metrics
   JSON and event JSONL, and the jobs=1 registry lands in
   results/metrics.json as the checked-in export shape. *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "bench-smoke: DIVERGENCE: %s\n" what
  end

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

let compare_runs name protocol adversary ~n ~t ~seed =
  let run p adv =
    let rng = Prng.Rng.create seed in
    let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
    traced (fun sink ->
        Sim.Engine.run ~sink ~max_rounds:2000 p (adv ()) ~inputs ~t ~rng)
  in
  let fast = run protocol adversary in
  let legacy = run (Sim.Protocol.legacy protocol) adversary in
  check name (traced_equal fast legacy)

let obs_smoke () =
  let n = 32 and trials = 40 and seed = 7 in
  let protocol = Core.Synran.protocol n in
  let make_adversary () =
    Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
      ~bit_of_msg:Core.Synran.bit_of_msg ()
  in
  let captured jobs =
    let capture = Obs.Capture.create ~events:true () in
    let s =
      Sim.Runner.run_trials ~max_rounds:2000 ~jobs ~capture ~trials ~seed
        ~gen_inputs:(Sim.Runner.input_gen_random ~n)
        ~t:(n - 1) protocol make_adversary
    in
    (s, capture)
  in
  let s1, c1 = captured 1 in
  let s3, c3 = captured 3 in
  check "obs: summaries identical at jobs 1 vs 3"
    (Sim.Runner.mean_rounds s1 = Sim.Runner.mean_rounds s3
    && Stats.Histogram.bins s1.Sim.Runner.rounds_hist
       = Stats.Histogram.bins s3.Sim.Runner.rounds_hist);
  check "obs: metrics JSON byte-identical at jobs 1 vs 3"
    (Obs.Capture.metrics_json c1 = Obs.Capture.metrics_json c3);
  check "obs: event JSONL byte-identical at jobs 1 vs 3"
    (Obs.Capture.events_jsonl c1 = Obs.Capture.events_jsonl c3);
  check "obs: metrics registry is non-empty"
    (not (Obs.Metrics.is_empty (Obs.Capture.metrics c1)));
  check "obs: runner.trials counts every trial"
    (Obs.Metrics.counter_value (Obs.Capture.metrics c1) "runner.trials"
    = trials);
  let json = Obs.Capture.metrics_json c1 in
  check "obs: metrics export carries its schema tag"
    (let tag = "\"schema\": \"metrics/v1\"" in
     let tl = String.length tag and jl = String.length json in
     let rec scan i = i + tl <= jl && (String.sub json i tl = tag || scan (i + 1)) in
     scan 0);
  (* The dune rule declares metrics.json as a target and promotes it to
     results/metrics.json, so the export ships with the repo. *)
  Obs.Json.write ~path:"metrics.json" json;
  print_endline
    "bench-smoke: obs capture identical at jobs 1 and 3 -> results/metrics.json"

(* Run one engine invocation under a fresh metrics registry, recorder and
   trace; returns the traced outcome with both digests, so engine
   comparisons cover the full observability stream, not just outcomes. *)
let observed run =
  let m = Obs.Metrics.create () and rc = Obs.Recorder.create () in
  let sink =
    Obs.Sink.create (fun ev ->
        Obs.Metrics.absorb_event m ev;
        Obs.Recorder.push rc ev)
  in
  let o = traced ~sink run in
  (o, Obs.Metrics.digest m, Obs.Recorder.digest rc)

(* Cohort-vs-concrete replay: the compressed engine must be byte-identical
   to Sim.Engine on outcomes, traces, and the full observability stream —
   including under the cohort-native band adversary. Any byte of
   difference fails tier-1. *)
let cohort_compare name protocol ?observer adversary cohort_adversary ~n ~t
    ~seed =
  let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
  let o1, m1, r1 =
    observed (fun sink ->
        Sim.Engine.run ?observer ~sink ~max_rounds:2000
          protocol (adversary ()) ~inputs ~t
          ~rng:(Prng.Rng.create seed))
  in
  let o2, m2, r2 =
    observed (fun sink ->
        Sim.Cohort.run ?observer ~sink ~max_rounds:2000
          protocol (cohort_adversary ()) ~inputs ~t
          ~rng:(Prng.Rng.create seed))
  in
  check (name ^ ": outcome+trace") (traced_equal o1 o2);
  check (name ^ ": metrics digest") (m1 = m2);
  check (name ^ ": event-stream digest") (r1 = r2)

let cohort_smoke () =
  let rules = Core.Onesided.paper in
  let band () =
    Core.Lb_adversary.band_control ~rules ~bit_of_msg:Core.Synran.bit_of_msg ()
  in
  let band_aware () =
    Core.Lb_adversary.band_control_cohort ~rules
      ~bit_of_msg:Core.Synran.bit_of_msg ()
  in
  for seed = 1 to 3 do
    cohort_compare
      (Printf.sprintf "cohort synran n=96 vs aware band (seed %d)" seed)
      (Core.Synran.protocol 96) ~observer:Core.Synran.msg_is_one band
      band_aware ~n:96 ~t:95 ~seed;
    cohort_compare
      (Printf.sprintf "cohort synran n=64 vs wrapped drip (seed %d)" seed)
      (Core.Synran.protocol 64) ~observer:Core.Synran.msg_is_one
      (fun () -> Baselines.Adversaries.drip ~per_round:2)
      (fun () ->
        Sim.Cohort.Concrete (Baselines.Adversaries.drip ~per_round:2))
      ~n:64 ~t:32 ~seed;
    cohort_compare
      (Printf.sprintf "cohort floodset n=48 vs wrapped partial (seed %d)" seed)
      (Baselines.Floodset.protocol ~rounds:9 ())
      (fun () -> Baselines.Adversaries.random_partial ~p:0.1)
      (fun () ->
        Sim.Cohort.Concrete (Baselines.Adversaries.random_partial ~p:0.1))
      ~n:48 ~t:24 ~seed
  done;
  print_endline "bench-smoke: cohort engine byte-identical to concrete"

(* Bitkernel-vs-concrete replay: same contract as the cohort leg. The
   null adversary keeps every round packed, and so do band-control's
   silent kills and the valency-steer killer's partial deliveries, which
   run per receiver class. Only per-victim recipient lists that split the
   receivers into more classes than the kernel runs leave the packed
   path: random-partial at n = 96 forces those scalar fallbacks and
   re-packs, so both halves of the kernel are diffed. *)
let bitkernel_compare name protocol ?observer adversary ~n ~t ~seed =
  let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
  let o1, m1, r1 =
    observed (fun sink ->
        Sim.Engine.run ?observer ~sink ~max_rounds:2000
          protocol (adversary ()) ~inputs ~t
          ~rng:(Prng.Rng.create seed))
  in
  let o2, m2, r2 =
    observed (fun sink ->
        Sim.Bitkernel.run ?observer ~sink ~max_rounds:2000
          protocol (adversary ()) ~inputs ~t
          ~rng:(Prng.Rng.create seed))
  in
  check (name ^ ": outcome+trace") (traced_equal o1 o2);
  check (name ^ ": metrics digest") (m1 = m2);
  check (name ^ ": event-stream digest") (r1 = r2)

let bitkernel_smoke () =
  let rules = Core.Onesided.paper in
  for seed = 1 to 3 do
    bitkernel_compare
      (Printf.sprintf "bitkernel synran n=96 vs null (seed %d)" seed)
      (Core.Synran.protocol 96) ~observer:Core.Synran.msg_is_one
      (fun () -> Sim.Adversary.null)
      ~n:96 ~t:0 ~seed;
    bitkernel_compare
      (Printf.sprintf "bitkernel synran n=96 vs band-control (seed %d)" seed)
      (Core.Synran.protocol 96) ~observer:Core.Synran.msg_is_one
      (fun () ->
        Core.Lb_adversary.band_control ~rules
          ~bit_of_msg:Core.Synran.bit_of_msg ())
      ~n:96 ~t:95 ~seed;
    bitkernel_compare
      (Printf.sprintf "bitkernel synran n=64 vs valency-steer (seed %d)" seed)
      (Core.Synran.protocol 64) ~observer:Core.Synran.msg_is_one
      (fun () ->
        Baselines.Adversaries.valency_steer ~per_round:2
          ~msg_is_one:Core.Synran.msg_is_one ())
      ~n:64 ~t:32 ~seed;
    bitkernel_compare
      (Printf.sprintf "bitkernel synran n=96 vs random-partial (seed %d)" seed)
      (Core.Synran.protocol 96) ~observer:Core.Synran.msg_is_one
      (fun () -> Baselines.Adversaries.random_partial ~p:0.1)
      ~n:96 ~t:48 ~seed;
    bitkernel_compare
      (Printf.sprintf "bitkernel floodset n=48 vs null (seed %d)" seed)
      (Baselines.Floodset.protocol ~rounds:9 ())
      (fun () -> Sim.Adversary.null)
      ~n:48 ~t:0 ~seed;
    bitkernel_compare
      (Printf.sprintf "bitkernel floodset n=48 vs valency-steer (seed %d)"
         seed)
      (Baselines.Floodset.protocol ~rounds:9 ())
      (fun () ->
        Baselines.Adversaries.valency_steer ~per_round:2
          ~msg_is_one:Baselines.Floodset.msg_has_one
          ())
      ~n:48 ~t:24 ~seed;
    (* 200 = 3 * 63 + 11 lanes: four words, the last one partial. drip's
       two silent kills a round for 15 rounds keep the kernel packed, so
       the carried tallies go through many Fill transitions and victim
       subtractions. *)
    bitkernel_compare
      (Printf.sprintf "bitkernel floodset n=200 vs drip (seed %d)" seed)
      (Baselines.Floodset.protocol ~rounds:16 ())
      ~observer:Baselines.Floodset.msg_has_one
      (fun () -> Baselines.Adversaries.drip ~per_round:2)
      ~n:200 ~t:30 ~seed;
    (* The same four words under SynRan: drip's silent kills stay packed,
       and every carried tally (ones, the coin plane, both value-set
       registers) feeds the next round's thresholds, so a victim's bits
       left in a tally change the decisions or the Round summaries. *)
    bitkernel_compare
      (Printf.sprintf "bitkernel synran n=200 vs drip (seed %d)" seed)
      (Core.Synran.protocol 200) ~observer:Core.Synran.msg_is_one
      (fun () -> Baselines.Adversaries.drip ~per_round:2)
      ~n:200 ~t:30 ~seed
  done;
  print_endline "bench-smoke: bitkernel engine byte-identical to concrete"

(* Continuation replay: the Monte-Carlo valency continuations run on
   Bitkernel's snapshots, and Engine's are the reference. One SynRan run
   per engine steps under voting band control; at several rounds it is
   snapshotted three times, each copy reseeded from equal RNGs on both
   engines and continued for up to 60 rounds: under drip (silent kills,
   packed), under voting band control (partial deliveries, packed per
   receiver class) and under random-partial (per-victim lists, which at
   n = 1024 take the scalar fallback). A copy's sink is null, so the
   continuation's
   adversary records the pending messages its views walk each round.
   Outcomes and walks must be equal. The original keeps stepping after
   each snapshot's continuations ran, so a copy that shared mutable state
   with it shows in every later snapshot. *)
module type CONTINUES = sig
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

  val run_until :
    ('state, 'msg) exec -> ('state, 'msg) Sim.Adversary.t -> max_rounds:int -> unit

  val round : ('state, 'msg) exec -> int
  val outcome : ('state, 'msg) exec -> Sim.Engine.outcome
end

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

let voting () =
  Core.Lb_adversary.band_control ~config:Core.Lb_adversary.voting_config
    ~rules:Core.Onesided.paper ~bit_of_msg:Core.Synran.bit_of_msg ()

let continuation_policies =
  [
    ("drip", fun () -> Baselines.Adversaries.drip ~per_round:1);
    ("voting", voting);
    ("random-partial", fun () -> Baselines.Adversaries.random_partial ~p:0.1);
  ]

module Continue (E : CONTINUES) = struct
  (* Per snapshot round in [splits] (ascending), per policy: the
     continuation's outcome and walks, and the copy itself. *)
  let run ~n ~splits =
    let protocol = Core.Synran.protocol n in
    let width =
      match protocol.Sim.Protocol.bitops with
      | Some bo -> bo.Sim.Protocol.bo_codec.Sim.Protocol.bo_width
      | None -> 0
    in
    let inputs = Prng.Sample.random_bits (Prng.Rng.create (n + 1)) n in
    let e = E.start protocol ~inputs ~t:(n - 1) ~rng:(Prng.Rng.create n) in
    let drv = voting () in
    List.concat_map
      (fun split ->
        while E.round e < split && E.step e drv = `Continue do
          ()
        done;
        List.mapi
          (fun i (policy, make) ->
            let c = E.snapshot e in
            E.reseed c (Prng.Rng.create ((1000 * split) + i));
            let walks = ref [] in
            E.run_until c
              (recording ~width walks (make ()))
              ~max_rounds:(split + 60);
            (split, policy, (E.outcome c, !walks), c))
          continuation_policies)
      splits
end

module On_engine = Continue (Sim.Engine)
module On_bitkernel = Continue (Sim.Bitkernel)

let continuation_smoke () =
  List.iter
    (fun n ->
      let splits = [ 0; 2; 5 ] in
      let packed = ref false and voting_packed = ref true and scalar = ref false in
      List.iter2
        (fun (split, policy, (eo, ew), _) (_, _, (bo, bw), c) ->
          check
            (Printf.sprintf "continuation n=%d round %d under %s" n split policy)
            (outcomes_equal eo bo && ew = bw);
          let scalar_rounds = Sim.Bitkernel.scalar_rounds c in
          if policy = "drip" && Sim.Bitkernel.packed_rounds c > 0 then
            packed := true;
          if policy = "voting" && scalar_rounds > 0 then voting_packed := false;
          if policy = "random-partial" && scalar_rounds > 0 then scalar := true)
        (On_engine.run ~n ~splits) (On_bitkernel.run ~n ~splits);
      check (Printf.sprintf "continuations n=%d: drip ran packed" n) !packed;
      check
        (Printf.sprintf "continuations n=%d: band control ran packed" n)
        !voting_packed;
      (* At n = 64 no round can have more receiver classes than the
         kernel runs: the fallback needs n >= 256. *)
      if n >= 256 then
        check
          (Printf.sprintf "continuations n=%d: random-partial fell back" n)
          !scalar)
    [ 64; 1024 ];
  print_endline
    "bench-smoke: bitkernel continuations byte-identical to concrete snapshots"

(* Large-n replay: the differential suites and the legs above stop at
   n <= 96, so this is where the engines meet at the sizes the benchmark
   times. Under the null adversary, concrete, bitkernel and cohort must
   agree at n = 4096 for SynRan (random inputs) and FloodSet, and
   bitkernel must match concrete on SynRan's leader coin there, under the
   null adversary and the leader killer (event for event, every round
   packed). One SynRan trial at n = 1024 must match the legacy
   materialized exchange.
   One SynRan trial at n = 1024 under voting band control (the band_n1024
   benchmark attack) must match the legacy exchange as well. Under band
   control, the three engines must agree on outcomes and on the metrics
   digest for two SynRan trials at n = 8192, and under voting band control
   bitkernel must match concrete for two trials at n = 2048 and at
   n = 8192. One voting trial at n = 2048 must not change when every
   recipient list is copied per victim, and one SynRan trial at n = 2048
   under per-victim random-partial must agree on concrete, the legacy
   exchange and bitkernel.
   No timing: speed is the benchmark's business (perf/). *)
let large_n_smoke () =
  let inputs_for n i = Prng.Sample.random_bits (Prng.Rng.create (42 + i)) n in
  let rng_of i = Prng.Rng.create (100 + i) in
  let engines name protocol ~n ~max_rounds =
    for i = 1 to 2 do
      let inputs = inputs_for n i in
      let concrete =
        Sim.Engine.run ~max_rounds protocol Sim.Adversary.null ~inputs ~t:0
          ~rng:(rng_of i)
      in
      let bit =
        Sim.Bitkernel.run ~max_rounds protocol Sim.Adversary.null ~inputs
          ~t:0 ~rng:(rng_of i)
      in
      let cohort =
        Sim.Cohort.run ~max_rounds protocol
          (Sim.Cohort.Concrete Sim.Adversary.null)
          ~inputs ~t:0 ~rng:(rng_of i)
      in
      let what engine = Printf.sprintf "%s n=%d trial %d: %s" name n i engine in
      check (what "bitkernel = concrete") (outcomes_equal concrete bit);
      check (what "cohort = concrete") (outcomes_equal concrete cohort)
    done
  in
  let n = 4096 in
  let synran = Core.Synran.protocol n in
  engines "synran" synran ~n ~max_rounds:400;
  engines "floodset"
    (Baselines.Floodset.protocol ~rounds:17 ())
    ~n ~max_rounds:20;
  (* Leader_priority at n = 4096, on maximally divided inputs so the first
     round is a flip: the packed path reads the leader's bit from a lane
     scan and must match the concrete engine's aggregate. *)
  let leader = Core.Synran.protocol ~coin:Core.Synran.Leader_priority n in
  for i = 1 to 2 do
    let inputs = Sim.Runner.input_gen_split ~n (rng_of i) in
    let concrete, mc, _ =
      observed (fun sink ->
          Sim.Engine.run ~sink ~max_rounds:400 leader Sim.Adversary.null
            ~inputs ~t:0 ~rng:(rng_of i))
    in
    let bit, mb, _ =
      observed (fun sink ->
          Sim.Bitkernel.run ~sink ~max_rounds:400 leader Sim.Adversary.null
            ~inputs ~t:0 ~rng:(rng_of i))
    in
    check
      (Printf.sprintf "synran leader n=%d trial %d: bitkernel = concrete" n i)
      (traced_equal concrete bit && mb = mc)
  done;
  (* The leader killer against the same protocol: each kill round's
     victims deliver to a protected set only, so the receivers split into
     two classes, and a flip adopts its class's leader, the top of the
     survivors or of the victims it hears. Every round stays packed. *)
  let killer () =
    Core.Lb_adversary.leader_killer ~rules:Core.Onesided.paper
      ~bit_of_msg:Core.Synran.bit_of_msg ()
  in
  for i = 1 to 2 do
    let inputs = Sim.Runner.input_gen_split ~n (rng_of i) and t = n - 1 in
    let concrete, mc, rc =
      observed (fun sink ->
          Sim.Engine.run ~sink ~max_rounds:400 leader (killer ()) ~inputs ~t
            ~rng:(rng_of i))
    in
    (* -1 if the killer never killed, else the scalar rounds run. *)
    let scalar = ref (-1) in
    let bit, mb, rb =
      observed (fun sink ->
          let e = Sim.Bitkernel.start ~sink leader ~inputs ~t ~rng:(rng_of i) in
          Sim.Bitkernel.run_until e (killer ()) ~max_rounds:400;
          if Sim.Bitkernel.kills_used e > 0 then
            scalar := Sim.Bitkernel.scalar_rounds e;
          Sim.Bitkernel.final_outcome e)
    in
    check
      (Printf.sprintf "synran leader n=%d vs leader-killer trial %d: \
                       bitkernel = concrete, killing, all packed" n i)
      (traced_equal concrete bit && mb = mc && rb = rc && !scalar = 0)
  done;
  let n = 1024 in
  let p = Core.Synran.protocol n in
  let run p =
    Sim.Engine.run ~max_rounds:400 p Sim.Adversary.null
      ~inputs:(inputs_for n 1) ~t:0 ~rng:(rng_of 1)
  in
  check
    (Printf.sprintf "synran n=%d: fast path = legacy" n)
    (outcomes_equal (run p) (run (Sim.Protocol.legacy p)));
  (* The same comparison under the benchmark's band_n1024 attack, whose
     kill rounds deliver thousands of partial sends through the delivery
     index. *)
  let rules = Core.Onesided.paper in
  let p = Core.Synran.protocol ~rules n in
  let run_band p =
    traced (fun sink ->
        Sim.Engine.run ~sink ~max_rounds:2000 p
          (Core.Lb_adversary.band_control
             ~config:Core.Lb_adversary.voting_config ~rules
             ~bit_of_msg:Core.Synran.bit_of_msg ())
          ~inputs:(inputs_for n 1) ~t:(n - 1) ~rng:(rng_of 1))
  in
  check
    (Printf.sprintf "synran n=%d vs voting band control: fast path = legacy" n)
    (traced_equal (run_band p) (run_band (Sim.Protocol.legacy p)));
  (* Band control at n = 8192: kill rounds with partial deliveries, which
     every engine runs through the shared round rules and bitkernel runs
     through Engine's own delivery code (its silent bursts stay packed).
     Cohort plans with the native port, as [--engine cohort] does. *)
  let n = 8192 in
  let t = n - 1 and rules = Core.Onesided.paper in
  let synran = Core.Synran.protocol ~rules n in
  let band () =
    Core.Lb_adversary.band_control ~rules ~bit_of_msg:Core.Synran.bit_of_msg ()
  in
  for i = 1 to 2 do
    let inputs = inputs_for n i in
    let concrete, mc, _ =
      observed (fun sink ->
          Sim.Engine.run ~sink ~max_rounds:2000 synran (band ()) ~inputs ~t
            ~rng:(rng_of i))
    in
    let bit, mb, _ =
      observed (fun sink ->
          Sim.Bitkernel.run ~sink ~max_rounds:2000 synran (band ()) ~inputs ~t
            ~rng:(rng_of i))
    in
    let cohort, mco, _ =
      observed (fun sink ->
          Sim.Cohort.run ~sink ~max_rounds:2000 synran
            (Core.Lb_adversary.band_control_cohort ~rules
               ~bit_of_msg:Core.Synran.bit_of_msg ())
            ~inputs ~t ~rng:(rng_of i))
    in
    let what engine =
      Printf.sprintf "synran n=%d vs band-control trial %d: %s" n i engine
    in
    check (what "bitkernel = concrete") (traced_equal concrete bit && mb = mc);
    check (what "cohort = concrete") (traced_equal concrete cohort && mco = mc)
  done;
  (* Voting band control on bitkernel at n = 2048. The default config
     above only bursts or idles at scale, so this is the leg where the
     packed view's ascending walk picks trim and rescue victims, and
     where their partial sends run per receiver class. *)
  let n = 2048 in
  let t = n - 1 in
  let synran = Core.Synran.protocol ~rules n in
  let voting () =
    Core.Lb_adversary.band_control ~config:Core.Lb_adversary.voting_config
      ~rules ~bit_of_msg:Core.Synran.bit_of_msg ()
  in
  for i = 1 to 2 do
    let inputs = inputs_for n i in
    let concrete, mc, rc =
      observed (fun sink ->
          Sim.Engine.run ~sink ~max_rounds:2000 synran (voting ()) ~inputs ~t
            ~rng:(rng_of i))
    in
    let bit, mb, rb =
      observed (fun sink ->
          Sim.Bitkernel.run ~sink ~max_rounds:2000 synran (voting ()) ~inputs ~t
            ~rng:(rng_of i))
    in
    (* The event stream too: a rescue kills every 0-sender whatever the
       walk's order, but its Kill events follow the plan's order. *)
    check
      (Printf.sprintf
         "synran n=%d vs voting band control trial %d: bitkernel = concrete" n
         i)
      (traced_equal concrete bit && mb = mc && rb = rc)
  done;
  (* Voting band control at n = 8192: every trim and rescue kills a group
     sharing one recipient list, which the delivery code walks once per
     round (Sim.Adversary.kill_group). *)
  let n = 8192 in
  let t = n - 1 in
  let synran = Core.Synran.protocol ~rules n in
  for i = 1 to 2 do
    let inputs = inputs_for n i in
    let concrete, mc, rc =
      observed (fun sink ->
          Sim.Engine.run ~sink ~max_rounds:2000 synran (voting ()) ~inputs ~t
            ~rng:(rng_of i))
    in
    let bit, mb, rb =
      observed (fun sink ->
          Sim.Bitkernel.run ~sink ~max_rounds:2000 synran (voting ()) ~inputs ~t
            ~rng:(rng_of i))
    in
    check
      (Printf.sprintf
         "synran n=%d vs voting band control trial %d: bitkernel = concrete" n
         i)
      (traced_equal concrete bit && mb = mc && rb = rc)
  done;
  (* Both engines run a partial-delivery round through the same grouped
     delivery code, so a wrong class tally would agree with itself above.
     Here the same trial runs with every recipient list rebuilt as a fresh
     copy, which the engine takes as one-victim groups: outcomes, trace
     and event stream must not tell the two apart. *)
  let n = 2048 in
  let t = n - 1 in
  let synran = Core.Synran.protocol ~rules n in
  let copied (adv : _ Sim.Adversary.t) =
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
  in
  let run wrap =
    observed (fun sink ->
        Sim.Engine.run ~sink ~max_rounds:2000 synran
          (wrap (voting ()))
          ~inputs:(inputs_for n 1) ~t ~rng:(rng_of 1))
  in
  let shared, ms, rs = run Fun.id and per_victim, mp, rp = run copied in
  check
    (Printf.sprintf
       "synran n=%d vs voting band control: shared lists = copied lists" n)
    (traced_equal shared per_victim && ms = mp && rs = rp);
  (* Per-victim lists at the class trie's deepest shape: random-partial
     gives each of ~40 victims a round its own half of the active pids, so
     most receivers end in a class of their own, chains run deep and the
     class arrays grow. The legacy exchange reads each kill's list on its
     own, and Bitkernel's kill rounds run the concrete delivery code. *)
  let synran = Core.Synran.protocol n in
  let inputs = inputs_for n 1 and t = n / 2 in
  let partial () = Baselines.Adversaries.random_partial ~p:0.02 in
  let on_engine p =
    observed (fun sink ->
        Sim.Engine.run ~sink ~max_rounds:2000 p (partial ())
          ~inputs ~t ~rng:(rng_of 1))
  in
  let concrete, mc, rc = on_engine synran in
  List.iter
    (fun (what, (o, m, r)) ->
      check
        (Printf.sprintf "synran n=%d vs per-victim random-partial: %s" n what)
        (traced_equal concrete o && m = mc && r = rc))
    [
      ("legacy = fast", on_engine (Sim.Protocol.legacy synran));
      ( "bitkernel = concrete",
        observed (fun sink ->
            Sim.Bitkernel.run ~sink ~max_rounds:2000 synran
              (partial ()) ~inputs ~t ~rng:(rng_of 1)) );
    ];
  print_endline
    "bench-smoke: engines agree at n=4096 (leader coin too, null and \
     leader-killer), under band control at n=8192 and under voting band \
     control at n=2048 and n=8192, shared recipient lists = copied at \
     n=2048, legacy = fast at n=1024 (null and voting band control), \
     per-victim lists agree on three engines at n=2048"

(* Coin-game replay at n = 1024, the full profile's largest E1 size: the
   four counting games under E1's strategy, budgets and targets, 8 trials
   each, must force the same number of trials whether the cursor runs on
   the (sum, present) tally or on the masked array and [eval] of the same
   game rebuilt without its counting rule. *)
let coinflip_smoke () =
  let n = 1024 in
  List.iter
    (fun (g : Coinflip.Game.t) ->
      let eval_only =
        Coinflip.Game.make ~name:g.name ~n ~k:g.k ~draw:g.draw g.eval
      in
      List.iter
        (fun budget ->
          for target = 0 to g.k - 1 do
            let forced game =
              (Coinflip.Control.control_probability ~trials:8 ~jobs:1 ~seed:42
                 ~budget ~target ~strategy:Coinflip.Strategy.best_available
                 game)
                .Coinflip.Control.forced
            in
            check
              (Printf.sprintf "%s budget %d target %d: tally = eval" g.name
                 budget target)
              (forced g = forced eval_only)
          done)
        [
          0;
          int_of_float (Float.ceil (sqrt (float_of_int n)));
          Stdlib.min n
            (int_of_float (Float.ceil (Coinflip.Bounds.lemma_budget ~k:g.k n)));
        ])
    [
      Coinflip.Games.majority_default_zero n;
      Coinflip.Games.majority_ignore_missing n;
      Coinflip.Games.parity n;
      Coinflip.Games.sum_mod ~k:3 n;
    ];
  print_endline
    "bench-smoke: counting games force the same trials via tally and eval \
     at n=1024"

(* Chaos replay: a pinned survivable fault plan — three faults across
   three sites, one of them a torn checkpoint write that the retry must
   skip and recompute — replayed at jobs 1 and jobs 3. The whole
   point of the fault harness is that recovery is byte-invisible: the
   summary, the metrics JSON, the event JSONL, and the supervisor's
   manifest-bound metrics digest must all equal the fault-free run's. An
   every-hit arm then exhausts the retry budget on purpose and must land
   as a structured terminal failure carrying the injected fault. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let chaos_pinned_plan = "body@1#2:raise,store@2#0:torn,sink@3#5:raise"

let chaos_smoke () =
  let trials = 40 and seed = 17 and n = 8 in
  let plan_exn s =
    match Sim.Fault.plan_of_string s with
    | Ok p -> p
    | Error e -> failwith ("bench-smoke: bad pinned plan: " ^ e)
  in
  let plan = plan_exn chaos_pinned_plan in
  let root = Filename.temp_dir "bench_chaos_" "" in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let run ?(fault = []) ?(retries = 0) ~tag ~jobs () =
    let capture = Obs.Capture.create ~events:true () in
    let checkpoint =
      Sim.Checkpoint.create ~root ~exp:tag ~seed ~chunk_size:8 ~n:trials
    in
    let r =
      Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs ~chunk_size:8
        ~capture
        ~guard:
          { Sim.Runner.unguarded with
            checkpoint = Some checkpoint; retries; fault }
        ~trials ~seed
        ~gen_inputs:(Sim.Runner.input_gen_random ~n)
        ~t:2 (Core.Synran.protocol n)
        (fun () -> Sim.Adversary.null)
    in
    (r, Obs.Capture.metrics_json capture, Obs.Capture.events_jsonl capture)
  in
  let summary_fields (s : Sim.Runner.summary) =
    ( s.Sim.Runner.trials,
      Stats.Welford.mean s.Sim.Runner.rounds,
      Stats.Histogram.bins s.Sim.Runner.rounds_hist,
      (s.Sim.Runner.decided_zero, s.Sim.Runner.decided_one) )
  in
  let rb, mb, eb = run ~tag:"base" ~jobs:1 () in
  check "chaos: fault-free baseline is clean"
    (rb.Sim.Runner.failures = [] && rb.Sim.Runner.partial <> None);
  List.iter
    (fun jobs ->
      let tag = Printf.sprintf "chaos-j%d" jobs in
      let r, m, e = run ~fault:plan ~retries:2 ~tag ~jobs () in
      check
        (Printf.sprintf "chaos: plan survived the retry budget at jobs %d"
           jobs)
        (r.Sim.Runner.failures = []);
      check
        (Printf.sprintf "chaos: all three faults fired at jobs %d" jobs)
        (List.length r.Sim.Runner.retried = 3);
      check
        (Printf.sprintf "chaos: summary byte-identical at jobs %d" jobs)
        (Option.map summary_fields r.Sim.Runner.partial
        = Option.map summary_fields rb.Sim.Runner.partial);
      check
        (Printf.sprintf "chaos: metrics JSON byte-identical at jobs %d" jobs)
        (m = mb);
      check
        (Printf.sprintf "chaos: event JSONL byte-identical at jobs %d" jobs)
        (e = eb))
    [ 1; 3 ];
  (* The manifest-bound view: run the same workload under Core.Supervise
     with and without the plan; the experiment's table (the manifest's
     table_digest) and its supervision registry must not change, while the
     retries land in the manifest-only chunk_retries counter. *)
  let sup_run ?fault ~retries ~tag () =
    let ctx = Core.Supervise.create ~checkpoints:root ?fault ~retries () in
    Core.Supervise.run_experiment ctx ~id:"chaos" (fun () ->
        (* The sink-site arm only fires when events actually flow, so the
           supervised leg captures too. *)
        let capture = Obs.Capture.create ~events:true () in
        let s =
          Core.Supervise.fold ctx ~key:tag ~seed ~trials (fun guard ->
              Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs:1
                ~chunk_size:8 ~capture ~guard ~trials ~seed
                ~gen_inputs:(Sim.Runner.input_gen_random ~n)
                ~t:2 (Core.Synran.protocol n)
                (fun () -> Sim.Adversary.null))
        in
        let tbl =
          Stats.Table.create ~title:"chaos"
            ~columns:[ "trials"; "mean rounds"; "decided 0"; "decided 1" ]
        in
        Stats.Table.add_row tbl
          [
            Stats.Table.Int s.Sim.Runner.trials;
            Stats.Table.Float (Stats.Welford.mean s.Sim.Runner.rounds);
            Stats.Table.Int s.Sim.Runner.decided_zero;
            Stats.Table.Int s.Sim.Runner.decided_one;
          ];
        tbl)
  in
  let r_free = sup_run ~retries:0 ~tag:"sup-base" () in
  let r_chaos = sup_run ~fault:plan ~retries:2 ~tag:"sup-chaos" () in
  check "chaos: supervised run recovered"
    (not (Core.Supervise.failed r_chaos));
  check "chaos: manifest counts the retried passes"
    (r_chaos.Core.Supervise.chunk_retries = 3);
  check "chaos: manifest table_digest identical to fault-free"
    (Core.Supervise.table_digest r_free <> None
    && Core.Supervise.table_digest r_free
       = Core.Supervise.table_digest r_chaos);
  check "chaos: supervision registry identical to fault-free"
    (Obs.Metrics.digest r_free.Core.Supervise.metrics
    = Obs.Metrics.digest r_chaos.Core.Supervise.metrics);
  (* Budget exhaustion is loud, structured, and keeps the original
     exception. *)
  let rx, _, _ =
    run ~fault:(plan_exn "body@1#*:raise") ~retries:1 ~tag:"exhaust" ~jobs:1
      ()
  in
  check "chaos: exhausted budget is a terminal failure"
    (match rx.Sim.Runner.failures with
    | [ f ] -> (
        f.Sim.Runner.attempt = 1
        && match f.Sim.Runner.exn with
           | Sim.Fault.Injected { site = Sim.Fault.Chunk_body; _ } -> true
           | _ -> false)
    | _ -> false);
  print_endline
    "bench-smoke: pinned chaos plan byte-invisible at jobs 1 and 3; \
     exhausted budget fails loudly"

let () =
  let rules = Core.Onesided.paper in
  for seed = 1 to 5 do
    compare_runs
      (Printf.sprintf "synran n=64 vs band-control (seed %d)" seed)
      (Core.Synran.protocol 64)
      (fun () ->
        Core.Lb_adversary.band_control ~rules
          ~bit_of_msg:Core.Synran.bit_of_msg ())
      ~n:64 ~t:63 ~seed;
    compare_runs
      (Printf.sprintf "synran n=48 vs random-partial (seed %d)" seed)
      (Core.Synran.protocol 48)
      (fun () -> Baselines.Adversaries.random_partial ~p:0.1)
      ~n:48 ~t:24 ~seed;
    compare_runs
      (Printf.sprintf "floodset n=32 vs drip (seed %d)" seed)
      (Baselines.Floodset.protocol ~rounds:9 ())
      (fun () -> Baselines.Adversaries.drip ~per_round:1)
      ~n:32 ~t:8 ~seed
  done;
  cohort_smoke ();
  bitkernel_smoke ();
  continuation_smoke ();
  large_n_smoke ();
  coinflip_smoke ();
  obs_smoke ();
  chaos_smoke ();
  if !failures > 0 then begin
    Printf.eprintf "bench-smoke: %d divergence(s)\n" !failures;
    exit 1
  end;
  print_endline "bench-smoke: fast path and legacy path agree"
