type profile = Quick | Full

(* The run context every driver reads. [jobs] and [sup] reach the trial
   loops only through the helpers below. *)
type x = {
  profile : profile;
  seed : int;
  jobs : int option;
  sup : Supervise.ctx;
}

let pick x ~quick ~full = match x.profile with Quick -> quick | Full -> full

(* ------------------------------------------------------------------ *)
(* Run-context helpers: the only code that meets Supervise             *)
(* ------------------------------------------------------------------ *)

(* The experiment's table, registered before [body] adds its first row so
   a failed or timed-out run still reports the rows added so far. *)
let table x ~title ~columns body =
  let t = Supervise.register x.sup (Stats.Table.create ~title ~columns) in
  body (Stats.Table.add_row t);
  t

(* A fold key names one trial population: the row, then every parameter
   that shapes its trials. The key also names the population's checkpoint
   store, so its spelling is part of the resume format. *)
let key exp ~n ~t ~mr = Printf.sprintf "%s;n=%d;t=%d;mr=%d" exp n t mr

(* A synchronous population on the Runner's engines. *)
let sync ?(max_rounds = 2000) ?(gen = `Random) x ~exp ~n ~t ~trials protocol
    make_adversary =
  let gen_inputs, gen_label =
    match gen with
    | `Random -> (Sim.Runner.input_gen_random ~n, "random")
    | `Split -> (Sim.Runner.input_gen_split ~n, "split")
  in
  Supervise.fold x.sup ~seed:x.seed ~trials
    ~key:(key exp ~n ~t ~mr:max_rounds ^ ";gen=" ^ gen_label)
    (fun guard ->
      Sim.Runner.run_trials_supervised ~max_rounds ?jobs:x.jobs ~guard ~trials
        ~seed:x.seed ~gen_inputs ~t protocol make_adversary)

(* The paper's SynRan; the key names its rules. *)
let synran x ~exp ~n ~t ~trials make_adversary =
  sync x
    ~exp:(exp ^ ";rules=" ^ Onesided.paper.Onesided.label)
    ~n ~t ~trials (Synran.protocol n) make_adversary

(* Async Ben-Or under one scheduler (E9), capped at 400k steps. *)
let async x ~exp ~n ~t ~trials make_scheduler =
  Supervise.fold x.sup ~seed:x.seed ~trials
    ~key:(Printf.sprintf "%s;n=%d;t=%d;ms=400000" exp n t)
    (fun guard ->
      Async.Engine.run_trials ~max_steps:400_000 ~phase_of:Async.Benor.phase
        ?jobs:x.jobs ~guard ~trials ~seed:x.seed
        ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng n)
        ~t (Async.Benor.protocol ~t) make_scheduler)

(* A Byzantine population on random inputs (E11, E12). *)
let byz x ~exp ~n ~t ~trials protocol make_adversary =
  Supervise.fold x.sup ~seed:x.seed ~trials ~key:(key exp ~n ~t ~mr:500)
    (fun guard ->
      Byz.Engine.run_trials ~max_rounds:500 ?jobs:x.jobs ~guard ~trials
        ~seed:x.seed
        ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng n)
        ~t protocol make_adversary)

(* A population with its own trial body (E5's valency adversary, E8's
   scenarios) on the Runner's per-index seeding discipline: [body rng acc]
   runs one trial from its own RNG into the chunk's accumulator, on
   [engine] (the manifest's label for it). *)
let fold x ~exp ~engine ~n ~t ~max_rounds ~trials ~create ~merge body =
  Supervise.fold x.sup ~seed:x.seed ~trials ~key:(key exp ~n ~t ~mr:max_rounds)
    (fun guard ->
      Sim.Runner.fold ?jobs:x.jobs ~guard ~engine ~trials ~create
        ~merge (fun ~index _ acc ->
          body (Prng.Rng.of_seed_index ~seed:x.seed ~index) acc))

(* E1's coin-game estimates: [best_controllable_outcome], or
   [control_probability] toward [target]. Each estimate is one keyed
   fold: [exp] names the game and row, [Control]'s key the rest. *)
let coin x ~exp ~trials ~budget ?target game =
  let run ~key = Supervise.fold x.sup ~key:(exp ^ ";" ^ key) in
  let jobs = x.jobs and seed = x.seed in
  let strategy = Coinflip.Strategy.best_available in
  match target with
  | None ->
      Coinflip.Control.best_controllable_outcome ~trials ?jobs ~run ~seed
        ~budget ~strategy game
  | Some target ->
      Coinflip.Control.control_probability ~trials ?jobs ~run ~seed ~budget
        ~target ~strategy game

(* The lower-bound adversaries against SynRan under [rules]. *)
let band ?(config = Lb_adversary.default_config) rules () =
  Lb_adversary.band_control ~config ~rules ~bit_of_msg:Synran.bit_of_msg ()

let strongest_attack () = band Onesided.paper ()
let voting_attack () = band ~config:Lb_adversary.voting_config Onesided.paper ()

let leader_killer () =
  Lb_adversary.leader_killer ~rules:Onesided.paper
    ~bit_of_msg:Synran.bit_of_msg ()

(* ------------------------------------------------------------------ *)
(* E1: one-round coin-flipping control (Corollary 2.2)                  *)
(* ------------------------------------------------------------------ *)

let e1_coin_control x =
  table x
    ~title:
      "E1  One-round coin control (Cor 2.2): Pr[adversary forces best \
       outcome]"
    ~columns:
      [ "game"; "n"; "budget"; "best v"; "Pr[forced]"; "1-1/n"; "controls" ]
  @@ fun row ->
  let trials = pick x ~quick:150 ~full:600 in
  let add name ~n ~budget est =
    row
      [
        Str name;
        Int n;
        Int budget;
        Int est.Coinflip.Control.target;
        Float est.Coinflip.Control.proportion;
        Float (1.0 -. (1.0 /. float_of_int n));
        Str (if Coinflip.Control.controls est ~n then "yes" else "no");
      ]
  in
  let best game budget =
    let n = game.Coinflip.Game.n and name = game.Coinflip.Game.name in
    let budget = Stdlib.min budget n in
    add name ~n ~budget (coin x ~exp:("e1-" ^ name) ~trials ~budget game)
  in
  let sqrt_budget n = int_of_float (Float.ceil (sqrt (float_of_int n))) in
  let lemma_budget ~k n =
    int_of_float (Float.ceil (Coinflip.Bounds.lemma_budget ~k n))
  in
  List.iter
    (fun n ->
      List.iter
        (fun game ->
          List.iter (best game)
            [ 0; sqrt_budget n; lemma_budget ~k:game.Coinflip.Game.k n ])
        [
          Coinflip.Games.majority_default_zero n;
          Coinflip.Games.majority_ignore_missing n;
          Coinflip.Games.parity n;
          Coinflip.Games.sum_mod ~k:3 n;
        ];
      (* The one-side-bias headline: majority0 cannot be pushed to 1 even
         with the whole population as budget. *)
      add "majority0 toward 1" ~n ~budget:n
        (coin x ~exp:"e1-majority0 toward 1" ~trials ~budget:n ~target:1
           (Coinflip.Games.majority_default_zero n)))
    (pick x ~quick:[ 64; 256 ] ~full:[ 64; 256; 1024 ]);
  (* The [BOL89] landscape the paper's Section 2 sits in: tribes and
     recursive majority at their natural sizes. *)
  List.iter
    (fun game ->
      let n = game.Coinflip.Game.n in
      List.iter (best game) [ sqrt_budget n; lemma_budget ~k:2 n ])
    [
      Coinflip.Games.tribes ~tribe_size:7
        ~tribes:(pick x ~quick:9 ~full:18);
      Coinflip.Games.recursive_majority ~depth:(pick x ~quick:4 ~full:5);
    ]

(* ------------------------------------------------------------------ *)
(* E2: binomial tail lower bound (Lemma 4.4, Corollary 4.5)             *)
(* ------------------------------------------------------------------ *)

let e2_tail_bound x =
  table x
    ~title:"E2  Binomial tail vs Lemma 4.4 bound: Pr[x - E(x) >= s*sqrt(n)]"
    ~columns:[ "n"; "s"; "exact tail"; "paper bound"; "exact/bound"; "holds" ]
  @@ fun row ->
  List.iter
    (fun n ->
      let s_corollary = sqrt (log (float_of_int n)) /. 8.0 in
      List.iter
        (fun s ->
          let dev = s *. sqrt (float_of_int n) in
          let exact = Stats.Binomial.tail_above_mean ~n ~dev in
          let bound = Stats.Binomial.paper_tail_lower_bound ~s in
          row
            [
              Int n;
              Float s;
              Sci exact;
              Sci bound;
              Float (exact /. bound);
              Str (if exact >= bound then "yes" else "NO");
            ])
        [ 0.25; 0.5; 1.0; s_corollary ])
    (pick x ~quick:[ 64; 1024 ] ~full:[ 64; 256; 1024; 4096; 16384 ])

(* ------------------------------------------------------------------ *)
(* E3: rounds vs n at t = n-1 (Theorem 2)                              *)
(* ------------------------------------------------------------------ *)

let e3_scaling_n x =
  table x
    ~title:
      "E3  SynRan at t = n-1: E[rounds] vs sqrt(n/log n) (Thm 2; fit on the \
       voting attack)"
    ~columns:
      [
        "n"; "t"; "strongest mean"; "voting mean"; "ci lo"; "ci hi";
        "theory shape"; "fit c*shape";
      ]
  @@ fun row ->
  let trials = pick x ~quick:40 ~full:200 in
  let rows =
    List.map
      (fun n ->
        let t = n - 1 in
        let strongest =
          synran x ~exp:"e3-strongest" ~n ~t ~trials strongest_attack
        in
        let voting = synran x ~exp:"e3-voting" ~n ~t ~trials voting_attack in
        (n, t, strongest, voting, Theory.upper_bound_large_t_shape ~n))
      (pick x ~quick:[ 32; 64; 128 ] ~full:[ 32; 64; 128; 256; 512 ])
  in
  let pts =
    rows
    |> List.map (fun (_, _, _, v, shape) -> (shape, Sim.Runner.mean_rounds v))
    |> Array.of_list
  in
  let c = Stats.Fit.through_origin pts in
  List.iter
    (fun (n, t, strongest, voting, shape) ->
      let ci = Stats.Ci.mean_interval voting.Sim.Runner.rounds in
      row
        [
          Int n;
          Int t;
          Float (Sim.Runner.mean_rounds strongest);
          Float (Sim.Runner.mean_rounds voting);
          Float ci.Stats.Ci.lo;
          Float ci.Stats.Ci.hi;
          Float shape;
          Float (c *. shape);
        ])
    rows;
  row
    [
      Str "fit";
      Str "";
      Str "";
      Float c;
      Str "= c";
      Str "";
      Float (Stats.Fit.r2_through_origin pts);
      Str "= R^2";
    ]

(* ------------------------------------------------------------------ *)
(* E4: rounds vs t at fixed n (Theorem 3)                              *)
(* ------------------------------------------------------------------ *)

let e4_scaling_t x =
  let n = pick x ~quick:96 ~full:256 in
  table x
    ~title:
      (Printf.sprintf
         "E4  SynRan at n = %d: E[rounds] vs t (Thm 3 shape; fit on the \
          strongest adversary)"
         n)
    ~columns:
      [
        "t"; "strongest mean"; "voting mean"; "mean kills"; "theory shape";
        "fit a+c*shape";
      ]
  @@ fun row ->
  let trials = pick x ~quick:40 ~full:200 in
  let rows =
    List.map
      (fun t ->
        let strongest =
          synran x ~exp:"e4-strongest" ~n ~t ~trials strongest_attack
        in
        let voting = synran x ~exp:"e4-voting" ~n ~t ~trials voting_attack in
        (t, strongest, voting, Theory.tight_bound_shape ~n ~t))
      (List.map
         (fun f -> int_of_float (f *. float_of_int n))
         [ 0.1; 0.25; 0.5; 0.75; 0.9 ]
      @ [ n - 1 ])
  in
  let pts =
    rows
    |> List.map (fun (_, s, _, shape) -> (shape, Sim.Runner.mean_rounds s))
    |> Array.of_list
  in
  (* Affine fit a + c*shape: even t = 0 costs a few rounds (the O(1)
     adversary-free baseline), which the Theta-shape does not model. *)
  let { Stats.Fit.intercept; slope; r2 } = Stats.Fit.linear pts in
  List.iter
    (fun (t, strongest, voting, shape) ->
      row
        [
          Int t;
          Float (Sim.Runner.mean_rounds strongest);
          Float (Sim.Runner.mean_rounds voting);
          Float (Stats.Welford.mean strongest.Sim.Runner.kills);
          Float shape;
          Float (intercept +. (slope *. shape));
        ])
    rows;
  row
    [
      Str "fit a+c*shape";
      Float intercept;
      Str "= a";
      Float slope;
      Str "= c";
      Float r2;
    ]

(* ------------------------------------------------------------------ *)
(* E5: small-n adversary comparison (Theorem 1)                        *)
(* ------------------------------------------------------------------ *)

let e5_small_n_adversaries x =
  let n = pick x ~quick:10 ~full:16 in
  let t = n - 2 in
  table x
    ~title:
      (Printf.sprintf
         "E5  Forced rounds at n = %d, t = %d: adaptive vs oblivious (Thm 1)" n
         t)
    ~columns:
      [
        "adversary"; "trials"; "mean rounds"; "p10 rounds"; "max rounds";
        "mean kills";
      ]
  @@ fun row ->
  let trials = pick x ~quick:20 ~full:60 in
  let protocol = Synran.protocol n in
  (* p10 = the round count exceeded in 90% of runs: the "with high
     probability" phrasing of Theorem 1, empirically. *)
  let p10 hist =
    match Stats.Histogram.quantile hist 0.1 with
    | Some v -> Stats.Table.Int v
    | None -> Str "-"
  in
  let simple name exp make_adversary =
    let s =
      sync ~max_rounds:500 ~gen:`Split x ~exp:("e5-" ^ exp) ~n ~t ~trials
        protocol make_adversary
    in
    row
      [
        Str name;
        Int s.Sim.Runner.trials;
        Float (Sim.Runner.mean_rounds s);
        p10 s.Sim.Runner.rounds_hist;
        Float (Stats.Welford.max s.Sim.Runner.rounds);
        Float (Stats.Welford.mean s.Sim.Runner.kills);
      ]
  in
  simple "null" "null" (fun () -> Sim.Adversary.null);
  simple "random-crash p=0.2" "random-crash" (fun () ->
      Baselines.Adversaries.random_crash ~p:0.2);
  simple "static-random" "static-random" (fun () ->
      Baselines.Adversaries.static_random ~seed:x.seed ~n ~budget:t ~horizon:8);
  simple "drip 1/round" "drip" (fun () ->
      Baselines.Adversaries.drip ~per_round:1);
  simple "band-control" "band-control"
    (band ~config:{ Lb_adversary.default_config with min_active = 4 }
       Onesided.paper);
  (* Monte-Carlo valency adversary: its own trial body, where a
     non-terminating trial counts its executed rounds. The manifest
     labels it with the engine the driver runs on. *)
  let mc_trials = pick x ~quick:6 ~full:20 in
  let max_rounds = 300 in
  let rounds, kills =
    fold { x with seed = x.seed + 17 } ~exp:"e5-mc-valency"
      ~engine:Lb_adversary.force_long_execution_engine ~n ~t ~max_rounds
      ~trials:mc_trials
      ~create:(fun () -> (Stats.Welford.create (), Stats.Welford.create ()))
      ~merge:(fun (ra, ka) (rb, kb) ->
        (Stats.Welford.merge ra rb, Stats.Welford.merge ka kb))
      (fun rng (rounds, kills) ->
        let inputs = Sim.Runner.input_gen_split ~n rng in
        let o =
          Lb_adversary.force_long_execution ~max_rounds protocol ~inputs ~t
            ~rng
        in
        Stats.Welford.add_int rounds
          (Option.value o.Sim.Engine.rounds_to_decide
             ~default:o.Sim.Engine.rounds_executed);
        Stats.Welford.add_int kills o.Sim.Engine.kills_used)
  in
  row
    [
      Str "mc-valency";
      Int mc_trials;
      Float (Stats.Welford.mean rounds);
      Float (Stats.Welford.min rounds);
      Float (Stats.Welford.max rounds);
      Float (Stats.Welford.mean kills);
    ];
  row
    [
      Str "theory lower bound";
      Str "-";
      Float (Theory.lower_bound_rounds ~n ~t);
      Str "-";
      Str "-";
      Str "-";
    ]

(* ------------------------------------------------------------------ *)
(* E6: deterministic t+1 vs SynRan (Section 1)                         *)
(* ------------------------------------------------------------------ *)

let e6_deterministic_crossover x =
  let n = pick x ~quick:64 ~full:128 in
  table x
    ~title:
      (Printf.sprintf "E6  FloodSet t+1 rounds vs SynRan E[rounds], n = %d" n)
    ~columns:
      [
        "t"; "floodset rounds"; "early-stop (f=t/4)"; "synran mean";
        "synran wins"; "theory shape";
      ]
  @@ fun row ->
  let trials = pick x ~quick:30 ~full:120 in
  List.iter
    (fun t ->
      (* FloodSet is deterministic: with rounds = t+1 it always takes
         exactly t+1 rounds; verify on one run rather than asserting. *)
      let floodset = Baselines.Floodset.protocol ~rounds:(t + 1) () in
      let fs =
        Sim.Runner.(run_engine (resolve_engine `Auto floodset)) floodset
          (Baselines.Adversaries.drip ~per_round:1)
          ~inputs:(Array.init n (fun i -> i land 1))
          ~t
          ~rng:(Prng.Rng.create x.seed)
      in
      let fs_rounds =
        Option.value fs.Sim.Engine.rounds_to_decide
          ~default:fs.Sim.Engine.rounds_executed
      in
      (* Early-stopping FloodSet decides in f+2 rounds where f is the
         number of ACTUAL failures: same worst-case bound, but with only
         t/4 failures materializing it stops far earlier — the classic
         refinement the paper's t+1 strawman admits. *)
      let early_stop =
        sync ~max_rounds:(t + 2) x ~exp:"e6-earlystop" ~n ~t ~trials
          (Baselines.Early_stop.protocol ~rounds:(t + 1) ())
          (fun () ->
            Baselines.Adversaries.drip ~per_round:(Stdlib.max 1 (t / 4)))
      in
      let mean =
        Sim.Runner.mean_rounds
          (synran x ~exp:"e6-synran" ~n ~t ~trials strongest_attack)
      in
      row
        [
          Int t;
          Int fs_rounds;
          Float (Sim.Runner.mean_rounds early_stop);
          Float mean;
          Str (if mean < float_of_int fs_rounds then "yes" else "no");
          Float (Theory.tight_bound_shape ~n ~t);
        ])
    (List.map
       (fun f -> Stdlib.max 1 (int_of_float (f *. float_of_int n)))
       [ 0.05; 0.1; 0.25; 0.5; 0.75 ]
    @ [ n - 1 ])

(* ------------------------------------------------------------------ *)
(* E7: adaptive vs oblivious with the same budget (Section 1.2)         *)
(* ------------------------------------------------------------------ *)

let e7_nonadaptive x =
  table x
    ~title:
      "E7  Adaptivity and the coin's game: rounds forced and kills per \
       stalled round (CMS89 contrast)"
    ~columns:
      [
        "n"; "protocol"; "adversary"; "mean rounds"; "mean kills";
        "kills/round";
      ]
  @@ fun row ->
  let trials = pick x ~quick:40 ~full:150 in
  List.iter
    (fun n ->
      let t = n - 1 in
      let paper = Synran.protocol n in
      let leader = Synran.protocol ~coin:Synran.Leader_priority n in
      let static () =
        Baselines.Adversaries.static_random ~seed:x.seed ~n ~budget:t
          ~horizon:6
      in
      let run proto_name protocol adv_name make_adversary =
        let s =
          sync ~max_rounds:3000 ~gen:`Split x
            ~exp:(Printf.sprintf "e7-%s-%s" proto_name adv_name)
            ~n ~t ~trials protocol make_adversary
        in
        let rounds = Sim.Runner.mean_rounds s in
        let kills = Stats.Welford.mean s.Sim.Runner.kills in
        row
          [
            Int n;
            Str proto_name;
            Str adv_name;
            Float rounds;
            Float kills;
            Float (kills /. rounds);
          ]
      in
      (* The paper's protocol: oblivious kills are nearly free to survive;
         the adaptive voting attack pays Theta(sqrt(n log n)) per round. *)
      run "synran" paper "oblivious" static;
      run "synran" paper "voting attack" voting_attack;
      run "synran" paper "strongest" strongest_attack;
      run "synran" paper "leader-killer" leader_killer;
      (* The CMS89-flavoured leader-coin variant: O(1) rounds against
         anything oblivious, but its coin is a dictator game, so the
         adaptive leader-killer stalls it for ~1-2 kills per round. *)
      run "leader" leader "null" (fun () -> Sim.Adversary.null);
      run "leader" leader "oblivious" static;
      run "leader" leader "leader-killer" leader_killer)
    (pick x ~quick:[ 64; 128 ] ~full:[ 64; 128; 256 ])

(* ------------------------------------------------------------------ *)
(* E8: rule ablation (Section 4)                                        *)
(* ------------------------------------------------------------------ *)

let e8_ablation x =
  (* n = 48 on both profiles: the symmetric band's agreement failures are a
     small-population phenomenon (the post-stop thinning must land the
     survivors' 1-count inside the widened flip band). *)
  let n = 48 in
  let t = n - 1 in
  table x
    ~title:
      (Printf.sprintf
         "E8  Rule ablation at n = %d: the zero rule and the off-centre flip \
          band"
         n)
    ~columns:
      [
        "rules"; "scenario"; "mean rounds"; "non-term"; "validity errs";
        "agreement errs"; "mean kills";
      ]
  @@ fun row ->
  let trials = pick x ~quick:60 ~full:250 in
  let scenario rules name gen_inputs make_adversary =
    let protocol = Synran.protocol ~rules n in
    let engine = Sim.Runner.resolve_engine `Auto protocol in
    let max_rounds = 400 in
    let rounds, kills, non_term, validity, agreement =
      fold x
        ~exp:(Printf.sprintf "e8-%s-%s" rules.Onesided.label name)
        ~engine:(Sim.Runner.engine_name engine) ~n ~t ~max_rounds ~trials
        ~create:(fun () ->
          let w = Stats.Welford.create in
          (w (), w (), ref 0, ref 0, ref 0))
        ~merge:(fun (ra, ka, na, va, aa) (rb, kb, nb, vb, ab) ->
          ( Stats.Welford.merge ra rb,
            Stats.Welford.merge ka kb,
            ref (!na + !nb),
            ref (!va + !vb),
            ref (!aa + !ab) ))
        (fun rng (rounds, kills, non_term, validity, agreement) ->
          let inputs = gen_inputs rng in
          let o =
            Sim.Runner.run_engine engine ~max_rounds protocol
              (make_adversary ()) ~inputs ~t ~rng
          in
          (match o.Sim.Engine.rounds_to_decide with
          | Some r -> Stats.Welford.add_int rounds r
          | None -> incr non_term);
          Stats.Welford.add_int kills o.Sim.Engine.kills_used;
          let v = Sim.Checker.check ~inputs o in
          if not v.Sim.Checker.validity then incr validity;
          if not v.Sim.Checker.agreement then incr agreement)
    in
    row
      [
        Str rules.Onesided.label;
        Str name;
        Float (Stats.Welford.mean rounds);
        Int !non_term;
        Int !validity;
        Int !agreement;
        Float (Stats.Welford.mean kills);
      ]
  in
  List.iter
    (fun rules ->
      (* Termination speed with no adversary: the symmetric (centred) flip
         band traps the unbiased drift and stalls on its own. *)
      scenario rules "random, null" (Sim.Runner.input_gen_random ~n) (fun () ->
          Sim.Adversary.null);
      (* The voting attack parameterized with the matching rules: under the
         symmetric band the agreement machinery of Lemma 4.2 loses the
         zero-rule backstop. *)
      scenario rules "random, voting attack"
        (Sim.Runner.input_gen_random ~n)
        (band ~config:Lb_adversary.voting_config rules);
      (* Everything enabled: rescues plus stop-delaying stalls. The
         population-thinning stop-kill pattern is what historically exposed
         the symmetric band's agreement breaks (survivors of a stop see the
         1-votes thinned into the flip band and re-toss; the zero rule is
         the paper's backstop against exactly this). *)
      scenario rules "random, strongest attack"
        (Sim.Runner.input_gen_random ~n)
        (band
           ~config:{ Lb_adversary.default_config with desperate = true }
           rules);
      (* Unanimous-1 inputs, 70% massacre in round 1: validity stands or
         falls with the zero rule. *)
      scenario rules "all-ones, massacre"
        (Sim.Runner.input_gen_const ~n 1)
        (fun () ->
          Baselines.Adversaries.static_schedule
            (List.init (7 * n / 10) (fun pid -> (1, pid)))))
    [ Onesided.paper; Onesided.no_zero_rule; Onesided.symmetric ]

(* ------------------------------------------------------------------ *)
(* E9: the asynchronous contrast (Section 1.2)                          *)
(* ------------------------------------------------------------------ *)

let e9_async_contrast x =
  table x
    ~title:
      "E9  Async Ben-Or phases vs scheduler: exponential under the splitter, \
       O(1) when fair (Sec 1.2 contrast with the synchronous \
       Theta(sqrt(n/log n)))"
    ~columns:
      [
        "n"; "t"; "scheduler"; "trials"; "mean phases"; "mean flips";
        "non-term"; "2^(n-1)";
      ]
  @@ fun row ->
  List.iter
    (fun n ->
      let t = (n - 1) / 2 in
      let run name make_scheduler trials =
        let s =
          async x ~exp:("e9-benor-" ^ name) ~n ~t ~trials make_scheduler
        in
        row
          [
            Int n;
            Int t;
            Str name;
            Int trials;
            Float (Stats.Welford.mean s.Async.Engine.phases);
            Float (Stats.Welford.mean s.Async.Engine.flips);
            Int s.Async.Engine.non_terminating;
            Int (1 lsl (n - 1));
          ]
      in
      run "fair" (fun () -> Async.Scheduler.fair) (pick x ~quick:20 ~full:40);
      run "random-crash"
        (fun () -> Async.Scheduler.random_crash ~p:0.02)
        (pick x ~quick:20 ~full:40);
      run "splitter" Async.Benor.splitter
        (pick x
           ~quick:(if n >= 8 then 5 else 10)
           ~full:(if n >= 10 then 6 else 12)))
    (pick x ~quick:[ 4; 6; 8 ] ~full:[ 4; 6; 8; 10 ])

(* ------------------------------------------------------------------ *)
(* E10: what weakening the adversary buys (Section 1)                   *)
(* ------------------------------------------------------------------ *)

let e10_coin_assumptions x =
  let n = pick x ~quick:96 ~full:192 in
  let t = n - 1 in
  table x
    ~title:
      (Printf.sprintf
         "E10  Coin assumptions at n = %d, t = %d: private vs leader vs \
          shared-oracle coin (Sec 1: O(1) under a weakened adversary)"
         n t)
    ~columns:[ "coin"; "adversary"; "mean rounds"; "mean kills"; "safety errs" ]
  @@ fun row ->
  let trials = pick x ~quick:40 ~full:150 in
  List.iter
    (fun (coin_name, coin) ->
      let protocol = Synran.protocol ~coin n in
      let run adv_name make_adversary =
        let s =
          sync x
            ~exp:(Printf.sprintf "e10-%s-%s" coin_name adv_name)
            ~n ~t ~trials protocol make_adversary
        in
        row
          [
            Str coin_name;
            Str adv_name;
            Float (Sim.Runner.mean_rounds s);
            Float (Stats.Welford.mean s.Sim.Runner.kills);
            Int (List.length s.Sim.Runner.safety_errors);
          ]
      in
      run "null" (fun () -> Sim.Adversary.null);
      run "voting attack" voting_attack;
      run "strongest" strongest_attack;
      run "leader-killer" leader_killer)
    [
      ("private", Synran.Local_flip);
      ("leader", Synran.Leader_priority);
      ("shared-oracle", Synran.Shared_oracle 271828);
    ]

(* ------------------------------------------------------------------ *)
(* E11: the Byzantine neighbourhood (Section 1 context)                 *)
(* ------------------------------------------------------------------ *)

let e11_byzantine x =
  let n = pick x ~quick:17 ~full:26 in
  let t = (n - 1) / 5 in
  table x
    ~title:
      (Printf.sprintf
         "E11  Byzantine neighbourhood at n = %d, t = %d: deterministic t+1 \
          phases [GM93] vs oracle-coin O(1) [Rab83]"
         n t)
    ~columns:
      [
        "protocol"; "adversary"; "mean rounds"; "non-term"; "agree errs";
        "valid errs";
      ]
  @@ fun row ->
  let trials = pick x ~quick:60 ~full:200 in
  let run proto_name protocol ~t adv_name make_adversary =
    let s =
      byz x
        ~exp:(Printf.sprintf "e11-%s-%s" proto_name adv_name)
        ~n ~t ~trials protocol make_adversary
    in
    row
      [
        Str proto_name;
        Str adv_name;
        Float (Stats.Welford.mean s.Byz.Engine.rounds);
        Int s.Byz.Engine.non_terminating;
        Int s.Byz.Engine.agreement_errors;
        Int s.Byz.Engine.validity_errors;
      ]
  in
  let pk = Byz.Phase_king.protocol ~t in
  let null () = Byz.Adversary.null in
  let equivocator () = Byz.Adversary.equivocator ~budget_fraction:1.0 () in
  run "phase-king" pk ~t "null" null;
  run "phase-king" pk ~t "equivocator" equivocator;
  run "phase-king" pk ~t "king-spoofer" Byz.Phase_king.king_spoofer;
  (* One corruption beyond the protocol's design point: the t+1 kings
     argument collapses. *)
  run "phase-king (over budget)" pk ~t:(t + 1) "king-spoofer"
    Byz.Phase_king.king_spoofer;
  (* EIG messages grow as n^t (the [GM93] motivation); keep its tree
     tractable regardless of profile. *)
  let eig_t = Stdlib.min 2 (Stdlib.min t ((n - 1) / 3)) in
  let eig = Byz.Eig.protocol ~t:eig_t in
  let eig_name = Printf.sprintf "eig (t=%d)" eig_t in
  run eig_name eig ~t:eig_t "liar" (fun () -> Byz.Eig.liar ());
  run eig_name eig ~t:eig_t "equivocator" equivocator;
  let rb = Byz.Rabin.protocol ~t ~oracle_seed:(x.seed + 5) in
  run "rabin-oracle" rb ~t "null" null;
  run "rabin-oracle" rb ~t "equivocator" equivocator;
  run "rabin-oracle" rb ~t "late equivocator" (fun () ->
      Byz.Adversary.equivocator ~corrupt_at:2 ~budget_fraction:1.0 ())

(* ------------------------------------------------------------------ *)
(* E12: Chor-Coan group coins (Section 1.2)                             *)
(* ------------------------------------------------------------------ *)

let e12_chor_coan x =
  let n = pick x ~quick:61 ~full:101 in
  let t = (n - 1) / 5 in
  table x
    ~title:
      (Printf.sprintf
         "E12  Chor-Coan group coins at n = %d, t = %d: adaptive costs t/g \
          rounds, non-adaptive O(1) [CC85]"
         n t)
    ~columns:
      [ "group size"; "adversary"; "mean rounds"; "t/g + 2"; "agree errs" ]
  @@ fun row ->
  let trials = pick x ~quick:50 ~full:150 in
  (* The non-adaptive adversary corrupts the same t random processes at
     every group size. *)
  let victims =
    Prng.Sample.choose_k (Prng.Rng.create (x.seed + 7)) n t
    |> Array.to_list
    |> List.map (fun pid -> (1, pid))
  in
  List.iter
    (fun g ->
      let protocol = Byz.Chor_coan.protocol ~t ~group_size:g in
      let run name make_adversary =
        let s =
          byz x
            ~exp:(Printf.sprintf "e12-chor-coan-g%d-%s" g name)
            ~n ~t ~trials protocol make_adversary
        in
        row
          [
            Int g;
            Str name;
            Float (Stats.Welford.mean s.Byz.Engine.rounds);
            Float (float_of_int t /. float_of_int g +. 2.0);
            Int s.Byz.Engine.agreement_errors;
          ]
      in
      run "adaptive group-corruptor" (fun () ->
          Byz.Chor_coan.group_corruptor ~group_size:g ());
      run "random non-adaptive" (fun () -> Byz.Adversary.crash_like ~victims))
    [ 1; 2; 4; Stdlib.max 1 (int_of_float (log (float_of_int n) /. log 2.0)) ]

(* ------------------------------------------------------------------ *)

(* The registry, in table order. *)
let registry =
  [
    ("e1", e1_coin_control);
    ("e2", e2_tail_bound);
    ("e3", e3_scaling_n);
    ("e4", e4_scaling_t);
    ("e5", e5_small_n_adversaries);
    ("e6", e6_deterministic_crossover);
    ("e7", e7_nonadaptive);
    ("e8", e8_ablation);
    ("e9", e9_async_contrast);
    ("e10", e10_coin_assumptions);
    ("e11", e11_byzantine);
    ("e12", e12_chor_coan);
  ]

let ids = List.map fst registry

let by_id id =
  Option.map
    (fun e ?jobs ?(sup = Supervise.create ()) profile ~seed ->
      e { profile; seed; jobs; sup })
    (List.assoc_opt id registry)
