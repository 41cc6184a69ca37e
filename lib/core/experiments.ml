type profile = Quick | Full

let pick p ~quick ~full = match p with Quick -> quick | Full -> full

(* ------------------------------------------------------------------ *)
(* E1: one-round coin-flipping control (Corollary 2.2)                  *)
(* ------------------------------------------------------------------ *)

let e1_coin_control ?jobs ?sup p ~seed =
  let table =
    Supervise.register sup
      (Stats.Table.create
         ~title:
           "E1  One-round coin control (Cor 2.2): Pr[adversary forces best \
            outcome]"
         ~columns:
           [ "game"; "n"; "budget"; "best v"; "Pr[forced]"; "1-1/n"; "controls" ])
  in
  let cancel = Supervise.cancel sup in
  let ns = pick p ~quick:[ 64; 256 ] ~full:[ 64; 256; 1024 ] in
  let trials = pick p ~quick:150 ~full:600 in
  List.iter
    (fun n ->
      let games =
        [
          Coinflip.Games.majority_default_zero n;
          Coinflip.Games.majority_ignore_missing n;
          Coinflip.Games.parity n;
          Coinflip.Games.sum_mod ~k:3 n;
        ]
      in
      List.iter
        (fun game ->
          let k = game.Coinflip.Game.k in
          let budgets =
            [
              0;
              int_of_float (Float.ceil (sqrt (float_of_int n)));
              int_of_float (Float.ceil (Coinflip.Bounds.lemma_budget ~k n));
            ]
          in
          List.iter
            (fun budget ->
              let budget = Stdlib.min budget n in
              let est =
                Coinflip.Control.best_controllable_outcome ~trials ?jobs
                  ?cancel ~seed ~budget
                  ~strategy:Coinflip.Strategy.best_available game
              in
              Stats.Table.add_row table
                [
                  Str game.Coinflip.Game.name;
                  Int n;
                  Int budget;
                  Int est.Coinflip.Control.target;
                  Float est.Coinflip.Control.proportion;
                  Float (1.0 -. (1.0 /. float_of_int n));
                  Str (if Coinflip.Control.controls est ~n then "yes" else "no");
                ])
            budgets)
        games;
      (* The one-side-bias headline: majority0 cannot be pushed to 1 even
         with the whole population as budget. *)
      let est =
        Coinflip.Control.control_probability ~trials ?jobs ?cancel ~seed
          ~budget:n ~target:1
          ~strategy:Coinflip.Strategy.best_available
          (Coinflip.Games.majority_default_zero n)
      in
      Stats.Table.add_row table
        [
          Str "majority0 toward 1";
          Int n;
          Int n;
          Int 1;
          Float est.Coinflip.Control.proportion;
          Float (1.0 -. (1.0 /. float_of_int n));
          Str (if Coinflip.Control.controls est ~n then "yes" else "no");
        ])
    ns;
  (* The [BOL89] landscape the paper's Section 2 sits in: tribes and
     recursive majority at their natural sizes. *)
  List.iter
    (fun game ->
      let n = game.Coinflip.Game.n in
      List.iter
        (fun budget ->
          let budget = Stdlib.min budget n in
          let est =
            Coinflip.Control.best_controllable_outcome ~trials ?jobs ?cancel
              ~seed ~budget ~strategy:Coinflip.Strategy.best_available game
          in
          Stats.Table.add_row table
            [
              Str game.Coinflip.Game.name;
              Int n;
              Int budget;
              Int est.Coinflip.Control.target;
              Float est.Coinflip.Control.proportion;
              Float (1.0 -. (1.0 /. float_of_int n));
              Str (if Coinflip.Control.controls est ~n then "yes" else "no");
            ])
        [
          int_of_float (Float.ceil (sqrt (float_of_int n)));
          int_of_float (Float.ceil (Coinflip.Bounds.lemma_budget ~k:2 n));
        ])
    [
      Coinflip.Games.tribes ~tribe_size:7
        ~tribes:(pick p ~quick:9 ~full:18);
      Coinflip.Games.recursive_majority ~depth:(pick p ~quick:4 ~full:5);
    ];
  table

(* ------------------------------------------------------------------ *)
(* E2: binomial tail lower bound (Lemma 4.4, Corollary 4.5)             *)
(* ------------------------------------------------------------------ *)

let e2_tail_bound ?jobs:_ ?sup p ~seed:_ =
  let table =
    Supervise.register sup
      (Stats.Table.create
         ~title:
           "E2  Binomial tail vs Lemma 4.4 bound: Pr[x - E(x) >= s*sqrt(n)]"
         ~columns:
           [ "n"; "s"; "exact tail"; "paper bound"; "exact/bound"; "holds" ])
  in
  let ns = pick p ~quick:[ 64; 1024 ] ~full:[ 64; 256; 1024; 4096; 16384 ] in
  List.iter
    (fun n ->
      let s_corollary = sqrt (log (float_of_int n)) /. 8.0 in
      let svals = [ 0.25; 0.5; 1.0; s_corollary ] in
      List.iter
        (fun s ->
          let dev = s *. sqrt (float_of_int n) in
          let exact = Stats.Binomial.tail_above_mean ~n ~dev in
          let bound = Stats.Binomial.paper_tail_lower_bound ~s in
          Stats.Table.add_row table
            [
              Int n;
              Float s;
              Sci exact;
              Sci bound;
              Float (exact /. bound);
              Str (if exact >= bound then "yes" else "NO");
            ])
        svals)
    ns;
  table

(* ------------------------------------------------------------------ *)
(* Shared runners for the protocol experiments                          *)
(* ------------------------------------------------------------------ *)

(* Supervised trial loop shared by the SynRan experiments. [exp] names the
   fold; population, t, round cap and inputs complete its key. *)
let supervised_summary ?(max_rounds = 2000) ?jobs ?sup ?(gen = `Random) ~exp
    ~n ~t ~trials ~seed protocol make_adversary =
  let gen_inputs, gen_label =
    match gen with
    | `Random -> (Sim.Runner.input_gen_random ~n, "random")
    | `Split -> (Sim.Runner.input_gen_split ~n, "split")
  in
  Supervise.fold sup ~seed ~trials
    ~key:
      (Printf.sprintf "%s;n=%d;t=%d;mr=%d;gen=%s" exp n t max_rounds gen_label)
    (fun ?cancel ?checkpoint ?retries ?fault () ->
      Sim.Runner.run_trials_supervised ~max_rounds ?jobs ?cancel ?checkpoint
        ?retries ?fault ~trials ~seed ~gen_inputs ~t protocol make_adversary)

let synran_summary ?(rules = Onesided.paper) ?max_rounds ?jobs ?sup ~exp ~n ~t
    ~trials ~seed make_adversary =
  let protocol = Synran.protocol ~rules n in
  supervised_summary ?max_rounds ?jobs ?sup
    ~exp:(exp ^ ";rules=" ^ rules.Onesided.label)
    ~n ~t ~trials ~seed protocol make_adversary

let band ?(config = Lb_adversary.default_config) adversary_rules =
  Lb_adversary.band_control ~config ~rules:adversary_rules
    ~bit_of_msg:Synran.bit_of_msg ()

(* ------------------------------------------------------------------ *)
(* E3: rounds vs n at t = n-1 (Theorem 2)                              *)
(* ------------------------------------------------------------------ *)

let e3_scaling_n ?jobs ?sup p ~seed =
  let table =
    Supervise.register sup
      (Stats.Table.create
         ~title:
           "E3  SynRan at t = n-1: E[rounds] vs sqrt(n/log n) (Thm 2; fit on \
            the voting attack)"
         ~columns:
           [
             "n"; "t"; "strongest mean"; "voting mean"; "ci lo"; "ci hi";
             "theory shape"; "fit c*shape";
           ])
  in
  let ns = pick p ~quick:[ 32; 64; 128 ] ~full:[ 32; 64; 128; 256; 512 ] in
  let trials = pick p ~quick:40 ~full:200 in
  let rows =
    List.map
      (fun n ->
        let t = n - 1 in
        let strongest =
          synran_summary ?jobs ?sup ~exp:"e3-strongest" ~n ~t ~trials ~seed
            (fun () -> band Onesided.paper)
        in
        let voting =
          synran_summary ?jobs ?sup ~exp:"e3-voting" ~n ~t ~trials ~seed
            (fun () -> band ~config:Lb_adversary.voting_config Onesided.paper)
        in
        let shape = Theory.upper_bound_large_t_shape ~n in
        (n, t, strongest, voting, shape))
      ns
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
      Stats.Table.add_row table
        [
          Stats.Table.Int n;
          Stats.Table.Int t;
          Stats.Table.Float (Sim.Runner.mean_rounds strongest);
          Stats.Table.Float (Sim.Runner.mean_rounds voting);
          Stats.Table.Float ci.Stats.Ci.lo;
          Stats.Table.Float ci.Stats.Ci.hi;
          Stats.Table.Float shape;
          Stats.Table.Float (c *. shape);
        ])
    rows;
  Stats.Table.add_row table
    [
      Stats.Table.Str "fit";
      Stats.Table.Str "";
      Stats.Table.Str "";
      Stats.Table.Float c;
      Stats.Table.Str "= c";
      Stats.Table.Str "";
      Stats.Table.Float (Stats.Fit.r2_through_origin pts);
      Stats.Table.Str "= R^2";
    ];
  table

(* ------------------------------------------------------------------ *)
(* E4: rounds vs t at fixed n (Theorem 3)                              *)
(* ------------------------------------------------------------------ *)

let e4_scaling_t ?jobs ?sup p ~seed =
  let n = pick p ~quick:96 ~full:256 in
  let table =
    Supervise.register sup
      (Stats.Table.create
         ~title:
           (Printf.sprintf
              "E4  SynRan at n = %d: E[rounds] vs t (Thm 3 shape; fit on the \
               strongest adversary)"
              n)
         ~columns:
           [
             "t"; "strongest mean"; "voting mean"; "mean kills"; "theory shape";
             "fit a+c*shape";
           ])
  in
  let trials = pick p ~quick:40 ~full:200 in
  let fractions = [ 0.1; 0.25; 0.5; 0.75; 0.9 ] in
  let ts =
    List.map (fun f -> int_of_float (f *. float_of_int n)) fractions
    @ [ n - 1 ]
  in
  let rows =
    List.map
      (fun t ->
        let strongest =
          synran_summary ?jobs ?sup ~exp:"e4-strongest" ~n ~t ~trials ~seed
            (fun () -> band Onesided.paper)
        in
        let voting =
          synran_summary ?jobs ?sup ~exp:"e4-voting" ~n ~t ~trials ~seed
            (fun () -> band ~config:Lb_adversary.voting_config Onesided.paper)
        in
        (t, strongest, voting, Theory.tight_bound_shape ~n ~t))
      ts
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
      Stats.Table.add_row table
        [
          Stats.Table.Int t;
          Stats.Table.Float (Sim.Runner.mean_rounds strongest);
          Stats.Table.Float (Sim.Runner.mean_rounds voting);
          Stats.Table.Float (Stats.Welford.mean strongest.Sim.Runner.kills);
          Stats.Table.Float shape;
          Stats.Table.Float (intercept +. (slope *. shape));
        ])
    rows;
  Stats.Table.add_row table
    [
      Stats.Table.Str "fit a+c*shape";
      Stats.Table.Float intercept;
      Stats.Table.Str "= a";
      Stats.Table.Float slope;
      Stats.Table.Str "= c";
      Stats.Table.Float r2;
    ];
  table

(* ------------------------------------------------------------------ *)
(* E5: small-n adversary comparison (Theorem 1)                        *)
(* ------------------------------------------------------------------ *)

let e5_small_n_adversaries ?jobs ?sup p ~seed =
  let n = pick p ~quick:10 ~full:16 in
  let t = n - 2 in
  let table =
    Supervise.register sup
      (Stats.Table.create
         ~title:
           (Printf.sprintf
              "E5  Forced rounds at n = %d, t = %d: adaptive vs oblivious \
               (Thm 1)"
              n t)
         ~columns:
           [
             "adversary"; "trials"; "mean rounds"; "p10 rounds"; "max rounds";
             "mean kills";
           ])
  in
  let trials = pick p ~quick:20 ~full:60 in
  let protocol = Synran.protocol n in
  let run_simple name make_adversary =
    supervised_summary ~max_rounds:500 ?jobs ?sup ~gen:`Split
      ~exp:("e5-" ^ name) ~n ~t ~trials ~seed protocol make_adversary
  in
  (* p10 = the round count exceeded in 90% of runs: the "with high
     probability" phrasing of Theorem 1, empirically. *)
  let p10 hist =
    match Stats.Histogram.quantile hist 0.1 with
    | Some v -> Stats.Table.Int v
    | None -> Stats.Table.Str "-"
  in
  let add_summary name (s : Sim.Runner.summary) =
    Stats.Table.add_row table
      [
        Stats.Table.Str name;
        Stats.Table.Int s.Sim.Runner.trials;
        Stats.Table.Float (Sim.Runner.mean_rounds s);
        p10 s.Sim.Runner.rounds_hist;
        Stats.Table.Float (Stats.Welford.max s.Sim.Runner.rounds);
        Stats.Table.Float (Stats.Welford.mean s.Sim.Runner.kills);
      ]
  in
  add_summary "null" (run_simple "null" (fun () -> Sim.Adversary.null));
  add_summary "random-crash p=0.2"
    (run_simple "random-crash" (fun () ->
         Baselines.Adversaries.random_crash ~p:0.2));
  add_summary "static-random"
    (run_simple "static-random" (fun () ->
         Baselines.Adversaries.static_random ~seed ~n ~budget:t ~horizon:8));
  add_summary "drip 1/round"
    (run_simple "drip" (fun () -> Baselines.Adversaries.drip ~per_round:1));
  let small_band () =
    Lb_adversary.band_control
      ~config:{ Lb_adversary.default_config with min_active = 4 }
      ~rules:Onesided.paper ~bit_of_msg:Synran.bit_of_msg ()
  in
  add_summary "band-control" (run_simple "band-control" small_band);
  (* Monte-Carlo valency adversary: its own trial body (a non-terminating
     trial counts its executed rounds), on the Runner's per-index seeding
     discipline. *)
  let mc_trials = pick p ~quick:6 ~full:20 in
  let mc_seed = seed + 17 in
  let rounds, kills =
    Supervise.fold sup ~seed:mc_seed ~trials:mc_trials
      ~key:(Printf.sprintf "e5-mc-valency;n=%d;t=%d;mr=300" n t)
      (fun ?cancel ?checkpoint ?retries ?fault () ->
        Sim.Runner.fold ?jobs ?cancel ?checkpoint ?retries ?fault
          ~engine:"concrete" ~trials:mc_trials
          ~create:(fun () -> (Stats.Welford.create (), Stats.Welford.create ()))
          ~merge:(fun (ra, ka) (rb, kb) ->
            (Stats.Welford.merge ra rb, Stats.Welford.merge ka kb))
          (fun ~index _ (rounds, kills) ->
            let rng = Prng.Rng.of_seed_index ~seed:mc_seed ~index in
            let inputs = Sim.Runner.input_gen_split ~n rng in
            let o =
              Lb_adversary.force_long_execution ~max_rounds:300 protocol
                ~inputs ~t ~rng
            in
            Stats.Welford.add_int rounds
              (Option.value o.Sim.Engine.rounds_to_decide
                 ~default:o.Sim.Engine.rounds_executed);
            Stats.Welford.add_int kills o.Sim.Engine.kills_used))
  in
  Stats.Table.add_row table
    [
      Stats.Table.Str "mc-valency";
      Stats.Table.Int mc_trials;
      Stats.Table.Float (Stats.Welford.mean rounds);
      Stats.Table.Float (Stats.Welford.min rounds);
      Stats.Table.Float (Stats.Welford.max rounds);
      Stats.Table.Float (Stats.Welford.mean kills);
    ];
  Stats.Table.add_row table
    [
      Stats.Table.Str "theory lower bound";
      Stats.Table.Str "-";
      Stats.Table.Float (Theory.lower_bound_rounds ~n ~t);
      Stats.Table.Str "-";
      Stats.Table.Str "-";
      Stats.Table.Str "-";
    ];
  table

(* ------------------------------------------------------------------ *)
(* E6: deterministic t+1 vs SynRan (Section 1)                         *)
(* ------------------------------------------------------------------ *)

let e6_deterministic_crossover ?jobs ?sup p ~seed =
  let n = pick p ~quick:64 ~full:128 in
  let table =
    Supervise.register sup
      (Stats.Table.create
         ~title:
           (Printf.sprintf
              "E6  FloodSet t+1 rounds vs SynRan E[rounds], n = %d" n)
         ~columns:
           [
             "t"; "floodset rounds"; "early-stop (f=t/4)"; "synran mean";
             "synran wins"; "theory shape";
           ])
  in
  let trials = pick p ~quick:30 ~full:120 in
  let fractions = [ 0.05; 0.1; 0.25; 0.5; 0.75 ] in
  let ts =
    List.map (fun f -> Stdlib.max 1 (int_of_float (f *. float_of_int n))) fractions
    @ [ n - 1 ]
  in
  List.iter
    (fun t ->
      (* FloodSet is deterministic: with rounds = t+1 it always takes
         exactly t+1 rounds; verify on one run rather than asserting. *)
      let fs = Baselines.Floodset.protocol ~rounds:(t + 1) () in
      let fs_outcome =
        Sim.Engine.run fs
          (Baselines.Adversaries.drip ~per_round:1)
          ~inputs:(Array.init n (fun i -> i land 1))
          ~t
          ~rng:(Prng.Rng.create seed)
      in
      let fs_rounds =
        match fs_outcome.Sim.Engine.rounds_to_decide with
        | Some r -> r
        | None -> fs_outcome.Sim.Engine.rounds_executed
      in
      (* Early-stopping FloodSet decides in f+2 rounds where f is the
         number of ACTUAL failures: same worst-case bound, but with only
         t/4 failures materializing it stops far earlier — the classic
         refinement the paper's t+1 strawman admits. *)
      let es_summary =
        supervised_summary ~max_rounds:(t + 2) ?jobs ?sup ~exp:"e6-earlystop"
          ~n ~t ~trials ~seed
          (Baselines.Early_stop.protocol ~rounds:(t + 1) ())
          (fun () ->
            Baselines.Adversaries.drip ~per_round:(Stdlib.max 1 (t / 4)))
      in
      let s =
        synran_summary ?jobs ?sup ~exp:"e6-synran" ~n ~t ~trials ~seed
          (fun () -> band Onesided.paper)
      in
      let mean = Sim.Runner.mean_rounds s in
      Stats.Table.add_row table
        [
          Stats.Table.Int t;
          Stats.Table.Int fs_rounds;
          Stats.Table.Float (Sim.Runner.mean_rounds es_summary);
          Stats.Table.Float mean;
          Stats.Table.Str (if mean < float_of_int fs_rounds then "yes" else "no");
          Stats.Table.Float (Theory.tight_bound_shape ~n ~t);
        ])
    ts;
  table

(* ------------------------------------------------------------------ *)
(* E7: adaptive vs oblivious with the same budget (Section 1.2)         *)
(* ------------------------------------------------------------------ *)

let e7_nonadaptive ?jobs ?sup p ~seed =
  let table =
    Supervise.register sup
      (Stats.Table.create
         ~title:
           "E7  Adaptivity and the coin's game: rounds forced and kills per \
            stalled round (CMS89 contrast)"
         ~columns:
           [
             "n"; "protocol"; "adversary"; "mean rounds"; "mean kills";
             "kills/round";
           ])
  in
  let ns = pick p ~quick:[ 64; 128 ] ~full:[ 64; 128; 256 ] in
  let trials = pick p ~quick:40 ~full:150 in
  List.iter
    (fun n ->
      let t = n - 1 in
      let synran = Synran.protocol n in
      let leader = Synran.protocol ~coin:Synran.Leader_priority n in
      let static () =
        Baselines.Adversaries.static_random ~seed ~n ~budget:t ~horizon:6
      in
      let killer () =
        Lb_adversary.leader_killer ~rules:Onesided.paper
          ~bit_of_msg:Synran.bit_of_msg ~prio_of_msg:Synran.prio_of_msg ()
      in
      let row proto_name protocol adv_name make_adversary =
        let s =
          supervised_summary ~max_rounds:3000 ?jobs ?sup ~gen:`Split
            ~exp:(Printf.sprintf "e7-%s-%s" proto_name adv_name)
            ~n ~t ~trials ~seed protocol make_adversary
        in
        let rounds = Sim.Runner.mean_rounds s in
        let kills = Stats.Welford.mean s.Sim.Runner.kills in
        Stats.Table.add_row table
          [
            Stats.Table.Int n;
            Stats.Table.Str proto_name;
            Stats.Table.Str adv_name;
            Stats.Table.Float rounds;
            Stats.Table.Float kills;
            Stats.Table.Float (kills /. rounds);
          ]
      in
      (* The paper's protocol: oblivious kills are nearly free to survive;
         the adaptive voting attack pays Theta(sqrt(n log n)) per round. *)
      row "synran" synran "oblivious" static;
      row "synran" synran "voting attack" (fun () ->
          band ~config:Lb_adversary.voting_config Onesided.paper);
      row "synran" synran "strongest" (fun () -> band Onesided.paper);
      row "synran" synran "leader-killer" killer;
      (* The CMS89-flavoured leader-coin variant: O(1) rounds against
         anything oblivious, but its coin is a dictator game, so the
         adaptive leader-killer stalls it for ~1-2 kills per round. *)
      row "leader" leader "null" (fun () -> Sim.Adversary.null);
      row "leader" leader "oblivious" static;
      row "leader" leader "leader-killer" killer)
    ns;
  table

(* ------------------------------------------------------------------ *)
(* E8: rule ablation (Section 4)                                        *)
(* ------------------------------------------------------------------ *)

let e8_ablation ?jobs ?sup p ~seed =
  (* n = 48 on both profiles: the symmetric band's agreement failures are a
     small-population phenomenon (the post-stop thinning must land the
     survivors' 1-count inside the widened flip band). *)
  let n = 48 in
  let t = n - 1 in
  let table =
    Supervise.register sup
      (Stats.Table.create
         ~title:
           (Printf.sprintf
              "E8  Rule ablation at n = %d: the zero rule and the off-centre \
               flip band"
              n)
         ~columns:
           [
             "rules"; "scenario"; "mean rounds"; "non-term"; "validity errs";
             "agreement errs"; "mean kills";
           ])
  in
  let trials = pick p ~quick:60 ~full:250 in
  let variants = [ Onesided.paper; Onesided.no_zero_rule; Onesided.symmetric ] in
  let massacre =
    {
      Sim.Adversary.name = "massacre-70%@r1";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round = 1 then
            Sim.Adversary.active_pids view
            |> List.filteri (fun i _ -> i < 7 * n / 10)
            |> List.map Sim.Adversary.kill_silent
          else []);
    }
  in
  let scenario rules name gen_inputs make_adversary =
    let protocol = Synran.protocol ~rules n in
    let rounds, kills, non_term, validity, agreement =
      Supervise.fold sup ~seed ~trials
        ~key:
          (Printf.sprintf "e8-%s-%s;n=%d;t=%d;mr=400" rules.Onesided.label
             name n t)
        (fun ?cancel ?checkpoint ?retries ?fault () ->
          Sim.Runner.fold ?jobs ?cancel ?checkpoint ?retries ?fault
            ~engine:"concrete" ~trials
            ~create:(fun () ->
              ( Stats.Welford.create (),
                Stats.Welford.create (),
                ref 0,
                ref 0,
                ref 0 ))
            ~merge:(fun (ra, ka, na, va, aa) (rb, kb, nb, vb, ab) ->
              ( Stats.Welford.merge ra rb,
                Stats.Welford.merge ka kb,
                ref (!na + !nb),
                ref (!va + !vb),
                ref (!aa + !ab) ))
            (fun ~index _ (rounds, kills, non_term, validity, agreement) ->
              let rng = Prng.Rng.of_seed_index ~seed ~index in
              let inputs = gen_inputs rng in
              let o =
                Sim.Engine.run ~max_rounds:400 protocol (make_adversary ())
                  ~inputs ~t ~rng
              in
              (match o.Sim.Engine.rounds_to_decide with
              | Some r -> Stats.Welford.add_int rounds r
              | None -> incr non_term);
              Stats.Welford.add_int kills o.Sim.Engine.kills_used;
              let v = Sim.Checker.check ~inputs o in
              if not v.Sim.Checker.validity then incr validity;
              if not v.Sim.Checker.agreement then incr agreement))
    in
    Stats.Table.add_row table
      [
        Stats.Table.Str rules.Onesided.label;
        Stats.Table.Str name;
        Stats.Table.Float (Stats.Welford.mean rounds);
        Stats.Table.Int !non_term;
        Stats.Table.Int !validity;
        Stats.Table.Int !agreement;
        Stats.Table.Float (Stats.Welford.mean kills);
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
        (fun () -> band ~config:Lb_adversary.voting_config rules);
      (* Everything enabled: rescues plus stop-delaying stalls. The
         population-thinning stop-kill pattern is what historically exposed
         the symmetric band's agreement breaks (survivors of a stop see the
         1-votes thinned into the flip band and re-toss; the zero rule is
         the paper's backstop against exactly this). *)
      scenario rules "random, strongest attack"
        (Sim.Runner.input_gen_random ~n)
        (fun () ->
          band
            ~config:{ Lb_adversary.default_config with desperate = true }
            rules);
      (* Unanimous-1 inputs, 70% massacre in round 1: validity stands or
         falls with the zero rule. *)
      scenario rules "all-ones, massacre"
        (Sim.Runner.input_gen_const ~n 1)
        (fun () -> massacre))
    variants;
  table

(* ------------------------------------------------------------------ *)
(* E9: the asynchronous contrast (Section 1.2)                          *)
(* ------------------------------------------------------------------ *)

let e9_async_contrast ?jobs ?sup p ~seed =
  let table =
    Supervise.register sup
      (Stats.Table.create
         ~title:
           "E9  Async Ben-Or phases vs scheduler: exponential under the \
            splitter, O(1) when fair (Sec 1.2 contrast with the synchronous \
            Theta(sqrt(n/log n)))"
         ~columns:
           [
             "n"; "t"; "scheduler"; "trials"; "mean phases"; "mean flips";
             "non-term"; "2^(n-1)";
           ])
  in
  let ns = pick p ~quick:[ 4; 6; 8 ] ~full:[ 4; 6; 8; 10 ] in
  List.iter
    (fun n ->
      let t = (n - 1) / 2 in
      let protocol = Async.Benor.protocol ~t in
      let row name make_scheduler trials =
        let s =
          Supervise.fold sup ~seed ~trials
            ~key:(Printf.sprintf "e9-benor-%s;n=%d;t=%d;ms=400000" name n t)
            (fun ?cancel ?checkpoint ?retries ?fault () ->
              Async.Engine.run_trials ~max_steps:400_000
                ~phase_of:Async.Benor.phase ?jobs ?cancel ?checkpoint ?retries
                ?fault ~trials ~seed
                ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng n)
                ~t protocol make_scheduler)
        in
        Stats.Table.add_row table
          [
            Stats.Table.Int n;
            Stats.Table.Int t;
            Stats.Table.Str name;
            Stats.Table.Int trials;
            Stats.Table.Float (Stats.Welford.mean s.Async.Engine.phases);
            Stats.Table.Float (Stats.Welford.mean s.Async.Engine.flips);
            Stats.Table.Int s.Async.Engine.non_terminating;
            Stats.Table.Int (1 lsl (n - 1));
          ]
      in
      row "fair" (fun () -> Async.Scheduler.fair) (pick p ~quick:20 ~full:40);
      row "random-crash"
        (fun () -> Async.Scheduler.random_crash ~p:0.02)
        (pick p ~quick:20 ~full:40);
      row "splitter" Async.Benor.splitter
        (pick p ~quick:(if n >= 8 then 5 else 10) ~full:(if n >= 10 then 6 else 12)))
    ns;
  table

(* ------------------------------------------------------------------ *)
(* E10: what weakening the adversary buys (Section 1)                   *)
(* ------------------------------------------------------------------ *)

let e10_coin_assumptions ?jobs ?sup p ~seed =
  let n = pick p ~quick:96 ~full:192 in
  let t = n - 1 in
  let table =
    Supervise.register sup
      (Stats.Table.create
         ~title:
           (Printf.sprintf
              "E10  Coin assumptions at n = %d, t = %d: private vs leader vs \
               shared-oracle coin (Sec 1: O(1) under a weakened adversary)"
              n t)
         ~columns:
           [ "coin"; "adversary"; "mean rounds"; "mean kills"; "safety errs" ])
  in
  let trials = pick p ~quick:40 ~full:150 in
  let coins =
    [
      ("private", Synran.Local_flip);
      ("leader", Synran.Leader_priority);
      ("shared-oracle", Synran.Shared_oracle 271828);
    ]
  in
  List.iter
    (fun (coin_name, coin) ->
      let protocol = Synran.protocol ~coin n in
      let row adv_name make_adversary =
        let s =
          supervised_summary ~max_rounds:2000 ?jobs ?sup
            ~exp:(Printf.sprintf "e10-%s-%s" coin_name adv_name)
            ~n ~t ~trials ~seed protocol make_adversary
        in
        Stats.Table.add_row table
          [
            Stats.Table.Str coin_name;
            Stats.Table.Str adv_name;
            Stats.Table.Float (Sim.Runner.mean_rounds s);
            Stats.Table.Float (Stats.Welford.mean s.Sim.Runner.kills);
            Stats.Table.Int (List.length s.Sim.Runner.safety_errors);
          ]
      in
      row "null" (fun () -> Sim.Adversary.null);
      row "voting attack" (fun () ->
          band ~config:Lb_adversary.voting_config Onesided.paper);
      row "strongest" (fun () -> band Onesided.paper);
      row "leader-killer" (fun () ->
          Lb_adversary.leader_killer ~rules:Onesided.paper
            ~bit_of_msg:Synran.bit_of_msg ~prio_of_msg:Synran.prio_of_msg ()))
    coins;
  table

(* ------------------------------------------------------------------ *)
(* E11: the Byzantine neighbourhood (Section 1 context)                 *)
(* ------------------------------------------------------------------ *)

let e11_byzantine ?jobs ?sup p ~seed =
  let n = pick p ~quick:17 ~full:26 in
  let t = (n - 1) / 5 in
  let table =
    Supervise.register sup
      (Stats.Table.create
         ~title:
           (Printf.sprintf
              "E11  Byzantine neighbourhood at n = %d, t = %d: deterministic \
               t+1 phases [GM93] vs oracle-coin O(1) [Rab83]"
              n t)
         ~columns:
           [
             "protocol"; "adversary"; "mean rounds"; "non-term"; "agree errs";
             "valid errs";
           ])
  in
  let trials = pick p ~quick:60 ~full:200 in
  let gen rng = Prng.Sample.random_bits rng n in
  let row proto_name protocol ~t_actual adv_name make_adversary =
    let s =
      Supervise.fold sup ~seed ~trials
        ~key:
          (Printf.sprintf "e11-%s-%s;n=%d;t=%d;mr=500" proto_name adv_name n
             t_actual)
        (fun ?cancel ?checkpoint ?retries ?fault () ->
          Byz.Engine.run_trials ~max_rounds:500 ?jobs ?cancel ?checkpoint
            ?retries ?fault ~trials ~seed ~gen_inputs:gen ~t:t_actual protocol
            make_adversary)
    in
    Stats.Table.add_row table
      [
        Stats.Table.Str proto_name;
        Stats.Table.Str adv_name;
        Stats.Table.Float (Stats.Welford.mean s.Byz.Engine.rounds);
        Stats.Table.Int s.Byz.Engine.non_terminating;
        Stats.Table.Int s.Byz.Engine.agreement_errors;
        Stats.Table.Int s.Byz.Engine.validity_errors;
      ]
  in
  let pk = Byz.Phase_king.protocol ~t in
  let null () = Byz.Adversary.null in
  let equivocator () = Byz.Adversary.equivocator ~budget_fraction:1.0 () in
  row "phase-king" pk ~t_actual:t "null" null;
  row "phase-king" pk ~t_actual:t "equivocator" equivocator;
  row "phase-king" pk ~t_actual:t "king-spoofer" Byz.Phase_king.king_spoofer;
  (* One corruption beyond the protocol's design point: the t+1 kings
     argument collapses. *)
  row "phase-king (over budget)" pk ~t_actual:(t + 1) "king-spoofer"
    Byz.Phase_king.king_spoofer;
  (* EIG messages grow as n^t (the [GM93] motivation); keep its tree
     tractable regardless of profile. *)
  let eig_t = Stdlib.min 2 (Stdlib.min t ((n - 1) / 3)) in
  let eig = Byz.Eig.protocol ~t:eig_t in
  let eig_name = Printf.sprintf "eig (t=%d)" eig_t in
  row eig_name eig ~t_actual:eig_t "liar" (fun () -> Byz.Eig.liar ());
  row eig_name eig ~t_actual:eig_t "equivocator" equivocator;
  let rb = Byz.Rabin.protocol ~t ~oracle_seed:(seed + 5) in
  row "rabin-oracle" rb ~t_actual:t "null" null;
  row "rabin-oracle" rb ~t_actual:t "equivocator" equivocator;
  row "rabin-oracle" rb ~t_actual:t "late equivocator" (fun () ->
      Byz.Adversary.equivocator ~corrupt_at:2 ~budget_fraction:1.0 ());
  table

(* ------------------------------------------------------------------ *)
(* E12: Chor-Coan group coins (Section 1.2)                             *)
(* ------------------------------------------------------------------ *)

let e12_chor_coan ?jobs ?sup p ~seed =
  let n = pick p ~quick:61 ~full:101 in
  let t = (n - 1) / 5 in
  let table =
    Supervise.register sup
      (Stats.Table.create
         ~title:
           (Printf.sprintf
              "E12  Chor-Coan group coins at n = %d, t = %d: adaptive costs \
               t/g rounds, non-adaptive O(1) [CC85]"
              n t)
         ~columns:
           [
             "group size"; "adversary"; "mean rounds"; "t/g + 2"; "agree errs";
           ])
  in
  let trials = pick p ~quick:50 ~full:150 in
  let gen rng = Prng.Sample.random_bits rng n in
  let gs = [ 1; 2; 4; Stdlib.max 1 (int_of_float (log (float_of_int n) /. log 2.0)) ] in
  List.iter
    (fun g ->
      let protocol = Byz.Chor_coan.protocol ~t ~group_size:g in
      let row name make_adversary =
        let s =
          Supervise.fold sup ~seed ~trials
            ~key:
              (Printf.sprintf "e12-chor-coan-g%d-%s;n=%d;t=%d;mr=500" g name n
                 t)
            (fun ?cancel ?checkpoint ?retries ?fault () ->
              Byz.Engine.run_trials ~max_rounds:500 ?jobs ?cancel ?checkpoint
                ?retries ?fault ~trials ~seed ~gen_inputs:gen ~t protocol
                make_adversary)
        in
        Stats.Table.add_row table
          [
            Stats.Table.Int g;
            Stats.Table.Str name;
            Stats.Table.Float (Stats.Welford.mean s.Byz.Engine.rounds);
            Stats.Table.Float (float_of_int t /. float_of_int g +. 2.0);
            Stats.Table.Int s.Byz.Engine.agreement_errors;
          ]
      in
      row "adaptive group-corruptor" (fun () ->
          Byz.Chor_coan.group_corruptor ~group_size:g ());
      let rng = Prng.Rng.create (seed + 7) in
      let victims =
        Prng.Sample.choose_k rng n t |> Array.to_list
        |> List.map (fun pid -> (1, pid))
      in
      row "random non-adaptive" (fun () -> Byz.Adversary.crash_like ~victims))
    gs;
  table

(* ------------------------------------------------------------------ *)

(* The registry, in table order: every driver shares one signature. *)
let registry :
    (string
    * (?jobs:int -> ?sup:Supervise.ctx -> profile -> seed:int -> Stats.Table.t))
    list =
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

let by_id id = List.assoc_opt id registry
