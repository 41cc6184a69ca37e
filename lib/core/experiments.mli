(** Experiment drivers: one per reproduced claim (see DESIGN.md section 4
    and EXPERIMENTS.md). Each returns a {!Stats.Table.t} that
    [bin/consensus_cli.exe experiments] renders.

    [Quick] keeps every experiment under a few seconds for CI-style runs;
    [Full] uses the trial counts and sweeps reported in EXPERIMENTS.md.

    [jobs] (default {!Sim.Parallel.default_jobs}) sets the number of
    domains the trial loops fan out over; every table is bit-identical for
    every [jobs >= 1] because each trial's RNG is a pure function of
    [(seed, trial index)] (see {!Sim.Parallel}). E9, E11 and E12 run on
    the sequential async/Byzantine engines and ignore [jobs].

    [sup] threads a {!Supervise.ctx} through each driver: the parallel
    trial loops then poll its watchdog at chunk boundaries, persist and
    resume chunk checkpoints, and report structured failures; the
    sequential drivers (E9, E11, E12) poll the watchdog at row boundaries
    only. Omitting [sup] is exactly the old unsupervised behavior, and a
    supervised run's tables are bit-identical to an unsupervised run's. *)

type profile = Quick | Full

val e1_coin_control :
  ?jobs:int -> ?sup:Supervise.ctx -> profile -> seed:int -> Stats.Table.t
(** Corollary 2.2: control of one-round games vs adversary budget. *)

val e2_tail_bound : ?sup:Supervise.ctx -> profile -> Stats.Table.t
(** Lemma 4.4 / Corollary 4.5: exact binomial tails vs the paper's lower
    bound. *)

val e3_scaling_n :
  ?jobs:int -> ?sup:Supervise.ctx -> profile -> seed:int -> Stats.Table.t
(** Theorem 2: SynRan E[rounds] vs n at t = n - 1 under band control,
    fitted against sqrt(n / log n). *)

val e4_scaling_t :
  ?jobs:int -> ?sup:Supervise.ctx -> profile -> seed:int -> Stats.Table.t
(** Theorem 3: E[rounds] vs t at fixed n against the
    t / sqrt(n log(2 + t/sqrt n)) shape. *)

val e5_small_n_adversaries :
  ?jobs:int -> ?sup:Supervise.ctx -> profile -> seed:int -> Stats.Table.t
(** Theorem 1 (small n): forced rounds under the Monte-Carlo valency
    adversary vs oblivious baselines vs the theory curve. *)

val e6_deterministic_crossover :
  ?jobs:int -> ?sup:Supervise.ctx -> profile -> seed:int -> Stats.Table.t
(** Section 1: FloodSet's t+1 rounds vs SynRan's expected rounds. *)

val e7_nonadaptive :
  ?jobs:int -> ?sup:Supervise.ctx -> profile -> seed:int -> Stats.Table.t
(** Section 1.2: the same kill budget spent obliviously barely slows SynRan
    — adaptivity is what the lower bound needs. *)

val e8_ablation :
  ?jobs:int -> ?sup:Supervise.ctx -> profile -> seed:int -> Stats.Table.t
(** Section 4 ablation: the zero rule and the off-centre flip band. *)

val e9_async_contrast : ?sup:Supervise.ctx -> profile -> seed:int -> Stats.Table.t
(** Section 1.2: asynchronous Ben-Or needs exponentially many phases
    against a full-information scheduler even with zero crashes — the
    async/sync contrast motivating the paper. *)

val e10_coin_assumptions :
  ?jobs:int -> ?sup:Supervise.ctx -> profile -> seed:int -> Stats.Table.t
(** Section 1: weakening the adversary (denying it the coin) buys O(1)
    expected rounds — private vs leader vs shared-oracle coins under the
    same attacks. *)

val e11_byzantine : ?sup:Supervise.ctx -> profile -> seed:int -> Stats.Table.t
(** Section 1 context: the Byzantine neighbourhood — deterministic
    Phase King (2(t+1) rounds, breaks one corruption past its design
    point) vs Rabin's oracle-coin O(1) protocol. *)

val e12_chor_coan : ?sup:Supervise.ctx -> profile -> seed:int -> Stats.Table.t
(** Section 1.2: Chor-Coan group coins — an adaptive adversary pays
    group_size corruptions per stalled round (t/g rounds total), a
    non-adaptive one gets O(1) rounds; O(t/log n) at the paper's group
    size. *)

val all : ?jobs:int -> profile -> seed:int -> Stats.Table.t list
(** Every experiment, in order. *)

val ids : string list
(** ["e1"; ...; "e12"]. *)

val by_id :
  string ->
  (?jobs:int -> ?sup:Supervise.ctx -> profile -> seed:int -> Stats.Table.t)
  option
(** Look up a single experiment driver by id. *)
