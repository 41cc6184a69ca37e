(** Experiment drivers: one per reproduced claim (see DESIGN.md section 4
    and EXPERIMENTS.md). Each returns a {!Stats.Table.t} that
    [bin/consensus_cli.exe experiments] renders.

    [Quick] keeps every experiment under a few seconds for CI-style runs;
    [Full] uses the trial counts and sweeps reported in EXPERIMENTS.md.

    [jobs] (default {!Sim.Parallel.default_jobs}) sets the number of
    domains the trial loops fan out over; every table is bit-identical for
    every [jobs >= 1] because each trial's RNG is a pure function of
    [(seed, trial index)] (see {!Sim.Parallel}). E2 is closed-form and
    ignores [jobs].

    [sup] supervises the run (see {!Supervise}). Each driver registers its
    table before its first trial, so a failed or timed-out run reports the
    rows added so far. Every trial population is one keyed supervised
    fold ({!Supervise.fold}): it polls the watchdog at chunk boundaries,
    persists and resumes chunk checkpoints under its key, and reports
    structured failures; E1's coin-game estimates are such folds too. Only
    E6's FloodSet column runs outside one: it is one deterministic run
    per row, with nothing to chunk. [sup] defaults to a fresh
    {!Supervise.create}[ ()], which polls and stores nothing; the tables
    are bit-identical under any supervisor. *)

type profile = Quick | Full

val ids : string list
(** ["e1"; ...; "e12"]. *)

val by_id :
  string ->
  (?jobs:int -> ?sup:Supervise.ctx -> profile -> seed:int -> Stats.Table.t)
  option
(** Look up a single experiment driver by id; every driver takes the same
    arguments, and those that do not use [jobs] or [seed] ignore them.

    - e1: Corollary 2.2, control of one-round games vs adversary budget.
    - e2: Lemma 4.4 / Corollary 4.5, exact binomial tails vs the paper's
      lower bound (ignores [seed]).
    - e3: Theorem 2, SynRan E[rounds] vs n at t = n - 1 under band
      control, fitted against sqrt(n / log n).
    - e4: Theorem 3, E[rounds] vs t at fixed n against the
      t / sqrt(n log(2 + t/sqrt n)) shape.
    - e5: Theorem 1 (small n), forced rounds under the Monte-Carlo valency
      adversary vs oblivious baselines vs the theory curve.
    - e6: Section 1, FloodSet's t+1 rounds vs SynRan's expected rounds.
    - e7: Section 1.2, the same kill budget spent obliviously barely slows
      SynRan — adaptivity is what the lower bound needs.
    - e8: Section 4 ablation, the zero rule and the off-centre flip band.
    - e9: Section 1.2, asynchronous Ben-Or needs exponentially many phases
      against a full-information scheduler even with zero crashes.
    - e10: Section 1, denying the adversary the coin buys O(1) expected
      rounds — private vs leader vs shared-oracle coins.
    - e11: Section 1 context, deterministic Phase King vs Rabin's
      oracle-coin O(1) Byzantine protocol.
    - e12: Section 1.2, Chor-Coan group coins: an adaptive adversary pays
      group_size corruptions per stalled round, a non-adaptive one gets
      O(1) rounds. *)
