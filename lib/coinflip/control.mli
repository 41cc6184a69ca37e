(** Measuring adversarial control of one-round games.

    A t-adversary {e controls} a game toward outcome [v] if its strategy
    forces [v] with probability > 1 - 1/n over the players' randomness
    (Section 2.1). Corollary 2.2 says budget k*4*sqrt(n log n) always
    suffices for {e some} v; experiment E1 measures this on concrete
    games. *)

type estimate = {
  target : int;
  trials : int;
  forced : int;  (** Trials where the strategy achieved [target]. *)
  proportion : float;
  ci : Stats.Ci.interval;  (** 95% Wilson interval. *)
}

type run =
  key:string -> seed:int -> trials:int ->
  (Sim.Runner.guard -> int ref Sim.Runner.folded) -> int ref
(** How an estimate's fold is run: [run ~key ~seed ~trials fold] calls
    [fold] (a {!Sim.Runner.fold} counting the forced trials) with the
    {!Sim.Runner.guard} to run under and returns its complete count.
    [key] names n, budget, target and strategy, not the game; [seed] is
    the estimate's trial seed. [Core.Supervise.fold], with a key prefix
    naming the game, passes a supervisor's watchdog, checkpoint store,
    retry budget and fault plan. The default is
    [Sim.Runner.value (fold Sim.Runner.unguarded)]. *)

val control_probability :
  ?trials:int ->
  ?jobs:int ->
  ?run:run ->
  seed:int ->
  budget:int ->
  target:int ->
  strategy:Strategy.t ->
  Game.t ->
  estimate
(** Monte-Carlo estimate (default 1000 trials) of the probability that the
    strategy forces [target] with the given budget, folded across [jobs]
    domains (default {!Sim.Parallel.default_jobs}); trial [i]'s RNG is
    derived from [(seed, i)] via {!Prng.Rng.of_seed_index}, so the
    estimate is identical for every [jobs]. Without [run], a raising
    trial is re-raised with its original backtrace. *)

val best_controllable_outcome :
  ?trials:int ->
  ?jobs:int ->
  ?run:run ->
  seed:int ->
  budget:int ->
  strategy:Strategy.t ->
  Game.t ->
  estimate
(** Lemma 2.1 existentially guarantees some forceable outcome; this returns
    the empirically easiest one: the highest proportion (the first on
    ties) over the targets [v] of {!control_probability}[ ~seed:(seed +
    v)]. *)

val exact_force_probability :
  budget:int -> target:int -> Game.t -> values_of_player:int -> float
(** Exact Pr over input vectors that {e some} hide-set of size <= budget
    forces [target], by full enumeration. Player values are assumed uniform
    on [0, values_of_player). Exponential in [n]; intended for n <= ~14 with
    small budgets. This is exactly 1 - Pr(U^target) from Lemma 2.1.
    Kept for tests: the exact oracle the Monte-Carlo control estimates are
    checked against. *)

val controls : estimate -> n:int -> bool
(** The paper's control criterion: forcing probability > 1 - 1/n (applied to
    the point estimate). *)
