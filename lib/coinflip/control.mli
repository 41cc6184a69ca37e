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

val control_probability :
  ?trials:int ->
  ?jobs:int ->
  ?cancel:(unit -> bool) ->
  seed:int ->
  budget:int ->
  target:int ->
  strategy:Strategy.t ->
  Game.t ->
  estimate
(** Monte-Carlo estimate (default 1000 trials) of the probability that the
    strategy forces [target] with the given budget. Trials run across
    [jobs] domains (default {!Sim.Parallel.default_jobs}); trial [i]'s RNG
    is derived from [(seed, i)] via {!Prng.Rng.of_seed_index}, so the
    estimate is identical for every [jobs]. [cancel] is a cooperative
    watchdog polled at chunk boundaries; because a proportion over a
    truncated sample would be a silently different estimate, cancellation
    raises {!Sim.Parallel.Cancelled} rather than returning a partial
    value. A raising trial is re-raised with its original backtrace. *)

val best_controllable_outcome :
  ?trials:int ->
  ?jobs:int ->
  ?cancel:(unit -> bool) ->
  seed:int ->
  budget:int ->
  strategy:Strategy.t ->
  Game.t ->
  estimate
(** Lemma 2.1 existentially guarantees some forceable outcome; this returns
    the empirically easiest one (max forcing probability over targets). *)

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
