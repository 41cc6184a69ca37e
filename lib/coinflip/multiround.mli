(** Multi-round collective coin-flipping games in the fail-stop model —
    the setting of Aspnes [Asp97] that Section 1.2 builds on ("by halting
    O(sqrt(n) log n) processes the adversary can bias the game to one of
    the possible outcomes with probability greater than 1 - 1/n").

    A multi-round game runs [rounds] independent instances of a one-round
    game over the {e same} player population: a player hidden (halted) in
    round r stays hidden in every later round — that is the fail-stop
    semantics that distinguishes this from independent repetition. The
    final outcome combines the per-round outcomes (here: their majority).

    The adversary interface mirrors {!Strategy} but is stateful across
    rounds: it sees each round's drawn values and decides whom to halt,
    subject to the global budget.

    Kept for tests: no driver calls this module. It backs the Section 1.2
    Aspnes remark that EXPERIMENTS.md cites from the coinflip.multiround
    tests. *)

type t = {
  name : string;
  base : Game.t;  (** The per-round game (its [n] is the population). *)
  rounds : int;  (** Number of rounds; odd values avoid majority ties. *)
}

val make : ?name:string -> rounds:int -> Game.t -> t
(** [make ~rounds base] is the [rounds]-fold repetition with majority
    combining (per-round ties in the combined count go against the
    adversary). Raises [Invalid_argument] if [rounds < 1] or the base game
    is not 2-outcome.
    Kept for tests (see the module doc). *)

type strategy = {
  sname : string;
  act :
    t -> round:int -> Game.cursor -> budget_left:int -> target:int -> int list;
      (** Players to halt this round, given the round's drawn values on a
          cursor with the already halted players hidden; must be alive and
          within budget. *)
}

val passive : strategy
(** Halts nobody in any round.
    Kept for tests (see the module doc). *)

val uniform_split : Strategy.t -> strategy
(** Spreads the budget evenly: each round plays the given one-round
    strategy with budget [total / rounds] — the naive allocation.
    Kept for tests (see the module doc). *)

val front_loaded : Strategy.t -> strategy
(** Plays the whole remaining budget every round (halted players stay
    halted, so early rounds get the most): the "win early rounds
    permanently" allocation, which dominates uniform splitting on majority
    combining because permanently halted opponents bias {e every} later
    round.
    Kept for tests (see the module doc). *)

val play :
  t -> Prng.Rng.t -> strategy:strategy -> budget:int -> target:int -> int
(** Run one multi-round game under the adversary; returns the combined
    outcome. Raises [Invalid_argument] if the strategy overspends or halts
    a dead player.
    Kept for tests (see the module doc). *)

val bias_probability :
  ?trials:int ->
  seed:int ->
  budget:int ->
  target:int ->
  strategy:strategy ->
  t ->
  float
(** Monte-Carlo Pr[combined outcome = target] (default 600 trials).
    Kept for tests (see the module doc). *)
