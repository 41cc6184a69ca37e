(** Adversary strategies for one-round games.

    A strategy sees the drawn values (full information) on a {!Game.cursor}
    and returns visible players to hide, at most [budget] of them, trying
    to force outcome [target]. It may hide and unhide on the cursor while
    it searches but leaves it as it found it; players already hidden on
    the cursor (halted in an earlier round) stay hidden and are never
    returned. *)

type t = {
  name : string;
  act : Game.cursor -> budget:int -> target:int -> int list;
}

val do_nothing : t
(** The honest "adversary": hides nobody (baseline bias measurement).
    Kept for tests: the zero-hide baseline of the strategies-respect-budget
    property. *)

val greedy : t
(** Iteratively hides the single player whose removal gets the outcome to
    [target], or failing that, the player whose removal changes the outcome
    at all (a generic hill-climbing heuristic — O(budget * n) cursor
    queries). Effective on all the monotone games in {!Games}.
    Kept for tests: a component of {!best_available}, pinned on its own by the
    coinflip.strategy tests. *)

val exhaustive : ?subset_limit:int -> unit -> t
(** Exact search: tries all hide-subsets in increasing size until [f] equals
    [target] (breadth-first, so it finds a minimum-size forcing set).
    Evaluates at most [subset_limit] subsets (default 2_000_000) before
    giving up — only for small [n] or tiny budgets. *)

val toward_value : t
(** Hides players whose drawn value differs from [target], most-common
    foreign value first, until the outcome is [target] or the budget runs
    out. The natural play on counting games (the majorities),
    where {!greedy}'s one-step lookahead cannot see progress.
    Kept for tests: a component of {!best_available}, pinned on its own by the
    coinflip.strategy tests. *)

val first_success : t list -> t
(** Runs each strategy on the same values and returns the first hide-set
    that forces [target] ([[]] if none does). The measurement default:
    a computationally unbounded adversary plays every idea it has.
    Kept for tests: the combinator {!best_available} is built with, pinned on
    its own by the coinflip.strategy tests. *)

val best_available : t
(** [first_success [greedy; toward_value]] — the default measurement
    strategy for Corollary 2.2 experiments. *)

val forced_outcome : Game.t -> int array -> strategy:t -> budget:int -> target:int -> int
(** Outcome of the game when the strategy plays on the given values. Raises
    [Invalid_argument] if the strategy overspends or hides a player twice —
    strategies are held to the same budget discipline as the simulator's
    adversaries. *)
