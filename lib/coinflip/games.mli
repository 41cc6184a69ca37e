(** Concrete one-round games from the paper and the coin-flipping
    literature. [majority_default_zero], [majority_ignore_missing],
    [parity] and [sum_mod] are counting games ({!Game.counting}). *)

val majority_default_zero : int -> Game.t
(** The paper's running example: unbiased bits, missing values counted as 0,
    outcome is 1 iff strictly more than n/2 of the counted values are 1.
    A fail-stop adversary can bias it toward 0 (hide 1s) but {e never}
    toward 1 — the "one side only" phenomenon of Section 2.1. *)

val majority_ignore_missing : int -> Game.t
(** Majority over the values still present (ties break to 0). Biasable in
    both directions by hiding the other side's votes. *)

val parity : int -> Game.t
(** XOR of present values (missing counted as 0). A single hidden bit-1
    flips the outcome, so the adversary controls it with budget 1 whenever
    any player drew 1. *)

val dictator : int -> Game.t
(** Player 0's bit decides; if hidden, the lowest-indexed visible player
    decides; 0 if everyone is hidden. Controlled with tiny budget.
    Kept for tests: the control-extremes test needs a game every full budget
    forces; the CLI reaches it through {!all}. *)

val sum_mod : k:int -> int -> Game.t
(** Players draw uniform values in [0, k); outcome is their sum mod [k]
    over present players — a k-outcome game exercising Lemma 2.1's general
    form. *)

val weighted_majority : weights:int array -> Game.t
(** Majority with per-player vote weights (missing counted as 0).
    Kept for tests: the one non-counting game through {!Game.make}'s masked
    path, where hiding a single heavy player flips the outcome. *)

val tribes : tribe_size:int -> tribes:int -> Game.t
(** Ben-Or & Linial's tribes function [BOL89]: players are split into
    [tribes] blocks of [tribe_size]; the outcome is 1 iff some tribe is
    unanimously 1 (missing values count as 0). The classic example of a
    function where single players have small influence yet small
    coalitions control the outcome. *)

val recursive_majority : depth:int -> Game.t
(** Recursive 3-ary majority [BOL89]: n = 3^depth players at the leaves of
    a ternary tree; each internal node takes the majority of its children
    (missing leaves count as 0). Coalitions of size 2^depth = n^0.63
    control it — better resistance than flat majority's Theta(sqrt n)
    against statically chosen coalitions, another waypoint in the Section 2
    landscape. *)

val all : int -> Game.t list
(** The standard battery at a given [n] (k=2 games plus one [sum_mod 3]). *)
