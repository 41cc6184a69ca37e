(** One-round collective coin-flipping games as {!Sim} protocols.

    {!Game.t} evaluates a game function over a masked value vector in one
    shot; this module runs the same games {e inside} the synchronous engine:
    each player draws its value in Phase A with the game's [draw] (from its
    own private stream — outcomes match {!Game.sample} followed by [eval]
    in distribution, not coin-for-coin), the round's broadcast is the
    value itself, and every surviving player evaluates the game on what it
    received, decides the outcome, and halts. Kills with empty [deliver_to] are exactly the game
    adversary's "hide"; partial sends generalize it (receivers may disagree
    — the engine's per-receiver delivery is strictly richer than the
    one-shot game model).

    Kept for tests: no driver calls this module. It runs each game through
    the engine, so the coinflip and delivery tests can check the engine's
    per-receiver delivery against {!Game}'s one-shot evaluation. *)

type state

val outcome : state -> int option
(** The decided game outcome, set after round 1.
    Kept for tests (see the module doc). *)

val value : state -> int
(** The value drawn in Phase A (0 before the first round).
    Kept for tests (see the module doc). *)

val of_game : Game.t -> (state, int) Sim.Protocol.t
(** The game as a protocol named ["sim:" ^ name]. A counting game runs on
    the engine's shared-aggregate fast path with its [decide] rule; any
    other game uses the legacy materialized exchange and its [eval].
    Kept for tests (see the module doc). *)
