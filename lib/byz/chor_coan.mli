(** Chor-Coan-style randomized Byzantine agreement with rotating group
    coins [CC85] — the protocol the paper names as the best known upper
    bound (O(t / log n) expected rounds) for full-information
    {e non-adaptive} Byzantine adversaries (Section 1.2), and an
    interpolation knob between the dictator coin (group size 1) and large
    committees.

    Round r: everyone broadcasts its value; members of the active group
    (groups of size [group_size], active group = r mod #groups) attach a
    fresh coin. A value seen at least n - t times is decided; more than
    (n + t)/2 times, adopted; otherwise the process adopts the majority of
    the active group's coins (its own value if none arrived).

    With an honest active group every undecided process adopts the {e
    same} random bit, so each honest-group round ends the run with
    probability >= 1/2. An adversary must therefore spend ~[group_size]
    corruptions per round it wants to survive: expected rounds ~
    t / group_size + O(1), which is the paper's O(t / log n) at
    group_size = Theta(log n). Safety needs n > 5t, as in {!Rabin}. *)

type state

type msg

val protocol : t:int -> group_size:int -> (state, msg) Protocol.t
(** Requires n > 5t and 1 <= group_size <= n (checked at init). *)

val groups : n:int -> group_size:int -> int
(** Number of groups: ceil(n / group_size).
    Kept for tests: pins the [CC85] group count that the protocol and
    {!group_corruptor} share. *)

val active_group : round:int -> n:int -> group_size:int -> int
(** Kept for tests: pins the [CC85] rotation that the protocol and
    {!group_corruptor} share. *)

val group_corruptor : group_size:int -> unit -> (state, msg) Adversary.t
(** The adaptive attack: corrupt the members of each round's active group
    (silencing their coins and votes) until the budget runs out — the
    spend-g-per-round schedule that the O(t / group_size) analysis says is
    forced. Against a {e non-adaptive} schedule the same budget is wasted:
    compare with {!Adversary.crash_like}. *)
