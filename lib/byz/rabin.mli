(** Rabin-style randomized Byzantine agreement with a common coin [Rab83] —
    the paper's Section 1 example of what "reasonable bounds on the power
    of the adversary" buy: O(1) expected rounds, for {e any} t below the
    resilience threshold, because the dealer's coin is hidden from the
    adversary until after it commits its round's interference.

    Round r: broadcast v. If some value was received at least n - t times,
    decide it; if more than (n + t)/2 times, adopt it; otherwise set v to
    the round's common coin. Simple counting arguments give Agreement and
    Validity for n > 5t; the hidden coin gives expected O(1) rounds.
    A decided process keeps broadcasting for two more rounds (enough for
    everyone else to cross the decision threshold) and then halts. *)

type state

type msg

val protocol : t:int -> oracle_seed:int -> (state, msg) Protocol.t
(** Requires n > 5t (checked at init). The per-round coin is derived from
    [oracle_seed]; the modelling assumption is that adversaries do not read
    it (ours never do). *)
