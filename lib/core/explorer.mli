(** Exact analysis of SynRan's probabilistic stage with no adversary.

    With no failures every process receives the same multiset each round,
    so all processes take the same ladder action; the only divergence is
    independent coin flips on Flip rounds. The execution is therefore a
    Markov chain on the 1-count [o], and because the post-flip distribution
    Binomial(n, 1/2) does not depend on the flip-band state we left, the
    chain's absorption probabilities and expected hitting times have closed
    forms. These exact values are the oracle the simulator is tested
    against, and they realize the r(alpha) decision probabilities that
    Section 3.2's valency classification is defined over.

    Kept for tests: no driver calls this module. It is the closed-form oracle
    for SynRan's adversary-free chain. *)

type ladder = Decide_one | Propose_one | Decide_zero | Propose_zero | Flip_all

val ladder : ?rules:Onesided.rules -> ones:int -> int -> ladder
(** The common action when all [n] processes are alive, [ones] of this
    round's messages are 1, and the previous round's count was [n].
    Kept for tests (see the module doc). *)

val decision_prob : ?rules:Onesided.rules -> ones:int -> int -> float
(** Exact Pr[consensus value = 1] from a round whose 1-count is [ones],
    adversary-free.
    Kept for tests (see the module doc). *)

val expected_rounds : ?rules:Onesided.rules -> ones:int -> int -> float
(** Exact expected rounds-to-decide (the engine's metric: the round in
    which the last process records its decision) for an execution whose
    {e round-1} 1-count is [ones], adversary-free.
    Kept for tests (see the module doc). *)

val rounds_variance : ?rules:Onesided.rules -> ones:int -> int -> float
(** Exact variance of the same quantity. Zero from deterministic (decide/
    propose) initial states; from the flip band it follows the geometric
    mixture of repeated re-tosses.
    Kept for tests (see the module doc). *)

val flip_band_mass : ?rules:Onesided.rules -> int -> float
(** Pr[Binomial(n, 1/2) lands in the flip band] — the per-round
    continuation probability of the adversary-free chain.
    Kept for tests (see the module doc). *)
