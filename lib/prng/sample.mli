(** Sampling routines built on {!Rng}: permutations, subsets, random input
    vectors, and discrete distributions. *)

val shuffle : Rng.t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val permutation : Rng.t -> int -> int array
(** [permutation g n] is a uniform random permutation of [0..n-1].
    Kept for tests: {!shuffle} applied to the identity, checked to move it. *)

val choose_k : Rng.t -> int -> int -> int array
(** [choose_k g n k] is a uniform random k-subset of [0..n-1], in arbitrary
    order, without replacement. Raises [Invalid_argument] if [k > n] or
    [k < 0]. *)

val binomial : Rng.t -> int -> float -> int
(** [binomial g n p] draws from Binomial(n, p). Exact (per-trial) for the
    problem sizes used here.
    Kept for tests: the PRNG distribution oracle checked by KS against the
    exact [Stats.Binomial] pmf that E2 tabulates. *)

val geometric : Rng.t -> float -> int
(** [geometric g p] is the number of failures before the first success of a
    Bernoulli(p) sequence; [p] must be in (0, 1].
    Kept for tests: a PRNG distribution oracle (the mean of the draws). *)

val exponential : Rng.t -> float -> float
(** [exponential g lambda] draws from Exp(lambda); [lambda] must be
    positive.
    Kept for tests: a PRNG distribution oracle (the mean of the draws). *)

val categorical : Rng.t -> float array -> int
(** [categorical g w] draws index [i] with probability proportional to
    [w.(i)]. Weights must be non-negative with a positive sum.
    Kept for tests: a PRNG distribution oracle (the ratio of the draws). *)

val random_bits : Rng.t -> int -> int array
(** [random_bits g n] is an array of [n] unbiased bits — a random consensus
    input vector. *)
