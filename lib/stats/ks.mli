(** Two-sample Kolmogorov-Smirnov distance and an asymptotic significance
    threshold — distributional sanity checks for generators and for
    comparing round-count distributions across seeds/configurations.

    Kept for tests: no driver calls this module. It is the PRNG and
    whole-stack distribution oracle. *)

val statistic : float array -> float array -> float
(** [statistic xs ys] is sup_t |F_xs(t) - F_ys(t)| over the empirical
    CDFs. Raises [Invalid_argument] on an empty sample.
    Kept for tests (see the module doc). *)

val critical_value : ?alpha:float -> int -> int -> float
(** [critical_value ~alpha n m] is the asymptotic rejection threshold
    c(alpha) * sqrt((n + m) / (n * m)); alpha in {0.10, 0.05, 0.01, 0.001}
    (default 0.05). Samples with [statistic] above it differ significantly
    at level alpha.
    Kept for tests (see the module doc). *)

val same_distribution : ?alpha:float -> float array -> float array -> bool
(** [statistic xs ys <= critical_value ~alpha |xs| |ys|].
    Kept for tests (see the module doc). *)
