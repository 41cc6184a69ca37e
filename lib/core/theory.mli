(** The paper's closed-form bounds, as plottable curves.

    These are the "theory" series printed next to measurements in
    experiments E3-E6. *)

val lower_bound_rounds : n:int -> t:int -> float
(** Theorem 1's guarantee: t / (4 sqrt(n log n) + 1) rounds forced with
    probability >= 1 - 1/sqrt(log n). *)

val lower_bound_success_prob : n:int -> float
(** 1 - 1/sqrt(log n) (natural log; 0 for n <= 2 where the bound is
    vacuous). *)

val tight_bound_shape : n:int -> t:int -> float
(** The Theta shape of Theorem 3: t / sqrt(n log(2 + t / sqrt n)).
    Dimensionless up to the hidden constant; fit the constant with
    {!Stats.Fit.through_origin}. *)

val upper_bound_large_t_shape : n:int -> float
(** Theorem 2's regime (t = Omega(n)): sqrt(n / log n). *)

val deterministic_rounds : t:int -> int
(** The t+1 rounds of the deterministic protocol (FloodSet baseline). *)

val per_round_kills : n:int -> float
(** 4 sqrt(n log n) + 1: the per-round failure budget of the lower-bound
    adversary (Section 3.2). *)

val crossover_t : n:int -> int
(** Smallest t at which the deterministic t+1 protocol is predicted to beat
    neither bound, i.e. where the randomized Theta-shape falls below t+1 —
    essentially always, but the experiment reports the measured version.
    Kept for tests: the paper's §1 contrast (Theta-shape against t + 1),
    pinned to be tiny at n = 256. *)
