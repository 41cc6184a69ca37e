(** Confidence intervals for the measured quantities. *)

type interval = { lo : float; hi : float }

val mean_interval : ?confidence:float -> Welford.t -> interval
(** Normal-approximation CI for the mean of an aggregate (default 95%). *)

val wilson : ?confidence:float -> successes:int -> int -> interval
(** [wilson ~successes trials] is the Wilson score interval for a binomial
    proportion — well-behaved even when the empirical proportion is 0 or 1,
    which happens routinely when we measure "adversary controlled the coin"
    probabilities near 1 - 1/n. *)

val proportion : successes:int -> trials:int -> float
