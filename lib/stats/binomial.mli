(** Exact binomial distribution in log space.

    This is the measurement side of Lemma 4.4: the paper lower-bounds the
    upper tail of Binomial(n, 1/2) by e^(-4(t+1)^2) / sqrt(2 pi); here we
    compute the tail exactly so the bound can be tabulated against truth. *)

val pmf : n:int -> k:int -> p:float -> float

val log_sf : n:int -> k:int -> p:float -> float
(** [log_sf ~n ~k ~p] = ln Pr[X >= k] (survival, inclusive).
    Kept for tests: pins that E2's extreme tails stay finite in log space. *)

val cdf : n:int -> k:int -> p:float -> float
(** Kept for tests: with {!sf}, the complement and symmetry oracle for the
    tail E2 tabulates. *)

val sf : n:int -> k:int -> p:float -> float
(** Kept for tests: with {!cdf}, the complement and symmetry oracle for the
    tail E2 tabulates. *)

val mean : n:int -> p:float -> float
(** Kept for tests: with {!variance}, the moments the pmf tests and the
    Lemma 4.4 deviation [t sqrt n] are measured from. *)

val variance : n:int -> p:float -> float
(** Kept for tests: see {!mean}. *)

val tail_above_mean : n:int -> dev:float -> float
(** [tail_above_mean ~n ~dev] = Pr[X - E X >= dev] for X ~ Binomial(n, 1/2),
    i.e. the quantity bounded in Lemma 4.4 (with [dev = t sqrt n]). *)

val paper_tail_lower_bound : s:float -> float
(** Lemma 4.4's bound: e^(-4 (s + 1)^2) / sqrt (2 pi), where the deviation
    is [s * sqrt n]. Valid for [s < sqrt n / 8]. *)
