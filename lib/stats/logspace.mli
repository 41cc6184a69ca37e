(** Arithmetic on probabilities represented by their natural logarithm.

    The binomial tails in Lemma 4.4 / Corollary 4.5 reach magnitudes like
    2^-16384, far below [Float.min_float], so all probability mass is kept
    in log space and combined with the routines here. *)

val neg_inf : float
(** log 0. *)

val add : float -> float -> float
(** [add la lb] = log (e^la + e^lb), computed stably. *)

val sub : float -> float -> float
(** [sub la lb] = log (e^la - e^lb). Requires [la >= lb]; raises
    [Invalid_argument] otherwise. Returns {!neg_inf} when [la = lb].
    Kept for tests: the inverse of {!add}, the complement a log-space tail
    oracle needs. *)

val sum : float array -> float
(** [sum ls] = log (Σ e^(ls.(i))), stable for any mix of magnitudes.
    Kept for tests: the n-ary {!add}, pinned on a 2000-nat spread. *)

val of_prob : float -> float
(** [of_prob p] = log p; [p] must be in [0, 1].
    Kept for tests: the checked inverse of {!to_prob}. *)

val to_prob : float -> float
(** [to_prob l] = e^l, clamped into [0, 1] against rounding. *)

val ln_factorial : int -> float
(** [ln_factorial n] = ln n!. Exact summation below 1024, Stirling series
    with correction terms above (relative error < 1e-12).
    Kept for tests: pins the Stirling branch that E2's n > 1023 tails rely on
    against direct summation. *)

val ln_choose : int -> int -> float
(** [ln_choose n k] = ln (n choose k); {!neg_inf} outside [0 <= k <= n]. *)
