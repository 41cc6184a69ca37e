(** The quantitative bounds of Section 2, as directly computable
    functions. *)

val h : int -> float
(** [h n] = 4 sqrt(n log n) — the Hamming radius used with Schechtman's
    theorem in Lemma 2.1 (natural log). *)

val lemma_budget : k:int -> int -> float
(** [lemma_budget ~k n] = k * 4 sqrt(n log n): the adversary budget above
    which Lemma 2.1 guarantees a controllable outcome in a k-outcome
    game. *)

val schechtman_l0 : alpha:float -> int -> float
(** [schechtman_l0 ~alpha n] = 2 sqrt(n log (1/alpha)): the critical radius
    in Schechtman's theorem for a set of measure [alpha].
    Kept for tests: Schechtman's inequality behind Lemma 2.1 (see
    {!schechtman_expansion}). *)

val schechtman_expansion : alpha:float -> l:float -> int -> float
(** Lower bound on Pr(B(A, l)) for Pr(A) = alpha: 1 - exp(-(l - l0)^2 / 4n),
    valid for l >= l0 (clamped to 0 below).
    Kept for tests: the bounds tests check that it reaches 1 - 1/n at radius
    {!h}, the step in Lemma 2.1's proof. *)
