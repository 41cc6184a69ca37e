(** Probabilistic valency (Section 3.2).

    An execution state is classified by the minimum and maximum probability
    of deciding 1 over all adversaries in the per-round-bounded class B,
    against the round-indexed threshold eps_k = 1/sqrt(n) - k/n. The
    classification drives the lower-bound adversary: from a bivalent or
    null-valent state it can, with high probability, stay in one of those
    classes while failing at most 4 sqrt(n log n) + 1 processes per
    round. *)

type classification = Bivalent | Zero_valent | One_valent | Null_valent

val to_string : classification -> string

val epsilon : n:int -> k:int -> float
(** eps_k = 1/sqrt(n) - k/n — the paper's round-k decision threshold.
    From k = sqrt(n) on it is at most 0 and every state reads null-valent,
    so callers stop classifying there. *)

val classify : n:int -> k:int -> min_r:float -> max_r:float -> classification
(** The table of Section 3.2:
    min < eps and max > 1-eps: bivalent; min < eps only: 0-valent;
    max > 1-eps only: 1-valent; neither: null-valent. *)

val is_univalent : classification -> bool
(** Kept for tests: the probe's end-of-trajectory check. *)

val keeps_running : classification -> bool
(** Bivalent and null-valent states are the ones the adversary can hold on
    to (Lemmas 3.1 and Corollary 3.4).
    Kept for tests: that partition of the Section 3.2 table, pinned by the
    core.valency tests. *)
