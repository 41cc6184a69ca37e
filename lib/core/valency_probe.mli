(** Measuring the valency of a live execution (Section 3.2, made
    executable).

    The paper classifies an execution state alpha_k by
    [min r(alpha_k), max r(alpha_k)] — the extreme probabilities of
    deciding 1 over all adversaries in the per-round-bounded class B. For
    small systems we can approximate both ends: sample continuations under
    a palette of adversary policies (null, one-sided killing toward 0,
    toward 1, random crashing) and take the observed extremes of
    Pr[decide 1]. The result feeds {!Valency.classify}, so an attacked
    execution's trajectory through {bivalent, 0/1-valent, null-valent}
    states can be watched round by round — the quantity Lemmas 3.1-3.4
    manipulate. *)

type estimate = {
  min_r : float;  (** Lowest observed Pr[decide 1] across policies. *)
  max_r : float;
  samples_per_policy : int;
  classification : Valency.classification;
      (** Via {!Valency.classify} at the probe's round. *)
}

val probe :
  ?samples:int ->
  ?horizon:int ->
  (Synran.state, Synran.msg) Sim.Engine.exec ->
  rng:Prng.Rng.t ->
  estimate
(** Estimate the valency of the current state of a SynRan execution
    (default 60 samples per policy, horizon 60 rounds). The exec is
    snapshotted; the caller's execution is not disturbed.
    Kept for tests: the probe-fields test checks one estimate's bounds and
    that the caller's exec is left untouched. *)

val trajectory :
  ?samples:int ->
  ?rounds:int ->
  n:int ->
  t:int ->
  seed:int ->
  (Synran.state, Synran.msg) Sim.Adversary.t ->
  (int * estimate) list
(** Run a fresh SynRan execution under the given adversary, probing the
    valency before each of the first [rounds] rounds (default 10); returns
    (round, estimate) pairs. The driving adversary must be stateless or
    self-resetting (all of ours are). *)
