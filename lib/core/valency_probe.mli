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
    manipulate.

    Executions and continuations run on {!Sim.Bitkernel}'s snapshots.
    Continuations under silent-kill policies stay packed; band control's
    partial deliveries take the kernel's scalar fallback. Either way the
    estimates are the ones {!Sim.Engine} snapshots would give. *)

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
  (Synran.state, Synran.msg) Sim.Bitkernel.exec ->
  rng:Prng.Rng.t ->
  estimate
(** Estimate the valency of the current state of a SynRan execution
    (default 60 samples per policy, horizon 60 rounds). The exec is
    snapshotted; the caller's execution is not disturbed.
    Kept for tests: the probe-fields test checks one estimate's bounds and
    that the caller's exec is left untouched. *)

val policies :
  rules:Onesided.rules ->
  (unit -> (Synran.state, Synran.msg) Sim.Adversary.t) list
(** The palette {!probe} samples, one maker per policy: null, random
    crashing, band control, killing up to three senders of 1 or of 0 a
    round, and starving 0 or 1. A maker returns a fresh adversary
    whenever the policy keeps state (band control's tracker). *)

val decide_probability :
  ('state, 'msg) Sim.Bitkernel.exec ->
  (unit -> ('state, 'msg) Sim.Adversary.t) ->
  samples:int ->
  horizon:int ->
  rng:Prng.Rng.t ->
  float
(** [decide_probability exec make ~samples ~horizon ~rng]: the fraction
    of [samples] sampled continuations that decide 1, among those that
    decide within [horizon] rounds (0.5 if none does). Each sample is a
    snapshot of [exec], reseeded from [rng], run under a fresh adversary
    from [make], so no sample sees another's adversary state. {!probe} calls it once
    per palette policy. *)

val trajectory :
  ?samples:int ->
  ?rounds:int ->
  n:int ->
  t:int ->
  seed:int ->
  (Synran.state, Synran.msg) Sim.Adversary.t ->
  (int * estimate) list
(** Run a fresh SynRan execution under the given adversary, probing the
    valency before each of the first [rounds] rounds (default 10) whose
    {!Valency.epsilon} is positive; returns (round, estimate) pairs. The
    driving adversary steps this one execution from round 1, so a stateful
    one (band control) is fine; the probes' continuations never see it,
    each running a fresh palette adversary. *)
