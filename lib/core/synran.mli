(** SynRan: the paper's randomized synchronous consensus protocol
    (Section 4).

    Structure per process:
    - {b Probabilistic stage}: broadcast the current choice [b] every round;
      tally 1s ([O]) and 0s ([Z]) against the previous round's message count
      and run the one-side-biased rule ladder ({!Onesided}); a process that
      set the decided flag stops once the population has been stable for
      three rounds (losing at most a tenth of the processes), and otherwise
      clears the flag and continues.
    - {b Switching}: the first round in which fewer than sqrt(n / log n)
      messages arrive triggers one more plain exchange (the paper's
      one-round delay, which Lemma 4.3 needs), with [b] frozen.
    - {b Deterministic stage}: FloodSet over the surviving values for
      ceil(sqrt(n / log n)) rounds, then decide (the unique surviving value,
      or 0 if both survived) and halt.

    Expected rounds Theta(t / sqrt(n log (2 + t / sqrt n))) against any
    fail-stop t-adversary, for every t < n (Theorem 3).

    The local coin for a potential [Flip] is drawn in Phase A of the round
    that {e uses} it, so the full-information adversary observes it before
    choosing kills — exactly the information model of Section 3.1. *)

type state

type coin =
  | Local_flip
      (** The paper's coin: each process in the flip band tosses privately.
          The implied one-round collective game is (roughly) majority-like:
          controlling it costs the adversary Theta(sqrt n) kills per round
          (Section 2). *)
  | Leader_priority
      (** The Chor-Merritt-Shmoys-flavoured comparator (Section 1.2): a
          flip resolves to the bit of the highest-priority process heard
          this round, with fresh random priorities each round. Against an
          {e oblivious} adversary this is a perfect shared coin and the
          protocol finishes in O(1) rounds; against the adaptive adversary
          it is the dictator game of Section 2 — controllable with O(1)
          kills per round ({!Lb_adversary.leader_killer}), so the protocol
          can be stalled for ~t rounds. The pair quantifies why the lower
          bound needs adaptivity. *)
  | Shared_oracle of int
      (** A Rabin-style common coin [Rab83]: every process derives the same
          round-r bit from the given seed, and the modelling assumption is
          that the adversary cannot read it before choosing its kills (our
          adversaries never inspect it). This is the paper's Section 1
          remark made concrete: under "reasonable bounds on the power of
          the adversary" O(1) expected rounds are possible — the oracle
          coin disables the Lemma 2.1 coin-control mechanism entirely
          (experiment E10). *)

type msg = Sim.Protocol.word
(** The sender's registers after Phase A — its current bit [b] at bit 0,
    this round's coin at bit 1, and its value set W at bits 2 (0 ∈ W) and
    3 (1 ∈ W) — and, as [priv], this round's leader priority. *)

val protocol :
  ?rules:Onesided.rules -> ?coin:coin -> int -> (state, msg) Sim.Protocol.t
(** [protocol n] is the protocol for system size [n] (needed up front to fix the
    deterministic-stage threshold). [rules] defaults to {!Onesided.paper};
    pass {!Onesided.no_zero_rule} or {!Onesided.symmetric} for the E8
    ablations. [coin] defaults to {!Local_flip} (the paper's SynRan);
    {!Leader_priority} is the E7 comparator. *)

val bit_of_msg : msg -> int
(** The proposal bit a pending message carries — what the adaptive
    adversaries read. *)

val msg_is_one : msg -> bool
(** Trace observer: counts broadcast 1-proposals. *)

val stage_name : state -> string
(** ["probabilistic"], ["switching"], or ["deterministic"].
    Kept for tests: the hand-computed Section 4 round cases read it. *)

val current_b : state -> int
(** Kept for tests: the hand-computed Section 4 round cases read it. *)

val decided_flag : state -> bool
(** The paper's (resettable) decided flag — distinct from the irrevocable
    decision reported to the engine, which is only set when the process
    stops.
    Kept for tests: the hand-computed Section 4 round cases read it. *)

val switch_threshold : n:int -> float
(** sqrt(n / log n) (natural log), the population size at which the
    deterministic stage takes over; 1.0 for n = 1. *)

val det_stage_rounds : n:int -> int
(** ceil of {!switch_threshold}, and at least 1.
    Kept for tests: the deterministic stage's length, pinned by the
    core.synran tests. *)
