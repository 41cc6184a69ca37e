(** Generic (protocol-agnostic) fail-stop adversaries.

    These never inspect message contents, so they work against any
    protocol; {!valency_steer} alone reads one register of a register
    protocol's messages.
    The oblivious ones ([static_*]) model the {e non-adaptive} adversary of
    Chor-Merritt-Shmoys discussed in Section 1.2 — the contrast class for
    which the paper's lower bound provably does {e not} hold (experiment
    E7). *)

val random_crash : p:float -> ('s, 'm) Sim.Adversary.t
(** Each round, each active process is killed independently with
    probability [p] (silent kill), while budget remains. *)

val random_partial : p:float -> ('s, 'm) Sim.Adversary.t
(** Like {!random_crash} but each victim's final message is delivered to an
    independent random subset of processes — exercises partial-send
    semantics. *)

val static_schedule : (int * int) list -> ('s, 'm) Sim.Adversary.t
(** [static_schedule [(round, pid); ...]] kills [pid] in [round] if it is
    still active — a fully oblivious adversary fixed before execution.
    Kept for tests: the oblivious schedule {!static_random} draws; the
    baselines tests pin its kill timing. *)

val static_random :
  seed:int -> n:int -> budget:int -> horizon:int -> ('s, 'm) Sim.Adversary.t
(** A random oblivious schedule: [budget] distinct processes, each with a
    kill round uniform in [1, horizon], drawn once from [seed]. *)

val crash_all_at : round:int -> ('s, 'm) Sim.Adversary.t
(** Spends the whole remaining budget in one round (lowest pids first) —
    the "massacre" stress test. *)

val drip : per_round:int -> ('s, 'm) Sim.Adversary.t
(** Kills exactly [per_round] active processes (lowest pids) every round
    until the budget runs out — the naive budget-spreading strategy the
    lower bound's adversary improves upon. Its victims are the first
    senders of [view.iter_senders], a walk that stops after them, so a
    round costs O(per_round) words on top of the walk: O(per_round +
    n/63) on Bitkernel's packed rounds. *)

val valency_steer :
  per_round:int ->
  msg_is_one:(Sim.Protocol.word -> bool) ->
  unit ->
  ('state, Sim.Protocol.word) Sim.Adversary.t
(** A bivalence-steering adversary against a register protocol, whose
    vote is the register [msg_is_one] reads ({!Sim.Protocol.register_of};
    any other predicate raises [Invalid_argument]): whenever the
    fraction of staged one-messages ([view.count]) leaves the central
    band [0.35, 0.65], it kills up to [per_round]
    majority-bit senders, the first ones of [view.iter_senders], each
    with a random partial delivery (recipients drawn from the adversary
    stream). Its kills are adaptive and individuating — the adversary
    every batched engine must handle through its scalar fallback — while
    still letting long executions stay balanced enough to keep
    running. *)
