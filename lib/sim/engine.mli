(** The synchronous execution engine.

    Implements the model of Section 3.1: lockstep rounds, each split into
    Phase A (local computation and coin flips) and Phase B (message
    exchange), with the adversary intervening between the two. Fail-stop
    semantics follow the paper exactly: a victim's final broadcast reaches
    only the recipient subset the adversary chose, and the victim is dead
    afterwards.

    Executions are first-class ({!type:exec}): they can be stepped one round
    at a time, snapshotted, reseeded, and resumed — the mechanism behind the
    Monte-Carlo valency estimation of the lower-bound adversary, which runs
    it on {!Bitkernel}'s packed copies and checks them against these. *)

exception Budget_exceeded of string
(** The adversary tried to fail more than its remaining budget. *)

exception Invalid_kill of string
(** The adversary named a dead, halted, duplicated, or out-of-range victim,
    or an out-of-range recipient. *)

exception Decision_changed of string
(** A protocol revoked or altered a decision — a protocol bug. The
    Byzantine and asynchronous engines raise this same exception. *)

val record_decision : int option array -> int -> int option -> bool
(** [record_decision decisions pid after]: the decision discipline of
    every model (this engine, [Byz.Engine], [Async.Engine]), given
    process [pid]'s decision [after] now. A decision may appear once and
    then never change or disappear ({!Decision_changed} otherwise). A
    first decision is written into [decisions] and returns [true]. *)

type ('state, 'msg) exec
(** A (possibly partial) execution. *)

type outcome = Round.outcome = {
  rounds_executed : int;
  rounds_to_decide : int option;
      (** Round by which every non-faulty process had decided — the paper's
          complexity measure. [None] if some non-faulty process never
          decided within the executed rounds. When no process survives, the
          requirement is vacuous and this is [Some rounds_executed]. *)
  decisions : int option array;
  faulty : bool array;
  halted : bool array;
  kills_used : int;
  quiescent : bool;
      (** The run ended because no process was left active (all halted or
          dead), as opposed to hitting the round cap. *)
}

val start :
  ?observer:('msg -> bool) ->
  ?sink:Obs.Sink.t ->
  ('state, 'msg) Protocol.t ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  ('state, 'msg) exec
(** Create a fresh execution. [inputs] are the processes' input bits (its
    length is [n]); [t] is the adversary budget; [rng] is split into one
    private stream per process plus one for the adversary. [observer]
    classifies broadcast messages as "1" for the [Round] events'
    [ones_pending].

    [sink] (default {!Obs.Sink.null}) receives the execution's event
    stream: per round, [Decision] events as processes first decide (in
    ascending pid order), then one [Kill] per victim (in the adversary's
    plan order), then one [Round] summary. Events are pure observations —
    they never affect coins, kills, or outcomes — and with a disabled
    sink each emission site is a single boolean test, so the hot path is
    unchanged. A round-by-round {!Trace} is one more consumer of this
    stream: pass {!Trace.sink}, teed with any other sink
    ({!Obs.Sink.tee}). *)

val step : ('state, 'msg) exec -> ('state, 'msg) Adversary.t -> [ `Continue | `Quiescent ]
(** Execute one full round under the given adversary. [`Quiescent] means no
    process was active (the round did not execute). *)

val run_until :
  ('state, 'msg) exec ->
  ('state, 'msg) Adversary.t ->
  max_rounds:int ->
  unit
(** Step until quiescent or until [max_rounds] total rounds have executed. *)

val outcome : ('state, 'msg) exec -> outcome

val run :
  ?observer:('msg -> bool) ->
  ?sink:Obs.Sink.t ->
  ?max_rounds:int ->
  ('state, 'msg) Protocol.t ->
  ('state, 'msg) Adversary.t ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  outcome
(** [start] + [run_until] + [outcome]. Default [max_rounds] is 10_000. *)

val snapshot : ('state, 'msg) exec -> ('state, 'msg) exec
(** Deep copy: stepping the copy never affects the original. The copy
    replays the same randomness unless {!reseed} is called. The copy's
    sink is dropped (reset to null): continuation sampling must not
    interleave phantom events into the original's stream.

    This is the reference copy: {!Bitkernel.snapshot} keeps the same
    contract on packed state, and the [bitkernel.snapshot] suite and the
    bench smoke gate's continuation leg compare the two. *)

val reseed : ('state, 'msg) exec -> Prng.Rng.t -> unit
(** Replace every private stream with fresh splits of the given source, so
    the execution's future coins are resampled — the core operation for
    estimating decision probabilities by continuation sampling. The
    streams are one {!Prng.Rng.Bank}, overwritten in place: a reseed
    allocates only the adversary's new stream. *)

(** {2 Inspection} — read-only views used by adaptive adversaries and tests. *)

val round : ('state, 'msg) exec -> int
(** Rounds executed so far. *)

val kills_used : ('state, 'msg) exec -> int

val active_mask : ('state, 'msg) exec -> bool array
(** Alive and not halted — the processes an adversary may name as victims
    next round. A copy. *)

val states : ('state, 'msg) exec -> 'state array
(** A copy of the state vector.
    Kept for tests: the hand-computed round cases and the cohort and game
    differentials read per-process state. *)
