(** The population-compressed engine.

    Represents the population as equivalence classes [(state, members)] and
    runs rounds as multiset transitions: Phase A splits each class by its
    coin draws (via the protocol's {!Protocol.cohort} operations), Phase B
    computes one accumulator per distinct receiver group and commits whole
    groups at once. Per-round cost scales with the number of distinct
    states plus the processes the adversary individuates by killing or
    partial delivery — for SynRan a handful of classes plus the
    O(sqrt(n log n)) adversary-touched processes — instead of O(n) array
    scans. Delivery is class-level; start-up, kill validation, the
    decision discipline, events and the outcome are the round rules all
    three engines share (DESIGN §5).

    {b Byte-identity:} every observable — outcomes, decision rounds,
    traces, the event stream, and RNG consumption (per-process streams and
    the adversary stream) — is identical to running the same protocol,
    adversary, inputs and rng through {!Engine}. The [cohort.differential]
    test suite and the bench smoke gate enforce this.

    Protocols without cohort operations ({!Protocol.cohort_capable} false)
    are refused by {!start} — callers fall back to {!Engine}. *)

type ('state, 'msg) exec

type ('state, 'msg) cohort_class = {
  cc_state : 'state;  (** Post-Phase-A state, uniform across members. *)
  cc_size : int;
  cc_members : int array;  (** Ascending pids. Treat as read-only. *)
  cc_msg : int -> 'msg;
      (** The broadcast of the k-th member (index into [cc_members]). *)
}

type ('state, 'msg) cview = {
  cv_round : int;
  cv_n : int;
  cv_budget_left : int;
  cv_classes : ('state, 'msg) cohort_class list;
      (** This round's post-Phase-A classes, sorted by least member. *)
  cv_active : int -> bool;
}
(** What a cohort-aware adversary observes: the class decomposition instead
    of per-process arrays. Like {!Adversary.view} it is full-information —
    coins are drawn before kills are chosen. *)

type ('state, 'msg) adversary =
  | Concrete of ('state, 'msg) Adversary.t
      (** Compatibility wrapper: the adversary sees a per-process
          {!Adversary.view} reconstructed from the classes. Exact, but each
          accessor costs a class lookup — use for differentials and small
          n, not for large-n runs. *)
  | Aware of {
      aname : string;
      aplan : ('state, 'msg) cview -> Prng.Rng.t -> Adversary.kill list;
    }  (** A cohort-native adversary planning from the class view. *)

val start :
  ?observer:('msg -> bool) ->
  ?sink:Obs.Sink.t ->
  ('state, 'msg) Protocol.t ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  ('state, 'msg) exec
(** Same contract as {!Engine.start}, including RNG split order and event
    order. Raises [Invalid_argument] if the protocol declares no cohort
    operations. *)

val step :
  ('state, 'msg) exec ->
  ('state, 'msg) adversary ->
  [ `Continue | `Quiescent ]
(** One full round; same kill validation, exceptions, and event emission
    (Decisions ascending by pid, Kills in plan order, one Round summary)
    as {!Engine.step}. *)

val outcome : ('state, 'msg) exec -> Engine.outcome
(** The same outcome record {!Engine.outcome} computes, field for field. *)

val run :
  ?observer:('msg -> bool) ->
  ?sink:Obs.Sink.t ->
  ?max_rounds:int ->
  ('state, 'msg) Protocol.t ->
  ('state, 'msg) adversary ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  Engine.outcome
(** [start], then {!step} until quiescent or [max_rounds], then
    {!outcome}. Default [max_rounds] is 10_000. *)

(** {2 Inspection} *)

val round : ('state, 'msg) exec -> int

val active_count : ('state, 'msg) exec -> int
(** Alive and not halted — maintained incrementally, O(1).
    Kept for tests: the lockstep decomposition test checks it against the
    concrete engine. *)

val classes : ('state, 'msg) exec -> ('state * int array) list
(** The current decomposition: disjoint classes sorted by least member,
    members ascending, covering exactly the active processes. Member
    arrays are copies.
    Kept for tests: the lockstep decomposition test checks it against the
    concrete engine. *)
