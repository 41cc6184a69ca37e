(** Synchronous execution under a Byzantine adversary.

    Per round: Phase A for every active or corrupted process (a corrupted
    one's staged message is the default the adversary may override; a
    halted honest process stages nothing); the adversary reads the
    engine's own [corrupted] and [pending] arrays ({!Adversary.view}),
    corrupts and dictates; delivery builds each recipient's
    (sender, message) array — honest senders always arrive, corrupted
    senders arrive as directed; Phase B runs for honest processes only.
    Corrupted processes' states are frozen and their decisions ignored.

    Decisions of honest processes are irrevocable, by the discipline
    every model shares ({!Sim.Engine.record_decision}). *)

exception Budget_exceeded of string
exception Invalid_corruption of string
exception Decision_changed of string
(** {!Sim.Engine.Decision_changed} itself: one exception for every model. *)

type outcome = {
  rounds_executed : int;
  rounds_to_decide : int option;
      (** Round by which every honest process had decided. *)
  decisions : int option array;
  corrupted : bool array;
  corruptions_used : int;
  quiescent : bool;
}

val run :
  ?max_rounds:int ->
  ?sink:Obs.Sink.t ->
  ('state, 'msg) Protocol.t ->
  ('state, 'msg) Adversary.t ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  outcome
(** [sink] (default {!Obs.Sink.null}) receives the run's observability
    events. Per round the order is: {!Obs.Event.Kill} per corruption in
    plan order ([delivered_to = 0] — corruption freezes the process
    before delivery), {!Obs.Event.Decision} in ascending pid order, then
    one {!Obs.Event.Round} summary ([victims] = that round's corruptions
    sorted ascending; [partial_sends = 0] always; [ones_pending] is
    always [None]: the engine classifies no message). A disabled sink
    costs one boolean load per potential event.
    Kept for tests: the single-run driver behind {!run_trials}; the byz tests
    read one execution's outcome through it. *)

val check : inputs:int array -> outcome -> Sim.Checker.verdict
(** {!Sim.Checker.judge} with the honest processes judged and required to
    decide (validity: unanimous {e honest} inputs force that decision).
    Kept for tests: the per-run verdict {!run_trials} counts, which the byz
    tests and properties apply to single runs. *)

type summary = {
  rounds : Stats.Welford.t;
  mutable non_terminating : int;
  mutable agreement_errors : int;
  mutable validity_errors : int;
}
(** Also the fold's per-chunk accumulator, hence the mutable counters. *)

val run_trials :
  ?max_rounds:int ->
  ?jobs:int ->
  ?capture:Obs.Capture.t ->
  ?guard:Sim.Runner.guard ->
  trials:int ->
  seed:int ->
  gen_inputs:(Prng.Rng.t -> int array) ->
  t:int ->
  ('state, 'msg) Protocol.t ->
  (unit -> ('state, 'msg) Adversary.t) ->
  summary Sim.Runner.folded
(** Aggregate repeated runs through {!Sim.Runner.fold}, counting each
    run's {!check} verdict; [jobs] and [guard] behave as there, and
    {!Sim.Runner.value} reads the summary all-or-nothing. Trial [i]
    draws from {!Prng.Rng.nth_split}[ ~seed ~index:i] and runs a fresh
    [make_adversary ()].

    [capture] attaches the observability layer: engine events feed a
    metrics registry ([byz.trials], [byz.corruptions_used],
    [byz.round_cap_hits], plus the per-event [byz.*] counters from
    {!Obs.Metrics.absorb_event}) and, when the capture asks for events,
    the raw stream in trial-then-round order, identical at any [jobs]. *)
