(** The asynchronous execution engine.

    A configuration is (process states, in-flight message multiset,
    crash/decision bookkeeping). Each step, the {!Scheduler} either
    delivers one in-flight message (the receiver's handler runs and may
    send more messages) or crashes a process within the budget. The run
    ends when every live process has decided and no further progress is
    needed, when nothing is in flight, or at the step cap.

    As in the synchronous engine, decisions are irrevocable and validated
    ({!Sim.Engine.record_decision}); messages to or from crashed processes
    evaporate. *)

exception Decision_changed of string
(** {!Sim.Engine.Decision_changed} itself: one exception for every model. *)

exception Invalid_action of string

type outcome = {
  decisions : int option array;
  crashed : bool array;
  deliveries : int;  (** Messages delivered (the async time measure). *)
  sends : int;  (** Messages sent (message complexity). *)
  coin_flips : int;  (** Total local coins consumed (Aspnes's measure). *)
  all_decided : bool;  (** Every live process decided before the cap. *)
  steps : int;
  max_phase : int option;
      (** Highest protocol phase reached, when the protocol reports one
          via the [phase_of] observer. *)
}

val run :
  ?max_steps:int ->
  ?phase_of:('state -> int) ->
  ?sink:Obs.Sink.t ->
  ('state, 'msg) Protocol.t ->
  'msg Scheduler.t ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  outcome
(** Execute to quiescence or [max_steps] (default 200_000). [t] is the
    scheduler's crash budget.

    [sink] (default {!Obs.Sink.null}) receives the run's observability
    events. Async executions have no rounds, so each event's [round]
    field carries the scheduler step index instead. Per step the order
    is: {!Obs.Event.Kill} (crash steps, [delivered_to = 0] — crashes
    never piggyback on deliveries here) or {!Obs.Event.Decision} (the
    delivery step on which the receiver first decided). A disabled sink
    costs one boolean load per potential event.
    Kept for tests: the single-run driver behind {!run_trials}; the async
    tests read one execution's outcome through it. *)

type summary = {
  deliveries : Stats.Welford.t;
  phases : Stats.Welford.t;
  flips : Stats.Welford.t;
  mutable non_terminating : int;
  mutable disagreements : int;  (** Trials whose deciders disagree. *)
  mutable validity_errors : int;
      (** Unanimous-input trials with a decision other than the input. *)
}
(** Also the fold's per-chunk accumulator, hence the mutable counters. *)

val run_trials :
  ?max_steps:int ->
  ?phase_of:('state -> int) ->
  ?jobs:int ->
  ?capture:Obs.Capture.t ->
  ?guard:Sim.Runner.guard ->
  trials:int ->
  seed:int ->
  gen_inputs:(Prng.Rng.t -> int array) ->
  t:int ->
  ('state, 'msg) Protocol.t ->
  (unit -> 'msg Scheduler.t) ->
  summary Sim.Runner.folded
(** Aggregate repeated runs through {!Sim.Runner.fold}, checking agreement
    and validity on each ({!Sim.Checker.judge}, every process judged, so
    a crashed process's decision counts) and counting the trials that
    fail either; [jobs] and [guard] behave as there, and
    {!Sim.Runner.value} reads the summary all-or-nothing. Trial [i]
    draws from {!Prng.Rng.nth_split}[ ~seed ~index:i] and runs a fresh
    [make_scheduler ()] (schedulers such as the splitter keep per-run
    state).

    [capture] attaches the observability layer: engine events feed a
    metrics registry ([async.trials], [async.deliveries], [async.sends],
    [async.coin_flips], [async.non_terminating], plus the per-event
    [async.*] counters from {!Obs.Metrics.absorb_event}) and, when the
    capture asks for events, the raw stream in trial-then-step order,
    identical at any [jobs]. *)
