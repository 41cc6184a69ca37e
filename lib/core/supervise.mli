(** Experiment-level supervision.

    The experiment pipeline (E1–E12) is minutes of Monte-Carlo work; this
    module bounds the blast radius of any one failure. It threads three
    mechanisms through the run-context helpers of {!Experiments}:

    {ul
    {- {b Watchdogs} — a per-experiment wall-clock deadline that cancels
       cooperatively: every {!fold} polls it at chunk boundaries (the
       poisoning of {!Sim.Runner.fold}). A fired
       watchdog surfaces as [Timed_out] with the partial table built so
       far.}
    {- {b Checkpoint/resume} — {!fold} opens a {!Sim.Checkpoint}
       store per fold; completed chunk accumulators are persisted as they
       finish and, under [resume], satisfied from disk instead of
       recomputed. Resumed summaries are byte-identical to uninterrupted
       ones (chunk-ordered merge + exact [Marshal] round-trip).}
    {- {b Structured failure capture} — a raising trial is recorded as a
       {!Sim.Runner.chunk_failed} (chunk, trial, exn, backtrace) and the
       experiment finishes as [Failed] with every other experiment
       unaffected; {!write_manifest} lands the whole run's outcome in
       [results/run_manifest.json] and {!any_failed} drives the process
       exit code.}}

    A [ctx] holds the run's configuration, fixed at {!create}, the
    run-level event stream, and the current experiment's state, which
    {!run_experiment} replaces whole. A [ctx] that never runs an
    experiment, like [create ()], supervises nothing: no watchdog, no
    store, no retries, no faults. *)

type ctx

type status =
  | Completed
  | Failed of { message : string; backtrace : string }
  | Timed_out

type result = {
  id : string;
  table : Stats.Table.t option;
      (** The completed table, or the registered partial table for a
          failed / timed-out experiment (rows added before the stop;
          the in-flight row is dropped, never half-reported). *)
  status : status;
  elapsed_s : float;  (** Wall-clock, for the manifest only. *)
  chunks_done : int;  (** Across every fold of the experiment. *)
  chunks_resumed : int;  (** Chunks satisfied from checkpoint files. *)
  chunk_retries : int;
      (** Failed chunk attempts re-run (and recovered) under the retry
          budget. Manifest-only, like [elapsed_s]: deliberately excluded
          from [metrics], so a survivable chaos run's registry stays
          byte-identical to the fault-free run's. *)
  completed_trials : int;
      (** Trials folded in by every {!Sim.Runner.fold} the experiment
          committed, whatever its model. *)
  total_trials : int;
  engines : string list;
      (** The committed folds' [engine_used] labels, deduplicated in
          first-use order: where [`Auto]'s resolution is audited. Empty for an
          experiment with no trial fold (E2's closed forms).
          Manifest-only, like [elapsed_s]: engine choice never affects
          results, so it stays out of [metrics]. *)
  metrics : Obs.Metrics.t;
      (** Per-experiment supervision registry ([supervise.chunks_done],
          [supervise.completed_trials], ...; [supervise.failures] /
          [supervise.watchdog_fires] on a bad exit), the [--metrics-out]
          payload of the experiment pipeline ({!merged_metrics}). Built
          only from the deterministic progress counters — never
          wall-clock — so it is [--jobs]-independent. *)
}

val create :
  ?deadline_s:float ->
  ?checkpoints:string ->
  ?resume:bool ->
  ?retries:int ->
  ?fault:Sim.Fault.plan ->
  unit ->
  ctx
(** [deadline_s] arms the per-experiment watchdog (off by default; a
    negative one fires on the first poll);
    [checkpoints] is the checkpoint root directory (e.g.
    ["results/checkpoints"]; absent = checkpointing off); [resume]
    (default [false]) consumes existing chunk records instead of clearing
    them; [retries] is the per-chunk retry budget of every {!fold}
    (default 0); [fault] is a deterministic {!Sim.Fault} plan replayed
    against every {!fold} (default none; each fold builds its own
    injector, so hit counters are per fold). Raises [Invalid_argument] on
    a non-finite [deadline_s] or a negative [retries]. *)

val run_experiment : ctx -> id:string -> (unit -> Stats.Table.t) -> result
(** Run one experiment under supervision: starts a fresh per-experiment
    state (its watchdog armed, every counter, engine, store and failure
    record empty) and converts an escaping exception or a fired watchdog
    into a [Failed] / [Timed_out] result carrying the registered partial
    table. Never raises. *)

val events : ctx -> Obs.Event.t list
(** The run-level supervision event stream, in emission order: one
    {!Obs.Event.Watchdog} per fired deadline, one
    {!Obs.Event.Chunk_retry} per failed chunk attempt that was re-run
    under the retry budget (carrying the attempt number — the chunk
    itself recovered), and one {!Obs.Event.Chunk_failed} per chunk whose
    budget was exhausted (the terminal failure, with its total attempt
    count) — what [--events-out] appends after the per-experiment
    streams. *)

val merged_metrics : result list -> Obs.Metrics.t
(** One run-level registry: each experiment's {!result.metrics} prefixed
    with ["<id>."] and merged in list order — the [--metrics-out] payload
    for the experiment pipeline. *)

val register : ctx -> Stats.Table.t -> Stats.Table.t
(** Identity on the table; records it so a failed or timed-out experiment
    can still report the rows added so far. Call on the freshly created
    table of every supervised experiment. *)

val commit : ctx -> 'a Sim.Runner.folded -> 'a
(** Fold a supervised fold's outcome into the experiment: accumulate chunk
    and trial counts, record its [engine_used] for the manifest and its
    retried and failed chunks for {!events}, then read it with
    {!Sim.Runner.value} — the complete value, the first chunk failure
    re-raised (recorded for the manifest, original backtrace preserved),
    or {!Sim.Runner.Cancelled} on a fired watchdog. *)

val fold :
  ctx ->
  key:string ->
  seed:int ->
  trials:int ->
  (Sim.Runner.guard -> 'a Sim.Runner.folded) ->
  'a
(** Run one {!Sim.Runner.fold} instance under the supervisor and
    {!commit} it: [run] receives a {!Sim.Runner.guard} carrying the
    watchdog, the retry budget, the fault plan and the fold's checkpoint
    store, keyed by [(key, seed, default chunk size, trials)]. [key] must
    name the fold and every parameter that shapes its trials (protocol,
    adversary or scheduler, population, t, round or step cap, inputs):
    two folds with equal keys must be the same computation. Without
    [resume], a stale store is cleared first. *)

val stores : ctx -> string list
(** The checkpoint store directories the current experiment's folds
    opened, in order.
    Kept for tests: pins that distinct folds never share a store. *)

val failed : result -> bool
(** [Failed] or [Timed_out]. *)

val any_failed : result list -> bool
(** Whether the process should exit non-zero. *)

val status_line : result -> string
(** One-line human rendering, e.g.
    ["e3: TIMED OUT after 30.0 s — partial table above (12 chunks, 96/200
    trials completed)"]. *)

val table_digest : result -> string option
(** Hex MD5 of the {!Stats.Table.render} of the experiment's table (the
    partial one for a failed or timed-out experiment), [None] when there
    is no table: the value the [core.experiments] pins compute, and the
    manifest's [table_digest]. *)

val write_manifest :
  ?fault:Sim.Fault.injector ->
  path:string ->
  profile:string ->
  seed:int ->
  jobs:int ->
  resume:bool ->
  deadline_s:float option ->
  result list ->
  unit
(** Write the machine-readable run manifest (schema [run_manifest/v2],
    {!Obs.Json.to_file} layout): run parameters, one record per
    experiment — id, status ([completed|failed|timed_out]), elapsed
    seconds, chunk/trial/retry progress, the engines the trials executed
    on ([engines], the [`Auto]-resolution audit trail), the
    [table_digest] of its table ({!table_digest}), failure message — and
    the failed-experiment count. [fault] trips the
    {!Sim.Fault.Manifest_write} site on entry (run-scoped, not retried:
    an armed fault here fails the manifest write itself). *)
