(** Multi-trial experiment driver: runs a protocol under an adversary many
    times with independent randomness and aggregates the paper's complexity
    measure (rounds until all non-faulty processes decide). *)

type summary = {
  trials : int;
  rounds : Stats.Welford.t;
      (** Rounds-to-decide over terminating trials. *)
  rounds_hist : Stats.Histogram.t;
  kills : Stats.Welford.t;  (** Adversary kills actually spent per trial. *)
  decided_zero : int;  (** Trials whose consensus value was 0. *)
  decided_one : int;
  non_terminating : int;
      (** Trials that hit the round cap with undecided non-faulty processes.
          Should be 0 for every protocol here; reported rather than hidden. *)
  safety_errors : string list;
      (** Agreement/validity violations across all trials (should be []),
          in trial order, each trial's errors in {!Checker} order. *)
}

val mean_rounds : summary -> float

val input_gen_random : n:int -> Prng.Rng.t -> int array
(** Independent unbiased input bits — the hardest honest input for
    consensus. *)

val input_gen_const : n:int -> int -> Prng.Rng.t -> int array
(** All processes share the given input (validity-exercising workload). *)

val input_gen_split : n:int -> Prng.Rng.t -> int array
(** Half zeros, half ones, randomly assigned — maximally divided inputs. *)

exception Cancelled
(** Raised by {!value} (and callers like it that have no partial result
    to salvage) when the fold reports [cancelled]. {!fold} itself never
    raises it. *)

type chunk_failed = {
  chunk : int;  (** Chunk whose attempt raised. *)
  trial : int;
      (** Trial index whose run raised. One past the chunk means every
          trial succeeded and the checkpoint store raised; the chunk's
          first index with nothing run means the checkpoint load raised. *)
  attempt : int;
      (** Which pass over the chunk failed (0 = the first attempt). In
          [failures] this is the terminal attempt, i.e. the full retry
          budget; in [retried] it is the attempt that was re-run. *)
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}
(** One failed chunk attempt. Each chunk's failures are written by the
    worker that ran it, so concurrent failures are all captured and each
    keeps the backtrace of its original raise. *)

val pp_chunk_failed : chunk_failed -> string
(** One-line rendering: ["chunk C, trial I: <exn>"], with
    [" (attempt A)"] after the trial for retried attempts. *)

type 'a folded = {
  partial : 'a option;
      (** Merge of every completed chunk, in chunk order; [None] iff no
          chunk completed. *)
  completed_trials : int;  (** Trials folded into [partial]. *)
  total_trials : int;  (** The requested [~trials]. *)
  chunks_done : int;
  chunks_total : int;
  chunks_resumed : int;  (** Chunks satisfied from the checkpoint store. *)
  retried : chunk_failed list;
      (** Failed attempts re-run (and recovered) under the [retries]
          budget, in (chunk, attempt) order. *)
  failures : chunk_failed list;
      (** Terminal failures (budget exhausted), in chunk order. *)
  cancelled : bool;  (** The [cancel] watchdog fired. *)
  engine_used : string;
      (** The fold's [engine] label, for manifests: ["concrete"] or
          ["bitkernel"] ({!engine_name}), or ["async"] / ["byz"] / ["coin"]. *)
}
(** Outcome of a supervised fold: the salvaged partial value plus the
    structured failure record. [failures = [] && not cancelled] implies
    [partial] is the complete value. *)

type report = summary folded

type probe = { sink : Obs.Sink.t; metrics : Obs.Metrics.t }
(** A captured trial's engine-event sink and its chunk's metrics. *)

type guard = {
  cancel : unit -> bool;
      (** {b Watchdog.} Polled by each worker before it claims a chunk,
          never mid-chunk; when it fires, the pool is poisoned as by a
          failed chunk and [cancelled] is set. Must be thread-safe and
          cheap; a raising [cancel] propagates. *)
  checkpoint : Checkpoint.t option;
      (** {b Checkpoints.} Each completed chunk is stored here before it
          may merge (a chunk whose store raises has failed), and a stored
          chunk is loaded instead of recomputed, on every attempt.
          Chunk-ordered merging and exact [Marshal] make a resumed value
          byte-identical to an uninterrupted one. A fold whose every
          chunk completed clears the store; any other {!Checkpoint.close}s
          it, so its records are durable. *)
  retries : int;
      (** {b Retries.} Re-run a failed chunk from a fresh accumulator up
          to this many extra times; each failed attempt but the last lands
          in [retried], and only a chunk that fails [retries + 1] times
          poisons the pool. Below 0 raises [Invalid_argument]. *)
  fault : Fault.plan;
      (** {b Faults.} A non-empty plan arms one {!Fault} injector sized to
          the fold's chunks, tripped before each trial, in checkpoint
          store/load, per captured event and in the final merge
          (terminal); a [store]/[load] arm without a [checkpoint], which
          could never fire, raises [Invalid_argument]. Hit counters
          survive retries, so an armed fault fires once and a plan the
          retry budget absorbs leaves value, events and metrics
          byte-identical. *)
}
(** How a fold is supervised: its watchdog, checkpoint store, retry
    budget and fault plan.

    {b Salvage.} Under any guard, a chunk that fails for good poisons the
    pool: peers finish their in-flight chunks but start no new ones, the
    chunk lands in [failures], and every completed chunk still merges
    into [partial]. *)

val unguarded : guard
(** Never cancelled, no checkpoint, no retries, no faults. *)

val fold :
  ?jobs:int ->
  ?chunk_size:int ->
  ?capture:Obs.Capture.t ->
  ?guard:guard ->
  engine:string ->
  trials:int ->
  create:(unit -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  (index:int -> probe option -> 'acc -> unit) ->
  'acc folded
(** The supervised trial fold of every model — {!run_trials_supervised},
    [Async.Engine.run_trials], [Byz.Engine.run_trials], the coin-game
    control estimates and the experiments' own trial bodies. The last
    argument runs trial [index] into its chunk's accumulator. Trials
    [0 .. trials-1] are cut into chunks of [chunk_size] (default
    {!Parallel.default_chunk_size}); each chunk gets a fresh [create ()]
    accumulator, its trials run in ascending order, and chunk partials
    combine with [merge] in chunk order. The chunks run on up to [jobs]
    workers of the {!Parallel} pool ([jobs] below 1 or absent means
    {!Parallel.default_jobs}). [guard] (default {!unguarded}) supervises
    the fold: see {!guard} for salvage, retries, checkpoints and faults.
    [trials] and [chunk_size] below 1 raise [Invalid_argument], as does a
    bad [guard]; a raising [merge] propagates.

    {b Determinism.} The result is bit-identical to a sequential fold at
    any [jobs], because:
    {ol
    {- the trial body draws all randomness from [index] and fixed
       configuration (e.g. {!Prng.Rng.of_seed_index}) and builds any
       mutable helper afresh, so a trial is the same on any domain and
       any retry;}
    {- chunk boundaries and the merge order depend only on [trials] and
       [chunk_size], never on [jobs], so even non-associative float
       folds (Welford moments) reduce identically.}}
    [create]/[merge] build and combine chunk accumulators, which must be
    plain data ([Marshal] checkpoints them).

    [capture] hands each trial a {!probe}; the per-chunk metrics (and,
    when asked, event recorders) merge in chunk order into the capture,
    byte-identical at any [jobs], with checkpoint traffic as
    {!Obs.Event.Checkpoint} events. Without it trials get [None] and the
    engines' zero-cost disabled sinks. *)

val value : 'a folded -> 'a
(** The all-or-nothing reading: the complete value, the first failure in
    chunk order re-raised with its backtrace, or {!Cancelled}. *)

type engine = [ `Concrete | `Bitkernel ]
(** {!Engine}, the reference, or {!Bitkernel}: byte-identical runs. *)

val resolve_engine : [ engine | `Auto ] -> ('state, 'msg) Protocol.t -> engine
(** The one engine rule: [`Auto] is [`Bitkernel] iff the protocol is
    {!Protocol.bitkernel_capable} (SynRan, FloodSet), else [`Concrete]. *)

val engine_name : engine -> string
(** ["concrete"] or ["bitkernel"]: the [engine_used] label. *)

val run_engine :
  engine ->
  ?observer:('msg -> bool) ->
  ?sink:Obs.Sink.t ->
  ?max_rounds:int ->
  ('state, 'msg) Protocol.t ->
  ('state, 'msg) Adversary.t ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  Engine.outcome
(** One trial: {!Engine.run} or {!Bitkernel.run}. *)

val run_trials_supervised :
  ?max_rounds:int ->
  ?jobs:int ->
  ?chunk_size:int ->
  ?capture:Obs.Capture.t ->
  ?guard:guard ->
  ?engine:[ engine | `Auto ] ->
  trials:int ->
  seed:int ->
  gen_inputs:(Prng.Rng.t -> int array) ->
  t:int ->
  ('state, 'msg) Protocol.t ->
  (unit -> ('state, 'msg) Adversary.t) ->
  report
(** {!fold} over the synchronous engines: trial [i] draws from
    {!Prng.Rng.of_seed_index}[ ~seed ~index:i], runs a fresh
    [make_adversary ()] through {!run_engine} and is judged by {!Checker}
    in its strict mode (a process killed after deciding must agree too);
    [capture] adds [runner.trials], [runner.rounds_to_decide],
    [runner.kills_per_trial] and [runner.non_terminating]. [engine]
    (default [`Auto]) goes through {!resolve_engine} once per fold and
    lands in [engine_used], and via {!Supervise} in the run manifest; an
    explicit [`Bitkernel] needs a {!Protocol.bitkernel_capable} protocol. *)

val run_trials :
  ?max_rounds:int ->
  ?jobs:int ->
  ?chunk_size:int ->
  ?capture:Obs.Capture.t ->
  ?engine:[ engine | `Auto ] ->
  trials:int ->
  seed:int ->
  gen_inputs:(Prng.Rng.t -> int array) ->
  t:int ->
  ('state, 'msg) Protocol.t ->
  (unit -> ('state, 'msg) Adversary.t) ->
  summary
(** Trial [i]'s RNG is derived from [(seed, i)] via
    {!Prng.Rng.of_seed_index}, so it is reproducible regardless of how many
    trials run, in what order, or across how many domains: [~jobs:8]
    produces a bit-identical summary to [~jobs:1]. [jobs] defaults to
    {!Parallel.default_jobs}; [chunk_size] and [engine] behave as in
    {!run_trials_supervised} (and like [jobs], neither changes the
    summary). Failures and cancellation read as in
    {!value}. The last argument builds the adversary; it is
    called once per trial because adversaries may carry mutable per-run
    trackers that must not be shared across concurrent trials (the factory
    itself must be deterministic and thread-safe — building from immutable
    configuration, as every adversary in this repository does, qualifies). *)
