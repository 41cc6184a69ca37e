(** Domain-parallel work pool for independent Monte-Carlo trials.

    Trials fan out across OCaml 5 [Domain]s, yet every result is
    bit-identical to a single-domain run. Two rules make that hold:

    {ol
    {- {b Order-independent seeding.} Each trial derives its own RNG from
       [(seed, trial_index)] via {!Prng.Rng.of_seed_index}; no trial draws
       from a stream another trial advanced, so scheduling cannot change
       any trial's randomness.}
    {- {b Deterministic chunking.} The index space is cut into fixed-size
       chunks and each worker folds whole chunks into its own accumulator;
       chunk partials are merged in chunk order. Chunk boundaries and the
       merge order depend only on [n] and [chunk_size] — never on [jobs] —
       so even non-associative floating-point folds (Welford moments)
       reduce identically under any worker count.}}

    Work items must be independent: the [work] callback may only touch its
    chunk accumulator and per-index state (e.g. a freshly built adversary),
    never shared mutable structures.

    Workers persist across folds. The calling domain is always worker 0;
    the others are helper domains, spawned on first need (never more than
    the largest [jobs - 1] asked for) and parked between folds, so a fold
    costs no [Domain.spawn]/[Domain.join]. A fold that finds every helper
    busy, such as one nested in a chunk body, runs on fewer workers, which
    by the rules above changes nothing but its speed. Helpers record
    backtraces exactly when the domain that started the fold does. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the worker count the [--jobs]
    flags default to. *)

val default_chunk_size : int
(** Indices per chunk (8): small enough to load-balance the uneven trial
    costs of adversarial runs, large enough to amortise accumulator
    allocation. *)

exception Cancelled
(** Raised by callers that run under a watchdog but have no partial result
    to salvage (e.g. {!Runner.value}, the all-or-nothing reading of a
    fold): the supervised fold reported [cancelled] and the computation
    cannot continue. {!fold_chunks_supervised} itself never raises this —
    it reports cancellation in the record. *)

type chunk_failed = {
  chunk : int;  (** Chunk whose work raised. *)
  trial : int;
      (** Global index whose [work] call raised. [chunk * chunk_size +
          chunk_size] (one past the chunk) means every [work] call
          succeeded and the [persist] hook itself raised; the chunk's
          first index with a raising [saved] hook means the consult
          raised before any work ran. *)
  attempt : int;
      (** Which pass over the chunk failed (0 = the first attempt). In
          [failures] this is the terminal attempt, i.e. the full retry
          budget; in [retried] it is the attempt that was re-run. *)
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}
(** A structured record of one failed chunk attempt. Each chunk has its
    own failure slot written by the worker that ran it, so concurrent
    failures are all captured — none is dropped to a first-failure race —
    and each keeps the backtrace of the original raise. *)

val pp_chunk_failed : chunk_failed -> string
(** One-line rendering: ["chunk C, trial I: <exn>"], with
    [" (attempt A)"] after the trial for retried attempts. *)

type 'acc supervised = {
  value : 'acc option;
      (** Chunk-ordered merge of every completed chunk; [None] iff no
          chunk completed. Partial (some chunks missing) iff [failures <>
          [] || cancelled]. *)
  chunks_done : int;  (** Completed chunks, including resumed ones. *)
  chunks_total : int;
  chunks_resumed : int;  (** Chunks satisfied by [saved] instead of run. *)
  retried : chunk_failed list;
      (** Failed attempts that were re-run under the [retries] budget,
          in (chunk, attempt) order. A chunk appearing here and not in
          [failures] recovered and contributed normally to [value]. *)
  failures : chunk_failed list;  (** Terminal failures, in chunk order. *)
  cancelled : bool;  (** The [cancel] hook fired before all chunks ran. *)
}

val fold_chunks_supervised :
  ?jobs:int ->
  ?chunk_size:int ->
  ?cancel:(unit -> bool) ->
  ?retries:int ->
  ?fault:Fault.injector ->
  ?saved:(int -> 'acc option) ->
  ?persist:(int -> 'acc -> unit) ->
  n:int ->
  create:(unit -> 'acc) ->
  work:(int -> 'acc -> unit) ->
  merge:('acc -> 'acc -> 'acc) ->
  unit ->
  'acc supervised
(** [fold_chunks_supervised ~n ~create ~work ~merge ()] folds indices
    [0 .. n-1]: each chunk gets a fresh [create ()] accumulator, [work i
    acc] is called for each index of the chunk in ascending order, and
    chunk partials are combined with [merge] in chunk order. [jobs]
    defaults to {!default_jobs}. Failures are captured instead of raised
    and completed partials are salvaged.

    {ul
    {- A raising [work] call poisons the pool: peers drain their in-flight
       chunks but start no new ones. The failed chunk is recorded in
       [failures]; every completed chunk still contributes to [value].}
    {- [retries] (default 0) re-runs a failed chunk from a fresh
       accumulator up to that many extra attempts before recording it in
       [failures] — safe because work derives all randomness from
       [(seed, index)], so a re-run chunk is byte-identical. Each
       non-terminal failure lands in [retried]; only a chunk that fails
       [retries + 1] times poisons the pool. The [saved] hook is
       re-consulted on every attempt (a failed [persist] may have left a
       durable file behind).}
    {- [fault] is a {!Fault} injector: the fold trips the
       {!Fault.Chunk_body} site before every [work] call (the other
       sites are tripped by {!Checkpoint} and the callers' hooks).
       Injector hit counters are never reset by retries, so an armed
       fault fires exactly once and the retried pass runs clean.}
    {- [cancel] is a cooperative watchdog hook, polled by each worker
       before claiming a chunk (never mid-chunk). When it returns [true]
       the pool is poisoned the same way and [cancelled] is set. It runs
       on worker domains and must be thread-safe and cheap.}
    {- [saved c] lets a checkpoint store satisfy chunk [c] without running
       it: the returned accumulator is used verbatim. Because the merge is
       in chunk order, resuming from saved chunks is bit-identical to
       recomputing them ({!Checkpoint} relies on this).}
    {- [persist c acc] is called with every freshly computed chunk
       accumulator, from the worker domain that ran it (distinct [c] per
       call, concurrently: {!Checkpoint} serialises its appends). An exception
       from [persist] is recorded as that chunk's failure, and the chunk
       then contributes nothing to [value] — only durable chunks merge.}}

    [value] is bit-identical for every [jobs >= 1] whenever the same
    chunks complete; in particular a clean run (no failures, no
    cancellation, any mix of saved and computed chunks) equals the
    sequential fold exactly. *)

val fold_chunks :
  ?jobs:int ->
  ?chunk_size:int ->
  n:int ->
  create:(unit -> 'acc) ->
  work:(int -> 'acc -> unit) ->
  merge:('acc -> 'acc -> 'acc) ->
  unit ->
  'acc
(** The all-or-nothing policy over {!fold_chunks_supervised}: the merged
    value of a clean run, or, if any [work] call raises, the first failure
    in chunk order re-raised with its original backtrace after all workers
    stop.
    Kept for tests: the plain fold the jobs-invariance and
    failure-propagation tests drive. *)

val map :
  ?jobs:int -> ?chunk_size:int -> n:int -> (int -> 'a) -> 'a array
(** [map ~n f] is [[| f 0; ...; f (n-1) |]] computed across domains. [f]
    must be safe to call concurrently at distinct indices.
    Kept for tests: checks every index lands in its own slot whatever the
    chunking. *)
