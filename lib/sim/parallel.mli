(** The domain pool that {!Runner.fold} runs its chunks on.

    Workers persist across calls. The calling domain is always worker 0;
    the others are helper domains, spawned on first need (never more than
    the largest [jobs - 1] asked for) and parked between calls, so a call
    costs no [Domain.spawn]/[Domain.join]. A call that finds every helper
    busy, such as one nested in a task, runs on fewer workers. Helpers
    record backtraces exactly when the domain that made the call does.
    The determinism rules that make a parallel fold byte-identical to a
    sequential one are {!Runner.fold}'s. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the worker count the [--jobs]
    flags default to. *)

val default_chunk_size : int
(** Trials per chunk of {!Runner.fold} (8): small enough to load-balance
    the uneven trial costs of adversarial runs, large enough to amortise
    accumulator allocation. *)

val run_workers :
  jobs:int -> tasks:int -> cancel:(unit -> bool) -> (int -> bool) -> bool
(** [run_workers ~jobs ~tasks ~cancel run] calls [run k] once for each
    claimed task index [k] in [0 .. tasks-1], on up to [jobs] workers
    claiming from one shared counter in ascending order. [run k]
    returning [false] poisons the pool: workers finish the tasks they
    hold but claim no new one. [cancel] is polled by each worker before
    every claim (never mid-task); when it returns [true] the pool is
    poisoned the same way and the call returns [true]. It runs on worker
    domains and must be thread-safe and cheap. An exception from [run] or
    [cancel] poisons the pool and is re-raised, with its backtrace, once
    every worker has stopped. Everything a task wrote is visible to the
    caller when the call returns. *)
