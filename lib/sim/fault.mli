(** Deterministic fault injection for the supervised runner stack.

    The paper's lower bound is an adversary argument: a full-information
    adversary schedules crashes against the protocol. This module turns
    the same idea on the harness itself — a seeded fault adversary
    schedules harness failures (raises, torn checkpoint writes, bit-flip
    corruption, spurious [Sys_error]s) against the runner, the checkpoint
    store, the event sinks, and the manifest writer, so the recovery
    machinery (chunk retries, checkpoint record digests) can be tested
    under attack and every chaos run replayed exactly.

    {b Determinism.} A fault {e plan} is an immutable list of {!arm}s,
    each naming a {!site}, a deterministic scope (chunk index or
    {!run_scope}), the nth hit of that [(site, scope)] pair at which to
    fire, and a fault {!kind}. An {!injector} counts hits per
    [(site, scope)] in per-chunk slots written only by the worker that
    owns the chunk, so fault placement is a pure function of the plan —
    never of [--jobs], scheduling, or wall-clock. Plans print to and
    parse from a stable one-line grammar ([--fault-plan]) and can be
    drawn deterministically from {!Prng} ([--fault-seed]), so every
    chaos run is replayable from [(fault_seed, plan)].

    {b Hit counters survive retries.} Counters are {e not} reset when a
    chunk is retried: a fault armed at hit [h] fires exactly once, so a
    retried chunk re-runs clean and (by [(seed, trial_index)] seeding)
    byte-identical. An arm with [hit = every_hit] fires on every pass —
    the way to exhaust a retry budget on purpose.

    {b Which sites fire.} {!Runner.fold} fires [body] and [merge], [sink]
    only under a capture and [store]/[load] only with a checkpoint store
    (it rejects a [store]/[load] arm without one);
    {!Core.Supervise.write_manifest} fires [manifest]. So
    [consensus_cli run] reaches [body], [merge] and, with [--metrics-out]
    or [--events-out], [sink], and rejects any other arm; a [merge] fault
    ends its fold, and [run] reports it and exits 1. *)

type site =
  | Chunk_body  (** Before each [work] call inside a chunk attempt. *)
  | Checkpoint_store  (** {!Checkpoint.store}, scoped by chunk. *)
  | Checkpoint_load  (** {!Checkpoint.load}, scoped by chunk. *)
  | Metrics_merge
      (** The chunk-ordered accumulator merge (run-scoped: it happens
          once, sequentially, after the workers join). *)
  | Event_sink  (** Each event absorbed by a chunk's observability slice. *)
  | Manifest_write  (** {!Core.Supervise.write_manifest} entry. *)

type kind =
  | Crash  (** Raise {!Injected} at the site. *)
  | Sys_err  (** Raise a spurious [Sys_error] at the site. *)
  | Torn_write
      (** Checkpoint sites: [store] appends a record with half its
          payload, then raises [Sys_error] (a crash mid-write that left a
          torn record behind); [load] finds its record corrupt and returns
          [None]. Elsewhere behaves like {!Crash}. *)
  | Bit_flip
      (** Checkpoint sites: as {!Torn_write}, with one payload bit flipped
          instead (latent media corruption at [load]). Elsewhere behaves
          like {!Crash}. *)

type arm = { site : site; scope : int; hit : int; kind : kind }
(** Fire [kind] at the [hit]-th trigger of [(site, scope)]. [scope] is a
    chunk index for chunk-scoped sites and {!run_scope} for
    [Metrics_merge] / [Manifest_write]; [hit] counts from 0 and may be
    {!every_hit}. *)

type plan = arm list
(** Immutable; shared freely across worker domains. *)

val run_scope : int
(** The scope of the run-level sites ([-1]); written [run] in the plan
    grammar. *)

val every_hit : int
(** Matches every hit ([-1]); written [*] in the plan grammar. An
    [every_hit] arm on a retryable site makes every attempt fail —
    the deliberate budget-exhaustion plan.
    Kept for tests: part of the {!arm} contract; the plan round-trip property
    generates it. *)

exception Injected of { site : site; scope : int; kind : kind }
(** The {!Crash} fault (and the corruption kinds at sites that cannot
    corrupt anything). Registers a [Printexc] printer, so failure
    records render as ["injected fault: ..."]. *)

val site_label : site -> string
(** Grammar token: [body], [store], [load], [merge], [sink],
    [manifest]. *)

val describe : site -> scope:int -> kind -> string
(** ["injected fault: site@scope:kind"], e.g.
    ["injected fault: store@2:torn"]: how every injected fault reads,
    whether raised as {!Injected} or as a [Sys_error]. *)

val plan_to_string : plan -> string
(** Comma-joined arms, each [site@scope#hit:kind], e.g.
    ["body@1#2:raise"], ["store@2#0:torn"], ["manifest@run#0:sys_error"],
    ["body@0#*:raise"]; [""] for the empty plan. *)

val plan_of_string : string -> (plan, string) result
(** Inverse of {!plan_to_string} (whitespace around arms tolerated).
    [Error] carries a human-readable reason naming the offending arm. *)

val random_plan : seed:int -> n:int -> chunk_size:int -> plan
(** A {e survivable} plan drawn deterministically from {!Prng}: 3–5
    distinct chunks of the [n]-trial, [chunk_size]-chunked fold each
    receive exactly one raising or corrupting arm whose hit index is
    reachable on the first pass. Any retry budget [>= 1] absorbs it, and
    the recovered run is byte-identical to the fault-free one. Equal
    seeds give equal plans. *)

type injector
(** A plan plus its per-[(site, scope)] hit counters. Create one per
    fold. Chunk-scoped slots are each touched by the single worker that
    owns the chunk, and run-scoped slots only by the merging domain, so
    the injector is safe to share across the pool without locks. *)

val injector : ?nchunks:int -> plan -> injector
(** [nchunks] bounds the chunk-scoped slots (default [0]: only
    run-scoped sites can fire — e.g. a manifest-only injector).
    Triggers with out-of-range scopes never fire. *)

val fire : injector option -> site -> scope:int -> kind option
(** Count one hit of [(site, scope)] and return the armed fault, if any.
    [None] injector is a no-op returning [None]. Sites that can act on a
    corruption kind ({!Checkpoint}) call this and apply the kind
    themselves. *)

val trip : injector option -> site -> scope:int -> unit
(** {!fire}, then raise the armed fault: [Sys_error] for {!Sys_err},
    {!Injected} for everything else. The trigger for sites with nothing
    to corrupt. *)
