(** The metrics registry: named counters, int histograms, and float
    summaries.

    Determinism contract — the same one the trial runner makes for its
    summaries: a registry is {e per-domain} state (one per chunk
    accumulator, one per sequential loop, never shared across domains),
    and registries are combined with {!merge} in chunk order. Because
    every combining operation (counter addition, histogram addition,
    Welford's exact merge) is performed in that fixed order, every metric
    value — and hence {!to_json} and {!digest} — is byte-identical at any
    [--jobs]. Nothing here reads a clock: wall-time is banned from
    registries by construction (detlint R2 flags any raw clock read).

    A name has one kind forever; observing it at a different kind raises
    [Invalid_argument]. *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
(** Bump a counter (created at 0). [by] defaults to 1 and may be any
    non-negative amount. *)

val observe_int : t -> string -> int -> unit
(** Add one sample to an int histogram (backed by {!Stats.Histogram}). *)

val absorb_event : t -> Event.t -> unit
(** The standard event-to-metrics fold: every event bumps a small fixed
    family of metrics (["sim.rounds"], ["lb.band_action.trim"], ...).
    Deterministic given the event sequence. Retries and terminal
    failures are distinct metrics: {!Event.Chunk_retry} bumps
    ["runner.chunk_retries"] (the attempt was re-run and recovered),
    {!Event.Chunk_failed} bumps ["runner.chunk_failures"] (the retry
    budget is exhausted and the chunk is lost). *)

val is_empty : t -> bool

val counter_value : t -> string -> int
(** 0 when absent; [Invalid_argument] on a non-counter. *)

val merge : t -> t -> t
(** A fresh registry combining both (inputs unchanged): counters add,
    histograms and float summaries merge exactly. [Invalid_argument] on a
    kind clash. *)

val prefixed : string -> t -> t
(** A fresh deep copy with every name prefixed (e.g. ["e3." ^ name]) —
    how per-experiment registries are folded into one run-level export. *)

val to_json : t -> Json.t
(** Schema [metrics/v1]: [{"metrics": {name: metric, ...}, "schema":
    "metrics/v1"}], every float printed exactly. Counters:
    [{"count":c,"kind":"counter"}];
    int histograms: [{"bins":[[v,c],...],"count":n,"kind":"int_histogram"}]
    with bins ascending by value; float summaries:
    [{"count":n,"kind":"float_stats","max":_,"mean":_,"min":_,"total":_}]. *)

val digest : t -> string
(** Hex digest of {!to_json}'s file form ({!Json.to_file}), compared
    across [--jobs] values and engines in tests. *)
