(** A capture: the caller-facing handle threaded into a trial loop to get
    its merged metrics and (optionally) its full event stream back.

    The loop fills the capture exactly once, after its chunk-ordered
    merge, so the contents inherit the runner's determinism contract.
    [events:false] (the default) tells the loop not to record the stream
    at all — metrics still accumulate, the recorder stays empty. *)

type t

val create : ?events:bool -> unit -> t
(** [events] (default [false]): also record the full event stream. *)

val record_events : t -> bool

val set : t -> metrics:Metrics.t -> events:Event.t list -> unit
(** Called by the loop that owns the capture; last call wins. *)

val metrics : t -> Metrics.t
(** Empty registry until {!set}. *)

val events : t -> Event.t list

val metrics_json : t -> string
(** The metrics in {!Json.to_file} form: what [--metrics-out] writes. *)

val events_jsonl : t -> string
(** The events as {!Event.to_jsonl}: what [--events-out] writes. *)

val digest : t -> string
(** One fingerprint over both the metrics JSON and the event JSONL.
    Kept for tests: the jobs-invariance tests compare whole captures through
    this one fingerprint. *)
