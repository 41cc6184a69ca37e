(** Execution traces: one record per executed round, for debugging,
    property tests, and the examples' narrative output.

    The trace is a caller-side sink on the engine's event stream: the
    engine emits {!Obs.Event.Round} events through the sink it is given,
    and {!sink} decodes them back into {!type:round_record}s. *)

type round_record = {
  round : int;
  active_before : int;  (** Processes that broadcast this round. *)
  killed : int array;  (** Victims failed this round, ascending. *)
  partial_sends : int;  (** Kills that still delivered to someone. *)
  messages_delivered : int;  (** Total (sender, receiver) deliveries. *)
  newly_decided : int;
  newly_halted : int;
  ones_pending : int option;
      (** Broadcast messages classified as "1" by the protocol's observer
          (see {!val:Engine.start}); [None] when no observer was
          supplied. *)
}

type t

val create : unit -> t

val sink : t -> Obs.Sink.t
(** An always-enabled sink that decodes synchronous-engine
    {!Obs.Event.Round} events into {!record} calls and ignores every
    other event. A caller records a trace by passing it as an engine's
    [sink], teed with {!Obs.Sink.tee} when it also observes. *)

val records : t -> round_record list
(** In execution order. *)

val render : t -> string
(** Compact one-line-per-round rendering; [ones_pending = None] prints
    as ["-"]. *)

val to_csv : t -> string
(** CSV with a header row, then one row per round. Column order (fixed,
    part of the schema):
    [round,active,kills,partial_sends,delivered,newly_decided,newly_halted,ones_pending]
    where [active] is {!round_record.active_before}, [kills] is the
    victim count, [delivered] is {!round_record.messages_delivered}, and
    the [ones_pending] cell is empty when no observer was supplied.
    Kept for tests: the flat per-round dump whose row the trace-csv test
    pins against the engine's message count. *)
