(** Event sinks: where engines hand their {!Event.t}s.

    The zero-cost-when-disabled contract: emitting code must guard event
    {e construction} with {!enabled}, i.e.

    {[
      if Obs.Sink.enabled sink then
        Obs.Sink.emit sink (Obs.Event.Round { ... })
    ]}

    so the disabled sink costs one comparison per potential emission and
    allocates nothing. {!received} counts every event a sink accepted —
    the unit tests pin the disabled case to exactly zero. *)

type t

val null : t
(** The one disabled sink: {!enabled} is [false], its callback is never
    invoked, and its {!received} counter stays 0 forever. Shared freely
    across domains (it is never mutated). *)

val create : (Event.t -> unit) -> t
(** An enabled sink delivering each accepted event to the callback. *)

val enabled : t -> bool

val emit : t -> Event.t -> unit
(** No-op on a disabled sink; otherwise bumps {!received} and invokes the
    callback. *)

val received : t -> int
(** Events accepted so far.
    Kept for tests: pins the zero-cost contract (a disabled sink accepts
    nothing). *)

val tee : t -> t -> t
(** A sink forwarding to both arguments (each still applies its own
    [enabled] gate). {!null} iff both arguments are. *)
