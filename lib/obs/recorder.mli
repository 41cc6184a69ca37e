(** An event recorder: the plain-data buffer behind [--events-out].

    Deliberately closure-free — a recorder lives inside the trial runner's
    chunk accumulator, which is checkpointed with [Marshal]; sinks (which
    hold closures) are reconstructed around it per trial and never stored.
    Chunk recorders are combined with {!merge} in chunk order, so the
    recorded sequence — and the JSONL digest — is identical at any
    [--jobs]. *)

type t

val create : unit -> t

val push : t -> Event.t -> unit

val events : t -> Event.t list
(** In emission order. *)

val merge : t -> t -> t
(** Fresh recorder: all of the left operand's events, then all of the
    right's (inputs unchanged). *)

val digest : t -> string
(** Hex digest of the events rendered by {!Event.to_jsonl}. *)
