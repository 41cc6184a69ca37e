(** Protocol interface for the asynchronous model (Section 1.2's contrast
    class: FLP impossibility, Ben-Or's protocol, Aspnes's lower bounds).

    An asynchronous protocol is event-driven: it produces messages at
    initialization and in reaction to each delivered message. There are no
    rounds — the adversarial {!Scheduler} chooses which in-flight message
    to deliver next. *)

type 'msg send = { dst : int; payload : 'msg }
(** A message addressed to one process. *)

val broadcast : n:int -> 'msg -> 'msg send list
(** One copy to every process, including the sender (self-delivery is
    routed through the scheduler like any other message, as in the standard
    model). *)

type ('state, 'msg) t = {
  name : string;
  init : n:int -> pid:int -> input:int -> 'state * 'msg send list;
      (** Initial state and the first wave of messages. *)
  on_message :
    'state -> sender:int -> 'msg -> Prng.Rng.t -> 'state * 'msg send list;
      (** React to one delivered message; may consult the process's private
          coin stream, which it must not keep after it returns (the engine
          lends it out of a {!Prng.Rng.Bank}). *)
  decision : 'state -> int option;
      (** Irrevocable once set (the engine enforces this). *)
  coin_flips : 'state -> int;
      (** Local coins consumed so far — the complexity measure of Aspnes's
          async lower bound (Omega(t^2 / log^2 t) total flips). *)
}
