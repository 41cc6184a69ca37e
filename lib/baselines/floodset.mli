(** FloodSet: the textbook deterministic synchronous consensus protocol for
    crash faults (Lynch, "Distributed Algorithms", ch. 6).

    Every process floods the set of input values it has seen for [rounds]
    rounds, then decides: the unique value if the set is a singleton, the
    [default] otherwise. With [rounds = t + 1] it tolerates [t] crashes —
    this is the paper's deterministic strawman ("the best known randomized
    solution is the deterministic t+1 round protocol") and the E6
    baseline. Always takes exactly [rounds] rounds: the lower bound's
    t+1-round cost made concrete. *)

type state

type msg = Sim.Protocol.word
(** The sender's seen-set as registers: bit 0 = 0 seen, bit 1 = 1 seen. *)

val protocol :
  rounds:int -> ?default:int -> unit -> (state, msg) Sim.Protocol.t
(** [protocol ~rounds ()] floods for [rounds] rounds. [default] (0) is the
    decision when both values survive. For t-resilience use
    [rounds = t + 1]. *)

val msg_has_one : msg -> bool
(** Whether the message's seen-set contains 1 — a trace observer. *)
