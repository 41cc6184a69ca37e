(** Protocol interface for the synchronous {e Byzantine} model — the
    fault model of the literature the paper positions itself against
    ([GM93]'s t+1-round protocols, [CC85], [FM97], [Rab83]).

    Identical round structure to the fail-stop simulator ({!Sim.Protocol}):
    Phase A computes and stages a broadcast, Phase B consumes the delivered
    messages. The difference is entirely in the adversary: corrupted
    processes stay "alive" but their outgoing messages are replaced,
    per-recipient, by whatever the adversary likes (equivocation), and
    their own state stops mattering. *)

type ('state, 'msg) t = {
  name : string;
  init : n:int -> pid:int -> input:int -> 'state;
  phase_a : 'state -> Prng.Rng.t -> 'state * 'msg;
      (** Must not keep its stream after it returns: the engine lends it
          out of a {!Prng.Rng.Bank}. *)
  phase_b : 'state -> round:int -> received:(int * 'msg) array -> 'state;
      (** [received] holds (sender, message), ascending by sender; exactly
          one message per currently corrupted-or-honest process that chose
          to send (honest processes always send; the adversary may silence
          a corrupted one toward some recipients). *)
  decision : 'state -> int option;
  halted : 'state -> bool;
}
