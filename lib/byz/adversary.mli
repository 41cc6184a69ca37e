(** The Byzantine adversary: adaptive, full-information, computationally
    unbounded, controlling up to [t] corrupted processes.

    After every Phase A it sees which processes are corrupted and every
    staged message, may corrupt additional processes (up to the budget),
    and dictates what every corrupted process sends to {e each} recipient
    this round — including sending nothing (omission) and sending
    different values to different recipients (equivocation). *)

type 'msg directive =
  | Honest  (** Deliver the corrupted process's own staged message. *)
  | Silent  (** Send nothing to this recipient. *)
  | Forge of 'msg  (** Send this instead. *)

type ('state, 'msg) view = {
  round : int;
  n : int;
  t : int;
  budget_left : int;  (** [t] minus the corruptions before this round. *)
  corrupted : bool array;
      (** Who is corrupted; in [behaviour], this round's corruptions too. *)
  pending : 'msg option array;
      (** Each staged message: [Some] for every active or corrupted
          process (a corrupted one's is what {!Honest} delivers), [None]
          for a halted honest one. *)
}
(** [corrupted] and [pending] are read-only windows onto the engine's own
    arrays, valid during [act] and that round's [behaviour] calls. The
    view holds no process state; ['state] stays in the type so that an
    adversary's type still names the protocol it attacks. *)

type ('state, 'msg) plan = {
  new_corruptions : int list;
      (** Processes to corrupt from this round on; the engine enforces the
          global budget. *)
  behaviour : src:int -> dst:int -> 'msg directive;
      (** Consulted for every (corrupted sender, recipient) pair this
          round, including pairs corrupted in earlier rounds. *)
}

type ('state, 'msg) t = {
  name : string;
  act : ('state, 'msg) view -> Prng.Rng.t -> ('state, 'msg) plan;
}

val null : ('state, 'msg) t

val crash_like : victims:(int * int) list -> ('state, 'msg) t
(** [(round, pid)] schedule of corruptions that simply go silent — the
    embedding of fail-stop into the Byzantine model. *)

val equivocator : ?corrupt_at:int -> budget_fraction:float -> unit ->
  ('state, 'msg) t
(** Corrupts [budget_fraction * t] processes at round [corrupt_at]
    (default 1) and has each send its staged message to even-numbered
    recipients and nothing to odd-numbered ones — a generic split-the-view
    attack that works without understanding the message type. *)
