(** The Byzantine adversary: adaptive, full-information, computationally
    unbounded, controlling up to [t] corrupted processes.

    After every Phase A it sees all states and pending messages, may
    corrupt additional processes (up to the budget), and dictates what
    every corrupted process sends to {e each} recipient this round —
    including sending nothing (omission) and sending different values to
    different recipients (equivocation). *)

type 'msg directive =
  | Honest  (** Deliver the corrupted process's own staged message. *)
  | Silent  (** Send nothing to this recipient. *)
  | Forge of 'msg  (** Send this instead. *)

type ('state, 'msg) view = {
  round : int;
  n : int;
  t : int;
  corrupted : bool array;
  states : 'state array;
  pending : 'msg array;  (** Every process stages a message each round. *)
  decisions : int option array;
}

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
