(** The asynchronous adversary: it owns the network (delivery order) and
    the crash budget.

    At every step the scheduler sees the full configuration — every
    in-flight message {e including its payload} (full information) — and
    either delivers one message or crashes a process. A crashed process's
    in-flight and future messages are discarded and it takes no further
    steps. The scheduler cannot forge or alter messages (crash faults
    only), and cannot starve the run forever: the engine caps total steps,
    and a schedule that exhausts the cap without decisions is reported as
    non-terminating — which is precisely FLP's conclusion for deterministic
    protocols. *)

type 'msg in_flight = {
  id : int;  (** Unique, monotonically increasing with send order. *)
  src : int;
  dst : int;
  payload : 'msg;
}

type 'msg view = {
  n : int;
  t : int;
  crash_budget_left : int;
  crashed : bool array;
  decided : int option array;
  pending_count : int;  (** In-flight messages; never 0 when [pick] is called. *)
  pending_nth : int -> 'msg in_flight;
      (** [pending_nth k] for [0 <= k < pending_count], oldest first: ids
          strictly ascend with [k]. Raises [Invalid_argument] out of
          range. *)
  steps_taken : int;
}
(** [crashed], [decided] and the pending accessors are zero-copy,
    read-only windows onto the engine's own state, valid only during the
    [pick] call that received them: the engine mutates them as soon as
    [pick] returns, and a scheduler must never write to them. A scheduler
    that keeps any of it past its call must copy what it keeps. *)

type action =
  | Deliver of int  (** Message id of a pending message. *)
  | Crash of int  (** Process id; must be alive and within budget. *)

type 'msg t = {
  name : string;
  pick : 'msg view -> Prng.Rng.t -> action;
}

val fair : 'msg t
(** Deliver a uniformly random pending message, never crash — the
    benign/random scheduler under which Ben-Or terminates in O(1) expected
    phases for t = 0. *)

val fifo : 'msg t
(** Deliver the oldest pending message: a fully synchronous-ish benign
    schedule. *)

val random_crash : p:float -> 'msg t
(** Like {!fair}, but before each delivery crashes a random live process
    with probability [p] while the budget lasts. *)
