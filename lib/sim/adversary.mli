(** The adversary interface: the fail-stop, adaptive, full-information,
    computationally unbounded adversary of Section 3.1.

    After every Phase A the paper's adversary observes {e everything} —
    all local states (including this round's coin flips) and all pending
    messages — and picks a set of processes to fail during the
    message-exchange phase. The {!view} shows every pending message in
    full (a register protocol's message is its register bits plus its
    [priv]), not arbitrary states: the substitution DESIGN §2 records.
    For each victim it also chooses which recipients still receive the
    victim's final message (partial send). A victim is dead from the next
    round on and sends nothing further. *)

type kill = {
  victim : int;
  deliver_to : int list;
      (** Recipients that still receive the victim's message this round.
          [[]] means the victim is silenced entirely. The victim itself
          always "hears" its own value (it is dead anyway). Consecutive
          kills may share one list ({!kill_group}). *)
}

val kill_silent : int -> kill
(** Fail the process and drop its entire broadcast. *)

val kill_after_send : int -> recipients:int list -> kill
(** Fail the process but let the listed recipients receive its message. *)

val kill_group : int list -> recipients:int list -> kill list
(** [kill_group victims ~recipients] fails every victim, in the given
    order, and lets [recipients] receive each one's message: one kill per
    victim, all sharing the one [recipients] list.

    {b Grouping.} A {e group} is a maximal run of consecutive kills of a
    plan whose [deliver_to] is the same non-empty list — the same physical
    value ([==]), as [kill_group] builds; a one-victim run is a group too.
    The engines walk a group's list once per round, not once per victim:
    validation range-checks it once, delivery partitions the receivers
    into classes by the set of groups that name them and builds each
    class's accumulator once (the survivors, then each group's victims
    absorbed a single time), and the [Kill] events take its length once.
    A partial-delivery round costs O(n + kills + Σ_g |R_g| + Σ_classes
    |V_g|), where a class's [V_g] is the victims of the group that made
    it. The grouping cannot change any output: a shared list names the
    same recipients for every victim, so a plan whose lists are equal
    copies runs byte-identically, as one-victim groups. Per-victim lists
    are the costly shape: most receivers then end in a class of their
    own, so the classes, and their accumulators kept for the round, grow
    towards Σ_kill |deliver_to|. Lists that are equal but not shared and
    a list reused by non-consecutive kills stay legal and form separate
    groups. *)

val fold_runs : ('a -> kill list -> int -> 'a) -> 'a -> kill list -> 'a
(** [fold_runs f init kills] folds [f] over the maximal runs of
    consecutive kills whose [deliver_to] is the same list ([==]), in plan
    order: [f acc run len], where [run] is the plan from the run's first
    kill on and [len] is the run's length. Consecutive silent kills form
    one run. A group is a run with a non-empty list, whatever its length.
    Every layer that works per group takes its runs from here. Only [f]
    allocates. *)

type senders =
  | All  (** Every staged broadcast. *)
  | Ones of int  (** Those whose register [r] is set. *)
  | Zeros of int  (** Those whose register [r] is clear. *)
(** Which staged broadcasts a population read counts or walks. [Ones r]
    and [Zeros r] read register [r] of a register protocol's
    {!Protocol.word} (one built by {!Protocol.registers}); on any other
    protocol, or with [r] outside [0, bo_width), they raise
    [Invalid_argument]. [All] works on every protocol. *)

type ('state, 'msg) view = {
  mutable round : int;
  n : int;
  t : int;  (** The adversary's total corruption budget. *)
  mutable budget_left : int;  (** Kills still available. *)
  active : int -> bool;  (** Alive and not halted: broadcasting this round. *)
  count : senders -> int;
      (** [count s] is the number of staged broadcasts [s] selects;
          [count All] is the number of active processes. No per-process
          allocation on any engine. Bitkernel's packed rounds answer in
          O(1) from the counts the kernel carries across rounds (the
          active count and each register's tally). Engine, Bitkernel's
          unpacked rounds and Cohort's compatibility view count over
          their staged array in one O(n) pass (Cohort's view rebuilds
          that array at the round's first read, O(n) class lookups). *)
  iter_senders : senders -> (int -> unit) -> unit;
      (** [iter_senders s f] calls [f pid] for every staged broadcast [s]
          selects, ascending by pid, and builds no message. Bitkernel's
          packed rounds walk the active mask word by word (intersected
          with register [r]'s plane, or its complement), skipping empty
          words: O(selected + n/63), with no per-process allocation.
          Engine, Bitkernel's unpacked rounds and Cohort's
          compatibility view walk their staged array (O(n) reads). An
          adversary that stops early raises out of [f] with its own
          exception. *)
  priv : int -> int;
      (** [priv pid] is the private payload of sender [pid]'s staged
          register {!Protocol.word} (SynRan's leader priority, say): one
          O(1) read on every engine, from Bitkernel's per-lane payload
          array on packed rounds and from the staged message otherwise,
          allocating nothing. Like [Ones r]/[Zeros r] it needs a register
          protocol, and it raises [Invalid_argument] on any other; a
          [pid] that stages no broadcast this round raises too. *)
}
(** A zero-copy window onto the execution after Phase A: what Section 3.1
    lets the adversary read before it names its kills. Every staged
    broadcast is visible: a register protocol's message is its register
    bits, which [count] and [iter_senders] read by population, plus its
    [priv]. The accessors read the engine's own arrays — no per-round
    copies, and no engine builds a message for them — and are only valid
    during the [plan] call that received them: the engine mutates the
    underlying state as soon as [plan] returns. The record itself is
    valid only during [plan] too: an engine builds one view per execution
    and sets its [round] and [budget_left] in place every round, so a
    view kept past [plan] reads a later round's values. Adversaries that
    need state beyond their own invocation must copy what they keep (all
    in-tree adversaries extract scalars or fresh lists, which is safe by
    construction; none keeps the view itself). Exactly the active
    processes stage a broadcast, so the senders are this round's
    receivers.

    Both type parameters are phantom: no read returns a state or a
    message. They stay so that an adversary's type still names the
    protocol it plans against, and every annotation of
    [('state, 'msg) t] keeps its arity. *)

val first_senders : ('state, 'msg) view -> senders -> int -> int list
(** [first_senders view s k] is the first [k] pids of
    [view.iter_senders s], ascending (all of them when [k] exceeds their
    number), from a walk that stops at the [k]-th. *)

val active_pids : ('state, 'msg) view -> int list
(** The senders, ascending: [first_senders view All (view.count All)],
    O(active + n/63) on Bitkernel's packed rounds and O(n) reads on the
    others, plus the O(active) list. *)

type ('state, 'msg) t = {
  name : string;
  plan : ('state, 'msg) view -> Prng.Rng.t -> kill list;
      (** Must name distinct, currently active victims, at most
          [budget_left] of them; the engine validates and raises
          otherwise. *)
}

val null : ('state, 'msg) t
(** The adversary that never fails anyone. *)
