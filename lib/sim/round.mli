(** The synchronous round rules of Section 3.1, shared by every engine.

    {!Engine}, {!Bitkernel} and {!Cohort} represent the population
    differently (arrays, bit planes, equivalence classes) but apply one
    rule set, and this module is its only copy: start-up checks and the
    adversary-first RNG split, kill-plan validation, the decision
    discipline, kill application, the per-round events and the outcome.
    {!Engine}'s scalar execution ({!scalar}, {!phase_a}, {!phase_b}) lives
    here too, so {!Bitkernel}'s unpacked rounds run exactly Engine's code.
    Library-private: the public face is {!Engine}. *)

exception Budget_exceeded of string
exception Invalid_kill of string
exception Decision_changed of string

type outcome = {
  rounds_executed : int;
  rounds_to_decide : int option;
  decisions : int option array;
  faulty : bool array;
  halted : bool array;
  kills_used : int;
  quiescent : bool;
}
(** {!Engine.outcome}; see there for the field contracts. *)

type 'msg ledger = {
  n : int;
  t : int;
  faulty : bool array;  (** Killed: set when the kill's round closes. *)
  halted : bool array;
  decisions : int option array;
  decision_round : int array;  (** [-1] = undecided. *)
  bank : Prng.Rng.Bank.t;
      (** The per-process streams, one block ({!Prng.Rng.Bank}): stream
          [i] is process [i]'s. *)
  mutable adv_rng : Prng.Rng.t;
  mutable round : int;  (** Rounds executed so far. *)
  mutable kills_used : int;
  mutable stamp : int array;
      (** Scratch for {!validate_kills}: pid [i] is a victim of round [r]
          iff [stamp.(i) = r]. Empty until the first kill round; a copy of
          the ledger that is stepped on its own needs its own. *)
  sink : Obs.Sink.t;
  observer : ('msg -> bool) option;
}
(** The per-process bookkeeping every engine keeps, whatever its
    representation of the states. [decisions], [faulty] and [halted] are
    the outcome's own fields, so {!final_outcome} takes them whole. *)

val ledger :
  who:string ->
  ?observer:('msg -> bool) ->
  ?sink:Obs.Sink.t ->
  inputs:int array ->
  t:int ->
  Prng.Rng.t ->
  'msg ledger
(** The {!Engine.start} contract: checks [inputs] and [t] (raising
    [Invalid_argument] prefixed with [who]) and splits the adversary
    stream off the master before the per-process streams, which it keeps
    in one bank ({!Prng.Rng.Bank.split}). *)

val active_at : 'msg ledger -> int -> bool
(** Alive and not halted. *)

val active_count : 'msg ledger -> int
(** O(n) scan. *)

val budget_left : 'msg ledger -> int

type ('state, 'msg) viewer
(** The adversary view's accessors, built once per execution. *)

val viewer :
  'msg ledger ->
  count:(Adversary.senders -> int) ->
  iter_senders:(Adversary.senders -> (int -> unit) -> unit) ->
  priv:(int -> int) ->
  ('state, 'msg) viewer
(** Close the view's accessors over the ledger and the engine's own reads
    of the staged broadcasts ({!Adversary.view}), which must stay valid
    for the whole execution: [count] and [iter_senders] read the
    population, and each walk must visit exactly one pid per selected
    active process, ascending; [priv] reads one sender's payload. *)

val no_broadcast : int -> 'a
(** [no_broadcast pid] raises the [Invalid_argument] of every view's
    [priv] read of a process that stages nothing this round. *)

val register : 'state Protocol.codec -> int -> int
(** [register codec r] is [r] if the codec has a register [r], and raises
    [Invalid_argument] otherwise: the range check of every view's
    [Ones r]/[Zeros r] read. *)

val count_staged :
  ('state, 'msg) Protocol.bitops option ->
  'msg option array ->
  Adversary.senders ->
  int
(** [count_staged bitops pending s]: the view's [count] over a
    staged-broadcast array ([None] = no broadcast), one pass, with no
    allocation per process: Engine's, and Cohort's compatibility
    view's. [bitops] proves the message a register
    word; without it only [All] is answered. *)

val iter_staged_senders :
  ('state, 'msg) Protocol.bitops option ->
  'msg option array ->
  Adversary.senders ->
  (int -> unit) ->
  unit
(** The view's [iter_senders] over a staged-broadcast array, as
    {!count_staged}. *)

val priv_staged :
  ('state, 'msg) Protocol.bitops option -> 'msg option array -> int -> int
(** The view's [priv] over a staged-broadcast array: the staged word's
    [priv], O(1). It raises [Invalid_argument] without [bitops], or when
    the pid's entry is [None]. *)

val view : ('state, 'msg) viewer -> round:int -> ('state, 'msg) Adversary.view
(** The adversary's view of round [round]: the viewer's one record, with
    its [round] and [budget_left] set in place, so a round allocates
    nothing for it. It is valid only during the [plan] call it is handed
    to ({!Adversary.view}). *)

val validate_kills : 'msg ledger -> Adversary.kill list -> int
(** Check a plan against the model before any of it applies: victims in
    range, active and named once, recipients in range ({!Invalid_kill}),
    and at most the remaining budget ({!Budget_exceeded}). Returns the
    number of victims and stamps each one for {!is_victim}; O(plan), and
    an empty plan allocates nothing. Each run of {!Adversary.fold_runs}
    has its list checked once, with its first victim: a group
    ({!Adversary.kill_group}) costs one walk of its list. *)

val is_victim : 'msg ledger -> int -> bool
(** Whether the pid is a victim of the plan {!validate_kills} accepted for
    the round being executed; valid until {!apply_kills} closes it. *)

val plan :
  'msg ledger ->
  ('state, 'msg) Adversary.t ->
  ('state, 'msg) Adversary.view ->
  Adversary.kill list
(** Ask the adversary for its plan (from the adversary stream) and
    validate it. *)

val record_decision : int option array -> int -> int option -> bool
(** {!Engine.record_decision}: the decision discipline of every model. *)

val commit_decision :
  'msg ledger -> round:int -> emit:bool -> int -> int option -> bool
(** [commit_decision lg ~round ~emit j after]: {!record_decision} for
    process [j], whose decision at the end of round [round] is [after]. A
    first decision also stamps its round, emits its [Decision] event when
    [emit], and returns [true]. *)

val emit_decision : 'msg ledger -> round:int -> int -> int -> unit
(** [emit_decision lg ~round pid value], for engines that record first
    decisions out of pid order and emit them sorted afterwards. *)

val halted_undecided : int -> 'a
(** Raise {!Decision_changed}: the process halted without deciding. *)

val apply_kills : 'msg ledger -> round:int -> Adversary.kill list -> unit
(** Close round [round]: the victims die, one [Kill] event each in plan
    order (after the round's [Decision] events), the budget is charged and
    the round counter advances. Each run's list ({!Adversary.fold_runs})
    is measured once for its victims' [delivered_to]. *)

val emit_round :
  'msg ledger ->
  round:int ->
  Adversary.kill list ->
  active:int ->
  delivered:int ->
  newly_decided:int ->
  newly_halted:int ->
  ones:int option ->
  unit
(** Emit the round's [Round] summary, the last event of the round. The
    caller guards the call with [Obs.Sink.enabled]. *)

val outcome : 'msg ledger -> quiescent:bool -> outcome
(** The outcome so far, with its own copies of the ledger's arrays: the
    execution stays live. *)

val final_outcome : 'msg ledger -> quiescent:bool -> outcome
(** {!outcome} for a caller that owns the execution and drops it: the
    outcome takes the ledger's [decisions], [faulty] and [halted] arrays
    instead of copying them. *)

(** {2 Engine's scalar execution} *)

type delivery
(** Kill-round delivery scratch: the trie of receiver classes (DESIGN
    §5b), reused across rounds. *)

type ('state, 'msg) scalar = {
  protocol : ('state, 'msg) Protocol.t;
  lg : 'msg ledger;
  states : 'state array;
  pending : 'msg option array;  (** This round's staged broadcasts. *)
  killed : bool array;  (** Scratch. *)
  dv : delivery;  (** Scratch, empty until the first kill round. *)
  viewer : ('state, 'msg) viewer Lazy.t;
      (** Reads [pending]; built on first use, as Bitkernel, whose own
          view reads its planes, never uses it. *)
}

val scalar_of :
  ('state, 'msg) Protocol.t -> 'msg ledger -> 'state array -> ('state, 'msg) scalar
(** The one constructor of the record: the given ledger and states, fresh
    scratch ([pending] and [killed], n words each; the delivery trie stays
    empty until a kill round needs it), and the view over them. Engine
    calls it once at its start; {!Bitkernel} calls it only when it first
    leaves packed mode, or at a start that cannot pack. *)

val scalar :
  who:string ->
  ?observer:('msg -> bool) ->
  ?sink:Obs.Sink.t ->
  ('state, 'msg) Protocol.t ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  ('state, 'msg) scalar
(** {!ledger}, then {!scalar_of} over every process's initial state. *)

val copy_ledger : 'msg ledger -> 'msg ledger
(** A ledger that is stepped on its own: fresh copies of every array, the
    stream bank ({!Prng.Rng.Bank.copy}, one block) and the adversary
    stream, no stamps yet, and a null sink. *)

val snapshot : ('state, 'msg) scalar -> ('state, 'msg) scalar
(** {!Engine.snapshot}: {!copy_ledger}, a copy of the states, and fresh
    scratch and view from {!scalar_of}. *)

val reseed : 'msg ledger -> Prng.Rng.t -> unit
(** {!Engine.reseed}: one fresh split of the source per process, in pid
    order, written over the bank in place ({!Prng.Rng.Bank.reseed}), then
    one for the adversary. *)

val phase_a : ('state, 'msg) scalar -> unit
(** Every active process computes and stages its broadcast, drawing from
    its stream through the bank's scratch ({!Prng.Rng.Bank.load} before
    the protocol's [phase_a], {!Prng.Rng.Bank.store} after). *)

val phase_b : ('state, 'msg) scalar -> Adversary.kill list -> round:int -> unit
(** Deliver the staged broadcasts under a validated plan (the aggregate
    path of DESIGN §5b, or the legacy materialized exchange), commit
    every receiver under the decision discipline, apply the kills and
    emit the round's events. On the aggregate path every run of kills
    with a non-empty list is a group, one-victim runs included; every
    class of receivers named by the same groups shares one accumulator,
    built once per round, and [finish] reads it for each member. A round
    with no group, an honest one included, has the one class whose
    accumulator absorbs the survivors in ascending pid order, as the
    legacy exchange does. The legacy exchange reads each kill's own list,
    with no notion of groups, so it checks the grouping. *)
