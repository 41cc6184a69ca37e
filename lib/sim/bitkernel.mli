(** The bit-packed engine.

    Packs each binary register of every active process into bit planes
    ({!Bitwords} layout: lane [i mod lanes] of word [i / lanes]) and holds
    the non-register fields in a few template classes: a template state
    and the lanes it stands for, at most 64 of them. A packed round runs
    at word granularity — coins and the aux draw in one pass of the
    PRNG's word kernel ({!Prng.Rng.Bank.draw_word}), the protocol's
    transition as a handful of plane loops — at O(n / word_size) cost
    instead of O(n).

    Phase B runs once per receiver class: the survivors of one template
    class that hear the same senders. Each group of the plan
    ({!Adversary.fold_runs}) has its recipient list walked once into a
    mask; the template classes, split by those masks, give the receiver
    classes, and each receiver class runs the transition once, on the
    survivors' tallies plus its groups' victims' registers (their count
    added to [nrecv], their best (priv, pid) competing for the leader),
    written to its own lanes. Classes whose new templates agree merge
    again. A round of silent kills, or of none, over one template class
    is the one-receiver-class case, and it carries the per-register
    tallies across rounds: set by popcount on packing, they are kept up
    to date by the coin draw, the victims' removal and the transition's
    register sources, not recounted. Only a round that would need more
    than 64 receiver classes (random per-victim recipient lists, as
    random-partial plans, with seven victims or more) materializes the
    scalar states, runs through the exact {!Engine} aggregate delivery
    path, and re-packs as soon as the states fall into
    at most 64 templates. The kernel's scalar half is Engine's own state
    record, and its unpacked rounds call Engine's Phase A, delivery and
    commit code; kill validation, the decision discipline, events and the
    outcome are the round rules all three engines share (DESIGN §5), over
    the one ledger.

    {b A trial costs its packed rounds.} A register protocol's initial
    state is a function of (n, input) ({!Protocol.bitops}' [bo_init]), so
    {!start} builds the input-0 and input-1 states once and packs every
    process from them, as one class, or two when the states disagree on a
    non-register field: a start builds no per-process object and no
    scalar half. The per-process streams are one {!Prng.Rng.Bank}. The
    scalar half (states, staged messages, delivery scratch) is built by
    the first round that unpacks and kept from then on; a run whose
    rounds all stay packed never builds it. A victim keeps no state:
    nothing reads a dead process's state again. A class that halts leaves
    the active mask whole and keeps no final state either, and the
    deciders share one [Some v] per value.

    {b Byte-identity:} every observable — outcomes, decision rounds,
    traces, the event stream (Decisions ascending by pid, Kills in plan
    order, one Round summary), the exception discipline, and RNG
    consumption (per-process streams and the adversary stream) — is
    identical to running the same protocol, adversary, inputs and rng
    through {!Engine}. The [bitkernel.differential] test suite and the
    bench smoke gate enforce this. Unlike {!Cohort}, the adversary view
    is the plain per-process {!Adversary.view}, so any concrete
    adversary — including adaptive ones — runs unchanged. On a packed
    round it reads the kernel's own words and builds no message: [count]
    reads the carried active count and tallies in O(1), [iter_senders]
    walks the active mask word by word, and [priv] reads the lane's
    payload.

    Protocols built by {!Protocol.registers} carry the {!Protocol.bitops}
    and the aggregate (used on kill rounds) it needs; {!start} refuses
    others — callers fall back to {!Engine}. *)

type ('state, 'msg) exec

val start :
  ?observer:('msg -> bool) ->
  ?sink:Obs.Sink.t ->
  ('state, 'msg) Protocol.t ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  ('state, 'msg) exec
(** Same contract as {!Engine.start}, including RNG split order and event
    order. Raises [Invalid_argument] if the protocol declares no bitops
    or no aggregate. *)

val step :
  ('state, 'msg) exec ->
  ('state, 'msg) Adversary.t ->
  [ `Continue | `Quiescent ]
(** One full round; same kill validation, exceptions, and event emission
    as {!Engine.step}. *)

val run_until :
  ('state, 'msg) exec ->
  ('state, 'msg) Adversary.t ->
  max_rounds:int ->
  unit
(** {!Engine.run_until}: step until quiescent or until [max_rounds] total
    rounds have executed. *)

val outcome : ('state, 'msg) exec -> Engine.outcome
(** The same outcome record {!Engine.outcome} computes, field for field,
    with its own copies of the per-process arrays: the execution stays
    live. *)

val final_outcome : ('state, 'msg) exec -> Engine.outcome
(** {!outcome} for a caller that drops the execution: the record takes
    the execution's [decisions], [faulty] and [halted] arrays instead of
    copying them, so stepping the execution afterwards changes it. What
    {!run} returns; a continuation read once and dropped reads this. *)

val run :
  ?observer:('msg -> bool) ->
  ?sink:Obs.Sink.t ->
  ?max_rounds:int ->
  ('state, 'msg) Protocol.t ->
  ('state, 'msg) Adversary.t ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  Engine.outcome
(** [start], then {!step} until quiescent or [max_rounds], then
    {!final_outcome}. Default [max_rounds] is 10_000. *)

(** {2 Snapshots}

    {!Engine.snapshot}'s contract, on packed state: the Monte-Carlo
    valency continuations ([Core.Lb_adversary.force_long_execution],
    [Core.Valency_probe]) run here. A copy and its original step on
    their own, in either order, and each stays byte-identical to
    {!Engine} given the same copies and reseeds. A snapshot of a packed
    execution stays packed, with its own classes: a continuation runs at
    word granularity, and a round past the class cap takes the copy
    (only) to the scalar fallback, which builds the copy's own scalar
    half and re-packs on its own. *)

val snapshot : ('state, 'msg) exec -> ('state, 'msg) exec
(** Deep copy: {!Engine.snapshot}'s copy of the ledger (its stream bank
    one block copy), plus copies of the planes, the active mask and the
    carried tallies. Scratch (the transition's double buffers, the aux
    payloads, the kill stamps) is fresh, so nothing mutable is shared.

    Cost: a packed snapshot allocates the ledger's four n-arrays and its
    stream bank (four words a process), [priv] (n words) and the planes
    and class masks (O(classes · n / word_size)), and no
    scalar half, whether or not its original has one: a packed
    original's scalar half holds nothing that is read again. Only a
    snapshot of an unpacked execution also copies the scalar states and
    gets fresh staged-message and kill scratch (three more n-arrays).

    The copy replays the same randomness unless {!reseed} is called, and
    its sink is null, as {!Engine.snapshot}'s. *)

val reseed : ('state, 'msg) exec -> Prng.Rng.t -> unit
(** {!Engine.reseed}: the same splits of the source, in the same order,
    written over the stream bank in place. *)

(** {2 Inspection} *)

val round : ('state, 'msg) exec -> int

val n : ('state, 'msg) exec -> int

val kills_used : ('state, 'msg) exec -> int

val active : ('state, 'msg) exec -> int -> bool
(** [active e pid]: alive and not halted, as {!Engine.active_mask} reads
    it. O(1) and allocation-free, packed or not. *)

val packed_rounds : ('state, 'msg) exec -> int
(** Rounds executed entirely at word granularity. *)

val scalar_rounds : ('state, 'msg) exec -> int
(** Rounds that ran through the scalar fallback path: those whose plan
    split the receivers into more than 64 classes, and those that ran
    while the states fell into more than 64 templates. Kept for tests:
    pins which rounds fell back from the packed path. *)
