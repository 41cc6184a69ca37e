(** The protocol interface: what a distributed algorithm must provide to run
    on the synchronous engine.

    The engine executes the paper's two-phase round structure (Section 3.1):

    - {b Phase A}: every active process updates its state, flips local coins
      from its private stream, and produces the message it will broadcast.
    - {b Phase B}: every process that survived the adversary's kills receives
      the delivered messages (always including its own) and updates its
      state, possibly deciding and possibly halting.

    States should be immutable values: the lower-bound machinery snapshots
    executions and replays alternative futures, which is only sound if
    states are not shared mutable structures. *)

type 'state subclass = {
  sub_state : 'state;
      (** Post-Phase-A state, identical for every member of the subclass. *)
  sub_members : int array;  (** Member pids, ascending. *)
  sub_priv : int array;
      (** Per-member private payload, indexed like [sub_members]: the
          {!word}'s [priv] (e.g. SynRan's leader priorities). [[||]] when
          the protocol makes no aux draws. *)
}
(** One post-Phase-A equivalence class of the cohort engine: a set of
    processes that entered the round in the same state and drew the same
    coins, so they hold the same state and (up to [sub_priv]) broadcast the
    same message. *)

type ('state, 'msg, 'acc) cohort = {
  c_equal : 'state -> 'state -> bool;
      (** State equality — decides when processes share a class. Must imply
          equal decisions/halting and byte-identical future behaviour under
          identical received multisets. *)
  c_hash : 'state -> int;  (** Consistent with [c_equal]. *)
  c_phase_a :
    'state -> members:int array -> bank:Prng.Rng.Bank.t -> 'state subclass list;
      (** Run Phase A for a whole class at once. MUST make exactly the coin
          draws the scalar [phase_a] would: for each pid in [members]
          (ascending), the same sequence of draws from stream [pid] of
          [bank], reached through {!Prng.Rng.Bank.load} and written back
          with {!Prng.Rng.Bank.store} before the next member's. The
          returned subclasses partition [members], each keeping its members
          in ascending order. *)
  c_absorb : 'acc -> 'state subclass -> except:(int -> bool) option -> 'acc;
      (** Absorb every member's broadcast except those matching [except]
          (e.g. this round's victims). Must equal a member-wise fold of the
          scalar [absorb] — in any order, which is sound because [absorb] is
          commutative as values (see {!aggregate}). Class-level counting
          makes this O(members) at worst and O(1) for count-only folds. *)
  c_msg : 'state subclass -> int -> 'msg;
      (** Reconstruct the exact message member [i] (an index into
          [sub_members]) broadcast — what the scalar [phase_a] returned. *)
}
(** Cohort operations: what {!Cohort}, the population-compressed engine,
    runs a protocol from. All five must be observationally equal to the
    scalar [phase_a]/[absorb] they compress, so the cohort engine is
    byte-identical to {!Engine} ([cohort.differential] pins it).
    {!registers} derives them from the protocol's codec and transition. *)

type ('state, 'msg) aggregate =
  | Aggregate : {
      init : unit -> 'acc;  (** The empty aggregate (no message absorbed). *)
      absorb : 'acc -> pid:int -> 'msg -> 'acc;
          (** Fold one delivered message in. MUST be commutative (and
              association-free): the engine's aggregate path
              absorbs a round's survivors once and replays partial
              deliveries on top (each group's victims once per class, in
              plan order), so the absorb order seen by a receiver on a
              kill round differs from the ascending-sender order of the
              legacy received array.
              Counting, max-by-key and
              boolean-or folds qualify; anything order- or
              grouping-sensitive does not. *)
      finish : 'state -> round:int -> 'acc -> 'state;
          (** Complete Phase B from the aggregate — the analogue of
              [phase_b], with the received array collapsed to ['acc].
              The engine hands the {e same} accumulator value to many
              receivers' [finish]: on a round without a partial send to
              every receiver, and otherwise to every receiver of one
              class (the receivers named by the same groups,
              {!Adversary.kill_group}). So [finish] must treat it as
              read-only, on kill rounds too. *)
      cohort : ('state, 'msg, 'acc) cohort option;
          (** Optional cohort operations sharing this aggregate's
              accumulator type; [None] keeps the protocol off the
              population-compressed engine (it still runs on {!Engine}). *)
    }
      -> ('state, 'msg) aggregate
(** An optional commutative-fold message consumer. A protocol that only
    needs a round tally (vote counts, max priority, value-set union, ...)
    declares one; the engine then never materializes the O(n) per-receiver
    [(sender, msg)] array, and in rounds with no kills computes one shared
    O(n) aggregate for all receivers instead of n independent O(n) scans.
    The accumulator type is existential: each protocol picks its own. *)

type reg_src =
  | Keep  (** The register keeps its pre-round value. *)
  | Fill of bool  (** Every active process's register becomes this bit. *)
  | Copy of int  (** Copy register [i]'s {e pre-round} plane. *)
  | Not of int  (** Complement of register [i]'s {e pre-round} plane. *)
(** Where a register's post-round plane comes from. [Copy]/[Not] read the
    planes as they stood {e before} the transition (simultaneous update),
    so a step may both copy register [i] and overwrite it. *)

type decide_src =
  | Decide_const of int  (** Every deciding process outputs this value. *)
  | Decide_reg of int
      (** Each process outputs its {e post-transition} register [i]. *)

type 'state word_step = {
  ws_state : 'state;
      (** Next non-register template state, shared by every active
          process: each process's next state is [bo_unpack ws_state] of
          its post-transition registers. *)
  ws_regs : reg_src array;  (** One source per register, length [bo_width]. *)
  ws_decide : decide_src option;
      (** If set, every active process decides this round. Must agree with
          [decision] of the next states. The engine's decision discipline
          (no change, no revocation) still applies. *)
  ws_halt : bool;
      (** Halt every active process after this round. Must agree with
          [halted] of the next states. *)
}
(** A whole round's Phase-B transition for all active processes at once:
    the same branch of the protocol applies to every active process, and
    per-process variation is confined to the register planes. *)

type word = { regs : int; priv : int }
(** A register protocol's message: the sender's registers after Phase A,
    packed as by [bo_pack], and its private payload drawn under
    [bo_aux_bound] (0 when the protocol makes no aux draw). *)

type tallies = {
  counts : int array;
      (** [counts.(i)] is the number of received messages whose register
          [i] is set. Length [bo_width]. *)
  leader : int Lazy.t;
      (** The registers of the max-(priv, pid) sender. Forced only by
          transitions that need it: the bit-packed kernel scans every
          lane to compute it. *)
}
(** What a round's delivered messages tell a register protocol. *)

type 'state codec = {
  bo_width : int;
      (** Number of binary registers (bit planes), 1 to 4: the aggregate
          keeps one count field per register, so absorbing a message
          allocates one small record and copies no array. *)
  bo_pack : 'state -> int;
      (** Pack the state's registers into the low [bo_width] bits
          (register [i] at bit [i]). *)
  bo_unpack : 'state -> int -> 'state;
      (** [bo_unpack template regs] rebuilds a full state from the
          template's non-register fields and the packed registers:
          [bo_unpack t (bo_pack s) = s] whenever [bo_uniform t s]. *)
  bo_uniform : 'state -> 'state -> bool;
      (** Whether two states agree on every {e non-register} field — the
          condition for sharing a packed template. Register fields are
          ignored. *)
  bo_coin_reg : int option;
      (** If set, Phase A's {e first} draw on each process's stream is one
          [Prng.Rng.bit] stored in this register. [None] means Phase A
          flips no coin. *)
  bo_aux_bound : int option;
      (** If set, Phase A's draw right after the coin on each process's
          stream is one [Prng.Rng.int rng bound], the message's [priv]
          (e.g. SynRan's leader priority). Data, not a closure, so it
          cannot read the state, and the kernel draws it for a whole word
          of lanes in the PRNG's own pass ({!Prng.Rng.Bank.draw_word}). [None]
          when Phase A draws nothing more. Must be at least 1. *)
}
(** How a state splits into binary registers and a non-register rest. *)

type 'state transition =
  'state -> round:int -> nrecv:int -> tallies:tallies -> 'state word_step
(** A register protocol's whole round: given any receiver's post-Phase-A
    state as a template (its registers MUST NOT be read), the number of
    messages it received, and their tallies, the next template and
    register sources. The receiver's own message is always among the
    tallied ones. *)

type ('state, 'msg) bitops = {
  bo_codec : 'state codec;
  bo_init : n:int -> input:int -> 'state;
      (** The register protocol's initial state, a function of the
          population size and the input bit only: {!Bitkernel.start}
          builds the two initial states once and packs every process from
          them. The protocol's [init] is this with [pid] ignored. *)
  bo_step : 'state transition;
      (** The protocol's transition, called by {!Bitkernel} on packed
          rounds with the tallies of every active process. *)
  bo_word : ('msg, word) Type.eq;  (** The message is the register {!word}. *)
}
(** Bit-plane operations: what {!Bitkernel} runs a protocol's packed rounds
    from. Only {!registers} builds them, from the same codec and
    transition it derives the scalar round from, so the packed and scalar
    rounds agree by construction ([bitkernel.differential] pins it). *)

type ('state, 'msg) t = {
  name : string;
  init : n:int -> pid:int -> input:int -> 'state;
      (** Initial state of process [pid] of [n] with the given input bit. *)
  phase_a : 'state -> Prng.Rng.t -> 'state * 'msg;
      (** Local computation and coin flips; returns the broadcast message.
          Must not keep its stream after it returns: the engines lend it
          out of a {!Prng.Rng.Bank} (see its load/store contract). *)
  phase_b : 'state -> round:int -> received:(int * 'msg) array -> 'state;
      (** Deliver messages, as (sender, message) pairs sorted by sender.
          The process's own message is always included. Protocols carrying
          an [aggregate] must keep [phase_b] behaviourally identical to
          [finish ∘ fold absorb] — use {!with_aggregate}, which derives
          [phase_b] from the aggregate so the two cannot drift. *)
  decision : 'state -> int option;
      (** The decided output, once the process has irrevocably decided.
          Must never change once set; the engine enforces this. *)
  halted : 'state -> bool;
      (** True once the process has stopped: it no longer sends or receives.
          A halted process must have decided. *)
  aggregate : ('state, 'msg) aggregate option;
      (** Declared aggregate consumer, or [None] to always receive the
          materialized array (the legacy exchange). *)
  bitops : ('state, 'msg) bitops option;
      (** Declared bit-plane operations, or [None] to keep the protocol
          off the bit-packed {!Bitkernel} engine. *)
}

val legacy : ('state, 'msg) t -> ('state, 'msg) t
(** [legacy p] is [p] with its aggregate dropped: the engine will run it
    through the materialized-array exchange. Its {!bitops} stay, so the
    adversary view's register reads still work, but it is no longer
    {!bitkernel_capable}. Used by the differential
    tests and the hot-path benchmark to compare the two delivery paths. *)

val cohort_capable : ('state, 'msg) t -> bool
(** Whether the protocol declares {!cohort} operations, i.e. can run on the
    population-compressed {!Cohort} engine. *)

val bitkernel_capable : ('state, 'msg) t -> bool
(** Whether the protocol declares both {!bitops} and an {!aggregate}, i.e.
    can run on the bit-packed {!Bitkernel} engine (whose kill-round
    fallback uses the aggregate delivery path). *)

val register_of : (word -> bool) -> int
(** [register_of is_one] is the register [r] that the predicate reads:
    the one for which [is_one w] is [w]'s register [r] on every word with
    [priv = 0]. This names, for the view's register reads
    ({!Adversary.senders}), the vote bit an adversary was handed as a
    function of the message (SynRan's [bit_of_msg] reads register 0).
    Raises [Invalid_argument] if the predicate is not a single register's
    bit. *)

val with_aggregate :
  name:string ->
  init:(n:int -> pid:int -> input:int -> 'state) ->
  phase_a:('state -> Prng.Rng.t -> 'state * 'msg) ->
  decision:('state -> int option) ->
  halted:('state -> bool) ->
  ('state, 'msg) aggregate ->
  ('state, 'msg) t
(** Build a protocol whose [phase_b] folds the aggregate's [absorb] over
    the received array in ascending-sender order, then applies [finish] —
    the only way the fast and legacy paths are guaranteed to agree. *)

val registers :
  name:string ->
  init:(n:int -> input:int -> 'state) ->
  decision:('state -> int option) ->
  halted:('state -> bool) ->
  hash:('state -> int) ->
  transition:'state transition ->
  'state codec ->
  ('state, word) t
(** A protocol whose state is binary registers plus a rest shared by every
    process in the same stage, and whose round depends only on the
    {!tallies}. Its initial state is a function of (n, input) alone: two
    processes with the same input start in the same state, so the
    protocol's [init] ignores [pid] and the bitops carry [init] itself
    ([bo_init]). Everything else is derived from the codec and the one
    transition:
    - [phase_a] draws the coin into [bo_coin_reg], then the aux draw
      under [bo_aux_bound], and broadcasts the {!word};
    - the aggregate folds words into {!tallies}, and [finish] is the
      transition applied to a population of one;
    - the cohort ops split classes by coin, with [c_equal] = [bo_uniform]
      and equal registers, and [c_hash] = [hash] (which must be
      consistent with that equality);
    - the bitops hand the transition to {!Bitkernel} as [bo_step].
    Raises [Invalid_argument] if [bo_width] is outside [1, 4],
    [bo_coin_reg] is out of range or [bo_aux_bound] is below 1. *)
