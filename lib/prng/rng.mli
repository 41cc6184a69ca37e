(** The random-source abstraction used throughout the reproduction.

    Every stochastic component (process coins, adversary randomness,
    workload generation) draws from its own [Rng.t], split deterministically
    from a master seed, so that any experiment can be replayed bit-for-bit
    from a single integer. *)

type t
(** A mutable pseudorandom stream (Xoshiro256** underneath). *)

val create : int -> t
(** [create seed] builds a stream from an integer seed. *)

val split : t -> t
(** [split g] derives a fresh stream whose future output is statistically
    independent of [g]'s. Advances [g]. *)

val of_seed_index : seed:int -> index:int -> t
(** [of_seed_index ~seed ~index] derives a stream from the pair — a pure
    function of its two arguments, with no shared state. Stream [index] of a
    given [seed] is therefore the same no matter how many other indices are
    instantiated, in what order, or on which domain: this is the seeding
    primitive that makes parallel trial runs order-independent (see
    {!Sim.Parallel}). Uses the SplitMix64 finalizer to decorrelate
    neighbouring pairs. *)

val nth_split : seed:int -> index:int -> t
(** [nth_split ~seed ~index] is the stream the [(index + 1)]-th
    sequential {!split} of [create seed] returns — a pure function of the
    pair, though O([index]) to compute. Async and Byzantine trial [index]
    draws from it, which keeps the E9, E11 and E12 tables on the streams
    of their original sequential loops. Moving those trials onto
    {!of_seed_index} is a re-baseline of the published tables and of the
    benchmark's golden digest, so it belongs to a benchmark change. *)

val copy : t -> t
(** [copy g] replays [g]'s future exactly (no independence!). Use [split]
    when independence is wanted. *)

val bits64 : t -> int64
(** 64 fresh pseudorandom bits.
    Kept for tests: the raw draw the determinism, split and stream-pinning
    tests compare. *)

val bool : t -> bool
(** An unbiased coin flip. *)

val bit : t -> int
(** An unbiased bit in {0, 1}. *)

val int : t -> int -> int
(** [int g bound] is uniform on [0, bound); [bound] must be positive.
    Uses rejection sampling, so there is no modulo bias. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform on the inclusive range [lo, hi]. *)

val float : t -> float
(** Uniform on [0, 1) with 53 bits of precision.
    Kept for tests: the draw behind {!bernoulli}; the stream-pinning test
    fixes its bit extraction. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is true with probability [p] (clamped to [0, 1]). *)

(** {2 Stream banks} *)

(** The per-process streams of one execution, held as one block.

    A bank of [n] streams keeps their states back to back in one
    32·[n]-byte [Bytes], so an execution's streams are one heap object,
    not [n]: a bank is built, copied and reseeded in one pass over one
    block, and the word kernel {!draw_word} steps stream [i] in place at
    byte offset 32·[i].

    {b Scalar access.} A caller that draws from stream [i] through the
    ordinary draws ({!bit}, {!int}, ...) moves it through the bank's one
    scratch stream: [let g = load b i in ... draws from g ...; store b i].
    [load] copies stream [i]'s four state words into the scratch and
    returns it; [store] copies the scratch back into slot [i]. Both are
    four unboxed 64-bit reads and writes, and allocate nothing. The
    scratch belongs to the bank: between a [load] and its [store] no
    other stream of the same bank may be loaded, and nothing may keep the
    scratch after its [store] (a protocol's [phase_a] must not keep its
    stream after it returns). Draws made on the scratch after [store] are
    lost at the next [load]. *)
module Bank : sig
  type rng := t
  type t

  val split : rng -> int -> t
  (** [split g n] derives [n] streams, consuming [g] exactly as [n]
      sequential {!Prng.Rng.split}s do: stream [i] is bit-for-bit the
      [i]-th [Rng.split g]. Advances [g]. Raises [Invalid_argument] if [n < 0]. *)

  val copy : t -> t
  (** An independent bank whose streams replay the original's futures:
      one block copy and a scratch of its own. They share nothing. *)

  val reseed : t -> rng -> unit
  (** [reseed b g] overwrites stream [i] with the [i]-th sequential
      [split g], in place, for every [i] in order: the streams a fresh
      [split g n] of the same size would hold. Advances [g]. *)

  val load : t -> int -> rng
  (** [load b i] copies stream [i] into the bank's scratch stream and
      returns the scratch (see above). Raises [Invalid_argument] if [i] is
      out of range. *)

  val store : t -> int -> unit
  (** [store b i] writes the scratch stream back as stream [i]. Raises
      [Invalid_argument] if [i] is out of range. *)

  val draw_word :
    t -> base:int -> mask:int -> coin:bool -> bound:int -> int array -> int
  (** [draw_word b ~base ~mask ~coin ~bound priv] runs one word of a
      packed Phase A: for each set lane [k] of [mask], in ascending order,
      stream [base + k] draws {!bit} into bit [k] of the result when
      [coin], then [priv.(base + k) <- int g bound] when [bound > 0]
      ([bound = 0]: no second draw). Each stream sees exactly the draws of
      that scalar loop, stepped in place in the bank, and none allocates.
      Lanes outside [mask] are left untouched and read 0. Raises
      [Invalid_argument] if [bound < 0] or a set lane names no stream. *)
end
