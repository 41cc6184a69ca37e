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

val split_n : t -> int -> t array
(** [split_n g k] derives [k] independent streams. Advances [g]. *)

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

val draw_word :
  t array -> base:int -> mask:int -> coin:bool -> bound:int -> int array -> int
(** [draw_word gs ~base ~mask ~coin ~bound priv] runs one word of a
    packed Phase A: for each set lane [k] of [mask], in ascending order,
    stream [gs.(base + k)] draws {!bit} into bit [k] of the result when
    [coin], then [priv.(base + k) <- int g bound] when [bound > 0]
    ([bound = 0]: no second draw). Each stream sees exactly the draws of
    that scalar loop, and none allocates. Lanes outside [mask] are left
    untouched and read 0. Raises [Invalid_argument] if [bound < 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform on the inclusive range [lo, hi]. *)

val float : t -> float
(** Uniform on [0, 1) with 53 bits of precision.
    Kept for tests: the draw behind {!bernoulli}; the stream-pinning test
    fixes its bit extraction. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is true with probability [p] (clamped to [0, 1]). *)
