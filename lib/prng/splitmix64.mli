(** SplitMix64: a fast, well-distributed 64-bit generator.

    Used for seeding and stream-splitting: a single [int64] of state is
    advanced by a fixed odd gamma, and the output mixing function has full
    avalanche, so distinct seeds yield statistically independent streams.
    Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
    generators" (OOPSLA 2014). *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] builds a generator; any seed (including [0L]) is valid.
    Kept for tests: with {!next}, the known-answer oracle for the reference
    SplitMix64 stream that {!Xoshiro256.of_seed} expands a seed with. *)

val next : t -> int64
(** [next g] advances [g] and returns the next 64-bit output.
    Kept for tests (see {!create}). *)

val mix : int64 -> int64
(** [mix z] is the stateless SplitMix64 finalizer: a bijective mixing
    function with full avalanche, handy for hashing seeds together. *)
