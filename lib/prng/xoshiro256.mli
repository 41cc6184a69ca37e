(** Xoshiro256**: the workhorse generator for all simulations.

    256 bits of state, period 2^256 - 1, excellent statistical quality
    (passes BigCrush), and cheap copying — which the simulator exploits to
    fork execution states for Monte-Carlo lookahead.
    Reference: Blackman & Vigna, "Scrambled linear pseudorandom number
    generators" (ACM TOMS 2021).

    The state is kept unboxed, and {!next_high}/{!next_low} return the
    step's bits as immediate ints, so drawing through them allocates
    nothing. *)

type t
(** Mutable generator state. *)

val of_seed : int64 -> t
(** [of_seed s] expands the 64-bit seed into a full 256-bit state via
    SplitMix64 (the first four outputs of [Splitmix64.create s]), as
    recommended by the authors. *)

val of_state : int64 -> int64 -> int64 -> int64 -> t
(** [of_state s0 s1 s2 s3] uses the given words directly. At least one word
    must be non-zero; raises [Invalid_argument] otherwise.
    Kept for tests: the known-answer oracle seeds the reference xoshiro256**
    vectors with it. *)

val copy : t -> t
(** [copy g] is an independent generator that will replay [g]'s future. *)

val next : t -> int64
(** [next g] advances [g] and returns 64 fresh pseudorandom bits. *)

val next_high : t -> int
(** [next_high g] advances [g] like {!next} and returns the output's top 63
    bits (bits 1–63) as an int, so bit 63 is the int's sign. *)

val next_low : t -> int
(** [next_low g] advances [g] like {!next} and returns the output's low 63
    bits (bits 0–62), i.e. [Int64.to_int (next g)]. *)

val below : t -> int -> int
(** [below g bound] is uniform on [0, bound) for [bound >= 1], by rejection
    sampling (no modulo bias); [bound = 1] draws nothing. The one body
    behind {!Rng.int} and {!Bank.draw_word}. *)

val split : t -> t
(** [split g] is [of_seed (mix (next g))]: a fresh generator keyed by the
    finalized next output of [g]. Advances [g]. *)

(** {!Rng.Bank}, here beside the step its [draw_word] inlines. *)
module Bank : sig
  type gen := t
  type t

  val split : gen -> int -> t
  val copy : t -> t
  val reseed : t -> gen -> unit
  val load : t -> int -> gen
  val store : t -> int -> unit

  val draw_word :
    t -> base:int -> mask:int -> coin:bool -> bound:int -> int array -> int
end

val golden_gamma : int64
(** SplitMix64's odd increment [0x9E3779B97F4A7C15]; see {!Splitmix64}. *)

val mix : int64 -> int64
(** The SplitMix64 finalizer; see {!Splitmix64.mix}. It is defined here,
    beside the seeding that must inline it. *)
