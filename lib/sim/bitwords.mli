(** Word-level bit-plane primitives shared by {!Bitkernel} and its tests.

    A plane is an [int array] holding one binary register per process:
    lane [i mod lanes] of word [i / lanes] is process [i]'s bit. *)

val lanes : int
(** Usable bits per word — [Sys.int_size] (63 on 64-bit platforms). *)

val words_for : int -> int
(** [words_for n] is the plane length needed for [n] processes. *)

val mask_upto : int -> int
(** [mask_upto k] has bits [0, k) set; all [lanes] bits when [k >= lanes].
    Kept for tests: with {!popcount}, pins the lane width the planes assume. *)

val popcount : int -> int
(** Number of set bits among the [lanes] usable bits of a word: the word
    count {!popcount_masked} sums, and of [b - 1] the lane of a single bit
    [b]. *)

val get : int array -> int -> bool
(** [get plane i] reads process [i]'s bit. *)

val set : int array -> int -> bool -> unit
(** [set plane i b] writes process [i]'s bit. *)

val popcount_masked : int array -> int array -> int -> int
(** [popcount_masked plane mask nw] is the population of
    [plane land mask] over the first [nw] words. *)

val iter_word : (int -> unit) -> int -> int -> unit
(** [iter_word f base m] calls [f (base + k)] for every set lane [k] of
    the word [m], ascending: one word of {!iter_ones}, for a word the
    caller computes (a mask intersected with a plane, say). *)

val iter_ones : int array -> int -> (int -> unit) -> unit
(** [iter_ones mask nw f] calls [f i] for every set bit index [i] of
    [mask], in ascending order — matching a scalar per-process loop. *)
