(** Numerically stable running moments (Welford's algorithm).

    Every experiment aggregates thousands of trial outcomes; this keeps
    count, mean, variance, and extrema in O(1) space with no catastrophic
    cancellation, and supports merging partial aggregates. *)

type t

val create : unit -> t

val add : t -> float -> unit

val add_int : t -> int -> unit

val count : t -> int

val mean : t -> float
(** NaN when empty. *)

val variance : t -> float
(** Unbiased sample variance; NaN below two observations. *)

val std_error : t -> float
(** Standard error of the mean. *)

val min : t -> float
(** +inf when empty. *)

val max : t -> float
(** -inf when empty. *)

val total : t -> float
(** Sum of all observations. *)

val merge : t -> t -> t
(** [merge a b] aggregates as if every observation of [a] and [b] had been
    added to one accumulator (Chan's parallel update). *)

val of_array : float array -> t
(** Kept for tests: the sequential aggregate that {!merge}, the combine behind
    every parallel fold, is checked against. *)
