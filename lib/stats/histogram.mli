(** Integer-valued histograms for round-count distributions. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Record one observation (e.g. the round count of one trial). *)

val count : t -> int
(** Total number of observations. *)

val merge : t -> t -> t
(** [merge a b] is a fresh histogram holding every observation of [a] and
    [b]; the arguments are unchanged. Bin counts are integers, so merging is
    exactly order-independent (unlike floating-point moments). *)

val quantile : t -> float -> int option
(** [quantile h q] is the smallest value at or above the [q]-quantile
    (0 <= q <= 1); [None] when empty. *)

val bins : t -> (int * int) list
(** Sorted (value, count) pairs. *)

val render : ?width:int -> t -> string
(** A small ASCII bar rendering, one line per populated value. *)
