(** One-round collective coin-flipping games (Section 2).

    A game has [n] players, each drawing a private value from its own
    distribution, and a function [f] mapping the value vector — with up to
    [t] entries replaced by the default "-" (here [None]) — to one of [k]
    outcomes. The adaptive fail-stop adversary sees all drawn values before
    choosing which to hide. *)

type t = private {
  name : string;
  n : int;
  k : int;  (** Number of possible outcomes; outcomes are [0 .. k-1]. *)
  draw : Prng.Rng.t -> int;  (** Draw one player's input value. *)
  eval : int option array -> int;
      (** The game function [f]; [None] is the adversary's default value.
          Must return an outcome in [0 .. k-1] for every input. *)
  decide : (sum:int -> present:int -> int) option;
      (** [Some rule] for a counting game: [f] depends on the present
          values only through their sum and count, and [eval] is derived
          from [rule]. *)
}

val make :
  name:string -> n:int -> k:int -> draw:(Prng.Rng.t -> int) ->
  (int option array -> int) -> t
(** A game given by its function [f] alone. *)

val counting :
  name:string -> n:int -> k:int -> draw:(Prng.Rng.t -> int) ->
  (sum:int -> present:int -> int) -> t
(** A counting game given by its rule on the sum and count of the present
    values. *)

val sample : t -> Prng.Rng.t -> int array
(** The [n] players' independent values, drawn in player order. *)

(** {2 Hide cursor}

    Drawn values with a mutable hide-set. Every hide-and-evaluate in this
    library goes through a cursor: on a counting game each operation is
    O(1) on a running (sum, present) tally; on any other game [outcome]
    evaluates [f] on the masked vector. *)

type cursor

val cursor : t -> int array -> cursor
(** Start with every player visible. Raises [Invalid_argument] unless
    there are [n] values. *)

val game : cursor -> t

val value : cursor -> int -> int
(** The drawn value of a player, hidden or not. *)

val is_hidden : cursor -> int -> bool

val outcome : cursor -> int
(** [f] with the hidden players masked. *)

val outcome_if_hidden : cursor -> int -> int
(** [outcome] after also hiding the given visible player; leaves the
    cursor unchanged. Raises [Invalid_argument] like {!hide}. *)

val hide : cursor -> int -> unit
(** Raises [Invalid_argument] on a bad index or an already hidden player. *)

val unhide : cursor -> int -> unit
(** Raises [Invalid_argument] on a bad index or a visible player. *)

val outcome_with : cursor -> hidden:int list -> int
(** [outcome] after also hiding the listed players (repeats and players
    already hidden are ignored); leaves the cursor unchanged. Raises
    [Invalid_argument] on a bad index. *)

(** {2 One-shot evaluation} *)

val eval_with_hidden : t -> int array -> hidden:int list -> int
(** Evaluate [f] on concrete values with the listed players hidden.
    Kept for tests: the direct evaluation the cursor tallies and the
    strategies are checked against. *)

val play : t -> Prng.Rng.t -> hidden:int list -> int
(** Sample inputs, hide the listed players, evaluate.
    Kept for tests: one draw of the game as E1 plays it, checked to stay in
    range. *)

val validate : t -> Prng.Rng.t -> unit
(** Cheap sanity check: [n] and [k] are positive and outcomes stay in
    range on a few random hide-sets. Raises [Failure] otherwise.
    Kept for tests: the range check run over every game in the battery. *)
