(** Phase King (Berman-Garay-Perry style, simple two-round variant):
    deterministic synchronous Byzantine consensus for n > 4t, in exactly
    2(t+1) rounds — the deterministic t+1-phase benchmark the paper's
    introduction refers to when it says that for large t "the best known
    randomized solution is the deterministic t+1 round protocol" [GM93].

    Phase k (k = 1..t+1), king = process k-1:
    - Round 1: everyone broadcasts its value v; each records the majority
      value [maj] of what it received and its multiplicity [mult].
    - Round 2: the king broadcasts its [maj]; each process keeps its own
      [maj] if [mult > n/2 + t] (a "locked" supermajority no t Byzantine
      processes can fake), otherwise adopts the king's value.

    With t+1 phases some phase has an honest king, which unifies all
    unlocked processes; locked processes already agree. Decide after the
    last phase. *)

type state

type msg

val protocol : t:int -> (state, msg) Protocol.t
(** [protocol ~t] tolerates [t] Byzantine processes when n > 4t (checked
    at init). Always runs exactly 2(t+1) rounds. *)

val rounds_needed : t:int -> int
(** 2(t+1).
    Kept for tests: the deterministic 2(t+1)-round count, pinned against
    measured runs. *)

val king_spoofer : unit -> (state, msg) Adversary.t
(** The adaptive attack on the king schedule: corrupt each phase's king
    just before its round-2 broadcast (while the budget lasts) and
    equivocate — half the recipients are told 0, half 1. With t
    corruptions it burns the first t phases; the (t+1)-th king is honest
    by construction, which is exactly why t+1 phases are necessary and
    sufficient. *)
