(** Exponential Information Gathering (EIG) Byzantine agreement — the
    classic t+1-round, n > 3t protocol (Lynch ch. 6), ancestor of the
    polynomial-message [GM93] the paper cites for "efficient t+1 round
    agreement protocols ... even for Byzantine adversaries".

    Each process grows a tree of relayed claims: the node labelled
    [q1; ...; qk] holds "qk said that ... q1's value is v". Round r
    broadcasts all level r-1 nodes; after t+1 rounds each node is resolved
    bottom-up by strict majority (missing or tied nodes default to 0) and
    the root's resolution is the decision. Along every label at least one
    pid is honest, which anchors the majority argument.

    Message size grows as n^r — fine for the small n this substrate is
    exercised at, and the very reason [GM93] was a contribution.

    Labels are stored as base-n integer codes, most significant digit
    first, so ascending code order is lexicographic label order; each
    tree level is one flat array of n^k slots indexed by code. A message
    is a snapshot of one level and carries that level, so receivers drop
    wrong-level messages, labels already containing the sender, and
    non-bit values. *)

type state

type msg

val protocol : t:int -> (state, msg) Protocol.t
(** Requires n > 3t and n^(t+1) <= [Sys.max_array_length] (both checked
    at init, raising [Invalid_argument]). Decides after exactly t+1
    rounds. *)

val liar : unit -> (state, msg) Adversary.t
(** Corrupts the first [t] processes its budget allows in round 1 and has
    each send every recipient a copy of its staged tree snapshot
    ([view.pending]), with all values flipped for odd recipients —
    relayed, compounding lies. *)

val tree_size : state -> int
(** Number of stored tree nodes.
    Kept for tests: pins the n^r tree growth that makes EIG's messages
    exponential. *)
