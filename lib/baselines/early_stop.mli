(** Early-stopping FloodSet: decide as soon as you observe a locally clean
    round (the same sender set twice in a row), falling back to the t+1
    bound.

    In failure-free runs this decides in 2 rounds; in general in f+2 where
    f is the number of {e actual} failures — the classic refinement of the
    t+1 worst case, and a useful contrast to the paper's point that the
    worst case itself cannot be beaten deterministically. Safe under the
    full partial-send crash model: if my senders at rounds r-1 and r
    coincide, every value held by any live process at the end of r-1 has
    reached me through a surviving forwarder. *)

type state

type msg

val protocol : rounds:int -> ?default:int -> unit -> (state, msg) Sim.Protocol.t
(** [rounds] is the fallback bound (use t+1). *)
