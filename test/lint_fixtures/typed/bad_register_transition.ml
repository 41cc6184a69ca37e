(* BAD (T1, register protocol): a nondeterminism source inside a register
   protocol's transition. The engines reach the transition only through
   the records [Protocol.registers] builds ([finish], [bo_step]), which the
   static graph cannot follow, so [transition] must be rooted by name: the
   global-[Random] tie-break must surface as T1. *)

type tallies = { counts : int array; leader : int Lazy.t }

let registers ~transition s =
  transition s ~round:1 ~nrecv:2 ~tallies:{ counts = [| 1 |]; leader = lazy 0 }

let transition s ~round ~nrecv ~tallies =
  if 2 * tallies.counts.(0) = nrecv && Random.bool () then s + round
  else s + Lazy.force tallies.leader

let protocol = registers ~transition

let _ = protocol 0
