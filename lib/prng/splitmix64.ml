type t = { mutable state : int64 }

(* Xoshiro256's seeding inlines the finalizer, so it is defined there. *)
let golden_gamma = Xoshiro256.golden_gamma

let mix = Xoshiro256.mix

let create seed = { state = seed }

let next g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state
