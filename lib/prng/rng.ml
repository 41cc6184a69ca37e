type t = Xoshiro256.t

let create seed = Xoshiro256.of_seed (Int64.of_int seed)

let bits64 = Xoshiro256.next

let split = Xoshiro256.split

(* Hash (seed, index) into a stream key with two rounds of the SplitMix64
   finalizer, offsetting the index by the golden gamma so that (s, i) and
   (s + 1, i - 1) style collisions cannot occur along the diagonal. *)
let of_seed_index ~seed ~index =
  let open Int64 in
  let key =
    Splitmix64.mix
      (add (Splitmix64.mix (of_int seed))
         (mul Xoshiro256.golden_gamma (add (of_int index) 1L)))
  in
  Xoshiro256.of_seed key

(* Each split consumes one draw of its parent, so the [index]-th split
   only needs the parent advanced [index] draws first. *)
let nth_split ~seed ~index =
  let g = create seed in
  for _ = 1 to index do
    ignore (Xoshiro256.next_low g)
  done;
  split g

let copy = Xoshiro256.copy

(* The draws read the step's bits as immediate ints, so none allocates.
   [bool] is bit 63. *)
let[@inline] bool g = Xoshiro256.next_high g < 0

let bit g = if bool g then 1 else 0

(* The rejection loop is [Xoshiro256.below], shared with
   [Bank.draw_word]. *)
let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Xoshiro256.below g bound

let int_in g lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int g (hi - lo + 1)

(* Top 53 bits, scaled to [0, 1). *)
let[@inline] float g = Float.of_int (Xoshiro256.next_high g lsr 10) *. 0x1p-53

let bernoulli g p = if p >= 1.0 then true else if p <= 0.0 then false else float g < p

module Bank = Xoshiro256.Bank
