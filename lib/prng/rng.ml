type t = Xoshiro256.t

let create seed = Xoshiro256.of_seed (Int64.of_int seed)

let bits64 = Xoshiro256.next

let split = Xoshiro256.split

let split_n g k = Array.init k (fun _ -> split g)

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

(* Uniform int in [0, bound) by rejection on the low bits under the
   smallest all-ones mask covering [bound - 1], so every value is equally
   likely (no modulo bias). Smearing the top set bit of [bound - 1]
   downwards builds that mask in six steps. *)
let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound = 1 then 0
  else begin
    let m = bound - 1 in
    let m = m lor (m lsr 1) in
    let m = m lor (m lsr 2) in
    let m = m lor (m lsr 4) in
    let m = m lor (m lsr 8) in
    let m = m lor (m lsr 16) in
    let mask = m lor (m lsr 32) in
    let v = ref (Xoshiro256.next_low g land mask) in
    while !v >= bound do
      v := Xoshiro256.next_low g land mask
    done;
    !v
  end

let int_in g lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int g (hi - lo + 1)

(* Top 53 bits, scaled to [0, 1). *)
let[@inline] float g = Float.of_int (Xoshiro256.next_high g lsr 10) *. 0x1p-53

let bernoulli g p = if p >= 1.0 then true else if p <= 0.0 then false else float g < p
