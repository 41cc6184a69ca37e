(* Nothing allocates on the draw path. The four state words s0..s3 live
   unboxed in one 32-byte block, at byte offsets 0, 8, 16 and 24: a record of
   [mutable int64] fields would box a fresh Int64 on every store (the
   compiler has no flambda). [next] reads the words into let-bound locals,
   which the native compiler keeps in registers, and stores them back raw.

   Dune's dev profile compiles every unit with -opaque, so nothing inlines
   across compilation units. Everything that needs the step's raw 64 bits
   therefore lives in this unit: the SplitMix64 finalizer and seeding, [split],
   the two immediate projections [next_high]/[next_low] from which {!Rng}
   builds its draws, the bounded draw [below] behind [Rng.int], and the
   word kernel [draw_word] that runs a packed Phase A over many streams. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] make s0 s1 s2 s3 =
  let g = Bytes.create 32 in
  set g 0 s0;
  set g 8 s1;
  set g 16 s2;
  set g 24 s3;
  g

let of_state s0 s1 s2 s3 =
  if Int64.equal s0 0L && Int64.equal s1 0L && Int64.equal s2 0L && Int64.equal s3 0L
  then invalid_arg "Xoshiro256.of_state: all-zero state";
  make s0 s1 s2 s3

(* The first four outputs of [Splitmix64.create seed]. [mix] is a bijection
   and its four inputs are distinct, so at most one word is zero. *)
let[@inline] of_seed seed =
  let z0 = Int64.add seed golden_gamma in
  let z1 = Int64.add z0 golden_gamma in
  let z2 = Int64.add z1 golden_gamma in
  let z3 = Int64.add z2 golden_gamma in
  make (mix z0) (mix z1) (mix z2) (mix z3)

let copy = Bytes.copy

let[@inline] next g =
  let s0 = get g 0 and s1 = get g 8 and s2 = get g 16 and s3 = get g 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 t in
  let s3 = rotl s3 45 in
  set g 0 s0;
  set g 8 s1;
  set g 16 s2;
  set g 24 s3;
  result

let[@inline] next_high g = Int64.to_int (Int64.shift_right_logical (next g) 1)

let[@inline] next_low g = Int64.to_int (next g)

(* Uniform int in [0, bound), bound >= 1, by rejection on the low bits under
   the smallest all-ones mask covering [bound - 1], so every value is
   equally likely (no modulo bias). Smearing the top set bit of
   [bound - 1] downwards builds that mask in six steps. *)
let[@inline] below g bound =
  if bound = 1 then 0
  else begin
    let m = bound - 1 in
    let m = m lor (m lsr 1) in
    let m = m lor (m lsr 2) in
    let m = m lor (m lsr 4) in
    let m = m lor (m lsr 8) in
    let m = m lor (m lsr 16) in
    let mask = m lor (m lsr 32) in
    let v = ref (next_low g land mask) in
    while !v >= bound do
      v := next_low g land mask
    done;
    !v
  end

(* One stream per set lane, ascending: each sees the coin (bit 63 of one
   step, as [Rng.bit]) and then [below], exactly the scalar loop's draws. *)
let draw_word gs ~base ~mask ~coin ~bound (priv : int array) =
  if bound < 0 then invalid_arg "Xoshiro256.draw_word: negative bound";
  let w = ref 0 and m = ref mask and k = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then begin
      let g = gs.(base + !k) in
      if coin && next_high g < 0 then w := !w lor (1 lsl !k);
      if bound > 0 then priv.(base + !k) <- below g bound
    end;
    m := !m lsr 1;
    incr k
  done;
  !w

let split g = of_seed (mix (next g))
