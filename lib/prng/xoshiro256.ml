(* Nothing allocates on the draw path. The four state words s0..s3 live
   unboxed in one 32-byte block, at byte offsets 0, 8, 16 and 24: a record of
   [mutable int64] fields would box a fresh Int64 on every store (the
   compiler has no flambda). [next] reads the words into let-bound locals,
   which the native compiler keeps in registers, and stores them back raw.

   Dune's dev profile compiles every unit with -opaque, so nothing inlines
   across compilation units. Everything that needs the step's raw 64 bits
   therefore lives in this unit: the SplitMix64 finalizer and seeding, [split],
   the two immediate projections [next_high]/[next_low] from which {!Rng}
   builds its draws, the bounded draw [below] behind [Rng.int], the stream
   bank, and the word kernel [draw_word] that runs a packed Phase A over a
   bank.

   Every step works on the four words at some byte offset of a block: 0
   for a lone generator, 32 i for stream i of a bank. *)
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

let[@inline] write g o s0 s1 s2 s3 =
  set g o s0;
  set g (o + 8) s1;
  set g (o + 16) s2;
  set g (o + 24) s3

let[@inline] make s0 s1 s2 s3 =
  let g = Bytes.create 32 in
  write g 0 s0 s1 s2 s3;
  g

let of_state s0 s1 s2 s3 =
  if Int64.equal s0 0L && Int64.equal s1 0L && Int64.equal s2 0L && Int64.equal s3 0L
  then invalid_arg "Xoshiro256.of_state: all-zero state";
  make s0 s1 s2 s3

(* The first four outputs of [Splitmix64.create seed], written at offset
   [o]. [mix] is a bijection and its four inputs are distinct, so at most
   one word is zero. *)
let[@inline] seed_at g o seed =
  let z0 = Int64.add seed golden_gamma in
  let z1 = Int64.add z0 golden_gamma in
  let z2 = Int64.add z1 golden_gamma in
  let z3 = Int64.add z2 golden_gamma in
  write g o (mix z0) (mix z1) (mix z2) (mix z3)

let[@inline] of_seed seed =
  let g = Bytes.create 32 in
  seed_at g 0 seed;
  g

let copy = Bytes.copy

let[@inline] next_at g o =
  let s0 = get g o and s1 = get g (o + 8) and s2 = get g (o + 16)
  and s3 = get g (o + 24) in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 t in
  let s3 = rotl s3 45 in
  write g o s0 s1 s2 s3;
  result

let[@inline] next g = next_at g 0

let[@inline] high_at g o = Int64.to_int (Int64.shift_right_logical (next_at g o) 1)

let[@inline] low_at g o = Int64.to_int (next_at g o)

let[@inline] next_high g = high_at g 0

let[@inline] next_low g = low_at g 0

(* The smallest all-ones mask covering [bound - 1]: its top set bit
   smeared downwards, in six steps. *)
let[@inline] mask_for bound =
  let m = bound - 1 in
  let m = m lor (m lsr 1) in
  let m = m lor (m lsr 2) in
  let m = m lor (m lsr 4) in
  let m = m lor (m lsr 8) in
  let m = m lor (m lsr 16) in
  m lor (m lsr 32)

(* Uniform int in [0, bound), bound >= 1, by rejection on the low bits
   under [mask_for bound], so every value is equally likely (no modulo
   bias). [Bank.draw_word] writes the same loop out in its own. *)
let below g bound =
  if bound = 1 then 0
  else begin
    let mask = mask_for bound in
    let v = ref (next_low g land mask) in
    while !v >= bound do
      v := next_low g land mask
    done;
    !v
  end

let split g = of_seed (mix (next g))

(* The n streams of a bank live back to back in [states], stream i at byte
   offset 32 i: one block, so copying a bank is one block copy and
   reseeding it writes in place. [scratch] is the one [t] a scalar caller
   reads stream i through: [load] copies the four words in, [store] copies
   them back, as unboxed 64-bit gets and sets. *)
module Bank = struct
  type nonrec t = { states : Bytes.t; scratch : t; n : int }

  (* Stream i is what the i-th of n sequential [split g] returns. *)
  let fill states g n =
    for i = 0 to n - 1 do
      seed_at states (32 * i) (mix (next g))
    done

  let split g n =
    if n < 0 then invalid_arg "Xoshiro256.Bank.split: negative count";
    let states = Bytes.create (32 * n) in
    fill states g n;
    { states; scratch = Bytes.create 32; n }

  let reseed b g = fill b.states g b.n

  let copy b = { b with states = Bytes.copy b.states; scratch = Bytes.create 32 }

  let[@inline] check b i =
    if i < 0 || i >= b.n then invalid_arg "Xoshiro256.Bank: no such stream"

  let load b i =
    check b i;
    let o = 32 * i and g = b.states and s = b.scratch in
    write s 0 (get g o) (get g (o + 8)) (get g (o + 16)) (get g (o + 24));
    s

  let store b i =
    check b i;
    let o = 32 * i and g = b.states and s = b.scratch in
    write g o (get s 0) (get s 8) (get s 16) (get s 24)

  (* One stream per set lane, ascending: each sees the coin (bit 63 of
     one step, as [Rng.bit]) and then [below]'s draws, exactly the scalar
     loop's. The lanes are range-checked once, up front (no set lane at
     or past [n - base]), and the rejection loop is written out here, so
     the lane loop calls nothing and keeps its locals in registers. *)
  let draw_word b ~base ~mask ~coin ~bound (priv : int array) =
    if bound < 0 then invalid_arg "Xoshiro256.Bank.draw_word: negative bound";
    let room = b.n - base in
    if mask <> 0
       && (base < 0 || room <= 0 || (room < Sys.int_size && mask lsr room <> 0))
    then invalid_arg "Xoshiro256.Bank.draw_word: a lane names no stream";
    let g = b.states and bmask = mask_for bound in
    let w = ref 0 and m = ref mask and k = ref 0 in
    while !m <> 0 do
      if !m land 1 = 1 then begin
        let i = base + !k in
        let o = 32 * i in
        if coin && high_at g o < 0 then w := !w lor (1 lsl !k);
        if bound > 1 then begin
          let v = ref (low_at g o land bmask) in
          while !v >= bound do
            v := low_at g o land bmask
          done;
          priv.(i) <- !v
        end
        else if bound = 1 then priv.(i) <- 0
      end;
      m := !m lsr 1;
      incr k
    done;
    !w
end
