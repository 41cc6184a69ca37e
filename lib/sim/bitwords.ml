(* Word-level bit-plane primitives for the bit-packed kernel.

   A "plane" stores one binary register for every process: lane [i mod
   lanes] of word [i / lanes] holds the bit for process [i].  OCaml's
   native [int] gives [Sys.int_size] usable lanes per word (63 on 64-bit
   platforms); we deliberately use the full width rather than rounding
   down to 64, so an all-ones mask is just [-1] and no boxing ever
   happens. *)

let lanes = Sys.int_size
let words_for n = (n + lanes - 1) / lanes

let mask_upto k =
  (* Bits [0, k): [1 lsl k] is unspecified for k >= int_size, so guard. *)
  if k >= lanes then -1 else (1 lsl k) - 1

(* SWAR popcount in one pass over all [lanes] bits.  The 64-bit masks
   fit OCaml's hex literals: each has bit 63 clear, so it keeps its low
   63 bits, and the top pair/nibble/byte fields of a 63-bit word are
   only narrower, never overflowing (bit 62 counts into the top pair,
   and the byte sum of at most 63 lands in bits 56..62). *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let get plane i = (plane.(i / lanes) lsr (i mod lanes)) land 1 = 1

let set plane i b =
  let w = i / lanes and bit = 1 lsl (i mod lanes) in
  if b then plane.(w) <- plane.(w) lor bit else plane.(w) <- plane.(w) land lnot bit

(* Population of [plane land mask], both of length [nw]. *)
let popcount_masked plane mask nw =
  let c = ref 0 in
  for w = 0 to nw - 1 do
    c := !c + popcount (plane.(w) land mask.(w))
  done;
  !c

(* Visit [base + lane] for every set lane of word [m], ascending. *)
let rec iter_word f base m =
  if m <> 0 then begin
    let bit = m land -m in
    (* [bit] has a single bit set; its index is popcount (bit - 1). *)
    f (base + popcount (bit - 1));
    iter_word f base (m lxor bit)
  end

(* Visit the index of every set bit of [mask] (length [nw]) in ascending
   order — the same order a scalar per-process loop would use. *)
let iter_ones mask nw f =
  for w = 0 to nw - 1 do
    iter_word f (w * lanes) mask.(w)
  done
