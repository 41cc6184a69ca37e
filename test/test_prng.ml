(* Unit tests for the prng library: determinism, stream independence,
   range discipline, and coarse distributional sanity. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Splitmix64 ----------------------------------------------------- *)

let test_splitmix_deterministic () =
  let a = Prng.Splitmix64.create 12345L in
  let b = Prng.Splitmix64.create 12345L in
  for i = 1 to 100 do
    Alcotest.(check int64)
      (Printf.sprintf "output %d" i)
      (Prng.Splitmix64.next a) (Prng.Splitmix64.next b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Prng.Splitmix64.create 1L in
  let b = Prng.Splitmix64.create 2L in
  check_bool "different seeds diverge"
    false
    (Prng.Splitmix64.next a = Prng.Splitmix64.next b)

let test_splitmix_mix_injective_sample () =
  let seen = Hashtbl.create 4096 in
  for i = 0 to 9999 do
    let v = Prng.Splitmix64.mix (Int64.of_int i) in
    check_bool "no collision in 10k mixes" false (Hashtbl.mem seen v);
    Hashtbl.replace seen v ()
  done

let test_splitmix_advances () =
  let g = Prng.Splitmix64.create 7L in
  let x = Prng.Splitmix64.next g in
  let y = Prng.Splitmix64.next g in
  check_bool "consecutive outputs differ" false (x = y)

let test_splitmix_reference () =
  (* First outputs for seed 0 of the reference C implementation. *)
  let g = Prng.Splitmix64.create 0L in
  List.iteri
    (fun i want ->
      Alcotest.(check int64) (Printf.sprintf "output %d" i) want (Prng.Splitmix64.next g))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]

(* --- Xoshiro256 ------------------------------------------------------ *)

let test_xoshiro_reference () =
  (* First outputs of the reference xoshiro256starstar.c from state
     (1, 2, 3, 4), as unsigned decimals. *)
  let g = Prng.Xoshiro256.of_state 1L 2L 3L 4L in
  List.iteri
    (fun i want ->
      Alcotest.(check string)
        (Printf.sprintf "output %d" i)
        want
        (Printf.sprintf "%Lu" (Prng.Xoshiro256.next g)))
    [ "11520"; "0"; "1509978240"; "1215971899390074240"; "1216172134540287360";
      "607988272756665600" ]

let test_xoshiro_seeded_by_splitmix () =
  (* [of_seed s] is the state made of the first four SplitMix64 outputs for
     [s], as the authors recommend; the SplitMix64 stream itself is pinned
     to the reference above. *)
  List.iter
    (fun seed ->
      let sm = Prng.Splitmix64.create seed in
      let s0 = Prng.Splitmix64.next sm in
      let s1 = Prng.Splitmix64.next sm in
      let s2 = Prng.Splitmix64.next sm in
      let s3 = Prng.Splitmix64.next sm in
      let a = Prng.Xoshiro256.of_seed seed
      and b = Prng.Xoshiro256.of_state s0 s1 s2 s3 in
      for i = 1 to 4 do
        Alcotest.(check int64)
          (Printf.sprintf "seed %Ld output %d" seed i)
          (Prng.Xoshiro256.next b) (Prng.Xoshiro256.next a)
      done)
    [ 0L; 1L; 0x0123456789ABCDEFL; -1L ]

let test_xoshiro_zero_state_rejected () =
  Alcotest.check_raises "all-zero state"
    (Invalid_argument "Xoshiro256.of_state: all-zero state") (fun () ->
      ignore (Prng.Xoshiro256.of_state 0L 0L 0L 0L))

let test_xoshiro_copy_replays () =
  let g = Prng.Xoshiro256.of_seed 99L in
  ignore (Prng.Xoshiro256.next g);
  let h = Prng.Xoshiro256.copy g in
  for i = 1 to 50 do
    Alcotest.(check int64)
      (Printf.sprintf "replay %d" i)
      (Prng.Xoshiro256.next g) (Prng.Xoshiro256.next h)
  done

let test_xoshiro_sign_bit_balance () =
  let g = Prng.Xoshiro256.of_seed 2024L in
  let negatives = ref 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    if Int64.compare (Prng.Xoshiro256.next g) 0L < 0 then incr negatives
  done;
  let p = float_of_int !negatives /. float_of_int draws in
  check_bool "sign bit near 1/2" true (p > 0.48 && p < 0.52)

(* --- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Prng.Rng.create 11 in
  let b = Prng.Rng.create 11 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Rng.bits64 a) (Prng.Rng.bits64 b)
  done

let test_rng_split_independent () =
  let g = Prng.Rng.create 3 in
  let a = Prng.Rng.split g in
  let b = Prng.Rng.split g in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Prng.Rng.bits64 a = Prng.Rng.bits64 b then incr equal
  done;
  check_bool "split streams differ" true (!equal <= 1)

let test_rng_nth_split () =
  (* Pinned against the sequential loop it replaces: the async and
     Byzantine trial streams are the k-th split of one master. *)
  List.iter
    (fun seed ->
      let master = Prng.Rng.create seed in
      for index = 0 to 20 do
        let sequential = Prng.Rng.split master in
        let direct = Prng.Rng.nth_split ~seed ~index in
        for _ = 1 to 4 do
          Alcotest.(check int64)
            (Printf.sprintf "seed %d split %d" seed index)
            (Prng.Rng.bits64 sequential) (Prng.Rng.bits64 direct)
        done
      done)
    [ 0; 7; 42 ]

(* --- Bank --------------------------------------------------------------- *)

module Bank = Prng.Rng.Bank

(* Draw [k] of bit, int and float from [g]: the three draw shapes. *)
let draws g k =
  List.init k (fun i ->
      match i mod 3 with
      | 0 -> float_of_int (Prng.Rng.bit g)
      | 1 -> float_of_int (Prng.Rng.int g 1_000_003)
      | _ -> Prng.Rng.float g)

(* Every stream of a bank is the matching sequential [Rng.split] of its
   master, draw for draw: the streams are visited in a random order and
   in several bursts, so a [store] that lost a draw, or a [load] of the
   wrong slot, shows up in a later burst. *)
let bank_matches_splits =
  QCheck.Test.make ~name:"bank stream i = i-th Rng.split" ~count:200
    QCheck.(triple small_int (int_range 1 70) (int_range 1 7))
    (fun (seed, n, k) ->
      let bank = Bank.split (Prng.Rng.create seed) n in
      let master = Prng.Rng.create seed in
      let oracle = Array.init n (fun _ -> Prng.Rng.split master) in
      let order = Prng.Sample.permutation (Prng.Rng.create (seed + 1)) n in
      let ok = ref true in
      for _ = 1 to 3 do
        Array.iter
          (fun i ->
            let got = draws (Bank.load bank i) k in
            Bank.store bank i;
            if got <> draws oracle.(i) k then ok := false)
          order
      done;
      !ok)

(* The first draw of stream [i], without advancing the bank. *)
let peek bank i = Prng.Rng.bits64 (Bank.load bank i)

let test_bank_copy_shares_nothing () =
  let n = 9 in
  let a = Bank.split (Prng.Rng.create 4) n in
  let before = Array.init n (peek a) in
  let b = Bank.copy a in
  Alcotest.(check bool) "copy replays the original" true
    (Array.init n (peek b) = before);
  check_bool "scratch not shared" true (Bank.load a 0 != Bank.load b 0);
  (* Advance every stream of the copy, then reseed it: the original's
     streams never move. *)
  for i = 0 to n - 1 do
    ignore (Prng.Rng.bits64 (Bank.load b i));
    Bank.store b i
  done;
  Bank.reseed b (Prng.Rng.create 5);
  Alcotest.(check bool) "original untouched" true (Array.init n (peek a) = before);
  Alcotest.(check bool) "copy moved" false (Array.init n (peek b) = before)

let test_bank_reseed () =
  let n = 12 in
  let bank = Bank.split (Prng.Rng.create 6) n in
  for i = 0 to n - 1 do
    ignore (Prng.Rng.int (Bank.load bank i) 17);
    Bank.store bank i
  done;
  let src = Prng.Rng.create 8 and fresh = Prng.Rng.create 8 in
  Bank.reseed bank src;
  let oracle = Array.init n (fun _ -> Prng.Rng.split fresh) in
  Array.iteri
    (fun i g ->
      Alcotest.(check int64) (Printf.sprintf "stream %d" i) (Prng.Rng.bits64 g)
        (peek bank i))
    oracle;
  (* The source advanced exactly as n splits do. *)
  Alcotest.(check int64) "source" (Prng.Rng.bits64 fresh) (Prng.Rng.bits64 src)

let test_bank_bounds () =
  let bank = Bank.split (Prng.Rng.create 1) 3 in
  let raises name f =
    check_bool name true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  raises "negative count" (fun () -> ignore (Bank.split (Prng.Rng.create 1) (-1)));
  raises "load past the end" (fun () -> ignore (Bank.load bank 3));
  raises "load below 0" (fun () -> ignore (Bank.load bank (-1)));
  raises "store past the end" (fun () -> Bank.store bank 3);
  raises "draw_word lane past the end" (fun () ->
      ignore
        (Bank.draw_word bank ~base:2 ~mask:0b11 ~coin:true ~bound:0
           (Array.make 4 0)));
  raises "load from an empty bank" (fun () ->
      ignore (Bank.load (Bank.split (Prng.Rng.create 1) 0) 0))

let test_rng_int_in_range () =
  let g = Prng.Rng.create 5 in
  List.iter
    (fun bound ->
      for _ = 1 to 500 do
        let v = Prng.Rng.int g bound in
        check_bool
          (Printf.sprintf "0 <= v < %d" bound)
          true
          (v >= 0 && v < bound)
      done)
    [ 1; 2; 3; 7; 8; 100; 1 lsl 20 ]

let test_rng_int_covers_small_range () =
  let g = Prng.Rng.create 6 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Prng.Rng.int g 5) <- true
  done;
  Array.iteri
    (fun i s -> check_bool (Printf.sprintf "value %d seen" i) true s)
    seen

let test_rng_int_invalid_bound () =
  let g = Prng.Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Prng.Rng.int g 0))

let test_rng_int_in () =
  let g = Prng.Rng.create 8 in
  for _ = 1 to 500 do
    let v = Prng.Rng.int_in g (-5) 5 in
    check_bool "in [-5, 5]" true (v >= -5 && v <= 5)
  done;
  check_int "degenerate range" 9 (Prng.Rng.int_in g 9 9);
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Prng.Rng.int_in g 3 2))

let test_rng_float_range () =
  let g = Prng.Rng.create 9 in
  for _ = 1 to 2000 do
    let x = Prng.Rng.float g in
    check_bool "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_float_mean () =
  let g = Prng.Rng.create 10 in
  let total = ref 0.0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    total := !total +. Prng.Rng.float g
  done;
  let mean = !total /. float_of_int draws in
  check_bool "mean near 1/2" true (mean > 0.48 && mean < 0.52)

let test_rng_bernoulli_extremes () =
  let g = Prng.Rng.create 11 in
  for _ = 1 to 50 do
    check_bool "p=1 always true" true (Prng.Rng.bernoulli g 1.0);
    check_bool "p=0 always false" false (Prng.Rng.bernoulli g 0.0)
  done

let test_rng_bernoulli_frequency () =
  let g = Prng.Rng.create 12 in
  let hits = ref 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    if Prng.Rng.bernoulli g 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int draws in
  check_bool "frequency near 0.3" true (p > 0.28 && p < 0.32)

let test_rng_bit_values () =
  let g = Prng.Rng.create 13 in
  for _ = 1 to 200 do
    let b = Prng.Rng.bit g in
    check_bool "bit in {0,1}" true (b = 0 || b = 1)
  done

let test_rng_stream_pinned () =
  (* Pins the Rng streams themselves, independently of any table digest:
     seeding, the rejection order of [int], the bit and float extraction,
     and [split]. *)
  let r = Prng.Rng.of_seed_index ~seed:42 ~index:0 in
  let ints = List.init 4 (fun _ -> Prng.Rng.int r 1_000_000_000) in
  Alcotest.(check (list int)) "int" [ 35101263; 675175476; 700002986; 457927830 ] ints;
  let bits = List.init 8 (fun _ -> Prng.Rng.bit r) in
  Alcotest.(check (list int)) "bit" [ 1; 0; 1; 1; 1; 0; 1; 0 ] bits;
  Alcotest.(check (float 0.0)) "float" 0x1.7d37a3aea8858p-3 (Prng.Rng.float r);
  Alcotest.(check int64) "split" (-840715807768259157L) (Prng.Rng.bits64 (Prng.Rng.split r));
  (* Masks from 1 bit to 62 bits wide. *)
  let r = Prng.Rng.of_seed_index ~seed:7 ~index:3 in
  List.iter
    (fun (bound, want) ->
      check_int (Printf.sprintf "int below %d" bound) want (Prng.Rng.int r bound))
    [ (2, 1); (3, 1); (1000, 46); ((1 lsl 33) + 5, 6900120297);
      ((1 lsl 61) + 1, 1538848557962364882); (max_int, 2855266050307363427) ]

(* Minor-heap words per call of [f], averaged over 10^4 calls. *)
let words_per_call f =
  f ();
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let test_rng_draws_do_not_allocate () =
  (* Only native code keeps the generator state and the drawn bits
     unboxed; bytecode boxes every int64. A float returned from a call that
     is not inlined is always boxed (2 words), and dune's dev profile
     compiles with -opaque, so [float] is held to that box and no more;
     [bernoulli] consumes its float inside the library and allocates
     nothing. *)
  if Sys.backend_type = Sys.Native then begin
    let g = Prng.Rng.create 14 in
    let under limit name f =
      let w = words_per_call f in
      check_bool (Printf.sprintf "%s: %.2f words/call < %g" name w limit) true (w < limit)
    in
    under 1.0 "bit" (fun () -> ignore (Prng.Rng.bit g));
    under 1.0 "bool" (fun () -> ignore (Prng.Rng.bool g));
    under 1.0 "int" (fun () -> ignore (Prng.Rng.int g 1000));
    under 1.0 "int_in" (fun () -> ignore (Prng.Rng.int_in g (-3) 3));
    under 2.5 "float" (fun () -> ignore (Prng.Rng.float g));
    under 1.0 "bernoulli" (fun () -> ignore (Prng.Rng.bernoulli g 0.3));
    under 12.0 "split" (fun () -> ignore (Prng.Rng.split g));
    let bank = Bank.split g Sys.int_size and priv = Array.make Sys.int_size 0 in
    under 1.0 "draw_word" (fun () ->
        ignore
          (Bank.draw_word bank ~base:0 ~mask:(-1) ~coin:true
             ~bound:1_000_000_000 priv));
    under 1.0 "bank load, draw, store" (fun () ->
        let g = Bank.load bank 5 in
        ignore (Prng.Rng.int g 1000);
        Bank.store bank 5);
    under 1.0 "bank reseed" (fun () -> Bank.reseed bank g)
  end

(* --- Sample ----------------------------------------------------------- *)

let test_shuffle_preserves_multiset () =
  let g = Prng.Rng.create 20 in
  let a = Array.init 50 (fun i -> i mod 7) in
  let before = List.sort compare (Array.to_list a) in
  Prng.Sample.shuffle g a;
  let after = List.sort compare (Array.to_list a) in
  Alcotest.(check (list int)) "same multiset" before after

let test_permutation_is_permutation () =
  let g = Prng.Rng.create 21 in
  let p = Prng.Sample.permutation g 40 in
  let sorted = List.sort compare (Array.to_list p) in
  Alcotest.(check (list int)) "0..39" (List.init 40 Fun.id) sorted

let test_permutation_not_identity_usually () =
  let g = Prng.Rng.create 22 in
  let identity = Array.init 40 Fun.id in
  let different = ref 0 in
  for _ = 1 to 10 do
    if Prng.Sample.permutation g 40 <> identity then incr different
  done;
  check_bool "shuffles actually move things" true (!different >= 9)

let test_choose_k_properties () =
  let g = Prng.Rng.create 23 in
  List.iter
    (fun (n, k) ->
      let s = Prng.Sample.choose_k g n k in
      check_int "size" k (Array.length s);
      let l = Array.to_list s in
      check_int "distinct" k (List.length (List.sort_uniq compare l));
      List.iter
        (fun v -> check_bool "in range" true (v >= 0 && v < n))
        l)
    [ (10, 0); (10, 3); (10, 10); (1, 1); (100, 50) ]

let test_choose_k_invalid () =
  let g = Prng.Rng.create 24 in
  Alcotest.check_raises "k > n" (Invalid_argument "Sample.choose_k") (fun () ->
      ignore (Prng.Sample.choose_k g 3 4));
  Alcotest.check_raises "k < 0" (Invalid_argument "Sample.choose_k") (fun () ->
      ignore (Prng.Sample.choose_k g 3 (-1)))

let test_binomial_extremes () =
  let g = Prng.Rng.create 25 in
  check_int "p=0" 0 (Prng.Sample.binomial g 100 0.0);
  check_int "p=1" 100 (Prng.Sample.binomial g 100 1.0);
  check_int "n=0" 0 (Prng.Sample.binomial g 0 0.5)

let test_binomial_range_and_mean () =
  let g = Prng.Rng.create 26 in
  let n = 60 and p = 0.4 in
  let total = ref 0 in
  let draws = 3000 in
  for _ = 1 to draws do
    let v = Prng.Sample.binomial g n p in
    check_bool "in [0,n]" true (v >= 0 && v <= n);
    total := !total + v
  done;
  let mean = float_of_int !total /. float_of_int draws in
  check_bool "mean near np" true (Float.abs (mean -. 24.0) < 1.0)

let test_geometric () =
  let g = Prng.Rng.create 27 in
  check_int "p=1 gives 0" 0 (Prng.Sample.geometric g 1.0);
  let total = ref 0 in
  let draws = 5000 in
  for _ = 1 to draws do
    let v = Prng.Sample.geometric g 0.5 in
    check_bool "non-negative" true (v >= 0);
    total := !total + v
  done;
  let mean = float_of_int !total /. float_of_int draws in
  check_bool "mean near (1-p)/p = 1" true (Float.abs (mean -. 1.0) < 0.15)

let test_exponential () =
  let g = Prng.Rng.create 28 in
  let total = ref 0.0 in
  let draws = 5000 in
  for _ = 1 to draws do
    let v = Prng.Sample.exponential g 2.0 in
    check_bool "positive" true (v >= 0.0);
    total := !total +. v
  done;
  let mean = !total /. float_of_int draws in
  check_bool "mean near 1/lambda" true (Float.abs (mean -. 0.5) < 0.05)

let test_categorical () =
  let g = Prng.Rng.create 29 in
  let w = [| 0.0; 2.0; 0.0; 1.0 |] in
  let counts = Array.make 4 0 in
  for _ = 1 to 3000 do
    let i = Prng.Sample.categorical g w in
    counts.(i) <- counts.(i) + 1
  done;
  check_int "zero-weight index never drawn" 0 counts.(0);
  check_int "zero-weight index never drawn" 0 counts.(2);
  let ratio = float_of_int counts.(1) /. float_of_int counts.(3) in
  check_bool "2:1 ratio approx" true (ratio > 1.7 && ratio < 2.4)

let test_categorical_invalid () =
  let g = Prng.Rng.create 30 in
  Alcotest.check_raises "zero sum"
    (Invalid_argument
       "Sample.categorical: weights must sum to a positive finite value")
    (fun () -> ignore (Prng.Sample.categorical g [| 0.0; 0.0 |]))

let test_random_bits () =
  let g = Prng.Rng.create 31 in
  let bits = Prng.Sample.random_bits g 200 in
  check_int "length" 200 (Array.length bits);
  Array.iter (fun b -> check_bool "bit" true (b = 0 || b = 1)) bits;
  let ones = Array.fold_left ( + ) 0 bits in
  check_bool "roughly balanced" true (ones > 60 && ones < 140)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "prng.splitmix64",
      [
        tc "deterministic" test_splitmix_deterministic;
        tc "seed sensitivity" test_splitmix_seed_sensitivity;
        tc "mix injective on sample" test_splitmix_mix_injective_sample;
        tc "advances" test_splitmix_advances;
        tc "reference outputs" test_splitmix_reference;
      ] );
    ( "prng.xoshiro256",
      [
        tc "zero state rejected" test_xoshiro_zero_state_rejected;
        tc "copy replays" test_xoshiro_copy_replays;
        tc "sign bit balance" test_xoshiro_sign_bit_balance;
        tc "reference outputs" test_xoshiro_reference;
        tc "seeded by SplitMix64" test_xoshiro_seeded_by_splitmix;
      ] );
    ( "prng.rng",
      [
        tc "deterministic" test_rng_deterministic;
        tc "split independence" test_rng_split_independent;
        tc "nth_split = k sequential splits" test_rng_nth_split;
        tc "int range" test_rng_int_in_range;
        tc "int covers range" test_rng_int_covers_small_range;
        tc "int invalid bound" test_rng_int_invalid_bound;
        tc "int_in" test_rng_int_in;
        tc "float range" test_rng_float_range;
        tc "float mean" test_rng_float_mean;
        tc "bernoulli extremes" test_rng_bernoulli_extremes;
        tc "bernoulli frequency" test_rng_bernoulli_frequency;
        tc "bit values" test_rng_bit_values;
        tc "stream pinned" test_rng_stream_pinned;
        tc "draws do not allocate" test_rng_draws_do_not_allocate;
      ] );
    ( "prng.bank",
      [
        QCheck_alcotest.to_alcotest bank_matches_splits;
        tc "copy shares nothing" test_bank_copy_shares_nothing;
        tc "reseed = n fresh splits" test_bank_reseed;
        tc "bounds" test_bank_bounds;
      ] );
    ( "prng.sample",
      [
        tc "shuffle multiset" test_shuffle_preserves_multiset;
        tc "permutation valid" test_permutation_is_permutation;
        tc "permutation moves" test_permutation_not_identity_usually;
        tc "choose_k properties" test_choose_k_properties;
        tc "choose_k invalid" test_choose_k_invalid;
        tc "binomial extremes" test_binomial_extremes;
        tc "binomial range and mean" test_binomial_range_and_mean;
        tc "geometric" test_geometric;
        tc "exponential" test_exponential;
        tc "categorical" test_categorical;
        tc "categorical invalid" test_categorical_invalid;
        tc "random bits" test_random_bits;
      ] );
  ]
