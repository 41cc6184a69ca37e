(* The Section 1.2 contrast, end to end.

   Asynchronously, Ben-Or's protocol [BO83] is at the mercy of the
   scheduler: a full-information message-delaying adversary (zero crashes!)
   keeps every report sample balanced so no candidate value ever emerges,
   and the expected number of phases blows up like 2^(n-1). Synchronously,
   the same idea hardened into SynRan is safe against the strongest
   fail-stop adversary at Theta(sqrt(n / log n)) rounds — that gap is the
   question the paper answers.

     dune exec examples/async_vs_sync.exe *)

let async_row n =
  let t = (n - 1) / 2 in
  let protocol = Async.Benor.protocol ~t in
  let measure make_scheduler trials =
    let s =
      Sim.Runner.value
        (Async.Engine.run_trials ~max_steps:400_000
           ~phase_of:Async.Benor.phase ~trials ~seed:11
           ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng n)
           ~t protocol make_scheduler)
    in
    (Stats.Welford.mean s.Async.Engine.phases,
     Stats.Welford.mean s.Async.Engine.flips,
     s.Async.Engine.disagreements)
  in
  let fair_phases, fair_flips, fair_dis = measure (fun () -> Async.Scheduler.fair) 20 in
  let split_phases, split_flips, split_dis =
    measure Async.Benor.splitter (if n >= 8 then 5 else 10)
  in
  Printf.printf "  %4d  %12.1f  %12.1f  %14.1f  %14.1f   %s\n" n fair_phases
    split_phases fair_flips split_flips
    (if fair_dis + split_dis = 0 then "safe" else "UNSAFE");
  ()

let () =
  print_endline "Asynchronous Ben-Or: phases until everyone decides";
  Printf.printf "  %4s  %12s  %12s  %14s  %14s\n" "n" "fair sched"
    "splitter" "flips (fair)" "flips (split)";
  List.iter async_row [ 4; 6; 8 ];
  print_endline "";
  print_endline
    "(splitter phases track 2^(n-1): the full-information scheduler only\n\
    \ loses when every private coin lands the same way)";
  print_endline "";
  (* The synchronous answer: the strongest fail-stop adversary we have,
     with the whole population as budget, against SynRan. *)
  print_endline
    "Synchronous SynRan under the strongest adaptive adversary (t = n-1):";
  Printf.printf "  %4s  %12s  %16s\n" "n" "mean rounds" "sqrt(n/log n)";
  List.iter
    (fun n ->
      let s =
        Sim.Runner.run_trials ~max_rounds:2000 ~trials:30 ~seed:11
          ~gen_inputs:(Sim.Runner.input_gen_random ~n)
          ~t:(n - 1) (Core.Synran.protocol n)
          (fun () ->
            Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
              ~bit_of_msg:Core.Synran.bit_of_msg ())
      in
      Printf.printf "  %4d  %12.1f  %16.2f\n" n (Sim.Runner.mean_rounds s)
        (Core.Theory.upper_bound_large_t_shape ~n))
    [ 16; 64; 256 ];
  print_endline "";
  print_endline
    "Asynchrony costs exponential phases; synchrony caps the damage at\n\
     Theta(sqrt(n / log n)) rounds no matter what the adversary does."
