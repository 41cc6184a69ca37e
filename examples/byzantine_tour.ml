(* A tour of the Byzantine neighbourhood the paper situates itself in
   (Section 1): deterministic t+1-phase agreement, its collapse one
   corruption past the design point, EIG, Rabin's oracle coin, and the
   Chor-Coan group-coin trade-off.

     dune exec examples/byzantine_tour.exe *)

let run ?(trials = 80) ~n ~t ?(t_actual = -1) protocol adversary =
  let t_actual = if t_actual < 0 then t else t_actual in
  let s =
    Sim.Runner.value
      (Byz.Engine.run_trials ~max_rounds:500 ~trials ~seed:11
         ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng n)
         ~t:t_actual protocol
         (fun () -> adversary))
  in
  Printf.printf "  %-26s vs %-22s %6.2f rounds   %s\n"
    protocol.Byz.Protocol.name adversary.Byz.Adversary.name
    (Stats.Welford.mean s.Byz.Engine.rounds)
    (if s.Byz.Engine.agreement_errors + s.Byz.Engine.validity_errors = 0 then
       "safe"
     else
       Printf.sprintf "UNSAFE (%d agreement, %d validity errors)"
         s.Byz.Engine.agreement_errors s.Byz.Engine.validity_errors)

let () =
  let n = 21 and t = 4 in
  Printf.printf
    "Byzantine agreement at n = %d, t = %d (full equivocation allowed)\n\n" n t;

  Printf.printf "Deterministic protocols run their full worst case:\n";
  run ~n ~t (Byz.Phase_king.protocol ~t) Byz.Adversary.null;
  run ~n ~t (Byz.Phase_king.protocol ~t) (Byz.Phase_king.king_spoofer ());
  (* EIG's messages grow as n^t — the very blow-up [GM93] fixed — so the
     tour runs it at t = 2. *)
  run ~n ~t:2 (Byz.Eig.protocol ~t:2) (Byz.Eig.liar ());
  Printf.printf "\nOne corruption past the design point, the king argument dies:\n";
  run ~n ~t ~t_actual:(t + 1)
    (Byz.Phase_king.protocol ~t)
    (Byz.Phase_king.king_spoofer ());

  Printf.printf
    "\nWeakened adversary (hidden dealer coin, [Rab83]): O(1) rounds at any t:\n";
  run ~n ~t (Byz.Rabin.protocol ~t ~oracle_seed:3) Byz.Adversary.null;
  run ~n ~t
    (Byz.Rabin.protocol ~t ~oracle_seed:3)
    (Byz.Adversary.equivocator ~budget_fraction:1.0 ());

  Printf.printf
    "\nChor-Coan group coins [CC85]: the adaptive adversary pays the whole\n\
     active committee per stalled round (t/g + 2 total):\n";
  List.iter
    (fun g ->
      run ~n ~t
        (Byz.Chor_coan.protocol ~t ~group_size:g)
        (Byz.Chor_coan.group_corruptor ~group_size:g ()))
    [ 1; 2; 4 ];
  Printf.printf
    "\n(the paper's own question lives one model over: fail-stop instead of\n\
     Byzantine, where SynRan and the Theta(t/sqrt(n log(2+t/sqrt n))) bound\n\
     are the tight answer — see the other examples)\n"
