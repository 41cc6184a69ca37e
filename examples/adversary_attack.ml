(* Adversary gallery: the same protocol, the same kill budget, four
   adversaries of increasing intelligence. The punchline is the paper's:
   only the adaptive, full-information adversary forces long executions —
   an oblivious adversary with the same budget barely slows consensus
   (Section 1.2's contrast with Chor-Merritt-Shmoys).

     dune exec examples/adversary_attack.exe *)

let n = 128
let t = n - 1
let trials = 60

let measure name make_adversary =
  let protocol = Core.Synran.protocol n in
  let s =
    Sim.Runner.run_trials ~max_rounds:2000 ~trials ~seed:7
      ~gen_inputs:(Sim.Runner.input_gen_random ~n)
      ~t protocol make_adversary
  in
  Printf.printf "  %-28s mean %6.2f rounds   (max %3.0f, kills %6.1f)%s\n" name
    (Sim.Runner.mean_rounds s)
    (Stats.Welford.max s.Sim.Runner.rounds)
    (Stats.Welford.mean s.Sim.Runner.kills)
    (if s.Sim.Runner.safety_errors = [] then "" else "  SAFETY VIOLATED");
  s

let () =
  Printf.printf "SynRan, n = %d, adversary budget t = %d, %d trials each\n\n" n
    t trials;
  ignore (measure "null (no failures)" (fun () -> Sim.Adversary.null));
  ignore
    (measure "random crashes (p = 0.05)" (fun () ->
         Baselines.Adversaries.random_crash ~p:0.05));
  ignore
    (measure "oblivious random schedule" (fun () ->
         Baselines.Adversaries.static_random ~seed:7 ~n ~budget:t ~horizon:8));
  ignore
    (measure "adaptive band control" (fun () ->
         Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
           ~bit_of_msg:Core.Synran.bit_of_msg ()));
  Printf.printf "\ntheory: Theorem 1 forces >= %.1f rounds whp; Theorem 3 shape is %.1f\n"
    (Core.Theory.lower_bound_rounds ~n ~t)
    (Core.Theory.tight_bound_shape ~n ~t);

  (* A close-up: one attacked execution, round by round. The "ones" column
     shows the adversary pinning the 1-count at the top of the flip band
     (just under 0.6 of the population) so that no process can decide. *)
  Printf.printf "\nOne attacked execution in detail:\n";
  let rng = Prng.Rng.create 11 in
  let inputs = Sim.Runner.input_gen_random ~n rng in
  let adversary =
    Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
      ~bit_of_msg:Core.Synran.bit_of_msg ()
  in
  let tr = Sim.Trace.create () in
  let o =
    Sim.Engine.run ~observer:Core.Synran.msg_is_one ~sink:(Sim.Trace.sink tr)
      ~max_rounds:2000 (Core.Synran.protocol n) adversary ~inputs ~t ~rng
  in
  print_endline (Sim.Trace.render tr);
  Printf.printf "decided in %s rounds, %d kills\n"
    (match o.Sim.Engine.rounds_to_decide with
    | Some r -> string_of_int r
    | None -> "?")
    o.Sim.Engine.kills_used
