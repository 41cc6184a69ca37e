type estimate = {
  min_r : float;
  max_r : float;
  samples_per_policy : int;
  classification : Valency.classification;
}

(* The policy palette standing in for "all adversaries in B": benign,
   both one-sided vote-killing directions, and random crashing. The true
   min/max range over B can only be wider, so bivalent/null-valent
   verdicts from these probes are conservative certificates in the
   directions the lower-bound argument needs. *)
let policies ~rules =
  [
    Sim.Adversary.null;
    Baselines.Adversaries.random_crash ~p:0.1;
    Lb_adversary.band_control ~rules ~bit_of_msg:Synran.bit_of_msg ();
    (* Kill 1-voters: drives toward 0. *)
    {
      Sim.Adversary.name = "kill-ones";
      plan =
        (fun view rng ->
          ignore rng;
          let budget = Stdlib.min view.Sim.Adversary.budget_left 3 in
          let ones = ref [] in
          view.Sim.Adversary.iter_pending (fun pid msg ->
              if Synran.bit_of_msg msg = 1 && view.Sim.Adversary.active pid then
                ones := pid :: !ones);
          !ones
          |> List.filteri (fun i _ -> i < budget)
          |> List.map Sim.Adversary.kill_silent);
    };
    (* Kill 0-voters: drives toward 1. *)
    {
      Sim.Adversary.name = "kill-zeros";
      plan =
        (fun view rng ->
          ignore rng;
          let budget = Stdlib.min view.Sim.Adversary.budget_left 3 in
          let zeros = ref [] in
          view.Sim.Adversary.iter_pending (fun pid msg ->
              if Synran.bit_of_msg msg = 0 && view.Sim.Adversary.active pid then
                zeros := pid :: !zeros);
          !zeros
          |> List.filteri (fun i _ -> i < budget)
          |> List.map Sim.Adversary.kill_silent);
    };
    (* Zero starvation: if affordable, kill every 0-sender at once; all
       survivors see Z = 0, the zero rule fires, and the run decides 1 —
       the strongest one-shot push toward max r. *)
    {
      Sim.Adversary.name = "zero-starve";
      plan =
        (fun view rng ->
          ignore rng;
          let zeros = ref [] and ones = ref 0 in
          view.Sim.Adversary.iter_pending (fun pid msg ->
              if view.Sim.Adversary.active pid then
                if Synran.bit_of_msg msg = 0 then zeros := pid :: !zeros
                else incr ones);
          if
            !ones >= 1 && !zeros <> []
            && List.length !zeros <= view.Sim.Adversary.budget_left
          then List.map Sim.Adversary.kill_silent !zeros
          else []);
    };
    (* The mirror image: killing enough 1-senders drops every survivor
       under the decide-0 threshold. *)
    {
      Sim.Adversary.name = "one-starve";
      plan =
        (fun view rng ->
          ignore rng;
          let ones = ref [] and zeros = ref 0 in
          view.Sim.Adversary.iter_pending (fun pid msg ->
              if view.Sim.Adversary.active pid then
                if Synran.bit_of_msg msg = 1 then ones := pid :: !ones
                else incr zeros);
          if
            !zeros >= 1 && !ones <> []
            && List.length !ones <= view.Sim.Adversary.budget_left
          then List.map Sim.Adversary.kill_silent !ones
          else []);
    };
  ]

let decide_probability exec policy ~samples ~horizon ~rng =
  let ones = ref 0 and decided = ref 0 in
  for _ = 1 to samples do
    let c = Sim.Engine.snapshot exec in
    Sim.Engine.reseed c rng;
    Sim.Engine.run_until c policy ~max_rounds:(Sim.Engine.round exec + horizon);
    let o = Sim.Engine.outcome c in
    match o.Sim.Engine.rounds_to_decide with
    | Some _ ->
        incr decided;
        if Array.exists (fun d -> d = Some 1) o.Sim.Engine.decisions then
          incr ones
    | None -> ()
  done;
  if !decided = 0 then 0.5 else float_of_int !ones /. float_of_int !decided

let probe ?(samples = 60) ?(horizon = 60) exec ~rng =
  let n = Sim.Engine.n exec in
  let k = Sim.Engine.round exec in
  let ps =
    List.map
      (fun policy -> decide_probability exec policy ~samples ~horizon ~rng)
      (policies ~rules:Onesided.paper)
  in
  let min_r = List.fold_left Float.min 1.0 ps in
  let max_r = List.fold_left Float.max 0.0 ps in
  {
    min_r;
    max_r;
    samples_per_policy = samples;
    classification = Valency.classify ~n ~k ~min_r ~max_r;
  }

let trajectory ?(samples = 40) ?(rounds = 10) ~n ~t ~seed adversary =
  let rng = Prng.Rng.create seed in
  let inputs = Sim.Runner.input_gen_split ~n rng in
  let exec = Sim.Engine.start (Synran.protocol n) ~inputs ~t ~rng in
  let probe_rng = Prng.Rng.split rng in
  let rec loop acc k =
    if k >= rounds then List.rev acc
    else begin
      let est = probe ~samples exec ~rng:probe_rng in
      let acc = (Sim.Engine.round exec, est) :: acc in
      match Sim.Engine.step exec adversary with
      | `Quiescent -> List.rev acc
      | `Continue -> loop acc (k + 1)
    end
  in
  loop [] 0
