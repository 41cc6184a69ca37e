type estimate = {
  min_r : float;
  max_r : float;
  samples_per_policy : int;
  classification : Valency.classification;
}

(* The vote register, and the senders voting [bit]. *)
let vote = Sim.Protocol.register_of Synran.msg_is_one

let voting bit = if bit = 1 then Sim.Adversary.Ones vote else Zeros vote

(* Kill up to three senders of [bit] a round, the highest pids first:
   drives toward the other bit. *)
let kill_senders ~name bit =
  {
    Sim.Adversary.name;
    plan =
      (fun view _rng ->
        let budget = Stdlib.min view.Sim.Adversary.budget_left 3 in
        let skip = view.Sim.Adversary.count (voting bit) - budget in
        let targets = ref [] and seen = ref 0 in
        if budget > 0 then
          view.Sim.Adversary.iter_senders (voting bit) (fun pid ->
              if !seen >= skip then targets := pid :: !targets;
              incr seen);
        List.map Sim.Adversary.kill_silent !targets);
  }

(* Starve [bit]: if affordable, kill every sender of [bit] at once (the
   highest pids first) while one sender of the other bit survives.
   Starving 0 leaves every survivor seeing Z = 0, the zero rule fires,
   and the run decides 1 — the strongest one-shot push toward max r;
   starving 1 drops every survivor under the decide-0 threshold. *)
let starve ~name bit =
  {
    Sim.Adversary.name;
    plan =
      (fun view _rng ->
        let targets = view.Sim.Adversary.count (voting bit) in
        let others = view.Sim.Adversary.count All - targets in
        if others >= 1 && targets > 0 && targets <= view.Sim.Adversary.budget_left
        then begin
          let kills = ref [] in
          view.Sim.Adversary.iter_senders (voting bit) (fun pid ->
              kills := Sim.Adversary.kill_silent pid :: !kills);
          !kills
        end
        else []);
  }

(* The policy palette standing in for "all adversaries in B": benign,
   both one-sided vote-killing directions, and random crashing. The true
   min/max range over B can only be wider, so bivalent/null-valent
   verdicts from these probes are conservative certificates in the
   directions the lower-bound argument needs. One maker per policy, as
   the Runner's [make_adversary]: band control tracks its run, so every
   continuation gets a fresh one; the stateless policies are built once. *)
let policies ~rules =
  let once a () = a in
  [
    once Sim.Adversary.null;
    once (Baselines.Adversaries.random_crash ~p:0.1);
    (fun () -> Lb_adversary.band_control ~rules ~bit_of_msg:Synran.bit_of_msg ());
    once (kill_senders ~name:"kill-ones" 1);
    once (kill_senders ~name:"kill-zeros" 0);
    once (starve ~name:"zero-starve" 0);
    once (starve ~name:"one-starve" 1);
  ]

let decide_probability exec make ~samples ~horizon ~rng =
  let ones = ref 0 and decided = ref 0 in
  for _ = 1 to samples do
    let c = Sim.Bitkernel.snapshot exec in
    Sim.Bitkernel.reseed c rng;
    Sim.Bitkernel.run_until c (make ())
      ~max_rounds:(Sim.Bitkernel.round exec + horizon);
    let o = Sim.Bitkernel.final_outcome c in
    match o.Sim.Engine.rounds_to_decide with
    | Some _ ->
        incr decided;
        if Array.exists (fun d -> d = Some 1) o.Sim.Engine.decisions then
          incr ones
    | None -> ()
  done;
  if !decided = 0 then 0.5 else float_of_int !ones /. float_of_int !decided

let probe ?(samples = 60) ?(horizon = 60) exec ~rng =
  let n = Sim.Bitkernel.n exec in
  let k = Sim.Bitkernel.round exec in
  let ps =
    List.map
      (fun make -> decide_probability exec make ~samples ~horizon ~rng)
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
  let exec = Sim.Bitkernel.start (Synran.protocol n) ~inputs ~t ~rng in
  let probe_rng = Prng.Rng.split rng in
  let rec loop acc k =
    if k >= rounds || Valency.epsilon ~n ~k <= 0.0 then List.rev acc
    else begin
      let est = probe ~samples exec ~rng:probe_rng in
      let acc = (Sim.Bitkernel.round exec, est) :: acc in
      match Sim.Bitkernel.step exec adversary with
      | `Quiescent -> List.rev acc
      | `Continue -> loop acc (k + 1)
    end
  in
  loop [] 0
