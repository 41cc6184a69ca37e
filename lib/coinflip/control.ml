type estimate = {
  target : int;
  trials : int;
  forced : int;
  proportion : float;
  ci : Stats.Ci.interval;
}

let control_probability ?(trials = 1000) ?jobs ?cancel ~seed ~budget ~target
    ~strategy game =
  if trials <= 0 then invalid_arg "Control.control_probability: trials";
  (* Trial [i] draws from an RNG derived from [(seed, i)], so the estimate
     is identical for every worker count (the count is order-independent
     anyway, but the samples themselves must not depend on scheduling). *)
  let s =
    Sim.Parallel.fold_chunks_supervised ?jobs ?cancel ~n:trials
      ~create:(fun () -> ref 0)
      ~work:(fun index acc ->
        let rng = Prng.Rng.of_seed_index ~seed ~index in
        let values = Game.sample game rng in
        let outcome =
          Strategy.forced_outcome game values ~strategy ~budget ~target
        in
        if outcome = target then incr acc)
      ~merge:(fun a b -> ref (!a + !b))
      ()
  in
  (match s.Sim.Parallel.failures with
  | f :: _ ->
      Printexc.raise_with_backtrace f.Sim.Parallel.exn f.Sim.Parallel.backtrace
  | [] -> ());
  (* An estimate over a truncated sample would silently change meaning, so
     a watchdogged run that cannot finish raises instead of degrading. *)
  if s.Sim.Parallel.cancelled then raise Sim.Parallel.Cancelled;
  let forced =
    match s.Sim.Parallel.value with Some r -> !r | None -> assert false
  in
  {
    target;
    trials;
    forced;
    proportion = Stats.Ci.proportion ~successes:forced ~trials;
    ci = Stats.Ci.wilson ~successes:forced trials;
  }

let best_controllable_outcome ?trials ?jobs ?cancel ~seed ~budget ~strategy
    game =
  let estimates =
    List.init game.Game.k (fun target ->
        control_probability ?trials ?jobs ?cancel ~seed:(seed + target) ~budget
          ~target ~strategy game)
  in
  match estimates with
  | [] -> invalid_arg "Control.best_controllable_outcome: game has no outcomes"
  | first :: rest ->
      List.fold_left
        (fun best e -> if e.proportion > best.proportion then e else best)
        first rest

let exact_force_probability ~budget ~target game ~values_of_player =
  let n = game.Game.n in
  if values_of_player < 1 then invalid_arg "Control.exact_force_probability";
  (* Strategy.exhaustive's subset search, uncapped so the answer is exact. *)
  let search = Strategy.exhaustive ~subset_limit:max_int () in
  let total = ref 0 and forceable = ref 0 in
  let values = Array.make n 0 in
  let rec enumerate pos =
    if pos = n then begin
      incr total;
      let c = Game.cursor game values in
      let hidden = search.Strategy.act c ~budget ~target in
      if Game.outcome_with c ~hidden = target then incr forceable
    end
    else
      for v = 0 to values_of_player - 1 do
        values.(pos) <- v;
        enumerate (pos + 1)
      done
  in
  enumerate 0;
  float_of_int !forceable /. float_of_int !total

let controls e ~n = e.proportion > 1.0 -. (1.0 /. float_of_int n)
