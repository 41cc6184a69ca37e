type estimate = {
  target : int;
  trials : int;
  forced : int;
  proportion : float;
  ci : Stats.Ci.interval;
}

type run =
  key:string -> seed:int -> trials:int ->
  (Sim.Runner.guard -> int ref Sim.Runner.folded) -> int ref

let unsupervised ~key:_ ~seed:_ ~trials:_ f =
  Sim.Runner.value (f Sim.Runner.unguarded)

let control_probability ?(trials = 1000) ?jobs ?(run : run = unsupervised)
    ~seed ~budget ~target ~strategy game =
  (* Trial [index] draws from an RNG derived from [(seed, index)], so the
     estimate is identical for every worker count (the count is
     order-independent anyway, but the samples themselves must not
     depend on scheduling). *)
  let forced =
    let key =
      Printf.sprintf "n=%d;budget=%d;target=%d;strategy=%s" game.Game.n budget
        target strategy.Strategy.name
    in
    !(run ~key ~seed ~trials (fun guard ->
          Sim.Runner.fold ?jobs ~guard ~engine:"coin" ~trials
            ~create:(fun () -> ref 0)
            ~merge:(fun a b -> ref (!a + !b))
            (fun ~index _ n ->
              let rng = Prng.Rng.of_seed_index ~seed ~index in
              let values = Game.sample game rng in
              if
                Strategy.forced_outcome game values ~strategy ~budget ~target
                = target
              then incr n)))
  in
  {
    target;
    trials;
    forced;
    proportion = Stats.Ci.proportion ~successes:forced ~trials;
    ci = Stats.Ci.wilson ~successes:forced trials;
  }

let best_controllable_outcome ?trials ?jobs ?run ~seed ~budget ~strategy game =
  match
    List.init game.Game.k (fun target ->
        control_probability ?trials ?jobs ?run ~seed:(seed + target) ~budget
          ~target ~strategy game)
  with
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
