type state = { n : int; value : int; outcome : int option }

let outcome s = s.outcome

let value s = s.value

let of_game (g : Game.t) =
  let name = "sim:" ^ g.name in
  let init ~n ~pid:_ ~input:_ =
    if n <> g.n then
      invalid_arg
        (Printf.sprintf "Sim_game.%s: built for n=%d, ran with n=%d" name g.n
           n);
    { n; value = 0; outcome = None }
  in
  let phase_a s rng =
    let v = g.draw rng in
    ({ s with value = v }, v)
  in
  let halted s = Option.is_some s.outcome in
  match g.decide with
  | Some decide ->
      (* A counting game collapses a round to (sum, present) — a
         commutative fold, so it runs on the engine's shared-aggregate
         fast path. *)
      Sim.Protocol.with_aggregate ~name ~init ~phase_a ~decision:outcome ~halted
        (Sim.Protocol.Aggregate
           {
             init = (fun () -> (0, 0));
             absorb = (fun (sum, present) ~pid:_ v -> (sum + v, present + 1));
             finish =
               (fun s ~round:_ (sum, present) ->
                 { s with outcome = Some (decide ~sum ~present) });
             cohort = None;
           })
  | None ->
      (* Any other game rebuilds the masked value vector (hidden/killed
         players are [None]) for [eval] — the legacy materialized exchange,
         since an arbitrary [eval] is not a fold. *)
      let phase_b s ~round:_ ~received =
        let masked = Array.make s.n None in
        Array.iter (fun (pid, v) -> masked.(pid) <- Some v) received;
        { s with outcome = Some (g.eval masked) }
      in
      {
        Sim.Protocol.name;
        init;
        phase_a;
        phase_b;
        decision = outcome;
        halted;
        aggregate = None;
        bitops = None;
      }
