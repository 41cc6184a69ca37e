open Sim

let take_budget view kills =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | k :: rest -> k :: take (n - 1) rest
  in
  take view.Adversary.budget_left kills

let random_crash ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Adversaries.random_crash";
  {
    Adversary.name = Printf.sprintf "random-crash[p=%.3f]" p;
    plan =
      (fun view rng ->
        Adversary.active_pids view
        |> List.filter (fun _ -> Prng.Rng.bernoulli rng p)
        |> List.map Adversary.kill_silent
        |> take_budget view);
  }

let random_partial ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Adversaries.random_partial";
  {
    Adversary.name = Printf.sprintf "random-partial[p=%.3f]" p;
    plan =
      (fun view rng ->
        Adversary.active_pids view
        |> List.filter (fun _ -> Prng.Rng.bernoulli rng p)
        |> List.map (fun pid ->
               let recipients =
                 Adversary.active_pids view
                 |> List.filter (fun _ -> Prng.Rng.bool rng)
               in
               Adversary.kill_after_send pid ~recipients)
        |> take_budget view);
  }

let static_schedule schedule =
  {
    Adversary.name = "static-schedule";
    plan =
      (fun view _rng ->
        schedule
        |> List.filter_map (fun (round, pid) ->
               if
                 round = view.Adversary.round
                 && pid >= 0
                 && pid < view.Adversary.n
                 && view.Adversary.active pid
               then Some (Adversary.kill_silent pid)
               else None)
        |> take_budget view);
  }

let static_random ~seed ~n ~budget ~horizon =
  if budget < 0 || budget > n then invalid_arg "Adversaries.static_random";
  if horizon < 1 then invalid_arg "Adversaries.static_random: horizon";
  let rng = Prng.Rng.create seed in
  let victims = Prng.Sample.choose_k rng n budget in
  let schedule =
    Array.to_list victims
    |> List.map (fun pid -> (Prng.Rng.int_in rng 1 horizon, pid))
  in
  {
    (static_schedule schedule) with
    Adversary.name = Printf.sprintf "static-random[b=%d,h=%d]" budget horizon;
  }

let crash_all_at ~round =
  {
    Adversary.name = Printf.sprintf "crash-all@r%d" round;
    plan =
      (fun view _rng ->
        if view.Adversary.round <> round then []
        else
          Adversary.active_pids view
          |> List.map Adversary.kill_silent
          |> take_budget view);
  }

let drip ~per_round =
  if per_round < 0 then invalid_arg "Adversaries.drip";
  {
    Adversary.name = Printf.sprintf "drip[%d/round]" per_round;
    plan =
      (fun view _rng ->
        Adversary.first_senders view All
          (Stdlib.min per_round view.Adversary.budget_left)
        |> List.map Adversary.kill_silent);
  }

let valency_steer ~per_round ~msg_is_one () =
  let margin = 0.15 in
  if per_round < 0 then invalid_arg "Adversaries.valency_steer: per_round";
  let vote = Protocol.register_of msg_is_one in
  {
    Adversary.name = Printf.sprintf "valency-steer[m=%.2f,%d/round]" margin per_round;
    plan =
      (fun view rng ->
        (* Tally the staged broadcasts; when the one-fraction drifts out
           of the central band, kill senders of the majority bit with
           random partial deliveries to pull the population back toward
           bivalence. Adaptive kills + partial sends + adversary-stream
           draws: each victim's own random list splits the receivers, so
           a packed engine runs up to 2^per_round receiver classes per
           round, and past its class cap its scalar fallback. *)
        let total = view.Adversary.count All in
        if total = 0 then []
        else begin
          let ones = view.Adversary.count (Ones vote) in
          let frac = float_of_int ones /. float_of_int total in
          if frac >= 0.5 -. margin && frac <= 0.5 +. margin then []
          else
            let majority = if frac > 0.5 then Adversary.Ones vote else Zeros vote in
            Adversary.first_senders view majority per_round
            |> List.map (fun pid ->
                   let recipients =
                     Adversary.active_pids view
                     |> List.filter (fun _ -> Prng.Rng.bool rng)
                   in
                   Adversary.kill_after_send pid ~recipients)
            |> take_budget view
        end);
  }
