type 'msg directive = Honest | Silent | Forge of 'msg

type ('state, 'msg) view = {
  round : int;
  n : int;
  t : int;
  budget_left : int;
  corrupted : bool array;
  pending : 'msg option array;
}

type ('state, 'msg) plan = {
  new_corruptions : int list;
  behaviour : src:int -> dst:int -> 'msg directive;
}

type ('state, 'msg) t = {
  name : string;
  act : ('state, 'msg) view -> Prng.Rng.t -> ('state, 'msg) plan;
}

let honest_plan =
  { new_corruptions = []; behaviour = (fun ~src:_ ~dst:_ -> Honest) }

let null = { name = "null"; act = (fun _ _ -> honest_plan) }

let take k l = List.filteri (fun i _ -> i < k) l

let crash_like ~victims =
  {
    name = "crash-like";
    act =
      (fun view _rng ->
        let new_corruptions =
          victims
          |> List.filter_map (fun (round, pid) ->
                 if
                   round = view.round && pid >= 0 && pid < view.n
                   && not view.corrupted.(pid)
                 then Some pid
                 else None)
          |> take view.budget_left
        in
        { new_corruptions; behaviour = (fun ~src:_ ~dst:_ -> Silent) });
  }

let equivocator ?(corrupt_at = 1) ~budget_fraction () =
  if budget_fraction < 0.0 || budget_fraction > 1.0 then
    invalid_arg "Byz.Adversary.equivocator";
  {
    name = Printf.sprintf "equivocator[%.2f]" budget_fraction;
    act =
      (fun view _rng ->
        let new_corruptions =
          if view.round = corrupt_at then begin
            let want =
              Stdlib.min
                (int_of_float (budget_fraction *. float_of_int view.t))
                view.budget_left
            in
            List.init view.n Fun.id
            |> List.filter (fun i -> not view.corrupted.(i))
            |> take want
          end
          else []
        in
        {
          new_corruptions;
          behaviour =
            (fun ~src:_ ~dst -> if dst land 1 = 0 then Honest else Silent);
        });
  }
