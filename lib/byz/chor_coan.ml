type msg = { v : int; coin : int option }

type state = {
  n : int;
  t : int;
  pid : int;
  group_size : int;
  value : int;
  decision : int option;
  rounds_since_decision : int;
  halted : bool;
}

let groups ~n ~group_size = (n + group_size - 1) / group_size

let active_group ~round ~n ~group_size = (round - 1) mod groups ~n ~group_size

let member_of_active ~round ~n ~group_size pid =
  pid / group_size = active_group ~round ~n ~group_size

let protocol ~t ~group_size =
  let init ~n ~pid ~input =
    if t < 0 then invalid_arg "Chor_coan.protocol: negative t";
    if n <= 5 * t then invalid_arg "Chor_coan.protocol: needs n > 5t";
    if group_size < 1 || group_size > n then
      invalid_arg "Chor_coan.protocol: bad group size";
    {
      n;
      t;
      pid;
      group_size;
      value = input;
      decision = None;
      rounds_since_decision = 0;
      halted = false;
    }
  in
  (* Phase A has no round counter; processes tag coins every round and
     receivers keep only the active group's. That wastes a random bit per
     round but keeps the message type simple and leaks nothing extra: the
     adversary already sees all coins in the full-information model. *)
  let phase_a s rng = (s, { v = s.value; coin = Some (Prng.Rng.bit rng) }) in
  let phase_b s ~round ~received =
    let ones = ref 0 and total = ref 0 in
    let group_coin_ones = ref 0 and group_coins = ref 0 in
    Array.iter
      (fun (src, m) ->
        incr total;
        if m.v = 1 then incr ones;
        if member_of_active ~round ~n:s.n ~group_size:s.group_size src then
          match m.coin with
          | Some c ->
              incr group_coins;
              if c = 1 then incr group_coin_ones
          | None -> ())
      received;
    let zeros = !total - !ones in
    let decide_threshold = s.n - s.t in
    let adopt_double = s.n + s.t in
    let value, decision =
      if !ones >= decide_threshold then (1, Some 1)
      else if zeros >= decide_threshold then (0, Some 0)
      else if 2 * !ones > adopt_double then (1, s.decision)
      else if 2 * zeros > adopt_double then (0, s.decision)
      else if !group_coins > 0 then
        ((if 2 * !group_coin_ones >= !group_coins then 1 else 0), s.decision)
      else (s.value, s.decision)
    in
    let value, decision =
      match s.decision with Some v -> (v, Some v) | None -> (value, decision)
    in
    let rounds_since_decision =
      match decision with Some _ -> s.rounds_since_decision + 1 | None -> 0
    in
    {
      s with
      value;
      decision;
      rounds_since_decision;
      halted = rounds_since_decision >= 3;
    }
  in
  {
    Protocol.name = Printf.sprintf "chor-coan[t=%d,g=%d]" t group_size;
    init;
    phase_a;
    phase_b;
    decision = (fun s -> s.decision);
    halted = (fun s -> s.halted);
  }

let group_corruptor ~group_size () =
  {
    Adversary.name = Printf.sprintf "group-corruptor[g=%d]" group_size;
    act =
      (fun view _rng ->
        let n = view.Adversary.n in
        let g = active_group ~round:view.Adversary.round ~n ~group_size in
        let members =
          List.init n Fun.id
          |> List.filter (fun pid ->
                 pid / group_size = g && not view.Adversary.corrupted.(pid))
        in
        let new_corruptions =
          if List.length members <= view.Adversary.budget_left then members
          else []
        in
        {
          Adversary.new_corruptions;
          behaviour = (fun ~src:_ ~dst:_ -> Adversary.Silent);
        });
  }
