type t = { name : string; base : Game.t; rounds : int }

let make ?name ~rounds base =
  if rounds < 1 then invalid_arg "Multiround.make: rounds must be >= 1";
  if base.Game.k <> 2 then
    invalid_arg "Multiround.make: majority combining needs a 2-outcome game";
  let name =
    Option.value name
      ~default:(Printf.sprintf "%s x%d" base.Game.name rounds)
  in
  { name; base; rounds }

type strategy = {
  sname : string;
  act :
    t -> round:int -> Game.cursor -> budget_left:int -> target:int -> int list;
}

let passive =
  { sname = "passive"; act = (fun _ ~round:_ _ ~budget_left:_ ~target:_ -> []) }

let uniform_split base_strategy =
  {
    sname = "uniform-split[" ^ base_strategy.Strategy.name ^ "]";
    act =
      (fun mr ~round:_ c ~budget_left ~target ->
        let per_round = budget_left / Stdlib.max 1 mr.rounds in
        base_strategy.Strategy.act c
          ~budget:(Stdlib.min per_round budget_left) ~target);
  }

let front_loaded base_strategy =
  {
    sname = "front-loaded[" ^ base_strategy.Strategy.name ^ "]";
    act =
      (fun _ ~round:_ c ~budget_left ~target ->
        base_strategy.Strategy.act c ~budget:budget_left ~target);
  }

let play mr rng ~strategy ~budget ~target =
  let n = mr.base.Game.n in
  let halted = ref [] in
  let budget_left = ref budget in
  let wins = ref 0 in
  for round = 1 to mr.rounds do
    let c = Game.cursor mr.base (Game.sample mr.base rng) in
    List.iter (Game.hide c) !halted;
    let halts =
      strategy.act mr ~round c ~budget_left:!budget_left ~target
    in
    if List.length halts > !budget_left then
      invalid_arg (strategy.sname ^ ": overspent the budget");
    List.iter
      (fun i ->
        if i < 0 || i >= n then invalid_arg (strategy.sname ^ ": bad index");
        if Game.is_hidden c i then
          invalid_arg (strategy.sname ^ ": halted twice");
        Game.hide c i;
        halted := i :: !halted;
        decr budget_left)
      halts;
    if Game.outcome c = target then incr wins
  done;
  if 2 * !wins > mr.rounds then target
  else 1 - target (* ties go against the adversary *)

let bias_probability ?(trials = 600) ~seed ~budget ~target ~strategy mr =
  if trials <= 0 then invalid_arg "Multiround.bias_probability";
  let rng = Prng.Rng.create seed in
  let hits = ref 0 in
  for _ = 1 to trials do
    if play mr rng ~strategy ~budget ~target = target then incr hits
  done;
  float_of_int !hits /. float_of_int trials
