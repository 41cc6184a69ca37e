type msg = { v : int }

type state = {
  n : int;
  t : int;
  value : int;
  decision : int option;
  rounds_since_decision : int;
  halted : bool;
  oracle_seed : int;
}

let coin ~seed ~round =
  Int64.to_int (Prng.Splitmix64.mix (Int64.of_int ((seed * 7_368_787) + round)))
  land 1

let protocol ~t ~oracle_seed =
  let init ~n ~pid:_ ~input =
    if t < 0 then invalid_arg "Rabin.protocol: negative t";
    if n <= 5 * t then invalid_arg "Rabin.protocol: needs n > 5t";
    {
      n;
      t;
      value = input;
      decision = None;
      rounds_since_decision = 0;
      halted = false;
      oracle_seed;
    }
  in
  let phase_a s _rng = (s, { v = s.value }) in
  let phase_b s ~round ~received =
    let ones = ref 0 and total = ref 0 in
    Array.iter
      (fun (_, m) ->
        incr total;
        if m.v = 1 then incr ones)
      received;
    let zeros = !total - !ones in
    let decide_threshold = s.n - s.t in
    let adopt_threshold_double = s.n + s.t in
    let value, decision =
      if !ones >= decide_threshold then (1, Some 1)
      else if zeros >= decide_threshold then (0, Some 0)
      else if 2 * !ones > adopt_threshold_double then (1, s.decision)
      else if 2 * zeros > adopt_threshold_double then (0, s.decision)
      else (coin ~seed:s.oracle_seed ~round, s.decision)
    in
    (* A decided process never changes its value again. *)
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
    Protocol.name = Printf.sprintf "rabin-oracle[t=%d]" t;
    init;
    phase_a;
    phase_b;
    decision = (fun s -> s.decision);
    halted = (fun s -> s.halted);
  }
