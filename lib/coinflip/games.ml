let majority_default_zero n =
  Game.counting ~name:(Printf.sprintf "majority0[n=%d]" n) ~n ~k:2
    ~draw:Prng.Rng.bit
    (fun ~sum ~present:_ -> if 2 * sum > n then 1 else 0)

let majority_ignore_missing n =
  Game.counting ~name:(Printf.sprintf "majority[n=%d]" n) ~n ~k:2
    ~draw:Prng.Rng.bit
    (fun ~sum ~present -> if 2 * sum > present then 1 else 0)

let parity n =
  Game.counting ~name:(Printf.sprintf "parity[n=%d]" n) ~n ~k:2
    ~draw:Prng.Rng.bit
    (fun ~sum ~present:_ -> sum land 1)

let dictator n =
  Game.make ~name:(Printf.sprintf "dictator[n=%d]" n) ~n ~k:2
    ~draw:Prng.Rng.bit
    (fun masked ->
      let rec first i =
        if i >= Array.length masked then 0
        else match masked.(i) with Some v -> v land 1 | None -> first (i + 1)
      in
      first 0)

let sum_mod ~k n =
  if k < 2 then invalid_arg "Games.sum_mod: k must be >= 2";
  Game.counting ~name:(Printf.sprintf "sum_mod%d[n=%d]" k n) ~n ~k
    ~draw:(fun rng -> Prng.Rng.int rng k)
    (fun ~sum ~present:_ -> sum mod k)

let weighted_majority ~weights =
  let n = Array.length weights in
  let total = Array.fold_left ( + ) 0 weights in
  Game.make ~name:(Printf.sprintf "weighted_majority[n=%d]" n) ~n ~k:2
    ~draw:Prng.Rng.bit
    (fun masked ->
      let ones = ref 0 in
      Array.iteri
        (fun i v -> match v with Some 1 -> ones := !ones + weights.(i) | _ -> ())
        masked;
      if 2 * !ones > total then 1 else 0)

let tribes ~tribe_size ~tribes =
  if tribe_size < 1 || tribes < 1 then invalid_arg "Games.tribes";
  Game.make ~name:(Printf.sprintf "tribes[%dx%d]" tribes tribe_size)
    ~n:(tribe_size * tribes) ~k:2 ~draw:Prng.Rng.bit
    (fun masked ->
      let tribe_unanimous b =
        let rec check i stop =
          i >= stop
          || (match masked.(i) with Some 1 -> check (i + 1) stop | Some _ | None -> false)
        in
        check (b * tribe_size) ((b + 1) * tribe_size)
      in
      let rec any b = b < tribes && (tribe_unanimous b || any (b + 1)) in
      if any 0 then 1 else 0)

let recursive_majority ~depth =
  if depth < 1 then invalid_arg "Games.recursive_majority";
  let n =
    let rec pow acc d = if d = 0 then acc else pow (acc * 3) (d - 1) in
    pow 1 depth
  in
  Game.make ~name:(Printf.sprintf "recmaj3[d=%d]" depth) ~n ~k:2
    ~draw:Prng.Rng.bit
    (fun masked ->
      (* Evaluate the ternary tree over the leaf interval [lo, lo+len). *)
      let rec value lo len =
        if len = 1 then (match masked.(lo) with Some v -> v land 1 | None -> 0)
        else begin
          let third = len / 3 in
          let a = value lo third in
          let b = value (lo + third) third in
          let c = value (lo + (2 * third)) third in
          if a + b + c >= 2 then 1 else 0
        end
      in
      value 0 n)

let all n =
  [
    majority_default_zero n;
    majority_ignore_missing n;
    parity n;
    dictator n;
    sum_mod ~k:3 n;
  ]
