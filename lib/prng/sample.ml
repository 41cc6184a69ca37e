let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n Fun.id in
  shuffle g a;
  a

let choose_k g n k =
  if k < 0 || k > n then invalid_arg "Sample.choose_k";
  (* Partial Fisher-Yates: only the first k slots are settled. *)
  let a = Array.init n Fun.id in
  for i = 0 to k - 1 do
    let j = Rng.int_in g i (n - 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.sub a 0 k

let binomial g n p =
  if n < 0 then invalid_arg "Sample.binomial: negative n";
  if p <= 0.0 then 0
  else if p >= 1.0 then n
  else begin
    (* Per-trial summation: exact, and fast enough for n up to ~10^5, which
       covers every workload in this reproduction. *)
    let count = ref 0 in
    for _ = 1 to n do
      if Rng.float g < p then incr count
    done;
    !count
  end

let geometric g p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Sample.geometric";
  if p = 1.0 then 0
  else
    (* Inversion: floor(log(U) / log(1-p)). *)
    let u = 1.0 -. Rng.float g in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let exponential g lambda =
  if lambda <= 0.0 then invalid_arg "Sample.exponential";
  let u = 1.0 -. Rng.float g in
  -.log u /. lambda

let categorical g w =
  let total = Array.fold_left ( +. ) 0.0 w in
  if total <= 0.0 || not (Float.is_finite total) then
    invalid_arg "Sample.categorical: weights must sum to a positive finite value";
  Array.iter (fun x -> if x < 0.0 then invalid_arg "Sample.categorical: negative weight") w;
  let target = Rng.float g *. total in
  let rec scan i acc =
    if i = Array.length w - 1 then i
    else
      let acc = acc +. w.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

let random_bits g n = Array.init n (fun _ -> Rng.bit g)
