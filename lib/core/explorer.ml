type ladder = Decide_one | Propose_one | Decide_zero | Propose_zero | Flip_all

let ladder ?(rules = Onesided.paper) ~ones n =
  if ones < 0 || ones > n then invalid_arg "Explorer.ladder";
  match Onesided.classify rules ~ones ~zeros:(n - ones) ~n_prev:n with
  | Onesided.Decide 1 -> Decide_one
  | Onesided.Decide _ -> Decide_zero
  | Onesided.Propose 1 -> Propose_one
  | Onesided.Propose _ -> Propose_zero
  | Onesided.Flip -> Flip_all

let pmf n k = Stats.Binomial.pmf ~n ~k ~p:0.5

(* Split the Binomial(n, 1/2) mass by ladder class. *)
let masses ?rules n =
  let d1 = ref 0.0 and p1 = ref 0.0 and d0 = ref 0.0 and p0 = ref 0.0 in
  let fl = ref 0.0 in
  for k = 0 to n do
    let w = pmf n k in
    match ladder ?rules ~ones:k n with
    | Decide_one -> d1 := !d1 +. w
    | Propose_one -> p1 := !p1 +. w
    | Decide_zero -> d0 := !d0 +. w
    | Propose_zero -> p0 := !p0 +. w
    | Flip_all -> fl := !fl +. w
  done;
  (!d1, !p1, !d0, !p0, !fl)

let flip_band_mass ?rules n =
  let _, _, _, _, fl = masses ?rules n in
  fl

(* Pr[decide 1] from inside the flip band: x = (d1 + p1) + fl * x. *)
let flip_value_p1 ?rules n =
  let d1, p1, _, _, fl = masses ?rules n in
  if fl >= 1.0 then 0.5 (* degenerate: the band absorbs everything *)
  else (d1 +. p1) /. (1.0 -. fl)

let decision_prob ?rules ~ones n =
  match ladder ?rules ~ones n with
  | Decide_one | Propose_one -> 1.0
  | Decide_zero | Propose_zero -> 0.0
  | Flip_all -> flip_value_p1 ?rules n

(* Expected remaining rounds g(o), measured from the receive of a round
   whose 1-count is o, until the stop round inclusive:
   Decide -> 1 (stability holds, stop next round);
   Propose -> 2 (unanimous next round, decide, stop the round after);
   Flip -> 1 + E[g(Binomial)], and inside the band the continuation value
   y satisfies y = 1 + d*1 + ... + fl*y. *)
let g_flip ?rules n =
  let d1, p1, d0, p0, fl = masses ?rules n in
  if fl >= 1.0 then Float.infinity
  else (1.0 +. d1 +. d0 +. (2.0 *. (p1 +. p0))) /. (1.0 -. fl)

(* Second moment of g from inside the flip band. With Y = 1 + Z and
   Z = 1 (w.p. d), 2 (w.p. p), Y' (w.p. fl, iid):
   E[Y]  = 1 + d + 2p + fl E[Y]
   E[Y^2] = 1 + 2 E[Z] + E[Z^2]
          = 1 + 2(d + 2p + fl E[Y]) + d + 4p + fl E[Y^2]. *)
let g_flip_second_moment ?rules n =
  let d1, p1, d0, p0, fl = masses ?rules n in
  if fl >= 1.0 then Float.infinity
  else begin
    let d = d1 +. d0 and p = p1 +. p0 in
    let y1 = g_flip ?rules n in
    (1.0 +. (3.0 *. d) +. (8.0 *. p) +. (2.0 *. fl *. y1)) /. (1.0 -. fl)
  end

let rounds_variance ?rules ~ones n =
  match ladder ?rules ~ones n with
  | Decide_one | Decide_zero | Propose_one | Propose_zero -> 0.0
  | Flip_all ->
      let y1 = g_flip ?rules n in
      g_flip_second_moment ?rules n -. (y1 *. y1)

let expected_rounds ?rules ~ones n =
  let g =
    match ladder ?rules ~ones n with
    | Decide_one | Decide_zero -> 1.0
    | Propose_one | Propose_zero -> 2.0
    | Flip_all -> g_flip ?rules n
  in
  1.0 +. g
