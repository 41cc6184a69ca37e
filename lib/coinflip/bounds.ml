let h n =
  if n < 2 then invalid_arg "Bounds.h: n must be >= 2";
  4.0 *. sqrt (float_of_int n *. log (float_of_int n))

let lemma_budget ~k n = float_of_int k *. h n

let schechtman_l0 ~alpha n =
  if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Bounds.schechtman_l0: alpha";
  2.0 *. sqrt (float_of_int n *. log (1.0 /. alpha))

let schechtman_expansion ~alpha ~l n =
  let l0 = schechtman_l0 ~alpha n in
  if l <= l0 then 0.0
  else 1.0 -. exp (-.((l -. l0) ** 2.0) /. (4.0 *. float_of_int n))
