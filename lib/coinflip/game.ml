type t = {
  name : string;
  n : int;
  k : int;
  draw : Prng.Rng.t -> int;
  eval : int option array -> int;
  decide : (sum:int -> present:int -> int) option;
}

let make ~name ~n ~k ~draw eval = { name; n; k; draw; eval; decide = None }

let counting ~name ~n ~k ~draw decide =
  let eval masked =
    let sum = ref 0 and present = ref 0 in
    Array.iter
      (function
        | Some v ->
            sum := !sum + v;
            incr present
        | None -> ())
      masked;
    decide ~sum:!sum ~present:!present
  in
  { name; n; k; draw; eval; decide = Some decide }

let sample g rng = Array.init g.n (fun _ -> g.draw rng)

(* [masked] is only kept for games without a counting rule; counting games
   read the running [sum] and [present] instead. *)
type cursor = {
  game : t;
  values : int array;
  hidden : bool array;
  masked : int option array;
  mutable sum : int;
  mutable present : int;
}

let cursor g values =
  if Array.length values <> g.n then invalid_arg "Game.cursor: wrong length";
  {
    game = g;
    values;
    hidden = Array.make g.n false;
    masked =
      (match g.decide with
      | Some _ -> [||]
      | None -> Array.map Option.some values);
    sum = Array.fold_left ( + ) 0 values;
    present = g.n;
  }

let game c = c.game

let value c i = c.values.(i)

let is_hidden c i = c.hidden.(i)

let check_index fn g i =
  if i < 0 || i >= g.n then invalid_arg (fn ^ ": bad index")

let outcome c =
  match c.game.decide with
  | Some decide -> decide ~sum:c.sum ~present:c.present
  | None -> c.game.eval c.masked

let set c i hide =
  let sign = if hide then -1 else 1 in
  c.hidden.(i) <- hide;
  c.sum <- c.sum + (sign * c.values.(i));
  c.present <- c.present + sign;
  match c.game.decide with
  | Some _ -> ()
  | None -> c.masked.(i) <- (if hide then None else Some c.values.(i))

let hide c i =
  check_index "Game.hide" c.game i;
  if c.hidden.(i) then invalid_arg "Game.hide: already hidden";
  set c i true

let unhide c i =
  check_index "Game.unhide" c.game i;
  if not c.hidden.(i) then invalid_arg "Game.unhide: not hidden";
  set c i false

let outcome_if_hidden c i =
  check_index "Game.outcome_if_hidden" c.game i;
  if c.hidden.(i) then invalid_arg "Game.outcome_if_hidden: already hidden";
  match c.game.decide with
  | Some decide -> decide ~sum:(c.sum - c.values.(i)) ~present:(c.present - 1)
  | None ->
      set c i true;
      let v = outcome c in
      set c i false;
      v

let outcome_with c ~hidden =
  List.iter (check_index "Game.outcome_with" c.game) hidden;
  let fresh =
    List.fold_left
      (fun acc i ->
        if c.hidden.(i) then acc
        else begin
          set c i true;
          i :: acc
        end)
      [] hidden
  in
  let v = outcome c in
  List.iter (fun i -> set c i false) fresh;
  v

let eval_with_hidden g values ~hidden =
  List.iter (check_index "Game.eval_with_hidden" g) hidden;
  outcome_with (cursor g values) ~hidden

let play g rng ~hidden = eval_with_hidden g (sample g rng) ~hidden

let validate g rng =
  if g.n <= 0 then failwith (g.name ^ ": no players");
  if g.k < 1 then failwith (g.name ^ ": fewer than one outcome");
  for _ = 1 to 16 do
    let values = sample g rng in
    let hide_count = Prng.Rng.int rng (g.n + 1) in
    let hidden = Array.to_list (Prng.Sample.choose_k rng g.n hide_count) in
    let v = eval_with_hidden g values ~hidden in
    if v < 0 || v >= g.k then failwith (g.name ^ ": outcome out of range")
  done
