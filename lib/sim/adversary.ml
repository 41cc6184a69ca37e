type kill = { victim : int; deliver_to : int list }

let kill_silent victim = { victim; deliver_to = [] }

let kill_after_send victim ~recipients = { victim; deliver_to = recipients }

let kill_group victims ~recipients =
  List.map (fun victim -> { victim; deliver_to = recipients }) victims

let fold_runs f acc kills =
  let rec fold acc = function
    | [] -> acc
    | k :: rest as run ->
        let rec length len = function
          | k' :: tl when k'.deliver_to == k.deliver_to -> length (len + 1) tl
          | tl -> (len, tl)
        in
        let len, rest = length 1 rest in
        fold (f acc run len) rest
  in
  fold acc kills

type ('state, 'msg) view = {
  round : int;
  n : int;
  t : int;
  budget_left : int;
  alive : int -> bool;
  active : int -> bool;
  state : int -> 'state;
  pending : int -> 'msg option;
  iter_pending : (int -> 'msg -> unit) -> unit;
  decision : int -> int option;
}

let active_pids v =
  let acc = ref [] in
  for i = v.n - 1 downto 0 do
    if v.active i then acc := i :: !acc
  done;
  !acc

type ('state, 'msg) t = {
  name : string;
  plan : ('state, 'msg) view -> Prng.Rng.t -> kill list;
}

let null = { name = "null"; plan = (fun _ _ -> []) }

let map_name f a = { a with name = f a.name }
