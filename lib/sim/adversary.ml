type kill = { victim : int; deliver_to : int list }

let kill_silent victim = { victim; deliver_to = [] }

let kill_after_send victim ~recipients = { victim; deliver_to = recipients }

let kill_group victims ~recipients =
  List.map (fun victim -> { victim; deliver_to = recipients }) victims

(* [run] starts a run of [len] kills so far, all with list [d]. *)
let rec fold_from f acc run d len = function
  | k :: rest when k.deliver_to == d -> fold_from f acc run d (len + 1) rest
  | [] -> f acc run len
  | k :: rest as next -> fold_from f (f acc run len) next k.deliver_to 1 rest

let fold_runs f acc = function
  | [] -> acc
  | k :: rest as run -> fold_from f acc run k.deliver_to 1 rest

type senders = All | Ones of int | Zeros of int

type ('state, 'msg) view = {
  mutable round : int;
  n : int;
  t : int;
  mutable budget_left : int;
  active : int -> bool;
  count : senders -> int;
  iter_senders : senders -> (int -> unit) -> unit;
  priv : int -> int;
}

(* Raised by [first_senders]'s own walk only, and caught around it: a
   module-level exception, so a call allocates no constructor. *)
exception Enough

let first_senders v s k =
  let acc = ref [] and left = ref k in
  (if k > 0 then
     try
       v.iter_senders s (fun i ->
           acc := i :: !acc;
           decr left;
           if !left = 0 then raise Enough)
     with Enough -> ());
  List.rev !acc

let active_pids v = first_senders v All (v.count All)

type ('state, 'msg) t = {
  name : string;
  plan : ('state, 'msg) view -> Prng.Rng.t -> kill list;
}

let null = { name = "null"; plan = (fun _ _ -> []) }
