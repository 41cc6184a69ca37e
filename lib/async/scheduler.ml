type 'msg in_flight = { id : int; src : int; dst : int; payload : 'msg }

type 'msg view = {
  n : int;
  t : int;
  crash_budget_left : int;
  crashed : bool array;
  decided : int option array;
  pending_count : int;
  pending_nth : int -> 'msg in_flight;
  steps_taken : int;
}

type action = Deliver of int | Crash of int

type 'msg t = { name : string; pick : 'msg view -> Prng.Rng.t -> action }

let deliver_uniform view rng =
  Deliver (view.pending_nth (Prng.Rng.int rng view.pending_count)).id

let fair = { name = "fair"; pick = deliver_uniform }

let fifo = { name = "fifo"; pick = (fun view _rng -> Deliver (view.pending_nth 0).id) }

let random_crash ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Scheduler.random_crash";
  {
    name = Printf.sprintf "random-crash[p=%.3f]" p;
    pick =
      (fun view rng ->
        let live =
          List.init view.n Fun.id
          |> List.filter (fun i -> not view.crashed.(i))
        in
        if
          view.crash_budget_left > 0 && live <> []
          && Prng.Rng.bernoulli rng p
        then Crash (List.nth live (Prng.Rng.int rng (List.length live)))
        else deliver_uniform view rng);
  }
