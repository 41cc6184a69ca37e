module IntSet = Set.Make (Int)

type msg = { has_zero : bool; has_one : bool }

type state = {
  rounds_total : int;
  default : int;
  has_zero : bool;
  has_one : bool;
  rounds_done : int;
  prev_senders : IntSet.t option;
  decision : int option;
  early : bool;
}

type acc = { saw_zero : bool; saw_one : bool; senders : IntSet.t }

let protocol ~rounds ?(default = 0) () =
  if rounds < 1 then invalid_arg "Early_stop.protocol: rounds must be >= 1";
  if default <> 0 && default <> 1 then invalid_arg "Early_stop.protocol: default";
  let init ~n:_ ~pid:_ ~input =
    {
      rounds_total = rounds;
      default;
      has_zero = input = 0;
      has_one = input = 1;
      rounds_done = 0;
      prev_senders = None;
      decision = None;
      early = false;
    }
  in
  let phase_a s _rng = (s, { has_zero = s.has_zero; has_one = s.has_one }) in
  let decide s ~has_zero ~has_one =
    match (has_zero, has_one) with
    | true, false -> 0
    | false, true -> 1
    | true, true -> s.default
    | false, false -> assert false
  in
  (* Value-word OR plus sender-set union — both commutative, so the engine's
     shared-aggregate path applies (the set makes absorb O(log n)). *)
  let absorb acc ~pid (m : msg) =
    {
      saw_zero = acc.saw_zero || m.has_zero;
      saw_one = acc.saw_one || m.has_one;
      senders = IntSet.add pid acc.senders;
    }
  in
  let finish s ~round:_ acc =
    let has_zero = s.has_zero || acc.saw_zero in
    let has_one = s.has_one || acc.saw_one in
    let rounds_done = s.rounds_done + 1 in
    let clean =
      match s.prev_senders with
      | Some prev -> IntSet.equal prev acc.senders
      | None -> false
    in
    let decision, early =
      if s.decision <> None then (s.decision, s.early)
      else if clean then (Some (decide s ~has_zero ~has_one), true)
      else if rounds_done >= s.rounds_total then
        (Some (decide s ~has_zero ~has_one), false)
      else (None, false)
    in
    {
      s with
      has_zero;
      has_one;
      rounds_done;
      prev_senders = Some acc.senders;
      decision;
      early;
    }
  in
  Sim.Protocol.with_aggregate
    ~name:(Printf.sprintf "early-floodset[r=%d]" rounds)
    ~init ~phase_a
    ~decision:(fun s -> s.decision)
    ~halted:(fun s -> Option.is_some s.decision)
    (Sim.Protocol.Aggregate
       {
         init = (fun () -> { saw_zero = false; saw_one = false; senders = IntSet.empty });
         absorb;
         finish;
         (* The sender-set acc is per-receiver data, not class-compressible:
            early stopping individuates processes by who they heard from. *)
         cohort = None;
       })
