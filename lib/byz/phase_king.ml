type msg = { v : int }

type state = {
  n : int;
  t : int;
  pid : int;
  value : int;
  phase : int;
  round_in_phase : int;  (* 1 = report, 2 = king *)
  maj : int;
  mult : int;
  decision : int option;
  halted : bool;
}

let king_of_phase k = k - 1

let rounds_needed ~t = 2 * (t + 1)

let protocol ~t =
  let init ~n ~pid ~input =
    if t < 0 then invalid_arg "Phase_king.protocol: negative t";
    if n <= 4 * t then invalid_arg "Phase_king.protocol: needs n > 4t";
    {
      n;
      t;
      pid;
      value = input;
      phase = 1;
      round_in_phase = 1;
      maj = input;
      mult = 0;
      decision = None;
      halted = false;
    }
  in
  let phase_a s _rng =
    let payload =
      if s.round_in_phase = 2 && s.pid = king_of_phase s.phase then s.maj
      else s.value
    in
    (s, { v = payload })
  in
  let phase_b s ~round:_ ~received =
    match s.round_in_phase with
    | 1 ->
        let ones = ref 0 and total = ref 0 in
        Array.iter
          (fun (_, m) ->
            incr total;
            if m.v = 1 then incr ones)
          received;
        let zeros = !total - !ones in
        let maj = if !ones >= zeros then 1 else 0 in
        let mult = if maj = 1 then !ones else zeros in
        { s with maj; mult; round_in_phase = 2 }
    | _ ->
        let king = king_of_phase s.phase in
        let king_value =
          Array.fold_left
            (fun acc (src, m) -> if src = king then Some m.v else acc)
            None received
        in
        let value =
          if 2 * s.mult > s.n + (2 * s.t) then s.maj
          else Option.value king_value ~default:0
        in
        if s.phase = s.t + 1 then
          { s with value; decision = Some value; halted = true }
        else { s with value; phase = s.phase + 1; round_in_phase = 1 }
  in
  {
    Protocol.name = Printf.sprintf "phase-king[t=%d]" t;
    init;
    phase_a;
    phase_b;
    decision = (fun s -> s.decision);
    halted = (fun s -> s.halted);
  }

let king_spoofer () =
  {
    Adversary.name = "king-spoofer";
    act =
      (fun view rng ->
        (* Engine round 2k is phase k's king round; corrupt the upcoming
           king at its report round so the corruption is in place for the
           equivocating broadcast. *)
        let phase = (view.Adversary.round + 1) / 2 in
        let king = king_of_phase phase in
        let new_corruptions =
          if
            king >= 0 && king < view.Adversary.n
            && (not view.Adversary.corrupted.(king))
            && view.Adversary.budget_left > 0
          then [ king ]
          else []
        in
        ignore rng;
        {
          Adversary.new_corruptions;
          behaviour =
            (fun ~src:_ ~dst ->
              Adversary.Forge { v = (if dst land 1 = 0 then 0 else 1) });
        });
  }
