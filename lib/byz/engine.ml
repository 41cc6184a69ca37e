exception Budget_exceeded of string
exception Invalid_corruption of string
exception Decision_changed = Sim.Engine.Decision_changed

type outcome = {
  rounds_executed : int;
  rounds_to_decide : int option;
  decisions : int option array;
  corrupted : bool array;
  corruptions_used : int;
  quiescent : bool;
}

let run ?(max_rounds = 10_000) ?(sink = Obs.Sink.null) protocol adversary
    ~inputs ~t ~rng =
  let emit_on = Obs.Sink.enabled sink in
  let n = Array.length inputs in
  if n = 0 then invalid_arg "Byz.Engine.run: no processes";
  if t < 0 || t > n then invalid_arg "Byz.Engine.run: bad budget";
  Array.iter
    (fun b -> if b <> 0 && b <> 1 then invalid_arg "Byz.Engine.run: inputs must be bits")
    inputs;
  let states =
    Array.mapi (fun pid input -> protocol.Protocol.init ~n ~pid ~input) inputs
  in
  let corrupted = Array.make n false in
  let halted = Array.make n false in
  let decisions = Array.make n None in
  let decision_round = Array.make n (-1) in
  let pending = Array.make n None in
  (* Each staged message as the (sender, message) pair receivers get,
     built once per round and shared by every receiver that hears it;
     [row] is the scratch each receiver's [received] is cut from. *)
  let staged = Array.make n None in
  let row = ref [||] in
  let bank = Prng.Rng.Bank.split rng n in
  let adv_rng = Prng.Rng.split rng in
  let corruptions = ref 0 in
  let round = ref 0 in
  let active pid = (not corrupted.(pid)) && not halted.(pid) in
  let rec any_active pid = pid < n && (active pid || any_active (pid + 1)) in
  let continue = ref true in
  while !continue && !round < max_rounds do
    if not (any_active 0) then continue := false
    else begin
      incr round;
      let r = !round in
      (* Phase A: active and corrupted processes stage a message (a
         corrupted one's is the default the adversary may override, from
         its frozen state); a halted honest process stages none. *)
      for pid = 0 to n - 1 do
        if corrupted.(pid) || not halted.(pid) then begin
          let state', m =
            protocol.Protocol.phase_a states.(pid) (Prng.Rng.Bank.load bank pid)
          in
          Prng.Rng.Bank.store bank pid;
          if not corrupted.(pid) then states.(pid) <- state';
          pending.(pid) <- Some m;
          staged.(pid) <- Some (pid, m)
        end
        else begin
          pending.(pid) <- None;
          staged.(pid) <- None
        end
      done;
      (* The adversary reads the engine's own arrays and dictates. *)
      let plan =
        adversary.Adversary.act
          {
            Adversary.round = r;
            n;
            t;
            budget_left = t - !corruptions;
            corrupted;
            pending;
          }
          adv_rng
      in
      List.iter
        (fun pid ->
          if pid < 0 || pid >= n then
            raise (Invalid_corruption (Printf.sprintf "pid %d out of range" pid));
          if corrupted.(pid) then
            raise (Invalid_corruption (Printf.sprintf "pid %d already corrupted" pid));
          if !corruptions >= t then
            raise (Budget_exceeded (Printf.sprintf "round %d" r));
          incr corruptions;
          corrupted.(pid) <- true;
          if emit_on then
            Obs.Sink.emit sink
              (Obs.Event.Kill
                 {
                   engine = Obs.Event.Byz;
                   round = r;
                   victim = pid;
                   (* Corruption freezes the process before delivery; a
                      Byzantine "kill" never partially delivers. *)
                   delivered_to = 0;
                 }))
        plan.Adversary.new_corruptions;
      let delivered_r = ref 0 in
      let newly_decided = ref 0 in
      let newly_halted = ref 0 in
      (* Delivery + Phase B for honest, non-halted receivers. *)
      for dst = 0 to n - 1 do
        if active dst then begin
          (* Senders are asked from n - 1 down and fill [row] from its
             end, so [received] ascends by sender. *)
          let first = ref n in
          for src = n - 1 downto 0 do
            (* An honest sender delivers what it staged this round;
               [staged] was fixed before delivery began, so a process
               halting mid-loop still delivers its final broadcast. *)
            match
              if not corrupted.(src) then staged.(src)
              else
                match plan.Adversary.behaviour ~src ~dst with
                | Adversary.Silent -> None
                | Adversary.Honest -> staged.(src)
                | Adversary.Forge m -> Some (src, m)
            with
            | Some heard ->
                if Array.length !row = 0 then row := Array.make n heard;
                decr first;
                !row.(!first) <- heard
            | None -> ()
          done;
          let received =
            if !first = n then [||] else Array.sub !row !first (n - !first)
          in
          let state' =
            protocol.Protocol.phase_b states.(dst) ~round:r ~received
          in
          let after = protocol.Protocol.decision state' in
          if Sim.Engine.record_decision decisions dst after then begin
            decision_round.(dst) <- r;
            if emit_on then begin
              incr newly_decided;
              Obs.Sink.emit sink
                (Obs.Event.Decision
                   {
                     engine = Obs.Event.Byz;
                     round = r;
                     pid = dst;
                     value = Option.get after;
                   })
            end
          end;
          if emit_on then delivered_r := !delivered_r + Array.length received;
          if protocol.Protocol.halted state' then begin
            halted.(dst) <- true;
            if emit_on then incr newly_halted
          end;
          states.(dst) <- state'
        end
      done;
      if emit_on then begin
        let active_after = ref 0 in
        for pid = 0 to n - 1 do
          if active pid then incr active_after
        done;
        let victims =
          plan.Adversary.new_corruptions |> List.sort_uniq Int.compare
          |> Array.of_list
        in
        Obs.Sink.emit sink
          (Obs.Event.Round
             {
               engine = Obs.Event.Byz;
               round = r;
               active = !active_after;
               victims;
               (* Byzantine corruption has no mid-broadcast cut-off. *)
               partial_sends = 0;
               delivered = !delivered_r;
               newly_decided = !newly_decided;
               newly_halted = !newly_halted;
               ones_pending = None;
             })
      end
    end
  done;
  let rounds_to_decide =
    let worst = ref 0 and all = ref true in
    for i = 0 to n - 1 do
      if not corrupted.(i) then
        if decision_round.(i) < 0 then all := false
        else if decision_round.(i) > !worst then worst := decision_round.(i)
    done;
    if !all then Some !worst else None
  in
  {
    rounds_executed = !round;
    rounds_to_decide;
    decisions;
    corrupted;
    corruptions_used = !corruptions;
    quiescent = not !continue;
  }

let check ~inputs (o : outcome) =
  let honest = Sim.Checker.Except o.corrupted in
  Sim.Checker.judge ~inputs o.decisions ~judged:honest ~must_decide:honest
    ~rounds:o.rounds_executed

type summary = {
  rounds : Stats.Welford.t;
  mutable non_terminating : int;
  mutable agreement_errors : int;
  mutable validity_errors : int;
}

let summary_create () =
  {
    rounds = Stats.Welford.create ();
    non_terminating = 0;
    agreement_errors = 0;
    validity_errors = 0;
  }

let summary_merge a b =
  {
    rounds = Stats.Welford.merge a.rounds b.rounds;
    non_terminating = a.non_terminating + b.non_terminating;
    agreement_errors = a.agreement_errors + b.agreement_errors;
    validity_errors = a.validity_errors + b.validity_errors;
  }

let run_trials ?max_rounds ?jobs ?capture ?guard ~trials ~seed ~gen_inputs ~t
    protocol make_adversary =
  Sim.Runner.fold ?jobs ?capture ?guard
    ~engine:"byz" ~trials ~create:summary_create ~merge:summary_merge
    (fun ~index probe s ->
      let rng = Prng.Rng.nth_split ~seed ~index in
      let inputs = gen_inputs rng in
      let sink = Option.map (fun p -> p.Sim.Runner.sink) probe in
      let o =
        run ?max_rounds ?sink protocol (make_adversary ()) ~inputs ~t ~rng
      in
      (match probe with
      | None -> ()
      | Some { Sim.Runner.metrics = om; _ } ->
          Obs.Metrics.incr om "byz.trials";
          Obs.Metrics.observe_int om "byz.corruptions_used" o.corruptions_used;
          if not o.quiescent then Obs.Metrics.incr om "byz.round_cap_hits");
      (match o.rounds_to_decide with
      | Some r -> Stats.Welford.add_int s.rounds r
      | None -> s.non_terminating <- s.non_terminating + 1);
      let v = check ~inputs o in
      if not v.Sim.Checker.agreement then
        s.agreement_errors <- s.agreement_errors + 1;
      if not v.validity then s.validity_errors <- s.validity_errors + 1)
