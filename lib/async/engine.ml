exception Decision_changed = Sim.Engine.Decision_changed
exception Invalid_action of string

type outcome = {
  decisions : int option array;
  crashed : bool array;
  deliveries : int;
  sends : int;
  coin_flips : int;
  all_decided : bool;
  steps : int;
  max_phase : int option;
}

let run (type s m) ?(max_steps = 200_000) ?phase_of ?(sink = Obs.Sink.null)
    (protocol : (s, m) Protocol.t) (scheduler : m Scheduler.t) ~inputs ~t ~rng
    =
  let emit_on = Obs.Sink.enabled sink in
  let n = Array.length inputs in
  if n = 0 then invalid_arg "Async.Engine.run: no processes";
  if t < 0 || t > n then invalid_arg "Async.Engine.run: bad budget";
  let crashed = Array.make n false in
  let decisions = Array.make n None in
  let bank = Prng.Rng.Bank.split rng n in
  let sched_rng = Prng.Rng.split rng in
  (* In-flight messages in [pending.(0 .. !count - 1)], ascending by id.
     Ids are issued in send order, so appending keeps the store sorted;
     delivery binary-searches and closes the gap, a crash filters in
     place. Slots past [!count] are stale and never read. *)
  let pending : m Scheduler.in_flight array ref = ref [||] in
  let count = ref 0 in
  let push m =
    if !count = Array.length !pending then begin
      let grown = Array.make (Stdlib.max 64 (2 * !count)) m in
      Array.blit !pending 0 grown 0 !count;
      pending := grown
    end;
    !pending.(!count) <- m;
    incr count
  in
  let index_of id =
    let a = !pending in
    let lo = ref 0 and hi = ref !count in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if a.(mid).Scheduler.id < id then lo := mid + 1 else hi := mid
    done;
    if !lo < !count && a.(!lo).Scheduler.id = id then !lo else -1
  in
  let pending_nth k =
    if k < 0 || k >= !count then invalid_arg "Async.Scheduler.pending_nth";
    !pending.(k)
  in
  let next_id = ref 0 in
  let sends = ref 0 in
  let deliveries = ref 0 in
  let crash_budget = ref t in
  let enqueue src (sendlist : m Protocol.send list) =
    List.iter
      (fun { Protocol.dst; payload } ->
        if dst < 0 || dst >= n then
          invalid_arg "Async.Engine.run: protocol sent out of range";
        incr sends;
        (* Messages to crashed processes evaporate immediately. *)
        if not crashed.(dst) then begin
          let id = !next_id in
          incr next_id;
          push { Scheduler.id; src; dst; payload }
        end)
      sendlist
  in
  (* Initialization: every process produces its first sends. *)
  let states =
    Array.init n (fun pid ->
        let state, sendlist = protocol.Protocol.init ~n ~pid ~input:inputs.(pid) in
        enqueue pid sendlist;
        state)
  in
  (* Live processes still undecided: the run stops when it reaches 0. *)
  let undecided = ref n in
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < max_steps do
    if !count = 0 || !undecided = 0 then continue := false
    else begin
      incr steps;
      let view =
        {
          Scheduler.n;
          t;
          crash_budget_left = !crash_budget;
          crashed;
          decided = decisions;
          pending_count = !count;
          pending_nth;
          steps_taken = !steps;
        }
      in
      match scheduler.Scheduler.pick view sched_rng with
      | Scheduler.Crash pid ->
          if pid < 0 || pid >= n then
            raise (Invalid_action (Printf.sprintf "crash %d out of range" pid));
          if crashed.(pid) then
            raise (Invalid_action (Printf.sprintf "process %d already crashed" pid));
          if !crash_budget <= 0 then
            raise (Invalid_action "crash budget exhausted");
          decr crash_budget;
          crashed.(pid) <- true;
          if decisions.(pid) = None then decr undecided;
          if emit_on then
            Obs.Sink.emit sink
              (Obs.Event.Kill
                 {
                   engine = Obs.Event.Async;
                   round = !steps;
                   victim = pid;
                   delivered_to = 0;
                 });
          (* Its in-flight traffic evaporates, both directions. *)
          let a = !pending in
          let kept = ref 0 in
          for i = 0 to !count - 1 do
            let m = a.(i) in
            if m.Scheduler.src <> pid && m.Scheduler.dst <> pid then begin
              a.(!kept) <- m;
              incr kept
            end
          done;
          count := !kept
      | Scheduler.Deliver id -> (
          match index_of id with
          | -1 ->
              raise (Invalid_action (Printf.sprintf "message %d not in flight" id))
          | i ->
              let a = !pending in
              let m = a.(i) in
              Array.blit a (i + 1) a i (!count - i - 1);
              decr count;
              let dst = m.Scheduler.dst in
              if not crashed.(dst) then begin
                incr deliveries;
                let state', sendlist =
                  protocol.Protocol.on_message states.(dst)
                    ~sender:m.Scheduler.src m.Scheduler.payload
                    (Prng.Rng.Bank.load bank dst)
                in
                Prng.Rng.Bank.store bank dst;
                states.(dst) <- state';
                if
                  Sim.Engine.record_decision decisions dst
                    (protocol.Protocol.decision state')
                then begin
                  decr undecided;
                  (* Async has no rounds: the step is the event's timeline. *)
                  if emit_on then
                    Obs.Sink.emit sink
                      (Obs.Event.Decision
                         {
                           engine = Obs.Event.Async;
                           round = !steps;
                           pid = dst;
                           value = Option.get decisions.(dst);
                         })
                end;
                enqueue dst sendlist
              end)
    end
  done;
  let coin_flips =
    Array.fold_left (fun acc s -> acc + protocol.Protocol.coin_flips s) 0 states
  in
  let max_phase =
    Option.map
      (fun f ->
        Array.to_list states
        |> List.mapi (fun i s -> if crashed.(i) then 0 else f s)
        |> List.fold_left Stdlib.max 0)
      phase_of
  in
  {
    decisions = Array.copy decisions;
    crashed = Array.copy crashed;
    deliveries = !deliveries;
    sends = !sends;
    coin_flips;
    all_decided = !undecided = 0;
    steps = !steps;
    max_phase;
  }

type summary = {
  deliveries : Stats.Welford.t;
  phases : Stats.Welford.t;
  flips : Stats.Welford.t;
  mutable non_terminating : int;
  mutable disagreements : int;
  mutable validity_errors : int;
}

let summary_create () =
  {
    deliveries = Stats.Welford.create ();
    phases = Stats.Welford.create ();
    flips = Stats.Welford.create ();
    non_terminating = 0;
    disagreements = 0;
    validity_errors = 0;
  }

let summary_merge a b =
  {
    deliveries = Stats.Welford.merge a.deliveries b.deliveries;
    phases = Stats.Welford.merge a.phases b.phases;
    flips = Stats.Welford.merge a.flips b.flips;
    non_terminating = a.non_terminating + b.non_terminating;
    disagreements = a.disagreements + b.disagreements;
    validity_errors = a.validity_errors + b.validity_errors;
  }

let run_trials ?max_steps ?phase_of ?jobs ?capture ?guard ~trials ~seed
    ~gen_inputs ~t protocol make_scheduler =
  Sim.Runner.fold ?jobs ?capture ?guard
    ~engine:"async" ~trials ~create:summary_create ~merge:summary_merge
    (fun ~index probe s ->
      let rng = Prng.Rng.nth_split ~seed ~index in
      let inputs = gen_inputs rng in
      let sink = Option.map (fun p -> p.Sim.Runner.sink) probe in
      let o =
        run ?max_steps ?phase_of ?sink protocol (make_scheduler ()) ~inputs ~t
          ~rng
      in
      (match probe with
      | None -> ()
      | Some { Sim.Runner.metrics = om; _ } ->
          Obs.Metrics.incr om "async.trials";
          Obs.Metrics.observe_int om "async.deliveries" o.deliveries;
          Obs.Metrics.observe_int om "async.sends" o.sends;
          Obs.Metrics.observe_int om "async.coin_flips" o.coin_flips;
          if not o.all_decided then Obs.Metrics.incr om "async.non_terminating");
      if not o.all_decided then s.non_terminating <- s.non_terminating + 1
      else begin
        Stats.Welford.add_int s.deliveries o.deliveries;
        Stats.Welford.add_int s.flips o.coin_flips;
        Option.iter (Stats.Welford.add_int s.phases) o.max_phase
      end;
      (* Agreement among all deciders; validity on unanimous inputs. *)
      let v =
        Sim.Checker.judge ~inputs o.decisions ~judged:Every
          ~must_decide:(Except o.crashed) ~rounds:o.steps
      in
      if not v.agreement then s.disagreements <- s.disagreements + 1;
      if not v.validity then s.validity_errors <- s.validity_errors + 1)
