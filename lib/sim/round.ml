(* The synchronous round rules, written once (DESIGN §5). Engine, Bitkernel
   and Cohort hold the population differently, but each of them calls this
   one copy of: the start-up checks and RNG split, kill-plan validation, the
   decision discipline, kill application with its events, the Round
   summary and the outcome. Engine's scalar execution lives here as well,
   so Bitkernel's unpacked rounds run Engine's own Phase A, delivery and
   commit code. *)

exception Budget_exceeded of string
exception Invalid_kill of string
exception Decision_changed of string

type outcome = {
  rounds_executed : int;
  rounds_to_decide : int option;
  decisions : int option array;
  faulty : bool array;
  halted : bool array;
  kills_used : int;
  quiescent : bool;
  trace : Trace.t option;
}

type 'msg ledger = {
  n : int;
  t : int;
  alive : bool array;
  halted : bool array;
  decisions : int option array;
  decision_round : int array;  (* -1 = undecided *)
  proc_rngs : Prng.Rng.t array;
  mutable adv_rng : Prng.Rng.t;
  mutable round : int;
  mutable kills_used : int;
  mutable stamp : int array;
      (* Kill validation's scratch: pid i is a victim of round r iff
         [stamp.(i) = r]. Allocated by the first kill round. *)
  trace : Trace.t option;
  sink : Obs.Sink.t;
  observer : ('msg -> bool) option;
}

let ledger ~who ?(record_trace = false) ?observer ?(sink = Obs.Sink.null)
    ~inputs ~t rng =
  let n = Array.length inputs in
  if n = 0 then invalid_arg (who ^ ": no processes");
  if t < 0 || t > n then invalid_arg (who ^ ": budget out of [0, n]");
  Array.iter
    (fun b -> if b <> 0 && b <> 1 then invalid_arg (who ^ ": inputs must be bits"))
    inputs;
  let trace = if record_trace then Some (Trace.create ()) else None in
  (* The trace is a façade: it consumes the same Round events as any
     caller-supplied sink, through a tee. With neither, the effective sink
     is [null] and every emission site reduces to one boolean load. *)
  let sink =
    match trace with None -> sink | Some tr -> Obs.Sink.tee (Trace.sink tr) sink
  in
  (* The adversary stream splits off the master first, then one stream per
     process: every engine consumes [rng] in this order. *)
  let adv_rng = Prng.Rng.split rng in
  let proc_rngs = Prng.Rng.split_n rng n in
  {
    n;
    t;
    alive = Array.make n true;
    halted = Array.make n false;
    decisions = Array.make n None;
    decision_round = Array.make n (-1);
    proc_rngs;
    adv_rng;
    round = 0;
    kills_used = 0;
    stamp = [||];
    trace;
    sink;
    observer;
  }

let active_at lg i = lg.alive.(i) && not lg.halted.(i)

let active_count lg =
  let c = ref 0 in
  for i = 0 to lg.n - 1 do
    if active_at lg i then incr c
  done;
  !c

let alive_count lg =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 lg.alive

let budget_left lg = lg.t - lg.kills_used

(* The view's accessors are closures over arrays that live as long as the
   execution, so they are built once; a round only copies the record with
   its round and budget. *)
type ('state, 'msg) viewer = {
  vlg : 'msg ledger;
  vtmpl : ('state, 'msg) Adversary.view;
}

let viewer lg ~state ~pending ~iter_pending =
  {
    vlg = lg;
    vtmpl =
      {
        Adversary.round = 0;
        n = lg.n;
        t = lg.t;
        budget_left = 0;
        alive = (fun i -> lg.alive.(i));
        active = (fun i -> active_at lg i);
        state;
        pending;
        iter_pending;
        decision = (fun i -> lg.decisions.(i));
      };
  }

let view v ~round = { v.vtmpl with round; budget_left = budget_left v.vlg }

let invalid_kill fmt = Printf.ksprintf (fun s -> raise (Invalid_kill s)) fmt

(* An empty plan is vacuously valid, and checking it allocates nothing:
   most rounds plan no kill. *)
let validate_kills lg = function
  | [] -> 0
  | kills ->
      let round = lg.round + 1 in
      if Array.length lg.stamp < lg.n then lg.stamp <- Array.make lg.n 0;
      let stamp = lg.stamp in
      let count =
        List.fold_left
          (fun count { Adversary.victim; deliver_to } ->
            if victim < 0 || victim >= lg.n then
              invalid_kill "victim %d out of range" victim;
            if not (active_at lg victim) then
              invalid_kill "victim %d is not active" victim;
            if stamp.(victim) = round then
              invalid_kill "victim %d named twice" victim;
            stamp.(victim) <- round;
            List.iter
              (fun r ->
                if r < 0 || r >= lg.n then invalid_kill "recipient %d out of range" r)
              deliver_to;
            count + 1)
          0 kills
      in
      if count > budget_left lg then
        raise
          (Budget_exceeded
             (Printf.sprintf "round %d: %d kills requested, %d left" round count
                (budget_left lg)));
      count

let is_victim lg i = i < Array.length lg.stamp && lg.stamp.(i) = lg.round + 1

let plan lg (adversary : _ Adversary.t) view =
  let kills = adversary.Adversary.plan view lg.adv_rng in
  ignore (validate_kills lg kills);
  kills

let decision_changed fmt =
  Printf.ksprintf (fun s -> raise (Decision_changed s)) fmt

let emit_decision lg ~round pid value =
  Obs.Sink.emit lg.sink
    (Obs.Event.Decision { engine = Obs.Event.Sync; round; pid; value })

let commit_decision lg ~round ~emit j after =
  match (lg.decisions.(j), after) with
  | Some v, Some v' when v <> v' ->
      decision_changed "process %d changed decision %d -> %d" j v v'
  | Some v, None -> decision_changed "process %d revoked decision %d" j v
  | None, Some v ->
      lg.decisions.(j) <- after;
      lg.decision_round.(j) <- round;
      if emit then emit_decision lg ~round j v;
      true
  | None, None | Some _, Some _ -> false

let halted_undecided j = decision_changed "process %d halted without deciding" j

let apply_kills lg ~round kills =
  let emit_on = Obs.Sink.enabled lg.sink in
  List.iter
    (fun { Adversary.victim; deliver_to } ->
      lg.alive.(victim) <- false;
      if emit_on then
        Obs.Sink.emit lg.sink
          (Obs.Event.Kill
             {
               engine = Obs.Event.Sync;
               round;
               victim;
               delivered_to = List.length deliver_to;
             }))
    kills;
  lg.kills_used <- lg.kills_used + List.length kills;
  lg.round <- round

let emit_round lg ~round kills ~active ~delivered ~newly_decided ~newly_halted
    ~ones =
  let victims =
    kills |> List.map (fun k -> k.Adversary.victim) |> List.sort Int.compare
    |> Array.of_list
  in
  let partial_sends =
    List.fold_left
      (fun acc k -> if k.Adversary.deliver_to <> [] then acc + 1 else acc)
      0 kills
  in
  Obs.Sink.emit lg.sink
    (Obs.Event.Round
       {
         engine = Obs.Event.Sync;
         round;
         active;
         victims;
         partial_sends;
         delivered;
         newly_decided;
         newly_halted;
         ones_pending = ones;
       })

(* [decisions] and [halted] are the ledger's arrays or copies of them. *)
let outcome_with lg ~quiescent ~decisions ~halted =
  let rounds_to_decide =
    let vacuous = alive_count lg = 0 in
    if vacuous then Some lg.round
    else begin
      let worst = ref 0 and all = ref true in
      for i = 0 to lg.n - 1 do
        if lg.alive.(i) then
          if lg.decision_round.(i) < 0 then all := false
          else if lg.decision_round.(i) > !worst then worst := lg.decision_round.(i)
      done;
      if !all then Some !worst else None
    end
  in
  {
    rounds_executed = lg.round;
    rounds_to_decide;
    decisions;
    faulty = Array.map not lg.alive;
    halted;
    kills_used = lg.kills_used;
    quiescent;
    trace = lg.trace;
  }

let outcome lg ~quiescent =
  outcome_with lg ~quiescent ~decisions:(Array.copy lg.decisions)
    ~halted:(Array.copy lg.halted)

let final_outcome lg ~quiescent =
  outcome_with lg ~quiescent ~decisions:lg.decisions ~halted:lg.halted

(* --- Engine's scalar execution ------------------------------------- *)

let iter_staged pending f =
  for i = 0 to Array.length pending - 1 do
    match pending.(i) with None -> () | Some m -> f i m
  done

type ('state, 'msg) scalar = {
  protocol : ('state, 'msg) Protocol.t;
  lg : 'msg ledger;
  states : 'state array;
  (* Round-scoped scratch, reused across rounds to keep honest-round
     allocation O(1). Contents are dead between steps; each buffer is
     cleared before use. *)
  pending : 'msg option array;
  killed : bool array;
  (* Kill-round delivery index: receiver j's killed senders whose message
     still reaches it, as a list threaded from [head.(j)] through
     [src]/[next] (-1 ends it), in descending sender pid. Allocated by the
     first kill round and grown on demand, so rounds without kills never
     touch it. *)
  mutable head : int array;
  mutable src : int array;
  mutable next : int array;
  viewer : ('state, 'msg) viewer;  (* over [states] and [pending] *)
}

let scalar_of protocol lg states =
  let pending = Array.make lg.n None in
  {
    protocol;
    lg;
    states;
    pending;
    killed = Array.make lg.n false;
    head = [||];
    src = [||];
    next = [||];
    viewer =
      viewer lg
        ~state:(fun i -> states.(i))
        ~pending:(fun i -> pending.(i))
        ~iter_pending:(iter_staged pending);
  }

let scalar ~who ?record_trace ?observer ?sink protocol ~inputs ~t ~rng =
  let lg = ledger ~who ?record_trace ?observer ?sink ~inputs ~t rng in
  scalar_of protocol lg
    (Array.mapi (fun pid input -> protocol.Protocol.init ~n:lg.n ~pid ~input) inputs)

let phase_a e =
  let lg = e.lg and pending = e.pending in
  Array.fill pending 0 lg.n None;
  for i = 0 to lg.n - 1 do
    if active_at lg i then begin
      let state', msg = e.protocol.Protocol.phase_a e.states.(i) lg.proc_rngs.(i) in
      e.states.(i) <- state';
      pending.(i) <- Some msg
    end
  done

(* Build the delivery index in one walk over the [deliver_to] lists:
   O(n + sum of |deliver_to|). Victims are taken in ascending pid and each
   entry is pushed on the front of its receiver's list, so every list reads
   in descending sender pid. Only receivers are indexed: a recipient that
   is dead, halted or killed this round (the victim itself included) is
   skipped, so [killed] must be set first. While one victim is indexed, its
   earlier entry for a recipient is that recipient's head, so a recipient
   named twice by one victim is indexed once. *)
let index_partial_sends e kills =
  let lg = e.lg in
  let n = lg.n in
  if Array.length e.head < n then e.head <- Array.make n (-1)
  else Array.fill e.head 0 n (-1);
  let head = e.head in
  let len = ref 0 in
  let push r victim =
    if !len = Array.length e.src then begin
      let grow a =
        let b = Array.make (max 64 (2 * !len)) 0 in
        Array.blit a 0 b 0 !len;
        b
      in
      e.src <- grow e.src;
      e.next <- grow e.next
    end;
    e.src.(!len) <- victim;
    e.next.(!len) <- head.(r);
    head.(r) <- !len;
    incr len
  in
  List.iter
    (fun { Adversary.victim; deliver_to } ->
      List.iter
        (fun r ->
          if active_at lg r && not e.killed.(r) then begin
            let h = head.(r) in
            if h < 0 || e.src.(h) <> victim then push r victim
          end)
        deliver_to)
    (List.sort
       (fun a b -> Int.compare a.Adversary.victim b.Adversary.victim)
       kills)

let phase_b e kills ~round =
  let lg = e.lg and pending = e.pending in
  let n = lg.n in
  let killed = e.killed in
  Array.fill killed 0 n false;
  List.iter (fun k -> killed.(k.Adversary.victim) <- true) kills;
  if kills <> [] then index_partial_sends e kills;
  (* Message exchange: receiver j (never a victim) gets sender i's message
     iff i was active and either survived, or was killed but the adversary
     let the i->j message through, i.e. i is on j's index list. *)
  let delivered = ref 0 in
  let newly_decided = ref 0 in
  let newly_halted = ref 0 in
  (* One boolean load per round decides whether any event is built. *)
  let emit_on = Obs.Sink.enabled lg.sink in
  (* Shared Phase-B bookkeeping: decision discipline, halting, counters. *)
  let commit j state' =
    let after = e.protocol.Protocol.decision state' in
    if commit_decision lg ~round ~emit:emit_on j after then incr newly_decided;
    if e.protocol.Protocol.halted state' && not lg.halted.(j) then begin
      if Option.is_none after then halted_undecided j;
      incr newly_halted;
      lg.halted.(j) <- true
    end;
    e.states.(j) <- state'
  in
  (match e.protocol.Protocol.aggregate with
  | Some (Protocol.Aggregate a) when kills = [] ->
      (* Shared-broadcast fast path: with no kills every receiver sees the
         identical sender set, so one O(n) fold serves all of them. The
         absorb order (ascending sender) matches the legacy received
         array exactly, so this agrees even for non-commutative folds. *)
      let acc = ref (a.init ()) in
      let nsenders = ref 0 in
      for i = 0 to n - 1 do
        match pending.(i) with
        | None -> ()
        | Some m ->
            acc := a.absorb !acc ~pid:i m;
            incr nsenders
      done;
      let shared = !acc in
      for j = 0 to n - 1 do
        if active_at lg j then begin
          delivered := !delivered + !nsenders;
          commit j (a.finish e.states.(j) ~round shared)
        end
      done
  | Some (Protocol.Aggregate a) ->
      (* Kill round: fold the surviving senders once, then absorb each
         receiver's indexed killed senders on top, in descending pid. Sound
         because [absorb] is commutative (Protocol contract): a receiver's
         extras land after the survivors instead of interleaved by sender
         id. *)
      let base = ref (a.init ()) in
      let nsurvivors = ref 0 in
      for i = 0 to n - 1 do
        match pending.(i) with
        | Some m when not killed.(i) ->
            base := a.absorb !base ~pid:i m;
            incr nsurvivors
        | _ -> ()
      done;
      let base = !base and head = e.head and src = e.src and next = e.next in
      for j = 0 to n - 1 do
        if active_at lg j && not killed.(j) then begin
          let acc = ref base in
          let c = ref head.(j) in
          while !c >= 0 do
            let i = src.(!c) in
            (match pending.(i) with
            | Some m ->
                acc := a.absorb !acc ~pid:i m;
                incr delivered
            | None -> ());
            c := next.(!c)
          done;
          delivered := !delivered + !nsurvivors;
          commit j (a.finish e.states.(j) ~round !acc)
        end
      done
  | None ->
      (* Legacy exchange: materialize each receiver's (sender, msg) array.
         [c] walks j's index list in step with the descending sender
         loop. *)
      for j = 0 to n - 1 do
        if active_at lg j && not killed.(j) then begin
          let received = ref [] in
          let c = ref (if kills = [] then -1 else e.head.(j)) in
          for i = n - 1 downto 0 do
            match pending.(i) with
            | None -> ()
            | Some msg ->
                let gets_it =
                  if not killed.(i) then true
                  else if !c >= 0 && e.src.(!c) = i then begin
                    c := e.next.(!c);
                    true
                  end
                  else false
                in
                if gets_it then begin
                  received := (i, msg) :: !received;
                  incr delivered
                end
          done;
          commit j
            (e.protocol.Protocol.phase_b e.states.(j) ~round
               ~received:(Array.of_list !received))
        end
      done);
  (* Victims are dead from now on. *)
  apply_kills lg ~round kills;
  if emit_on then
    emit_round lg ~round kills
      ~active:
        (Array.fold_left
           (fun acc m -> if Option.is_some m then acc + 1 else acc)
           0 pending)
      ~delivered:!delivered ~newly_decided:!newly_decided
      ~newly_halted:!newly_halted
      ~ones:
        (match lg.observer with
        | None -> None
        | Some f ->
            Some
              (Array.fold_left
                 (fun acc m -> match m with Some m when f m -> acc + 1 | _ -> acc)
                 0 pending))
