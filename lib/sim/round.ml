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
}

type 'msg ledger = {
  n : int;
  t : int;
  faulty : bool array;
  halted : bool array;
  decisions : int option array;
  decision_round : int array;  (* -1 = undecided *)
  bank : Prng.Rng.Bank.t;
  mutable adv_rng : Prng.Rng.t;
  mutable round : int;
  mutable kills_used : int;
  mutable stamp : int array;
      (* Kill validation's scratch: pid i is a victim of round r iff
         [stamp.(i) = r]. Allocated by the first kill round. *)
  sink : Obs.Sink.t;
  observer : ('msg -> bool) option;
}

let ledger ~who ?observer ?(sink = Obs.Sink.null) ~inputs ~t rng =
  let n = Array.length inputs in
  if n = 0 then invalid_arg (who ^ ": no processes");
  if t < 0 || t > n then invalid_arg (who ^ ": budget out of [0, n]");
  Array.iter
    (fun b -> if b <> 0 && b <> 1 then invalid_arg (who ^ ": inputs must be bits"))
    inputs;
  (* The adversary stream splits off the master first, then one stream per
     process: every engine consumes [rng] in this order. *)
  let adv_rng = Prng.Rng.split rng in
  let bank = Prng.Rng.Bank.split rng n in
  {
    n;
    t;
    faulty = Array.make n false;
    halted = Array.make n false;
    decisions = Array.make n None;
    decision_round = Array.make n (-1);
    bank;
    adv_rng;
    round = 0;
    kills_used = 0;
    stamp = [||];
    sink;
    observer;
  }

let active_at lg i = not (lg.faulty.(i) || lg.halted.(i))

let active_count lg =
  let c = ref 0 in
  for i = 0 to lg.n - 1 do
    if active_at lg i then incr c
  done;
  !c

let budget_left lg = lg.t - lg.kills_used

(* The view's accessors are closures over arrays that live as long as the
   execution, so the view is built once; a round only sets its round and
   budget in place. *)
type ('state, 'msg) viewer = {
  vlg : 'msg ledger;
  vview : ('state, 'msg) Adversary.view;
}

let viewer lg ~count ~iter_senders ~priv =
  {
    vlg = lg;
    vview =
      {
        Adversary.round = 0;
        n = lg.n;
        t = lg.t;
        budget_left = 0;
        active = (fun i -> active_at lg i);
        count;
        iter_senders;
        priv;
      };
  }

let no_broadcast i =
  invalid_arg
    (Printf.sprintf "Adversary view: process %d stages no broadcast" i)

let register (codec : _ Protocol.codec) r =
  if r < 0 || r >= codec.Protocol.bo_width then
    invalid_arg (Printf.sprintf "Adversary view: no register %d" r);
  r

(* [s] as a test on a staged message, [None] for [All]: a register read
   of a register protocol's word. *)
let selects (type m) (bitops : (_, m) Protocol.bitops option) s :
    (m -> bool) option =
  match (s, bitops) with
  | Adversary.All, _ -> None
  | (Ones _ | Zeros _), None ->
      invalid_arg "Adversary view: register senders need a register protocol"
  | (Ones r | Zeros r), Some { Protocol.bo_word = Type.Equal; bo_codec; _ } ->
      let r = register bo_codec r and bit = match s with Ones _ -> 1 | _ -> 0 in
      Some (fun (m : Protocol.word) -> (m.regs lsr r) land 1 = bit)

(* Loops over the array itself, so the count is a local and [All] calls
   nothing per process. *)
let count_staged bitops pending s =
  let c = ref 0 in
  (match selects bitops s with
  | None ->
      for i = 0 to Array.length pending - 1 do
        if Option.is_some pending.(i) then incr c
      done
  | Some keep ->
      for i = 0 to Array.length pending - 1 do
        match pending.(i) with Some m when keep m -> incr c | _ -> ()
      done);
  !c

let iter_staged_senders bitops pending s f =
  let keep = Option.value (selects bitops s) ~default:(fun _ -> true) in
  for i = 0 to Array.length pending - 1 do
    match pending.(i) with Some m when keep m -> f i | _ -> ()
  done

let priv_staged (type m) (bitops : (_, m) Protocol.bitops option)
    (pending : m option array) i =
  match bitops with
  | None -> invalid_arg "Adversary view: priv needs a register protocol"
  | Some { Protocol.bo_word = Type.Equal; _ } -> (
      match pending.(i) with Some m -> m.Protocol.priv | None -> no_broadcast i)

let view v ~round =
  let view = v.vview in
  view.round <- round;
  view.budget_left <- budget_left v.vlg;
  view

let invalid_kill fmt = Printf.ksprintf (fun s -> raise (Invalid_kill s)) fmt

(* [f] over the first [len] kills of [run]: one run of
   Adversary.fold_runs. *)
let rec iter_run f len = function
  | k :: rest when len > 0 ->
      f k;
      iter_run f (len - 1) rest
  | _ -> ()

(* An empty plan is vacuously valid, and checking it allocates nothing:
   most rounds plan no kill. A run's list is range-checked with its first
   victim only: the later ones name the same recipients, so no check and
   no exception can differ. *)
let validate_kills lg = function
  | [] -> 0
  | kills ->
      let round = lg.round + 1 in
      if Array.length lg.stamp < lg.n then lg.stamp <- Array.make lg.n 0;
      let stamp = lg.stamp in
      let check { Adversary.victim; _ } =
        if victim < 0 || victim >= lg.n then
          invalid_kill "victim %d out of range" victim;
        if not (active_at lg victim) then
          invalid_kill "victim %d is not active" victim;
        if stamp.(victim) = round then
          invalid_kill "victim %d named twice" victim;
        stamp.(victim) <- round
      and recipient r =
        if r < 0 || r >= lg.n then invalid_kill "recipient %d out of range" r
      in
      Adversary.fold_runs
        (fun () run len ->
          check (List.hd run);
          List.iter recipient (List.hd run).Adversary.deliver_to;
          iter_run check (len - 1) (List.tl run))
        () kills;
      let count = List.length kills in
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

let record_decision decisions j after =
  match (decisions.(j), after) with
  | Some v, Some v' when v <> v' ->
      decision_changed "process %d changed decision %d -> %d" j v v'
  | Some v, None -> decision_changed "process %d revoked decision %d" j v
  | None, Some _ ->
      decisions.(j) <- after;
      true
  | None, None | Some _, Some _ -> false

let commit_decision lg ~round ~emit j after =
  let first = record_decision lg.decisions j after in
  if first then begin
    lg.decision_round.(j) <- round;
    if emit then emit_decision lg ~round j (Option.get after)
  end;
  first

let halted_undecided j = decision_changed "process %d halted without deciding" j

let apply_kills lg ~round kills =
  let emit_on = Obs.Sink.enabled lg.sink in
  (* A run's list is measured once, for all of its victims. *)
  Adversary.fold_runs
    (fun () run len ->
      let delivered_to =
        if emit_on then List.length (List.hd run).Adversary.deliver_to else 0
      in
      iter_run
        (fun { Adversary.victim; _ } ->
          lg.faulty.(victim) <- true;
          if emit_on then
            Obs.Sink.emit lg.sink
              (Obs.Event.Kill
                 { engine = Obs.Event.Sync; round; victim; delivered_to }))
        len run)
    () kills;
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

(* [decisions], [faulty] and [halted] are the ledger's arrays or copies of
   them. *)
let outcome_with lg ~quiescent ~decisions ~faulty ~halted =
  let rounds_to_decide =
    let vacuous = Array.for_all Fun.id lg.faulty in
    if vacuous then Some lg.round
    else begin
      let worst = ref 0 and all = ref true in
      for i = 0 to lg.n - 1 do
        if not lg.faulty.(i) then
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
    faulty;
    halted;
    kills_used = lg.kills_used;
    quiescent;
  }

let outcome lg ~quiescent =
  outcome_with lg ~quiescent ~decisions:(Array.copy lg.decisions)
    ~faulty:(Array.copy lg.faulty) ~halted:(Array.copy lg.halted)

let final_outcome lg ~quiescent =
  outcome_with lg ~quiescent ~decisions:lg.decisions ~faulty:lg.faulty
    ~halted:lg.halted

(* --- Engine's scalar execution ------------------------------------- *)

(* Kill-round delivery scratch: the receiver-class trie. It is allocated
   by the first kill round that needs it and grown on demand, so rounds
   without kills never touch it; contents are dead between rounds.
   Receiver j is in class [cls.(j)]. Class 0 is named by no group; class
   k > 0 is class [cparent.(k)] plus group [cgroup.(k)], so a parent is
   numbered before its children. [cchild.(c)] is class c plus group
   [cstamp.(c)], once made. *)
type delivery = {
  mutable cls : int array;
  mutable cparent : int array;
  mutable cgroup : int array;
  mutable cstamp : int array;
  mutable cchild : int array;
}

type ('state, 'msg) scalar = {
  protocol : ('state, 'msg) Protocol.t;
  lg : 'msg ledger;
  states : 'state array;
  (* Round-scoped scratch, reused across rounds to keep honest-round
     allocation O(1). Contents are dead between steps; each buffer is
     cleared before use. *)
  pending : 'msg option array;
  killed : bool array;
  dv : delivery;
  viewer : ('state, 'msg) viewer Lazy.t;
      (* Over [pending], built by Engine's first step:
         Bitkernel's copies never read it. *)
}

let scalar_of protocol lg states =
  let pending = Array.make lg.n None in
  {
    protocol;
    lg;
    states;
    pending;
    killed = Array.make lg.n false;
    dv =
      {
        cls = [||];
        cparent = [||];
        cgroup = [||];
        cstamp = [||];
        cchild = [||];
      };
    viewer =
      lazy
        (let bitops = protocol.Protocol.bitops in
         viewer lg
           ~count:(count_staged bitops pending)
           ~iter_senders:(iter_staged_senders bitops pending)
           ~priv:(priv_staged bitops pending));
  }

let scalar ~who ?observer ?sink protocol ~inputs ~t ~rng =
  let lg = ledger ~who ?observer ?sink ~inputs ~t rng in
  scalar_of protocol lg
    (Array.mapi (fun pid input -> protocol.Protocol.init ~n:lg.n ~pid ~input) inputs)

(* A copy that is stepped on its own shares nothing mutable with its
   original. The stamps are reset: the two step the same round, so a
   shared stamp array would mark the copy's victims in the original.
   Observation does not survive the copy: the Monte-Carlo valency
   continuations step snapshots thousands of times and must stay on the
   zero-cost path, and must not interleave phantom events into the
   original's stream. *)
let copy_ledger lg =
  {
    lg with
    faulty = Array.copy lg.faulty;
    halted = Array.copy lg.halted;
    decisions = Array.copy lg.decisions;
    decision_round = Array.copy lg.decision_round;
    bank = Prng.Rng.Bank.copy lg.bank;
    adv_rng = Prng.Rng.copy lg.adv_rng;
    stamp = [||];
    sink = Obs.Sink.null;
  }

(* Scratch is dead between steps, so the copy gets its own (from
   [scalar_of]) and a view over its own arrays. *)
let snapshot e = scalar_of e.protocol (copy_ledger e.lg) (Array.copy e.states)

let reseed lg rng =
  Prng.Rng.Bank.reseed lg.bank rng;
  lg.adv_rng <- Prng.Rng.split rng

(* Each process draws from its stream through the bank's scratch, which
   [phase_a] does not keep (Prng.Rng.Bank's contract). *)
let phase_a e =
  let lg = e.lg and pending = e.pending in
  Array.fill pending 0 lg.n None;
  for i = 0 to lg.n - 1 do
    if active_at lg i then begin
      let g = Prng.Rng.Bank.load lg.bank i in
      let state', msg = e.protocol.Protocol.phase_a e.states.(i) g in
      Prng.Rng.Bank.store lg.bank i;
      e.states.(i) <- state';
      pending.(i) <- Some msg
    end
  done

(* [a], or a copy of it with room for index [i]. *)
let room a i =
  if i < Array.length a then a
  else begin
    let b = Array.make (max 64 (2 * i)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The plan's groups: its runs of kills that deliver to anyone
   (Adversary.fold_runs), one-victim runs included, as (run, length) in
   plan order. *)
let groups kills =
  Adversary.fold_runs
    (fun acc run len ->
      match run with
      | { Adversary.deliver_to = _ :: _; _ } :: _ -> (run, len) :: acc
      | _ -> acc)
    [] kills
  |> List.rev |> Array.of_list

(* Put every receiver in the class of the groups that name it, with one
   walk over each group's list: O(n + sum of |R_g|), and one new class per
   distinct class a group's receivers come from. A recipient that is not a
   receiver (dead, halted or killed this round, the victim itself
   included) is skipped, so [killed] must be set first, and one a group
   names twice joins it once: by then its class is one the group made.
   Returns the number of classes. *)
let classify e groups =
  let lg = e.lg and d = e.dv in
  let n = lg.n in
  if Array.length d.cls < n then d.cls <- Array.make n 0
  else Array.fill d.cls 0 n 0;
  let cls = d.cls in
  let make_class k ~parent ~group =
    if k >= Array.length d.cparent then begin
      d.cparent <- room d.cparent k;
      d.cgroup <- room d.cgroup k;
      d.cstamp <- room d.cstamp k;
      d.cchild <- room d.cchild k
    end;
    d.cparent.(k) <- parent;
    d.cgroup.(k) <- group;
    d.cstamp.(k) <- 0
  in
  make_class 0 ~parent:0 ~group:0;
  let count = ref 1 in
  Array.iteri
    (fun gi (run, _) ->
      let g = gi + 1 in
      List.iter
        (fun j ->
          if active_at lg j && not e.killed.(j) then begin
            let c = cls.(j) in
            if d.cgroup.(c) <> g then begin
              if d.cstamp.(c) <> g then begin
                make_class !count ~parent:c ~group:g;
                d.cstamp.(c) <- g;
                d.cchild.(c) <- !count;
                incr count
              end;
              cls.(j) <- d.cchild.(c)
            end
          end)
        (List.hd run).Adversary.deliver_to)
    groups;
  !count

let phase_b e kills ~round =
  let lg = e.lg and pending = e.pending in
  let n = lg.n in
  let killed = e.killed in
  Array.fill killed 0 n false;
  List.iter (fun k -> killed.(k.Adversary.victim) <- true) kills;
  (* Message exchange: receiver j (never a victim) gets sender i's message
     iff i was active and either survived, or was killed but the adversary
     let the i->j message through: i's [deliver_to] names j. *)
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
  | Some (Protocol.Aggregate a) ->
      (* Fold the surviving senders once, ascending. Every class of
         receivers (see [classify]) shares one accumulator: its parent's,
         with its group's victims absorbed on top, once. A round with no
         group has one class, whose accumulator is that ascending fold:
         the legacy received array's order, so an honest round agrees
         even for a non-commutative fold. With groups, [absorb]'s
         commutativity (Protocol contract) makes it sound: a receiver's
         extras land after the survivors, group by group, instead of
         interleaved by sender id. *)
      let base = ref (a.init ()) in
      let nsurvivors = ref 0 in
      for i = 0 to n - 1 do
        match pending.(i) with
        | Some m when not killed.(i) ->
            base := a.absorb !base ~pid:i m;
            incr nsurvivors
        | _ -> ()
      done;
      let groups = groups kills in
      let nclasses = if Array.length groups = 0 then 1 else classify e groups in
      let d = e.dv in
      (* Each class's accumulator, and the messages its groups deliver. *)
      let accs = Array.make nclasses !base and extra = Array.make nclasses 0 in
      for k = 1 to nclasses - 1 do
        let parent = d.cparent.(k) in
        let run, len = groups.(d.cgroup.(k) - 1) in
        let acc = ref accs.(parent) and count = ref extra.(parent) in
        iter_run
          (fun { Adversary.victim; _ } ->
            match pending.(victim) with
            | Some m ->
                acc := a.absorb !acc ~pid:victim m;
                incr count
            | None -> ())
          len run;
        accs.(k) <- !acc;
        extra.(k) <- !count
      done;
      for j = 0 to n - 1 do
        if active_at lg j && not killed.(j) then begin
          let c = if nclasses = 1 then 0 else d.cls.(j) in
          delivered := !delivered + !nsurvivors + extra.(c);
          commit j (a.finish e.states.(j) ~round accs.(c))
        end
      done
  | None ->
      (* Legacy exchange: materialize each receiver's (sender, msg) array.
         It reads each kill's own list, with no notion of groups:
         [from.(j)] holds the victims that name receiver j, and
         [mark.(i) = j] while j is served iff victim i is one of them. *)
      let from = Array.make n [] and mark = Array.make n (-1) in
      List.iter
        (fun { Adversary.victim; deliver_to } ->
          List.iter (fun r -> from.(r) <- victim :: from.(r)) deliver_to)
        kills;
      for j = 0 to n - 1 do
        if active_at lg j && not killed.(j) then begin
          List.iter (fun i -> mark.(i) <- j) from.(j);
          let received = ref [] in
          for i = n - 1 downto 0 do
            match pending.(i) with
            | Some msg when (not killed.(i)) || mark.(i) = j ->
                received := (i, msg) :: !received;
                incr delivered
            | _ -> ()
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
