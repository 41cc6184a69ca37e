(* The round rules and the scalar execution live in [Round], shared with
   Bitkernel and Cohort; this module is their public face. *)

exception Budget_exceeded = Round.Budget_exceeded
exception Invalid_kill = Round.Invalid_kill
exception Decision_changed = Round.Decision_changed

let record_decision = Round.record_decision

type ('state, 'msg) exec = ('state, 'msg) Round.scalar

type outcome = Round.outcome = {
  rounds_executed : int;
  rounds_to_decide : int option;
  decisions : int option array;
  faulty : bool array;
  halted : bool array;
  kills_used : int;
  quiescent : bool;
}

let start ?observer ?sink protocol ~inputs ~t ~rng =
  Round.scalar ~who:"Engine.start" ?observer ?sink protocol ~inputs ~t ~rng

let step (e : _ exec) adversary =
  let lg = e.lg in
  if Round.active_count lg = 0 then `Quiescent
  else begin
    let round = lg.round + 1 in
    Round.phase_a e;
    (* The adversary observes everything and picks its kills. The view is
       zero-copy: its accessors read the live arrays, which the engine does
       not touch until [plan] returns. *)
    let kills = Round.plan lg adversary (Round.view (Lazy.force e.viewer) ~round) in
    Round.phase_b e kills ~round;
    `Continue
  end

let run_until (e : _ exec) adversary ~max_rounds =
  let rec loop () =
    if e.lg.round >= max_rounds then ()
    else match step e adversary with `Quiescent -> () | `Continue -> loop ()
  in
  loop ()

let outcome (e : _ exec) =
  Round.outcome e.lg ~quiescent:(Round.active_count e.lg = 0)

let run ?observer ?sink ?(max_rounds = 10_000) protocol adversary ~inputs ~t
    ~rng =
  let e = start ?observer ?sink protocol ~inputs ~t ~rng in
  run_until e adversary ~max_rounds;
  Round.final_outcome e.lg ~quiescent:(Round.active_count e.lg = 0)

let snapshot = Round.snapshot

let reseed (e : _ exec) rng = Round.reseed e.lg rng

let round (e : _ exec) = e.lg.round

let kills_used (e : _ exec) = e.lg.kills_used

let active_mask (e : _ exec) = Array.init e.lg.n (Round.active_at e.lg)

let states (e : _ exec) = Array.copy e.states
