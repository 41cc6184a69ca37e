type config = {
  gamma : float;
  min_active : int;
  desperate : bool;
  stall : bool;
  per_round_cap : int option;
}

let default_config =
  {
    gamma = 0.45;
    min_active = 8;
    desperate = false;
    stall = true;
    per_round_cap = None;
  }

let voting_config = { default_config with desperate = true; stall = false }

(* ------------------------------------------------------------------ *)
(* Band control                                                        *)
(* ------------------------------------------------------------------ *)

let cdiv a b = (a + b - 1) / b

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: rest -> x :: take (k - 1) rest

(* Last round's delivered count per receiver (the band arithmetic's
   nprev), shared by both ports. Every receiver heard the survivors'
   broadcast, so the counts are one default plus exceptions for the
   partial-delivery recipients, held in a reused n-int array ([-1] = no
   exception) with the list of pids that carry one. Recording costs
   O(kills) plus one walk of each run's shared list, and the bounds
   O(exceptions): never O(n). *)
type tracker = {
  mutable default : int;
  mutable exc : int array;
  mutable touched : int list;  (* pids whose [exc] entry is set *)
  mutable last_burst : int;  (* round of the last stability-breaking burst *)
  mutable promoted : bool array;
      (* The rescue's scratch, made by the first rescue of a run's size:
         all [false] between plans. *)
}

let tracker () =
  { default = 0; exc = [||]; touched = []; last_burst = -10; promoted = [||] }

let clear_exceptions tr =
  List.iter (fun j -> tr.exc.(j) <- -1) tr.touched;
  tr.touched <- []

(* A new run: every receiver starts out having heard all [n]. *)
let reset tr ~n =
  if Array.length tr.exc <> n then begin
    tr.exc <- Array.make n (-1);
    tr.touched <- []
  end;
  clear_exceptions tr;
  tr.default <- n;
  tr.last_burst <- -10

let nprev_of tr j =
  let v = tr.exc.(j) in
  if v >= 0 then v else tr.default

(* (nmin, nmax) of nprev over the [q] receivers; [None] iff there are
   none. Exceptions of processes that have since died or halted do not
   count, and the default counts iff some receiver carries it. *)
let nprev_bounds tr ~q ~active =
  let lo = ref max_int and hi = ref min_int and carried = ref 0 in
  let include_ v =
    lo := Stdlib.min !lo v;
    hi := Stdlib.max !hi v
  in
  List.iter
    (fun j ->
      if active j then begin
        incr carried;
        include_ tr.exc.(j)
      end)
    tr.touched;
  if q > !carried then include_ tr.default;
  if q = 0 then None else Some (!lo, !hi)

(* This round's deliveries: each of the [q] receivers hears the
   [q - |kills|] survivors, plus one message per partial send naming it.
   Only receivers are ever read back, and the receivers of a later round
   are among this round's. A run of kills sharing one list
   (Sim.Adversary.kill_group) walks it once, adding the run's length. *)
let record tr ~q kills =
  clear_exceptions tr;
  let base = q - List.length kills in
  tr.default <- base;
  let n = Array.length tr.exc in
  Sim.Adversary.fold_runs
    (fun () run len ->
      match run with
      | [] -> ()
      | { Sim.Adversary.victim = _; deliver_to } :: _ ->
          List.iter
            (fun j ->
              if j >= 0 && j < n then begin
                if tr.exc.(j) < 0 then begin
                  tr.exc.(j) <- base;
                  tr.touched <- j :: tr.touched
                end;
                tr.exc.(j) <- tr.exc.(j) + len
              end)
            deliver_to)
    () kills

(* The first [k] receivers by ascending nprev, ties by pid: what a stable
   sort of the ascending receivers [recv] by [nprev_of] takes, without the
   sort. [record] sets every exception above the default, so that order is
   the default carriers in pid order, then the active exception carriers
   by (exception, pid): O(q + e log e) for e exception carriers. *)
let least_nprev tr ~active recv k =
  let rec defaults k acc = function
    | _ when k = 0 -> (List.rev acc, 0)
    | [] -> (List.rev acc, k)
    | j :: rest ->
        if tr.exc.(j) >= 0 then defaults k acc rest
        else defaults (k - 1) (j :: acc) rest
  in
  let firsts, left = defaults k [] recv in
  if left = 0 then firsts
  else
    let by_exc a b =
      let c = Int.compare tr.exc.(a) tr.exc.(b) in
      if c <> 0 then c else Int.compare a b
    in
    firsts @ take left (List.sort by_exc (List.filter active tr.touched))

(* The band-control decision core is shared between the concrete adversary
   (per-process view) and the cohort port (class view) through this
   population interface. The pid lists are lazy, so neither side builds
   them on rounds that do not act (trim, rescue, burst, endgame). *)
type pop = {
  p_round : int;
  p_n : int;
  p_budget : int;
  p_q : int;  (* receivers (active processes) *)
  p_o : int;  (* 1-senders *)
  p_z : int;  (* 0-senders *)
  p_active : int -> bool;
  p_recv : int list Lazy.t;  (* ascending *)
  p_first : int -> int list;  (* the first k receivers, ascending *)
  p_ones : int list Lazy.t;  (* ascending *)
  p_zeros : int list Lazy.t;  (* ascending *)
}

let plan_core ~config ~rules ~sink tr pop rng =
  let q = pop.p_q and o = pop.p_o and z = pop.p_z in
  let budget = pop.p_budget in
  (* Band position for this round's event; stays 0 on rounds that bail
     out before the band is computed. *)
  let ev_flip_lo = ref 0 and ev_flip_hi = ref 0 and ev_margin = ref 0 in
  (* Record the deliveries and emit the Band event. *)
  let finish ~action kills =
    record tr ~q kills;
    if Obs.Sink.enabled sink then
      Obs.Sink.emit sink
        (Obs.Event.Band
           {
             round = pop.p_round;
             ones = o;
             zeros = z;
             flip_lo = !ev_flip_lo;
             flip_hi = !ev_flip_hi;
             margin = !ev_margin;
             action;
             kills = List.length kills;
           });
    kills
  in
  let give_up action = finish ~action [] in
  let cap kills =
    let limit =
      match config.per_round_cap with
      | None -> budget
      | Some c -> Stdlib.min c budget
    in
    take limit kills
  in
  (* [q = 0] (reachable with [min_active = 0]) must bail out here: the
     min-folds below are over the receiver set and have no value on an
     empty one — the old [max_int] sentinel wrapped in the band arithmetic
     and misreported such rounds as "in-band". *)
  if q = 0 || q < config.min_active || budget = 0 then give_up "idle"
  else begin
    let nprev_of = nprev_of tr in
    let nmin, nmax =
      match nprev_bounds tr ~q ~active:pop.p_active with
      | Some b -> b
      | None -> assert false (* q > 0: the receiver set is non-empty *)
    in
    (* Stability breaking (Lemma 4.1's remark: to keep decided processes
       from stopping, the adversary must fail a tenth of the population
       every few rounds). A burst of nmax/10 + 2 silent kills makes
       N^(r-3) - N^r exceed N^(r-2)/10 for the next three stop checks.
       When the budget can no longer sustain bursts, the endgame move
       pushes the population below sqrt(n / log n), forcing the
       deterministic stage's extra switching + flooding rounds. *)
    let stall_move () =
      if not config.stall then give_up "idle"
      else begin
        let thresh = sqrt (float_of_int pop.p_n /. log (float_of_int pop.p_n)) in
        let det_pop = Stdlib.max 1 (int_of_float (Float.ceil thresh) - 1) in
        let burst_size = Stdlib.min (q - 1) ((nmax / 10) + 2) in
        let endgame_cost = q - det_pop in
        let kill_first k = List.map Sim.Adversary.kill_silent (pop.p_first k) in
        if
          endgame_cost > 0 && budget >= endgame_cost
          && budget < endgame_cost + burst_size
          && endgame_cost <= 2 * burst_size
        then begin
          tr.last_burst <- pop.p_round;
          finish ~action:"endgame" (cap (kill_first endgame_cost))
        end
        else if
          burst_size > 0 && budget >= burst_size
          && pop.p_round - tr.last_burst >= 3
        then begin
          tr.last_burst <- pop.p_round;
          finish ~action:"burst" (cap (kill_first burst_size))
        end
        else give_up "idle"
      end
    in
    (* Flip band: delivered 1-count keeping every receiver off both
       deterministic branches. *)
    let flip_lo = cdiv (rules.Onesided.propose_lo * nmax) 10 in
    let flip_hi = rules.Onesided.propose_hi * nmin / 10 in
    let fq = float_of_int q in
    let margin =
      Stdlib.max 1
        (int_of_float (Float.round (config.gamma *. sqrt (fq *. log fq))))
    in
    ev_flip_lo := flip_lo;
    ev_flip_hi := flip_hi;
    ev_margin := margin;
    if o = 0 || z = 0 then
      (* Unanimous proposals: the band is lost (with no zeros the zero
         rule forces 1-proposals regardless of trimming); all that is
         left is delaying the stops. *)
      stall_move ()
    else if flip_lo > flip_hi then stall_move ()
    else if o > flip_hi then begin
      (* Surplus: trim 1-votes into the band; promote a subset S so that
         the expected next-round 1-count sits [margin] above flip_hi. *)
      let s_count =
        Stdlib.min (q - 1)
          (Stdlib.max 0 ((2 * (flip_hi + margin)) - q))
      in
      (* Promote the receivers with the smallest thresholds. *)
      let s =
        least_nprev tr ~active:pop.p_active (Lazy.force pop.p_recv) s_count
      in
      (* (nmin, nmax) of nprev over S; [None] iff S is empty — no sentinel,
         so no wrapping arithmetic downstream. *)
      let s_bounds =
        List.fold_left
          (fun acc j ->
            let v = nprev_of j in
            match acc with
            | None -> Some (v, v)
            | Some (mn, mx) -> Some (Stdlib.min mn v, Stdlib.max mx v))
          None s
      in
      let need, promotable =
        match s_bounds with
        | None -> (0, false)
        | Some (s_nmin, s_nmax) ->
            let need = (rules.Onesided.propose_hi * s_nmax / 10) + 1 - flip_hi in
            let decide_cap = rules.Onesided.decide_hi * s_nmin / 10 in
            (* flip_hi + need <= decide_cap, written subtraction-side to
               stay safe however large the operands get. *)
            (need, need >= 0 && need <= decide_cap - flip_hi && o - flip_hi >= 1)
      in
      let kill_count = o - flip_hi in
      if kill_count > budget then
        (* Cannot hold the band; save the budget for stop-delaying. *)
        stall_move ()
      else begin
        let victims = take kill_count (Lazy.force pop.p_ones) in
        let deliver_needed = if promotable then Stdlib.min need kill_count else 0 in
        let kills =
          Sim.Adversary.kill_group (take deliver_needed victims) ~recipients:s
          @ List.map Sim.Adversary.kill_silent
              (List.filteri (fun idx _ -> idx >= deliver_needed) victims)
        in
        finish ~action:"trim" (cap kills)
      end
    end
    else if o >= flip_lo then
      (* In-band: every receiver flips; nothing to do this round. *)
      give_up "in-band"
    else if
      config.desperate && z > 0
      (* The p/2 rescue only pays when enough budget remains to exploit
         the rebuilt 1-majority afterwards; otherwise stop-delaying
         bursts are the better use of a thin budget. *)
      && budget >= z + (q / 3)
      && o >= 2
      && q >= 2 * config.min_active
    then begin
      (* Deficit: the Lemma 4.6 "fail p/2" rescue. Kill every 0-sender,
         still delivering their messages to the non-promoted receivers;
         the promoted S (a subset of the surviving 1-senders) sees no 0
         and must propose 1 by the zero rule. *)
      let s_size = Stdlib.max 1 ((6 * o / 10) + 1) in
      let s_size = Stdlib.min s_size (o - 1) in
      let s =
        let arr = Array.of_list (Lazy.force pop.p_ones) in
        Prng.Sample.shuffle rng arr;
        Array.to_list (Array.sub arr 0 s_size)
      in
      if Array.length tr.promoted <> pop.p_n then
        tr.promoted <- Array.make pop.p_n false;
      let promoted = tr.promoted in
      List.iter (fun j -> promoted.(j) <- true) s;
      let non_s = List.filter (fun j -> not promoted.(j)) (Lazy.force pop.p_recv) in
      List.iter (fun j -> promoted.(j) <- false) s;
      let kills =
        Sim.Adversary.kill_group (Lazy.force pop.p_zeros) ~recipients:non_s
      in
      finish ~action:"rescue" (cap kills)
    end
    else
      (* Deficit without an affordable rescue: delay the coming stops. *)
      stall_move ()
  end

let band_name config =
  Printf.sprintf "band-control[g=%.2f%s%s]" config.gamma
    (if config.desperate then ",desperate" else "")
    (match config.per_round_cap with
    | None -> ""
    | Some c -> Printf.sprintf ",cap=%d" c)

let band_control ?(config = default_config) ?(sink = Obs.Sink.null) ~rules
    ~bit_of_msg () =
  Onesided.validate rules;
  let vote = Sim.Protocol.register_of (fun m -> bit_of_msg m = 1) in
  let ones = Sim.Adversary.Ones vote and zeros = Sim.Adversary.Zeros vote in
  let tr = tracker () in
  let plan view rng =
    let n = view.Sim.Adversary.n in
    if view.Sim.Adversary.round = 1 || Array.length tr.exc <> n then
      reset tr ~n;
    (* Exactly the active processes stage a message, so the receivers are
       the senders. The counts are the engine's own, and every pid list
       is a walk of its senders that stops after the last one needed. *)
    let senders s k = Sim.Adversary.first_senders view s k in
    let q = view.Sim.Adversary.count All in
    let o = view.Sim.Adversary.count ones in
    plan_core ~config ~rules ~sink tr
      {
        p_round = view.Sim.Adversary.round;
        p_n = n;
        p_budget = view.Sim.Adversary.budget_left;
        p_q = q;
        p_o = o;
        p_z = q - o;
        p_active = view.Sim.Adversary.active;
        p_recv = lazy (senders All q);
        p_first = senders All;
        p_ones = lazy (senders ones o);
        p_zeros = lazy (senders zeros (q - o));
      }
      rng
  in
  { Sim.Adversary.name = band_name config; plan }

(* Cohort-aware port: same decisions, same tracker, same Band events, same
   RNG draws, with the counts read off the classes, so idle and in-band
   rounds cost O(#classes + #exceptions) instead of O(n). *)
let band_control_cohort ?(config = default_config) ?(sink = Obs.Sink.null)
    ~rules ~bit_of_msg () =
  Onesided.validate rules;
  let tr = tracker () in
  let plan (cv : _ Sim.Cohort.cview) rng =
    let n = cv.Sim.Cohort.cv_n in
    if cv.Sim.Cohort.cv_round = 1 || Array.length tr.exc <> n then reset tr ~n;
    let classes = cv.Sim.Cohort.cv_classes in
    let class_bit c = bit_of_msg (c.Sim.Cohort.cc_msg 0) in
    let q = List.fold_left (fun acc c -> acc + c.Sim.Cohort.cc_size) 0 classes in
    let o =
      List.fold_left
        (fun acc c -> if class_bit c = 1 then acc + c.Sim.Cohort.cc_size else acc)
        0 classes
    in
    (* Ascending pid lists, identical to what the concrete adversary reads
       off its per-process view. *)
    let members_of pred =
      lazy
        (classes
        |> List.filter pred
        |> List.concat_map (fun c -> Array.to_list c.Sim.Cohort.cc_members)
        |> List.sort Int.compare)
    in
    let recv = members_of (fun _ -> true) in
    plan_core ~config ~rules ~sink tr
      {
        p_round = cv.Sim.Cohort.cv_round;
        p_n = n;
        p_budget = cv.Sim.Cohort.cv_budget_left;
        p_q = q;
        p_o = o;
        p_z = q - o;
        p_active = cv.Sim.Cohort.cv_active;
        p_recv = recv;
        p_first = (fun k -> take k (Lazy.force recv));
        p_ones = members_of (fun c -> class_bit c = 1);
        p_zeros = members_of (fun c -> class_bit c <> 1);
      }
      rng
  in
  Sim.Cohort.Aware { aname = band_name config; aplan = plan }

(* ------------------------------------------------------------------ *)
(* Monte-Carlo valency adversary                                       *)
(* ------------------------------------------------------------------ *)

type mc_config = {
  samples : int;
  horizon : int;
  round_cap : int;
  keep_margin : float;
}

let default_mc_config =
  { samples = 40; horizon = 40; round_cap = 3; keep_margin = 0.15 }

(* One-shot adversary: applies [plan] on its first activation, nothing
   afterwards. *)
let one_shot plan =
  let fired = ref false in
  {
    Sim.Adversary.name = "one-shot";
    plan =
      (fun _view _rng ->
        if !fired then []
        else begin
          fired := true;
          plan
        end);
  }

(* Score a candidate plan by simulating continuations with fresh coins:
   returns (estimated Pr[decide 1], estimated total rounds). The probability
   is the r(alpha) proxy of Section 3.2; the rounds estimate is the quantity
   Theorem 1's adversary ultimately maximizes. Continuations run under a
   minimal sustained-pressure policy (one kill per round) rather than the
   null adversary: a kill's stop-delaying value only materializes when the
   following rounds keep the population shrinking, so null continuations
   would systematically undervalue every candidate. The candidates and
   the drip kills are silent, so the continuations stay packed. *)
let estimate exec plan ~config ~rng =
  let decided_one = ref 0 and decided = ref 0 in
  let rounds_total = ref 0.0 in
  (* Stateless: one policy serves every sample. *)
  let drip = Baselines.Adversaries.drip ~per_round:1 in
  for _ = 1 to config.samples do
    let c = Sim.Bitkernel.snapshot exec in
    (* Apply the candidate with the *current* coins (the plan was chosen in
       view of them), then resample the future. *)
    (match Sim.Bitkernel.step c (one_shot plan) with
    | `Continue -> ()
    | `Quiescent -> ());
    Sim.Bitkernel.reseed c rng;
    Sim.Bitkernel.run_until c drip
      ~max_rounds:(Sim.Bitkernel.round exec + config.horizon);
    let o = Sim.Bitkernel.final_outcome c in
    (match o.Sim.Engine.rounds_to_decide with
    | Some r ->
        incr decided;
        rounds_total := !rounds_total +. float_of_int r;
        let one = Array.exists (fun d -> d = Some 1) o.Sim.Engine.decisions in
        if one then incr decided_one
    | None ->
        (* Ran past the horizon: at least that long. *)
        rounds_total := !rounds_total +. float_of_int o.Sim.Engine.rounds_executed)
  done;
  let p1 =
    if !decided = 0 then 0.5
    else float_of_int !decided_one /. float_of_int !decided
  in
  (p1, !rounds_total /. float_of_int config.samples)

(* The engine [force_long_execution] runs on, as the run manifest names it. *)
let force_long_execution_engine = Sim.Runner.engine_name `Bitkernel

let force_long_execution ?(config = default_mc_config) ?(max_rounds = 10_000)
    ?(sink = Obs.Sink.null) protocol ~inputs ~t ~rng =
  let exec = Sim.Bitkernel.start protocol ~inputs ~t ~rng in
  let est_rng = Prng.Rng.split rng in
  let pick_rng = Prng.Rng.split rng in
  let rec drive () =
    if Sim.Bitkernel.round exec >= max_rounds then ()
    else begin
      (* Greedily grow a kill set that maximizes the estimated expected
         total rounds; ties broken toward keeping Pr[decide 1] near 1/2
         (bivalence). *)
      let budget = t - Sim.Bitkernel.kills_used exec in
      let score_of (p1, rounds) = rounds -. Float.abs (p1 -. 0.5) in
      let rec grow plan score tries =
        if List.length plan >= Stdlib.min config.round_cap budget || tries = 0
        then plan
        else begin
          let in_plan pid =
            List.exists (fun k -> k.Sim.Adversary.victim = pid) plan
          in
          (* Score a few random single-kill extensions, drawn by one
             shuffle of the active pids outside the plan, descending. *)
          let sample_opts =
            let options = ref [] in
            for pid = 0 to Sim.Bitkernel.n exec - 1 do
              if Sim.Bitkernel.active exec pid && not (in_plan pid) then
                options := pid :: !options
            done;
            let arr = Array.of_list !options in
            Prng.Sample.shuffle pick_rng arr;
            Array.to_list (Array.sub arr 0 (Stdlib.min 6 (Array.length arr)))
          in
          let scored =
            List.map
              (fun pid ->
                let cand = Sim.Adversary.kill_silent pid :: plan in
                (cand, score_of (estimate exec cand ~config ~rng:est_rng)))
              sample_opts
          in
          let best =
            List.fold_left
              (fun acc (cand, s) ->
                match acc with
                | Some (_, s') when s' >= s -> acc
                | Some _ | None -> Some (cand, s))
              None scored
          in
          match best with
          | Some (cand, s) when s > score +. config.keep_margin ->
              grow cand s (tries - 1)
          | Some _ | None -> plan
        end
      in
      let base_est = estimate exec [] ~config ~rng:est_rng in
      (if Obs.Sink.enabled sink then
         let pr_one, expected_rounds = base_est in
         Obs.Sink.emit sink
           (Obs.Event.Valency_probe
              (* The probe scores the round about to execute. *)
              { round = Sim.Bitkernel.round exec + 1; pr_one; expected_rounds }));
      let base_score = score_of base_est in
      let plan = grow [] base_score config.round_cap in
      match Sim.Bitkernel.step exec (one_shot plan) with
      | `Quiescent -> ()
      | `Continue -> drive ()
    end
  in
  drive ();
  Sim.Bitkernel.final_outcome exec

(* ------------------------------------------------------------------ *)
(* Leader killer                                                       *)
(* ------------------------------------------------------------------ *)

let leader_killer ?(config = default_config) ~rules ~bit_of_msg () =
  Onesided.validate rules;
  let vote = Sim.Protocol.register_of (fun m -> bit_of_msg m = 1) in
  let ones = Sim.Adversary.Ones vote and zeros = Sim.Adversary.Zeros vote in
  (* Conservative per-round delivered-count estimates (min and max over
     receivers); exact per-receiver tracking is unnecessary because the
     attack only needs the flip band's rough position. *)
  let np_min = ref max_int and np_max = ref max_int in
  let plan view rng =
    let n = view.Sim.Adversary.n in
    if view.Sim.Adversary.round = 1 then begin
      np_min := n;
      np_max := n
    end;
    (* The senders are exactly the receivers. *)
    let q = view.Sim.Adversary.count All in
    let o = view.Sim.Adversary.count ones in
    let budget = view.Sim.Adversary.budget_left in
    let update_np kills =
      np_max := q - (kills / 2);
      (* non-protected receivers miss all killed leaders *)
      np_min := q - kills;
      if kills = 0 then begin
        np_min := q;
        np_max := q
      end
    in
    if q < config.min_active || budget = 0 then begin
      update_np 0;
      []
    end
    else begin
      let flip_lo = cdiv (rules.Onesided.propose_lo * !np_max) 10 in
      let flip_hi = rules.Onesided.propose_hi * !np_min / 10 in
      if o < flip_lo || o > flip_hi then begin
        (* Band lost; this specialist does not stall. *)
        update_np 0;
        []
      end
      else begin
        (* Everyone flips, i.e. adopts its view's leader bit. Kill the
           priority prefix down to the first dissenting bit and deliver the
           victims' messages to a protected set S sized so that next
           round's 1-count lands mid-band: S adopts the top leader's bit,
           everyone else adopts the first survivor's. Senders rank by
           (priv, pid), highest first; one pass over the two vote classes
           finds each one's leader, and the lower of the two is the first
           dissenter. *)
        let priv = view.Sim.Adversary.priv in
        let rank a b =
          let c = Int.compare (priv b) (priv a) in
          if c <> 0 then c else Int.compare b a
        in
        let leader s =
          let best = ref (-1) in
          view.Sim.Adversary.iter_senders s (fun i ->
              if !best < 0 || rank i !best < 0 then best := i);
          !best
        in
        let lead1 = leader ones and lead0 = leader zeros in
        if lead1 < 0 || lead0 < 0 then begin
          (* Unanimous proposals: nothing to split. *)
          update_np 0;
          []
        end
        else begin
          let top_bit = if rank lead1 lead0 < 0 then 1 else 0 in
          let dissenter = if top_bit = 1 then lead0 else lead1 in
          let prefix = ref [] in
          view.Sim.Adversary.iter_senders
            (if top_bit = 1 then ones else zeros)
            (fun i -> if rank i dissenter < 0 then prefix := i :: !prefix);
          let victims = List.sort rank !prefix in
          if List.length victims > budget then begin
            update_np 0;
            []
          end
          else begin
            let target_ones = 11 * q / 20 in
            let s_size = if top_bit = 1 then target_ones else q - target_ones in
            let s_size = Stdlib.max 1 (Stdlib.min (q - 1) s_size) in
            let shuffled = Array.make q 0 and k = ref 0 in
            view.Sim.Adversary.iter_senders All (fun i ->
                shuffled.(!k) <- i;
                incr k);
            Prng.Sample.shuffle rng shuffled;
            update_np (List.length victims);
            Sim.Adversary.kill_group victims
              ~recipients:(List.init s_size (Array.get shuffled))
          end
        end
      end
    end
  in
  { Sim.Adversary.name = "leader-killer"; plan }
