(* The bit-packed engine.

   Register state lives in bit planes (one int array row per register,
   lane i of word i/lanes = process i, see Bitwords); the non-register
   fields of every active process are held once in a shared [template].
   A round without a partial delivery executes entirely at word
   granularity: coins are drawn word-at-a-time, the tallies are carried
   across rounds (see [tallies] below), and the protocol's transition
   ([bo_step]) is a handful of plain plane loops. Silent victims just
   leave the active mask. Rounds whose plan delivers a victim's message
   to some receivers individuate them: they materialize the scalar
   states and run Engine's own delivery and commit code
   ([Round.phase_b]), then re-pack when uniformity returns.

   The scalar half of the state is Engine's record, built by Engine's
   start-up code, and every round rule (kill validation, the decision
   discipline, kills and events, the outcome) is [Round]'s one copy, so
   byte-identity with Engine holds by construction on scalar rounds. The
   packed path keeps the same event order (Decisions ascending by pid,
   then Kills in plan order, one Round summary) and RNG consumption:
   each process's stream sees exactly the scalar draws (the coin bit,
   then the aux draws). *)

type ('state, 'msg) exec = {
  sc : ('state, 'msg) Round.scalar;
      (* In packed mode, [sc.states] entries of ACTIVE processes are stale
         (the truth is template + planes) while entries of halted/dead
         processes stay valid forever. *)
  bo : ('state, 'msg) Protocol.bitops;
  cd : 'state Protocol.codec;
  nw : int;  (* Bitwords.words_for n *)
  (* Packed representation. *)
  mutable packed : bool;
  mutable template : 'state;
  mutable cur : int array array;  (* bo_width plane rows of nw words *)
  mutable nxt : int array array;  (* double buffer for the transition *)
  amask : int array;  (* active (alive && not halted), packed *)
  mutable active_cnt : int;
  mutable any_active_decided : bool;
      (* Uniform over actives by the bo_uniform contract; lets ws_decide
         = None reproduce Engine's revocation check without a scan. *)
  priv : int array;  (* per-process aux payload of the current round *)
  mutable tallies : int array;
      (* Packed-mode invariant: tallies.(r) = popcount (cur.(r) land amask),
         length bo_width. Set by popcount in [try_pack], then carried
         across rounds instead of recounted: [packed_phase_a] recounts
         the coin plane it draws, [drop_victims] subtracts each victim's
         bits, and [packed_phase_b] derives the post-transition counts
         from [ws_regs]. *)
  mutable tnxt : int array;  (* double buffer for the transition's counts *)
  (* Instrumentation for bench and tests. *)
  mutable packed_rounds : int;
  mutable scalar_rounds : int;
}

let active_count e = if e.packed then e.active_cnt else Round.active_count e.sc.lg

(* Gather process i's packed registers from the current planes: one
   word index and lane for all of them (the adversary's view calls this
   once per process per round). *)
let regs_at e i =
  let w = i / Bitwords.lanes and lane = i mod Bitwords.lanes in
  let bits = ref 0 in
  for r = 0 to e.cd.Protocol.bo_width - 1 do
    bits := !bits lor (((e.cur.(r).(w) lsr lane) land 1) lsl r)
  done;
  !bits

let unpack_at e i = e.cd.Protocol.bo_unpack e.template (regs_at e i)

(* Process i's message this round: its post-Phase-A registers and priv. *)
let msg_at (type s m) (e : (s, m) exec) i : m =
  match e.bo.Protocol.bo_word with
  | Type.Equal -> { Protocol.regs = regs_at e i; priv = e.priv.(i) }

(* Registers of this round's max-(priv, pid) active sender. *)
let leader_regs e =
  let best = ref (-1) in
  Bitwords.iter_ones e.amask e.nw (fun i ->
      (* Lanes ascend, so a priv tie goes to the larger pid. *)
      if !best < 0 || e.priv.(i) >= e.priv.(!best) then best := i);
  regs_at e !best

(* The lowest pid still in [amask]. On a silent-kill round the victims
   have left [amask] but are alive until the round closes, so this is the
   first survivor — the process the scalar path's checks would name. *)
let first_active e =
  let rec go w =
    if w >= e.nw then invalid_arg "Bitkernel: no active process"
    else
      let m = e.amask.(w) in
      if m = 0 then go (w + 1)
      else (w * Bitwords.lanes) + Bitwords.popcount ((m land -m) - 1)
  in
  go 0

(* Re-enter packed mode if every active process agrees on the
   non-register fields. Cheap to attempt (one O(active) scan); packing
   itself is O(active * width) bit writes. *)
let try_pack e =
  let lg = e.sc.lg and states = e.sc.states in
  if not e.packed then begin
    match
      (* First active pid, if any. *)
      let rec go i =
        if i >= lg.n then None else if Round.active_at lg i then Some i else go (i + 1)
      in
      go 0
    with
    | None -> ()
    | Some j0 ->
        let tmpl = states.(j0) in
        let uniform = ref true in
        for i = j0 + 1 to lg.n - 1 do
          if Round.active_at lg i && not (e.cd.Protocol.bo_uniform tmpl states.(i))
          then uniform := false
        done;
        if !uniform then begin
          Array.fill e.amask 0 e.nw 0;
          for r = 0 to e.cd.Protocol.bo_width - 1 do
            Array.fill e.cur.(r) 0 e.nw 0
          done;
          let cnt = ref 0 in
          for i = 0 to lg.n - 1 do
            if Round.active_at lg i then begin
              incr cnt;
              Bitwords.set e.amask i true;
              let bits = e.cd.Protocol.bo_pack states.(i) in
              for r = 0 to e.cd.Protocol.bo_width - 1 do
                if (bits lsr r) land 1 = 1 then Bitwords.set e.cur.(r) i true
              done
            end
          done;
          for r = 0 to e.cd.Protocol.bo_width - 1 do
            e.tallies.(r) <- Bitwords.popcount_masked e.cur.(r) e.amask e.nw
          done;
          e.template <- tmpl;
          e.active_cnt <- !cnt;
          e.any_active_decided <- Option.is_some lg.decisions.(j0);
          e.packed <- true
        end
  end

let start ?record_trace ?observer ?sink protocol ~inputs ~t ~rng =
  let refuse what =
    invalid_arg
      (Printf.sprintf "Bitkernel.start: protocol %s declares no %s"
         protocol.Protocol.name what)
  in
  let bo =
    match protocol.Protocol.bitops with Some bo -> bo | None -> refuse "bitops"
  in
  if Option.is_none protocol.Protocol.aggregate then refuse "aggregate";
  let sc =
    Round.scalar ~who:"Bitkernel.start" ?record_trace ?observer ?sink protocol
      ~inputs ~t ~rng
  in
  let n = sc.lg.n in
  let nw = Bitwords.words_for n in
  let cd = bo.Protocol.bo_codec in
  let planes () = Array.init cd.Protocol.bo_width (fun _ -> Array.make nw 0) in
  let e =
    {
      sc;
      bo;
      cd;
      nw;
      packed = false;
      template = sc.states.(0);
      cur = planes ();
      nxt = planes ();
      amask = Array.make nw 0;
      active_cnt = 0;
      any_active_decided = false;
      priv = Array.make n 0;
      tallies = Array.make cd.Protocol.bo_width 0;
      tnxt = Array.make cd.Protocol.bo_width 0;
      packed_rounds = 0;
      scalar_rounds = 0;
    }
  in
  (* Initial states are usually uniform up to registers (inputs live in
     register bits), so most runs start packed. *)
  try_pack e;
  e

(* Leave packed mode: rebuild the scalar states and staged messages of
   every active process from the planes. Halted/dead entries were never
   invalidated. *)
let materialize e =
  if e.packed then begin
    let pending = e.sc.pending in
    Array.fill pending 0 e.sc.lg.n None;
    Bitwords.iter_ones e.amask e.nw (fun i ->
        e.sc.states.(i) <- unpack_at e i;
        pending.(i) <- Some (msg_at e i));
    e.packed <- false
  end

(* Phase A at word granularity: the coin register is filled by one
   Rng.bit per active lane (ascending — coin_word's order), then the aux
   draws run per active process (ascending). Per-process streams make
   the two-pass order byte-identical to the scalar interleaved loop:
   each stream still sees its coin bit first, then its aux draws. The
   fresh coin plane is the one plane whose tally is recounted. *)
let packed_phase_a e =
  let proc_rngs = e.sc.lg.proc_rngs in
  (match e.cd.Protocol.bo_coin_reg with
  | None -> ()
  | Some r ->
      let plane = e.cur.(r) in
      let rng_of k = proc_rngs.(k) in
      for w = 0 to e.nw - 1 do
        plane.(w) <-
          Prng.Sample.coin_word ~rng_of ~base:(w * Bitwords.lanes)
            ~mask:e.amask.(w)
      done;
      e.tallies.(r) <- Bitwords.popcount_masked plane e.amask e.nw);
  match e.cd.Protocol.bo_aux_draw with
  | None -> ()
  | Some f ->
      Bitwords.iter_ones e.amask e.nw (fun i ->
          e.priv.(i) <- f e.template proc_rngs.(i))

(* Drop this round's silent victims from the packed population, pinning
   each one's post-Phase-A state (a victim is never committed, so that is
   its final state) and taking its bits out of the tallies. A top-level
   loop: no-kill rounds allocate nothing. *)
let rec drop_victims e = function
  | [] -> ()
  | { Adversary.victim; deliver_to = _ } :: rest ->
      let bits = regs_at e victim in
      e.sc.states.(victim) <- e.cd.Protocol.bo_unpack e.template bits;
      for r = 0 to e.cd.Protocol.bo_width - 1 do
        e.tallies.(r) <- e.tallies.(r) - ((bits lsr r) land 1)
      done;
      Bitwords.set e.amask victim false;
      e.active_cnt <- e.active_cnt - 1;
      drop_victims e rest

(* Plane writes for the transition. Typed [int array] loops store words
   directly; [Array.blit]/[Array.fill] into a major-heap array pay a
   write barrier per word. *)
let copy_plane (src : int array) (dst : int array) nw =
  for w = 0 to nw - 1 do
    dst.(w) <- src.(w)
  done

let not_plane (src : int array) (dst : int array) nw =
  for w = 0 to nw - 1 do
    dst.(w) <- lnot src.(w)
  done

let clear_plane (dst : int array) nw =
  for w = 0 to nw - 1 do
    dst.(w) <- 0
  done

(* The whole uniform Phase B in word operations, under a plan of silent
   kills only ([[]] on most rounds). [round] is the 1-based round being
   executed; planes hold the post-Phase-A values. Every survivor hears
   the same sender set, the survivors themselves, so one tally serves
   them all. *)
let packed_phase_b e kills round =
  let lg = e.sc.lg in
  let emit_on = Obs.Sink.enabled lg.sink in
  (* ones_pending reads the staged messages, i.e. the pre-transition
     planes of every sender, victims included — compute it before they
     are overwritten. *)
  let ones =
    if not emit_on then None
    else
      match lg.observer with
      | None -> None
      | Some f ->
          let c = ref 0 in
          Bitwords.iter_ones e.amask e.nw (fun i ->
              if f (msg_at e i) then incr c);
          Some !c
  in
  let senders = e.active_cnt in
  drop_victims e kills;
  let survivors = e.active_cnt in
  let newly_decided = ref 0 in
  let newly_halted = ref 0 in
  (* With no survivor nobody receives: the transition is not run. *)
  if survivors > 0 then begin
    let t = e.tallies in
    let ws =
      e.bo.Protocol.bo_step e.template ~round ~nrecv:survivors
        ~tallies:{ Protocol.counts = t; leader = lazy (leader_regs e) }
    in
    (* Simultaneous register update: read [cur] and [t], write [nxt] and
       [t'], swap. Each source determines its new count from the old
       ones over the same survivors. *)
    let t' = e.tnxt in
    for r = 0 to e.cd.Protocol.bo_width - 1 do
      let dst = e.nxt.(r) in
      match ws.Protocol.ws_regs.(r) with
      | Protocol.Keep ->
          copy_plane e.cur.(r) dst e.nw;
          t'.(r) <- t.(r)
      | Protocol.Fill true ->
          copy_plane e.amask dst e.nw;
          t'.(r) <- survivors
      | Protocol.Fill false ->
          clear_plane dst e.nw;
          t'.(r) <- 0
      | Protocol.Copy i ->
          copy_plane e.cur.(i) dst e.nw;
          t'.(r) <- t.(i)
      | Protocol.Not i ->
          not_plane e.cur.(i) dst e.nw;
          t'.(r) <- survivors - t.(i)
    done;
    let old = e.cur in
    e.cur <- e.nxt;
    e.nxt <- old;
    e.tallies <- t';
    e.tnxt <- t;
    e.template <- ws.Protocol.ws_state;
    (* The decision discipline on the post-transition planes, like the
       scalar [decision state']. Actives agree on whether they decided, so
       one representative stands for all when nobody decides. *)
    (match ws.Protocol.ws_decide with
    | None ->
        if e.any_active_decided then
          ignore (Round.commit_decision lg ~round ~emit:false (first_active e) None)
    | Some d ->
        Bitwords.iter_ones e.amask e.nw (fun j ->
            let v =
              match d with
              | Protocol.Decide_const c -> c
              | Protocol.Decide_reg r -> if Bitwords.get e.cur.(r) j then 1 else 0
            in
            if Round.commit_decision lg ~round ~emit:emit_on j (Some v) then
              incr newly_decided);
        e.any_active_decided <- true);
    if ws.Protocol.ws_halt then begin
      if not e.any_active_decided then Round.halted_undecided (first_active e);
      (* Halting is all-or-none in packed mode; pin each final state so
         later view/state reads of halted processes stay valid. *)
      Bitwords.iter_ones e.amask e.nw (fun j ->
          incr newly_halted;
          lg.halted.(j) <- true;
          e.sc.states.(j) <- unpack_at e j);
      clear_plane e.amask e.nw;
      clear_plane e.tallies e.cd.Protocol.bo_width;
      e.active_cnt <- 0
    end
  end;
  (* Close the round: with no kills that only advances its counter. *)
  if kills = [] then lg.round <- round else Round.apply_kills lg ~round kills;
  e.packed_rounds <- e.packed_rounds + 1;
  if emit_on then
    Round.emit_round lg ~round kills ~active:senders
      ~delivered:(survivors * survivors) ~newly_decided:!newly_decided
      ~newly_halted:!newly_halted ~ones

let silent k = k.Adversary.deliver_to = []

let step e adversary =
  if active_count e = 0 then `Quiescent
  else begin
    let lg = e.sc.lg in
    let round = lg.round + 1 in
    if e.packed then packed_phase_a e else Round.phase_a e.sc;
    (* Engine's view, with packed-mode state/pending reconstructed on
       demand. *)
    let kills =
      Round.plan lg adversary
        (Round.view lg ~round
           ~state:(fun i ->
             if e.packed && Round.active_at e.sc.lg i then unpack_at e i
             else e.sc.states.(i))
           ~pending:(fun i ->
             if e.packed then
               if Round.active_at e.sc.lg i then Some (msg_at e i) else None
             else e.sc.pending.(i)))
    in
    (* Only a partial delivery individuates receivers; silent kills leave
       every survivor hearing the same senders. *)
    if e.packed && List.for_all silent kills then packed_phase_b e kills round
    else begin
      materialize e;
      Round.phase_b e.sc kills ~round;
      e.scalar_rounds <- e.scalar_rounds + 1;
      try_pack e
    end;
    `Continue
  end

let run_until e adversary ~max_rounds =
  let rec loop () =
    if e.sc.lg.round >= max_rounds then ()
    else match step e adversary with `Quiescent -> () | `Continue -> loop ()
  in
  loop ()

let outcome e = Round.outcome e.sc.lg ~quiescent:(active_count e = 0)

let run ?record_trace ?observer ?sink ?(max_rounds = 10_000) protocol adversary
    ~inputs ~t ~rng =
  let e = start ?record_trace ?observer ?sink protocol ~inputs ~t ~rng in
  run_until e adversary ~max_rounds;
  outcome e

let round (e : _ exec) = e.sc.lg.round

let packed_rounds (e : _ exec) = e.packed_rounds

let scalar_rounds (e : _ exec) = e.scalar_rounds
