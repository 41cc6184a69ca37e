(* The bit-packed engine.

   Register state lives in bit planes (one int array row per register,
   lane i of word i/lanes = process i, see Bitwords); the non-register
   fields of every active process are held once in a shared [template].
   A round without a partial delivery executes entirely at word
   granularity: coins and aux draws are drawn word-at-a-time by the
   PRNG's own kernel ([Prng.Rng.Bank.draw_word]), the tallies are carried
   across rounds (see [tallies] below), and the protocol's transition
   ([bo_step]) is a handful of plain plane loops. Silent victims just
   leave the active mask. Rounds whose plan delivers a victim's message
   to some receivers individuate them: they materialize the scalar
   states and run Engine's own delivery and commit code
   ([Round.phase_b]), then re-pack when uniformity returns.

   A trial costs only its packed rounds: a register protocol's initial
   state is a function of its input alone ([bo_init]), so [start] builds
   the two initial states once and packs every process from them. A
   packed execution keeps the ledger, the planes and the streams (one
   bank, Prng.Rng.Bank) and no per-process state: a silent victim just
   leaves the mask, and a packed halt is all-or-none. The scalar half,
   Engine's record (states, staged messages and delivery scratch), is
   built by Round's one constructor when it is first needed: at the first
   round that unpacks, or at a start whose two initial states disagree on
   a non-register field, which starts scalar. Once built it is kept.

   Every round rule (kill validation, the decision discipline, kills and
   events, the outcome) is [Round]'s one copy, over the one ledger, so
   byte-identity with Engine holds by construction on scalar rounds. The
   packed path keeps the same event order (Decisions ascending by pid,
   then Kills in plan order, one Round summary) and RNG consumption:
   each process's stream sees exactly the scalar draws (the coin bit,
   then the aux draw). *)

type ('state, 'msg) exec = {
  protocol : ('state, 'msg) Protocol.t;
  lg : 'msg Round.ledger;
  mutable shadow : ('state, 'msg) Round.scalar option;
      (* The scalar half over [lg], built by [scalar] on first use. While
         packed, the truth is template + planes and nothing reads it;
         [materialize] rewrites every active entry before an unpacked
         round does. Inactive entries are never read again, which is why
         a silent victim needs none. *)
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
         length bo_width. Set by popcount in [pack], then carried
         across rounds instead of recounted: [packed_phase_a] recounts
         the coin plane it draws, [drop_victims] subtracts each victim's
         bits, and [packed_phase_b] derives the post-transition counts
         from [ws_regs]. *)
  mutable tnxt : int array;  (* double buffer for the transition's counts *)
  viewer : ('state, 'msg) Round.viewer Lazy.t;
      (* The adversary's accessors, over this exec: built once. *)
  (* Instrumentation for bench and tests. *)
  mutable packed_rounds : int;
  mutable scalar_rounds : int;
}

let active_count e = if e.packed then e.active_cnt else Round.active_count e.lg

(* Gather process i's packed registers from the current planes: one
   word index and lane for all of them. *)
let regs_at e i =
  let w = i / Bitwords.lanes and lane = i mod Bitwords.lanes in
  let bits = ref 0 in
  for r = 0 to e.cd.Protocol.bo_width - 1 do
    bits := !bits lor (((e.cur.(r).(w) lsr lane) land 1) lsl r)
  done;
  !bits

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

(* Pack every active process, reading pid i's state from [state_of i]:
   the first one's is the template. Fails at the first active state that
   does not agree with it on the non-register fields, leaving [e]
   unpacked (its planes are only read once [packed] is set). One
   O(active) pass, with no per-process allocation of its own. *)
let pack e state_of =
  let lg = e.lg and cd = e.cd in
  let width = cd.Protocol.bo_width in
  clear_plane e.amask e.nw;
  for r = 0 to width - 1 do
    clear_plane e.cur.(r) e.nw
  done;
  let first = ref (-1) and cnt = ref 0 and uniform = ref true and i = ref 0 in
  while !uniform && !i < lg.n do
    let j = !i in
    if Round.active_at lg j then begin
      let s = state_of j in
      if !first < 0 then begin
        first := j;
        e.template <- s
      end;
      if cd.Protocol.bo_uniform e.template s then begin
        let w = j / Bitwords.lanes and bit = 1 lsl (j mod Bitwords.lanes) in
        e.amask.(w) <- e.amask.(w) lor bit;
        let regs = cd.Protocol.bo_pack s in
        for r = 0 to width - 1 do
          if (regs lsr r) land 1 = 1 then e.cur.(r).(w) <- e.cur.(r).(w) lor bit
        done;
        incr cnt
      end
      else uniform := false
    end;
    incr i
  done;
  if !uniform && !cnt > 0 then begin
    for r = 0 to width - 1 do
      e.tallies.(r) <- Bitwords.popcount_masked e.cur.(r) e.amask e.nw
    done;
    e.active_cnt <- !cnt;
    e.any_active_decided <- Option.is_some lg.decisions.(!first);
    e.packed <- true
  end;
  e.packed

(* Re-enter packed mode after a scalar round if uniformity has returned. *)
let try_pack e sc = ignore (pack e (Array.get sc.Round.states))

(* The view's population reads on a packed round. Every active process
   stages a broadcast, so the senders are [amask]: [count] reads the
   carried counts, which are exact at plan time ([packed_phase_a] has
   recounted the coin plane), and [iter_senders] walks [amask], or its
   intersection with a register's plane or with its complement, a word
   at a time, skipping empty words. Neither builds a message. *)
let packed_count e = function
  | Adversary.All -> e.active_cnt
  | Ones r -> e.tallies.(Round.register e.cd r)
  | Zeros r -> e.active_cnt - e.tallies.(Round.register e.cd r)

let packed_senders e s f =
  let amask = e.amask in
  match s with
  | Adversary.All -> Bitwords.iter_ones amask e.nw f
  | Ones r | Zeros r ->
      let plane = e.cur.(Round.register e.cd r) in
      (* [Zeros] reads the plane's complement: xor with all ones. *)
      let flip = match s with Zeros _ -> lnot 0 | _ -> 0 in
      for w = 0 to e.nw - 1 do
        Bitwords.iter_word f (w * Bitwords.lanes)
          (amask.(w) land (plane.(w) lxor flip))
      done

(* A packed sender's [priv] is its lane's payload, drawn in Phase A. *)
let packed_priv e i =
  if Bitwords.get e.amask i then e.priv.(i) else Round.no_broadcast i

(* The scalar half, built on first use over the current template (its
   entries are only read once [materialize] or [start] has set them). *)
let scalar e =
  match e.shadow with
  | Some sc -> sc
  | None ->
      let sc = Round.scalar_of e.protocol e.lg (Array.make e.lg.n e.template) in
      e.shadow <- Some sc;
      sc

(* Unpacked, the reads are Engine's, over the staged array of the scalar
   half, which an unpacked execution always has. *)
let viewer_of e =
  let bitops = e.protocol.Protocol.bitops in
  let pending () = (scalar e).pending in
  Round.viewer e.lg
    ~count:(fun s ->
      if e.packed then packed_count e s
      else Round.count_staged bitops (pending ()) s)
    ~iter_senders:(fun s f ->
      if e.packed then packed_senders e s f
      else Round.iter_staged_senders bitops (pending ()) s f)
    ~priv:(fun i ->
      if e.packed then packed_priv e i
      else Round.priv_staged bitops (pending ()) i)

let start ?observer ?sink protocol ~inputs ~t ~rng =
  let refuse what =
    invalid_arg
      (Printf.sprintf "Bitkernel.start: protocol %s declares no %s"
         protocol.Protocol.name what)
  in
  let bo =
    match protocol.Protocol.bitops with Some bo -> bo | None -> refuse "bitops"
  in
  if Option.is_none protocol.Protocol.aggregate then refuse "aggregate";
  let lg =
    Round.ledger ~who:"Bitkernel.start" ?observer ?sink ~inputs ~t rng
  in
  let n = lg.n in
  let nw = Bitwords.words_for n in
  let cd = bo.Protocol.bo_codec in
  (* The two initial states; process [pid]'s is [init.(inputs.(pid))]. *)
  let init = Array.init 2 (fun input -> bo.Protocol.bo_init ~n ~input) in
  let init_of pid = init.(inputs.(pid)) in
  let planes () = Array.init cd.Protocol.bo_width (fun _ -> Array.make nw 0) in
  let rec e =
    {
      protocol;
      lg;
      shadow = None;
      bo;
      cd;
      nw;
      packed = false;
      template = init_of 0;
      cur = planes ();
      nxt = planes ();
      amask = Array.make nw 0;
      active_cnt = 0;
      any_active_decided = false;
      priv = Array.make n 0;
      tallies = Array.make cd.Protocol.bo_width 0;
      tnxt = Array.make cd.Protocol.bo_width 0;
      viewer = lazy (viewer_of e);
      packed_rounds = 0;
      scalar_rounds = 0;
    }
  in
  (* Initial states are usually uniform up to registers (inputs live in
     register bits), so most runs start packed, straight from the two
     initial states, with no scalar half. The rest start scalar, every
     entry one of the two. *)
  if not (pack e init_of) then
    e.shadow <- Some (Round.scalar_of protocol lg (Array.init n init_of));
  e

(* Leave packed mode: rebuild the scalar states and staged messages of
   every active process from the planes, building the scalar half on the
   first call. Only active entries are read from here on: a dead process
   is never read again, and a packed halt leaves no active process. *)
let materialize e =
  let sc = scalar e in
  if e.packed then begin
    let pending = sc.pending in
    Array.fill pending 0 e.lg.n None;
    Bitwords.iter_ones e.amask e.nw (fun i ->
        sc.states.(i) <- e.cd.Protocol.bo_unpack e.template (regs_at e i);
        pending.(i) <- Some (msg_at e i));
    e.packed <- false
  end;
  sc

(* Phase A at word granularity, in the PRNG's own pass: per word, every
   active lane's stream draws its coin, then its aux draw, ascending —
   exactly the scalar loop's draws on every stream. The fresh coin plane
   is the one plane whose tally is recounted. *)
let packed_phase_a e =
  let bank = e.lg.bank in
  (* draw_word's encoding: bound 0 makes no aux draw. *)
  let bound = Option.value e.cd.Protocol.bo_aux_bound ~default:0 in
  match e.cd.Protocol.bo_coin_reg with
  | Some r ->
      let plane = e.cur.(r) in
      for w = 0 to e.nw - 1 do
        plane.(w) <-
          Prng.Rng.Bank.draw_word bank ~base:(w * Bitwords.lanes)
            ~mask:e.amask.(w)
            ~coin:true ~bound e.priv
      done;
      e.tallies.(r) <- Bitwords.popcount_masked plane e.amask e.nw
  | None ->
      if bound > 0 then
        for w = 0 to e.nw - 1 do
          ignore
            (Prng.Rng.Bank.draw_word bank ~base:(w * Bitwords.lanes)
               ~mask:e.amask.(w) ~coin:false ~bound e.priv)
        done

(* Drop this round's silent victims from the packed population, taking
   each one's bits out of the tallies. Nothing reads a dead process's
   state, so none is kept. A top-level loop: it allocates nothing. *)
let rec drop_victims e = function
  | [] -> ()
  | { Adversary.victim; deliver_to = _ } :: rest ->
      let bits = regs_at e victim in
      for r = 0 to e.cd.Protocol.bo_width - 1 do
        e.tallies.(r) <- e.tallies.(r) - ((bits lsr r) land 1)
      done;
      Bitwords.set e.amask victim false;
      e.active_cnt <- e.active_cnt - 1;
      drop_victims e rest

(* Shared decision values: static constants for the bits, so committing a
   packed round's decisions allocates nothing per process. *)
let some_0 = Some 0
let some_1 = Some 1
let shared_some v = match v with 0 -> some_0 | 1 -> some_1 | v -> Some v

(* The whole uniform Phase B in word operations, under a plan of silent
   kills only ([[]] on most rounds). [round] is the 1-based round being
   executed; planes hold the post-Phase-A values. Every survivor hears
   the same sender set, the survivors themselves, so one tally serves
   them all. *)
let packed_phase_b e kills round =
  let lg = e.lg in
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
        (* Every decider shares one [Some v] per value. *)
        let decision =
          match d with
          | Protocol.Decide_const c ->
              let v = shared_some c in
              fun _ -> v
          | Protocol.Decide_reg r ->
              let plane = e.cur.(r) in
              fun j -> if Bitwords.get plane j then some_1 else some_0
        in
        Bitwords.iter_ones e.amask e.nw (fun j ->
            if Round.commit_decision lg ~round ~emit:emit_on j (decision j) then
              incr newly_decided);
        e.any_active_decided <- true);
    if ws.Protocol.ws_halt then begin
      if not e.any_active_decided then Round.halted_undecided (first_active e);
      (* Halting is all-or-none in packed mode: the run is quiescent from
         here, so no final state is kept. *)
      Bitwords.iter_ones e.amask e.nw (fun j -> lg.halted.(j) <- true);
      newly_halted := e.active_cnt;
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
    let lg = e.lg in
    let round = lg.round + 1 in
    if e.packed then packed_phase_a e else Round.phase_a (scalar e);
    let kills = Round.plan lg adversary (Round.view (Lazy.force e.viewer) ~round) in
    (* Only a partial delivery individuates receivers; silent kills leave
       every survivor hearing the same senders. *)
    if e.packed && List.for_all silent kills then packed_phase_b e kills round
    else begin
      let sc = materialize e in
      Round.phase_b sc kills ~round;
      e.scalar_rounds <- e.scalar_rounds + 1;
      try_pack e sc
    end;
    `Continue
  end

let run_until e adversary ~max_rounds =
  let rec loop () =
    if e.lg.round >= max_rounds then ()
    else match step e adversary with `Quiescent -> () | `Continue -> loop ()
  in
  loop ()

(* Round's copy of the ledger, plus this engine's own fields: the planes,
   [amask] and the tallies are copied; [nxt], [tnxt] and [priv] are dead
   between steps, so the copy gets fresh ones, and a viewer over itself.
   A packed original's scalar half holds nothing that is read again, so
   the copy builds its own if it ever unpacks; an unpacked one's is
   Round's copy, over the copy's ledger. *)
let snapshot e =
  let width = e.cd.Protocol.bo_width and nw = e.nw in
  let lg, shadow =
    match e.shadow with
    | Some sc when not e.packed ->
        let sc = Round.snapshot sc in
        (sc.lg, Some sc)
    | _ -> (Round.copy_ledger e.lg, None)
  in
  let rec c =
    {
      e with
      lg;
      shadow;
      cur = Array.map Array.copy e.cur;
      nxt = Array.init width (fun _ -> Array.make nw 0);
      amask = Array.copy e.amask;
      priv = Array.make lg.n 0;
      tallies = Array.copy e.tallies;
      tnxt = Array.make width 0;
      viewer = lazy (viewer_of c);
    }
  in
  c

let reseed e rng = Round.reseed e.lg rng

let outcome e = Round.outcome e.lg ~quiescent:(active_count e = 0)

let final_outcome e = Round.final_outcome e.lg ~quiescent:(active_count e = 0)

let run ?observer ?sink ?(max_rounds = 10_000) protocol adversary ~inputs ~t
    ~rng =
  let e = start ?observer ?sink protocol ~inputs ~t ~rng in
  run_until e adversary ~max_rounds;
  final_outcome e

let round (e : _ exec) = e.lg.round

let n (e : _ exec) = e.lg.n

let kills_used (e : _ exec) = e.lg.kills_used

(* The ledger's flags are exact between steps, packed or not: a packed
   round closes through [Round.apply_kills] and marks its halts. *)
let active (e : _ exec) i = Round.active_at e.lg i

let packed_rounds (e : _ exec) = e.packed_rounds

let scalar_rounds (e : _ exec) = e.scalar_rounds
