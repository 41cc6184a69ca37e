(* The bit-packed engine.

   Register state lives in bit planes (one int array row per register,
   lane i of word i/lanes = process i, see Bitwords); the non-register
   fields of the active processes are held in a few template classes
   ([klass]): a template state and the lanes it stands for. Most rounds
   have one class, and a round with one class and no partial delivery
   executes entirely at word granularity: coins and aux draws are drawn
   word-at-a-time by the PRNG's own kernel ([Prng.Rng.Bank.draw_word]),
   the tallies are carried across rounds (see [tallies] below), and the
   protocol's transition ([bo_step]) is a handful of plain plane loops.
   Silent victims just leave the active mask.

   A partial delivery splits the receivers by the groups that reach them
   (Adversary.fold_runs): each template class, refined by the groups'
   recipient masks, gives receiver classes, and each receiver class runs
   the word transition once, on the survivors' tallies plus its groups'
   victims, masked to its lanes ([classes_phase_b]). Classes whose new
   templates agree merge again. Only a round that would need more than
   [max_classes] classes (per-victim recipient lists, say) materializes
   the scalar states and runs Engine's own delivery and commit code
   ([Round.phase_b]), then re-packs as soon as the states fall into at
   most [max_classes] templates.

   A trial costs only its packed rounds: a register protocol's initial
   state is a function of its input alone ([bo_init]), so [start] builds
   the two initial states once and packs every process from them, as one
   class or, when they disagree on a non-register field, two. A packed
   execution keeps the ledger, the planes and the streams (one bank,
   Prng.Rng.Bank) and no per-process state: a silent victim just leaves
   the mask, and a halting class leaves it whole. The scalar half,
   Engine's record (states, staged messages and delivery scratch), is
   built by Round's one constructor at the first round that unpacks, and
   kept from then on.

   Every round rule (kill validation, the decision discipline, kills and
   events, the outcome) is [Round]'s one copy, over the one ledger, so
   byte-identity with Engine holds by construction on scalar rounds. The
   packed path keeps the same event order (Decisions ascending by pid,
   then Kills in plan order, one Round summary) and RNG consumption:
   each process's stream sees exactly the scalar draws (the coin bit,
   then the aux draw). *)

(* A template class: the processes of [lanes] share [tpl]'s non-register
   fields. The classes' lanes are disjoint and cover [amask]; the lone
   class of a one-class execution has [amask] itself as its lanes. *)
type 'state klass = {
  mutable tpl : 'state;
  mutable lanes : int array;
  mutable decided : bool;
      (* Uniform over the class by the bo_uniform contract; lets ws_decide
         = None reproduce Engine's revocation check without a scan. *)
}

type ('state, 'msg) exec = {
  protocol : ('state, 'msg) Protocol.t;
  lg : 'msg Round.ledger;
  mutable shadow : ('state, 'msg) Round.scalar option;
      (* The scalar half over [lg], built by [scalar] on first use. While
         packed, the truth is the classes + planes and nothing reads it;
         [materialize] rewrites every active entry before an unpacked
         round does. Inactive entries are never read again, which is why
         a silent victim needs none. *)
  bo : ('state, 'msg) Protocol.bitops;
  cd : 'state Protocol.codec;
  nw : int;  (* Bitwords.words_for n *)
  (* Packed representation. *)
  mutable packed : bool;
  mutable classes : 'state klass array;  (* at least one while packed *)
  mutable cur : int array array;  (* bo_width plane rows of nw words *)
  mutable nxt : int array array;  (* double buffer for the transition *)
  amask : int array;  (* active (alive && not halted), packed *)
  mutable active_cnt : int;
  mutable spare : int array list;
      (* nw-word arrays no class holds, for the next class masks. *)
  priv : int array;  (* per-process aux payload of the current round *)
  mutable tallies : int array;
      (* Packed-mode invariant: tallies.(r) = popcount (cur.(r) land amask),
         length bo_width. Set by popcount in [pack], then carried
         across one-class rounds instead of recounted: [packed_phase_a]
         recounts the coin plane it draws, [drop_victims] subtracts each
         victim's bits, and [packed_phase_b] derives the post-transition
         counts from [ws_regs]; [classes_phase_b] recounts them. *)
  mutable tnxt : int array;  (* double buffer for the transition's counts *)
  viewer : ('state, 'msg) Round.viewer Lazy.t;
      (* The adversary's accessors, over this exec: built once. *)
  (* Instrumentation for bench and tests. *)
  mutable packed_rounds : int;
  mutable scalar_rounds : int;
  (* Partial-delivery scratch, nw words each, made by the first group:
     one group's recipient mask (all zero between groups) and the words
     it touches. *)
  mutable rcpt : int array;
  mutable touched : int array;
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

(* The most classes a packed execution holds, and the most receiver
   classes a packed round runs: a round or a re-pack that would need more
   takes the scalar path. *)
let max_classes = 64

(* An nw-word array no class holds, contents undefined. *)
let take e =
  match e.spare with
  | a :: rest ->
      e.spare <- rest;
      a
  | [] -> Array.make e.nw 0

let give e a = if a != e.amask then e.spare <- a :: e.spare

(* Pack every active process, reading pid i's state from [state_of i],
   into classes by [bo_uniform], in the order of their first members.
   Fails at the first state that would make one class too many, leaving
   [e] unpacked (its planes are only read once [packed] is set). One
   O(active) pass, each state matched against the last class it found
   first, and allocating nothing per process. *)
let pack e state_of =
  let lg = e.lg and cd = e.cd and nw = e.nw in
  let width = cd.Protocol.bo_width in
  clear_plane e.amask nw;
  for r = 0 to width - 1 do
    clear_plane e.cur.(r) nw
  done;
  let agrees c s = c.tpl == s || cd.Protocol.bo_uniform c.tpl s in
  let ks = ref [||] and nk = ref 0 and last = ref 0 in
  let cnt = ref 0 and fits = ref true and i = ref 0 in
  while !fits && !i < lg.n do
    let j = !i in
    if Round.active_at lg j then begin
      let s = state_of j in
      if not (!nk > 0 && agrees !ks.(!last) s) then begin
        let c = ref 0 in
        while !c < !nk && not (agrees !ks.(!c) s) do
          incr c
        done;
        if !c < !nk then last := !c
        else if !nk = max_classes then fits := false
        else begin
          let decided = Option.is_some lg.decisions.(j) in
          if !nk = 0 then
            ks := Array.make max_classes { tpl = s; lanes = e.amask; decided }
          else begin
            (* A second class: until now [amask] held the first one's
               lanes. *)
            if !nk = 1 then begin
              let a = take e in
              copy_plane e.amask a nw;
              !ks.(0).lanes <- a
            end;
            let a = take e in
            clear_plane a nw;
            !ks.(!nk) <- { tpl = s; lanes = a; decided }
          end;
          last := !nk;
          incr nk
        end
      end;
      if !fits then begin
        let lanes = !ks.(!last).lanes in
        let w = j / Bitwords.lanes and bit = 1 lsl (j mod Bitwords.lanes) in
        e.amask.(w) <- e.amask.(w) lor bit;
        if lanes != e.amask then lanes.(w) <- lanes.(w) lor bit;
        let regs = cd.Protocol.bo_pack s in
        for r = 0 to width - 1 do
          if (regs lsr r) land 1 = 1 then e.cur.(r).(w) <- e.cur.(r).(w) lor bit
        done;
        incr cnt
      end
    end;
    incr i
  done;
  if !fits && !cnt > 0 then begin
    for r = 0 to width - 1 do
      e.tallies.(r) <- Bitwords.popcount_masked e.cur.(r) e.amask nw
    done;
    e.active_cnt <- !cnt;
    e.classes <- Array.sub !ks 0 !nk;
    e.packed <- true
  end
  else
    for c = 0 to !nk - 1 do
      give e !ks.(c).lanes
    done;
  e.packed

(* Re-enter packed mode after a scalar round if the states fit. *)
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

(* The scalar half, built on first use over some template (its entries
   are only read once [materialize] has set them). *)
let scalar e =
  match e.shadow with
  | Some sc -> sc
  | None ->
      let sc =
        Round.scalar_of e.protocol e.lg (Array.make e.lg.n e.classes.(0).tpl)
      in
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
      classes = [||];
      cur = planes ();
      nxt = planes ();
      amask = Array.make nw 0;
      active_cnt = 0;
      spare = [];
      priv = Array.make n 0;
      tallies = Array.make cd.Protocol.bo_width 0;
      tnxt = Array.make cd.Protocol.bo_width 0;
      viewer = lazy (viewer_of e);
      packed_rounds = 0;
      scalar_rounds = 0;
      rcpt = [||];
      touched = [||];
    }
  in
  (* Every process starts in the class of its input's state: one class,
     or two when the initial states disagree on a non-register field. *)
  ignore (pack e (fun pid -> init.(inputs.(pid))));
  e

(* Leave packed mode: rebuild the scalar states and staged messages of
   every active process from its class and the planes, building the
   scalar half on the first call. Only active entries are read from here
   on: a dead process is never read again, and a halted class leaves no
   active lane. *)
let materialize e =
  let sc = scalar e in
  if e.packed then begin
    let pending = sc.pending in
    Array.fill pending 0 e.lg.n None;
    Array.iter
      (fun c ->
        Bitwords.iter_ones c.lanes e.nw (fun i ->
            sc.states.(i) <- e.cd.Protocol.bo_unpack c.tpl (regs_at e i);
            pending.(i) <- Some (msg_at e i));
        give e c.lanes)
      e.classes;
    e.classes <- [| { (e.classes.(0)) with lanes = e.amask } |];
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

(* Drop this round's victims from the packed population, taking each
   one's bits out of the tallies. Nothing reads a dead process's state,
   so none is kept. A top-level loop: it allocates nothing. *)
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

(* The observer's count over this round's senders, the active lanes
   before the victims leave: the staged messages' pre-transition planes,
   victims included. Only built when an event will carry it. *)
let pending_ones e emit_on =
  if not emit_on then None
  else
    match e.lg.observer with
    | None -> None
    | Some f ->
        let c = ref 0 in
        Bitwords.iter_ones e.amask e.nw (fun i -> if f (msg_at e i) then incr c);
        Some !c

(* Close a packed round: with no kills that only advances its counter. *)
let close_round e kills round ~emit_on ~senders ~delivered ~newly_decided
    ~newly_halted ~ones =
  let lg = e.lg in
  if kills = [] then lg.round <- round else Round.apply_kills lg ~round kills;
  e.packed_rounds <- e.packed_rounds + 1;
  if emit_on then
    Round.emit_round lg ~round kills ~active:senders ~delivered ~newly_decided
      ~newly_halted ~ones

(* The whole uniform Phase B in word operations, for one class under a
   plan of silent kills only ([[]] on most rounds). [round] is the
   1-based round being executed; planes hold the post-Phase-A values.
   Every survivor hears the same sender set, the survivors themselves,
   so one tally serves them all. *)
let packed_phase_b e kills round =
  let lg = e.lg and c0 = e.classes.(0) in
  let emit_on = Obs.Sink.enabled lg.sink in
  (* Before the victims leave and the planes are overwritten. *)
  let ones = pending_ones e emit_on in
  let senders = e.active_cnt in
  drop_victims e kills;
  let survivors = e.active_cnt in
  let newly_decided = ref 0 in
  let newly_halted = ref 0 in
  (* With no survivor nobody receives: the transition is not run. *)
  if survivors > 0 then begin
    let t = e.tallies in
    let ws =
      e.bo.Protocol.bo_step c0.tpl ~round ~nrecv:survivors
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
    c0.tpl <- ws.Protocol.ws_state;
    (* The decision discipline on the post-transition planes, like the
       scalar [decision state']. Actives agree on whether they decided, so
       one representative stands for all when nobody decides. *)
    (match ws.Protocol.ws_decide with
    | None ->
        if c0.decided then
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
        c0.decided <- true);
    if ws.Protocol.ws_halt then begin
      if not c0.decided then Round.halted_undecided (first_active e);
      (* The class halts whole: the run is quiescent from here, so no
         final state is kept. *)
      Bitwords.iter_ones e.amask e.nw (fun j -> lg.halted.(j) <- true);
      newly_halted := e.active_cnt;
      clear_plane e.amask e.nw;
      clear_plane e.tallies e.cd.Protocol.bo_width;
      e.active_cnt <- 0
    end
  end;
  close_round e kills round ~emit_on ~senders
    ~delivered:(survivors * survivors) ~newly_decided:!newly_decided
    ~newly_halted:!newly_halted ~ones

(* --- Receiver classes --------------------------------------------- *)

(* One group of the plan (a run of Adversary.fold_runs with a non-empty
   list): its shared list, its victims' number and register tallies, and
   its max-(priv, pid) victim. *)
type group = {
  recipients : int list;
  len : int;
  vbits : int array;
  vlead : int;
}

(* A receiver class of this round: the survivors of template class [src]
   in [rmask] ([rsize] of them), all reached by exactly the groups
   [named]. *)
type 'state recv = {
  src : 'state klass;
  rmask : int array;
  mutable rsize : int;
  mutable named : group list;
}

(* Whether sender [i] leads sender [j] (or [j] is -1): the larger priv,
   a tie to the larger pid, as [leader_regs] picks. This helper, the next
   and [first_lane] repeat [leader_regs] and [first_active] for any mask
   rather than replace them: the code above the plane loops sets their
   alignment, and moving it made floodset_null_n65536 and
   synran_null_n65536 about 2% slower on a 2-vCPU x86-64 guest. *)
let leads e i j =
  j < 0 || e.priv.(i) > e.priv.(j) || (e.priv.(i) = e.priv.(j) && i > j)

(* The max-(priv, pid) active sender. *)
let leader_pid e =
  let best = ref (-1) in
  Bitwords.iter_ones e.amask e.nw (fun i -> if leads e i !best then best := i);
  !best

(* The plan's groups, read from the planes before anyone leaves them. *)
let groups e kills =
  let width = e.cd.Protocol.bo_width in
  Adversary.fold_runs
    (fun acc run len ->
      match run with
      | { Adversary.deliver_to = _ :: _; _ } :: _ ->
          let vbits = Array.make width 0 and vlead = ref (-1) in
          let rec walk k = function
            | { Adversary.victim; _ } :: rest when k > 0 ->
                let bits = regs_at e victim in
                for r = 0 to width - 1 do
                  vbits.(r) <- vbits.(r) + ((bits lsr r) land 1)
                done;
                if leads e victim !vlead then vlead := victim;
                walk (k - 1) rest
            | _ -> ()
          in
          walk len run;
          { recipients = (List.hd run).Adversary.deliver_to; len; vbits; vlead = !vlead }
          :: acc
      | _ -> acc)
    [] kills

(* This round's receiver classes: each template class's survivors, split
   by every group's recipient mask. One walk of the group's list builds
   the mask in [rcpt] (dead, halted and victim recipients drop out,
   duplicates collapse) and notes the words it touches, and only those
   words of each class are read or split. Returns the classes and their
   number, or [None], with every mask given back, once they would number
   more than [max_classes]. *)
let receivers e kills groups =
  let nw = e.nw in
  if groups <> [] && Array.length e.rcpt < nw then begin
    e.rcpt <- Array.make nw 0;
    e.touched <- Array.make nw 0
  end;
  let rcs = ref [||] and k = ref 0 in
  let add rc =
    if !k = 0 then rcs := Array.make max_classes rc;
    !rcs.(!k) <- rc;
    incr k
  in
  Array.iter
    (fun c ->
      let m = take e in
      copy_plane c.lanes m nw;
      List.iter (fun { Adversary.victim; _ } -> Bitwords.set m victim false) kills;
      let size = Bitwords.popcount_masked m m nw in
      if size = 0 then give e m else add { src = c; rmask = m; rsize = size; named = [] })
    e.classes;
  let fits = ref true and rcpt = e.rcpt and touched = e.touched in
  List.iter
    (fun g ->
      if !fits then begin
        let nt = ref 0 in
        List.iter
          (fun j ->
            if Bitwords.get e.amask j && not (Round.is_victim e.lg j) then begin
              let w = j / Bitwords.lanes in
              if rcpt.(w) = 0 then begin
                touched.(!nt) <- w;
                incr nt
              end;
              rcpt.(w) <- rcpt.(w) lor (1 lsl (j mod Bitwords.lanes))
            end)
          g.recipients;
        for c = 0 to !k - 1 do
          let rc = !rcs.(c) in
          let inter = ref 0 in
          for x = 0 to !nt - 1 do
            let w = touched.(x) in
            inter := !inter + Bitwords.popcount (rc.rmask.(w) land rcpt.(w))
          done;
          if !inter = rc.rsize then rc.named <- g :: rc.named
          else if !inter > 0 && !fits then
            if !k = max_classes then fits := false
            else begin
              let m = take e in
              clear_plane m nw;
              for x = 0 to !nt - 1 do
                let w = touched.(x) in
                m.(w) <- rc.rmask.(w) land rcpt.(w);
                rc.rmask.(w) <- rc.rmask.(w) land lnot rcpt.(w)
              done;
              rc.rsize <- rc.rsize - !inter;
              add { src = rc.src; rmask = m; rsize = !inter; named = g :: rc.named }
            end
        done;
        for x = 0 to !nt - 1 do
          rcpt.(touched.(x)) <- 0
        done
      end)
    groups;
  if !fits then Some (!rcs, !k)
  else begin
    for c = 0 to !k - 1 do
      give e !rcs.(c).rmask
    done;
    None
  end

(* Receiver class [m]'s lanes of the next planes, from the current ones
   by [regs]; every other lane of [nxt] keeps what it holds. *)
let write_class e regs m =
  let nw = e.nw in
  (* dst := src xor flip on the lanes of m. *)
  let blend src flip dst =
    for w = 0 to nw - 1 do
      dst.(w) <- (dst.(w) land lnot m.(w)) lor ((src.(w) lxor flip) land m.(w))
    done
  in
  Array.iteri
    (fun r src ->
      let dst = e.nxt.(r) in
      match src with
      | Protocol.Keep -> blend e.cur.(r) 0 dst
      | Protocol.Copy i -> blend e.cur.(i) 0 dst
      | Protocol.Not i -> blend e.cur.(i) (-1) dst
      (* [m] lies inside [amask], the survivors: a fill is all of it
         or none. *)
      | Protocol.Fill b -> blend e.amask (if b then 0 else -1) dst)
    regs

(* The lowest lane of the non-empty mask [m]. *)
let first_lane m =
  let rec go w =
    if m.(w) = 0 then go (w + 1)
    else (w * Bitwords.lanes) + Bitwords.popcount ((m.(w) land -m.(w)) - 1)
  in
  go 0

(* The decision discipline over the receiver classes, in the scalar
   loop's pid order: every member of a deciding class commits its
   decision; a class that does not decide fails at its first member if
   it had decided (a revocation) or if it halts. The lowest such member
   raises, after the commits below it. Returns the first decisions. *)
let commit_classes e rcs steps k ~round ~emit_on =
  let lg = e.lg and nw = e.nw in
  let fail = ref max_int and revoked = ref false and deciding = ref false in
  for c = 0 to k - 1 do
    let ws = steps.(c) and src = rcs.(c).src in
    match ws.Protocol.ws_decide with
    | Some _ -> deciding := true
    | None ->
        if src.decided || ws.Protocol.ws_halt then begin
          let j = first_lane rcs.(c).rmask in
          if j < !fail then begin
            fail := j;
            revoked := src.decided
          end
        end
  done;
  let raise_fail () =
    if !revoked then ignore (Round.commit_decision lg ~round ~emit:false !fail None);
    Round.halted_undecided !fail
  in
  let newly = ref 0 in
  if !deciding then begin
    let class_of j =
      let c = ref 0 in
      while not (Bitwords.get rcs.(!c).rmask j) do
        incr c
      done;
      !c
    in
    for w = 0 to nw - 1 do
      let m = ref 0 in
      for c = 0 to k - 1 do
        if Option.is_some steps.(c).Protocol.ws_decide then
          m := !m lor rcs.(c).rmask.(w)
      done;
      Bitwords.iter_word
        (fun j ->
          if j > !fail then raise_fail ();
          let v =
            match steps.(class_of j).Protocol.ws_decide with
            | Some (Protocol.Decide_const v) -> shared_some v
            | Some (Protocol.Decide_reg r) ->
                if Bitwords.get e.cur.(r) j then some_1 else some_0
            | None -> None
          in
          if Round.commit_decision lg ~round ~emit:emit_on j v then incr newly)
        (w * Bitwords.lanes) !m
    done
  end;
  if !fail < max_int then raise_fail ();
  !newly

(* The next template classes: each receiver class that did not halt,
   with its new template, merged into an earlier one whose template
   agrees. A lone class takes [amask] as its lanes. *)
let regroup e rcs steps k =
  let out = ref [] in
  for c = 0 to k - 1 do
    let rc = rcs.(c) and ws = steps.(c) in
    if ws.Protocol.ws_halt then give e rc.rmask
    else begin
      let tpl = ws.Protocol.ws_state in
      match List.find_opt (fun x -> e.cd.Protocol.bo_uniform x.tpl tpl) !out with
      | Some x ->
          for w = 0 to e.nw - 1 do
            x.lanes.(w) <- x.lanes.(w) lor rc.rmask.(w)
          done;
          give e rc.rmask
      | None ->
          let decided =
            rc.src.decided || Option.is_some ws.Protocol.ws_decide
          in
          out := { tpl; lanes = rc.rmask; decided } :: !out
    end
  done;
  match !out with
  | [] -> [| { (e.classes.(0)) with lanes = e.amask; decided = false } |]
  | [ x ] ->
      give e x.lanes;
      x.lanes <- e.amask;
      [| x |]
  | l -> Array.of_list (List.rev l)

(* Phase B over receiver classes: any packed round that is not one class
   under silent kills. Each receiver class hears the survivors plus its
   groups' victims: its [nrecv] and counts add those victims to the
   survivors' (carried) ones, and its leader is the max-(priv, pid) of
   both. The transition runs once per class and writes the class's lanes;
   then the decisions, the halting classes, the recounted tallies and the
   merged templates. Returns [false], having changed nothing, when the
   round would need more than [max_classes] receiver classes. *)
let classes_phase_b e kills round =
  let groups = groups e kills in
  match receivers e kills groups with
  | None -> false
  | Some (rcs, k) ->
      let lg = e.lg and nw = e.nw and width = e.cd.Protocol.bo_width in
      let emit_on = Obs.Sink.enabled lg.sink in
      let ones = pending_ones e emit_on in
      let senders = e.active_cnt in
      drop_victims e kills;
      let survivors = e.active_cnt in
      let lead = lazy (leader_pid e) and delivered = ref 0 in
      let steps =
        Array.init k (fun c ->
            let rc = rcs.(c) in
            let nrecv = List.fold_left (fun a g -> a + g.len) survivors rc.named in
            delivered := !delivered + (rc.rsize * nrecv);
            let counts =
              match rc.named with
              | [] -> e.tallies
              | named ->
                  Array.init width (fun r ->
                      List.fold_left (fun a g -> a + g.vbits.(r)) e.tallies.(r) named)
            in
            let leader =
              lazy
                (regs_at e
                   (List.fold_left
                      (fun best g -> if leads e g.vlead best then g.vlead else best)
                      (Lazy.force lead) rc.named))
            in
            e.bo.Protocol.bo_step rc.src.tpl ~round ~nrecv
              ~tallies:{ Protocol.counts; leader })
      in
      for c = 0 to k - 1 do
        write_class e steps.(c).Protocol.ws_regs rcs.(c).rmask
      done;
      let old = e.cur in
      e.cur <- e.nxt;
      e.nxt <- old;
      let newly_decided = commit_classes e rcs steps k ~round ~emit_on in
      let newly_halted = ref 0 in
      for c = 0 to k - 1 do
        if steps.(c).Protocol.ws_halt then begin
          let rc = rcs.(c) in
          Bitwords.iter_ones rc.rmask nw (fun j -> lg.halted.(j) <- true);
          for w = 0 to nw - 1 do
            e.amask.(w) <- e.amask.(w) land lnot rc.rmask.(w)
          done;
          newly_halted := !newly_halted + rc.rsize;
          e.active_cnt <- e.active_cnt - rc.rsize
        end
      done;
      for r = 0 to width - 1 do
        e.tallies.(r) <- Bitwords.popcount_masked e.cur.(r) e.amask nw
      done;
      let next = regroup e rcs steps k in
      Array.iter (fun c -> give e c.lanes) e.classes;
      e.classes <- next;
      close_round e kills round ~emit_on ~senders ~delivered:!delivered
        ~newly_decided ~newly_halted:!newly_halted ~ones;
      true

let silent k = k.Adversary.deliver_to = []

let step e adversary =
  if active_count e = 0 then `Quiescent
  else begin
    let lg = e.lg in
    let round = lg.round + 1 in
    if e.packed then packed_phase_a e else Round.phase_a (scalar e);
    let kills = Round.plan lg adversary (Round.view (Lazy.force e.viewer) ~round) in
    (* One class under silent kills: every survivor hears the same
       senders and runs the same transition. *)
    if e.packed && Array.length e.classes = 1 && List.for_all silent kills then
      packed_phase_b e kills round
    else if not (e.packed && classes_phase_b e kills round) then begin
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
   [amask], the class masks and the tallies are copied; [nxt], [tnxt],
   [priv] and the partial-delivery scratch are dead between steps, so the
   copy gets fresh ones, and a viewer over itself. A packed original's
   scalar half holds nothing that is read again, so the copy builds its
   own if it ever unpacks; an unpacked one's is Round's copy, over the
   copy's ledger. *)
let snapshot e =
  let width = e.cd.Protocol.bo_width and nw = e.nw in
  let lg, shadow =
    match e.shadow with
    | Some sc when not e.packed ->
        let sc = Round.snapshot sc in
        (sc.lg, Some sc)
    | _ -> (Round.copy_ledger e.lg, None)
  in
  let amask = Array.copy e.amask in
  let own lanes = if lanes == e.amask then amask else Array.copy lanes in
  let rec c =
    {
      e with
      lg;
      shadow;
      classes = Array.map (fun k -> { k with lanes = own k.lanes }) e.classes;
      cur = Array.map Array.copy e.cur;
      nxt = Array.init width (fun _ -> Array.make nw 0);
      amask;
      spare = [];
      priv = Array.make lg.n 0;
      tallies = Array.copy e.tallies;
      tnxt = Array.make width 0;
      viewer = lazy (viewer_of c);
      rcpt = [||];
      touched = [||];
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
