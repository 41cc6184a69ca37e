(* The bit-packed engine.

   Register state lives in bit planes (one int array row per register,
   lane i of word i/lanes = process i, see Bitwords); the non-register
   fields of the active processes are held in a few template classes
   ([klass]): a template state and the lanes it stands for. Coins and aux
   draws are drawn word-at-a-time by the PRNG's own kernel
   ([Prng.Rng.Bank.draw_word]), and the protocol's transition ([bo_step])
   is a handful of plain plane loops.

   Phase B runs once per receiver class ([classes_phase_b]): survivors of
   one template class that hear the same senders. The plan's groups
   (Adversary.fold_runs) split the template classes by their recipient
   masks; each receiver class runs the word transition once, on the
   survivors' tallies plus its groups' victims, written to its lanes, and
   classes whose new templates agree merge again. A round of silent kills
   over one template class has one receiver class, [amask] itself: it
   writes whole plane words and carries the tallies on ([tallies] below).
   Only a round that would need more than [max_classes] receiver classes
   (per-victim recipient lists, say) runs Engine's own delivery and
   commit code on materialized scalar states ([Round.phase_b]), then
   re-packs once the states fall into at most [max_classes] templates.

   A trial costs only its packed rounds: a register protocol's initial
   state is a function of its input alone ([bo_init]), so [start] packs
   every process from the two initial states, as one class or, when they
   disagree on a non-register field, two. A packed execution keeps the
   ledger, the planes and the streams (one bank, Prng.Rng.Bank) and no
   per-process state: a victim just leaves the mask, and a halting class
   leaves it whole. The scalar half, Engine's record (states, staged
   messages and delivery scratch), is built by Round's one constructor at
   the first round that unpacks, and kept from then on.

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

(* One group of the plan (a run of Adversary.fold_runs with a non-empty
   list): its shared list, its victims' number and register tallies, and
   its max-(priv, pid) victim. *)
type group = {
  recipients : int list;
  len : int;
  vbits : int array;
  vlead : int;
}

(* A receiver class of the round: the survivors of template class [src]
   in [rmask] ([rsize] of them), all reached by exactly the groups
   [named], and their transition [ws]. Scratch, rewritten every round. *)
type 'state recv = {
  mutable src : 'state klass;
  mutable rmask : int array;
  mutable rsize : int;
  mutable named : group list;
  mutable ws : 'state Protocol.word_step;
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
         length bo_width. Set by popcount in [pack], then carried across
         rounds instead of recounted: [packed_phase_a] recounts the coin
         plane it draws, [drop_victims] subtracts each victim's bits, and
         a round with one receiver class derives the post-transition
         counts from its [ws_regs]. Only a round with more receiver
         classes, or a halting one, recounts them. *)
  mutable tnxt : int array;  (* double buffer for the transition's counts *)
  viewer : ('state, 'msg) Round.viewer Lazy.t;
      (* The adversary's accessors, over this exec: built once. *)
  (* Instrumentation for bench and tests. *)
  mutable packed_rounds : int;
  mutable scalar_rounds : int;
  (* Phase B scratch, made by the first round that needs it: one group's
     recipient mask (all zero between groups) and the words it touches,
     nw words each, and one record per receiver class. *)
  mutable rcpt : int array;
  mutable touched : int array;
  mutable rcs : 'state recv array;
  mutable lead : int;  (* this round's max-(priv, pid) survivor, or -1 *)
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

(* Whether sender [i] leads sender [j] (or [j] is -1): the larger priv,
   a tie to the larger pid. *)
let leads e i j =
  j < 0 || e.priv.(i) > e.priv.(j) || (e.priv.(i) = e.priv.(j) && i > j)

(* The max-(priv, pid) active sender, found once a round: [lead] is -1
   until then. *)
let leader_pid e =
  if e.lead < 0 then
    Bitwords.iter_ones e.amask e.nw (fun i -> if leads e i e.lead then e.lead <- i);
  e.lead

(* The lowest lane of the non-empty mask [m]. *)
let first_lane m =
  let w = ref 0 in
  while m.(!w) = 0 do incr w done;
  (!w * Bitwords.lanes) + Bitwords.popcount ((m.(!w) land -m.(!w)) - 1)

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
      rcs = [||];
      lead = -1;
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

(* --- Phase B, per receiver class ---------------------------------- *)

(* The plan's groups, read from the planes before anyone leaves them. *)
let groups e kills =
  let width = e.cd.Protocol.bo_width in
  if kills = [] then []
  else
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

(* Set receiver class [k] in its scratch record, made by the first round
   with that many classes (its [ws] a placeholder until the transition). *)
let set_recv e k src rmask rsize named =
  if k = Array.length e.rcs then
    let ws =
      { Protocol.ws_state = src.tpl; ws_regs = [||]; ws_decide = None; ws_halt = false }
    in
    e.rcs <- Array.append e.rcs [| { src; rmask; rsize; named; ws } |]
  else begin
    let rc = e.rcs.(k) in
    rc.src <- src;
    rc.rmask <- rmask;
    rc.rsize <- rsize;
    rc.named <- named
  end

(* A mask of template class [src]'s survivors, taken from [spare]. *)
let survivors_of e src kills =
  let m = take e in
  copy_plane src.lanes m e.nw;
  List.iter (fun { Adversary.victim; _ } -> Bitwords.set m victim false) kills;
  m

(* Split the first [k] receiver classes by each group's recipient mask,
   built in [rcpt] by one walk of its list (dead, halted and victim
   recipients drop out, duplicates collapse), reading only the words it
   touches. A class wholly inside hears the group; one partly inside gives
   that part to a new class, which hears it too. Returns the classes'
   number, or -1 past [max_classes]. *)
let rec split_by e kills k = function
  | [] -> k
  | g :: rest ->
      let rcpt = e.rcpt and touched = e.touched and nt = ref 0 in
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
      let n = ref k in
      for c = 0 to k - 1 do
        let rc = e.rcs.(c) and inter = ref 0 in
        for x = 0 to !nt - 1 do
          let w = touched.(x) in
          inter := !inter + Bitwords.popcount (rc.rmask.(w) land rcpt.(w))
        done;
        if !inter = rc.rsize then rc.named <- g :: rc.named
        else if !inter > 0 && !n >= 0 then
          if !n = max_classes then n := -1
          else begin
            (* A lone class split: its receivers take a mask of their own. *)
            if rc.rmask == e.amask then rc.rmask <- survivors_of e rc.src kills;
            let m = take e in
            clear_plane m e.nw;
            for x = 0 to !nt - 1 do
              let w = touched.(x) in
              m.(w) <- rc.rmask.(w) land rcpt.(w);
              rc.rmask.(w) <- rc.rmask.(w) land lnot rcpt.(w)
            done;
            rc.rsize <- rc.rsize - !inter;
            set_recv e !n rc.src m !inter (g :: rc.named);
            incr n
          end
      done;
      for x = 0 to !nt - 1 do
        rcpt.(touched.(x)) <- 0
      done;
      if !n < 0 then -1 else split_by e kills !n rest

(* This round's receiver classes, in [rcs]: each template class's
   survivors, split by the groups. The lone class of a one-class
   execution receives as [amask] itself, exactly its survivors once the
   victims leave, until a group splits it. Returns their number, or -1,
   every mask given back, past [max_classes]. *)
let receivers e kills groups =
  if groups <> [] && Array.length e.rcpt < e.nw then begin
    e.rcpt <- Array.make e.nw 0;
    e.touched <- Array.make e.nw 0
  end;
  let k = ref 0 in
  for c = 0 to Array.length e.classes - 1 do
    let src = e.classes.(c) in
    let lone = src.lanes == e.amask in
    let m = if lone then e.amask else survivors_of e src kills in
    let size =
      if lone then e.active_cnt - List.length kills
      else Bitwords.popcount_masked m m e.nw
    in
    if size = 0 then give e m
    else begin
      set_recv e !k src m size [];
      incr k
    end
  done;
  let k = split_by e kills !k groups in
  if k < 0 then
    for c = 0 to max_classes - 1 do
      give e e.rcs.(c).rmask
    done;
  k

(* Receiver class [m]'s lanes of the next planes: register r becomes
   [src xor flip] by its source in [regs] ([m] lies inside [amask], the
   survivors, so a fill is all of it or none). The first class writes
   whole words: every other active lane is a later class's, which blends
   into its own lanes, and an inactive lane is never read again. *)
let write_class e regs m ~whole =
  for r = 0 to e.cd.Protocol.bo_width - 1 do
    let src, flip =
      match regs.(r) with
      | Protocol.Keep -> (e.cur.(r), 0)
      | Copy i -> (e.cur.(i), 0)
      | Not i -> (e.cur.(i), -1)
      | Fill b -> (e.amask, if b then 0 else -1)
    in
    let dst = e.nxt.(r) in
    if whole then
      if flip = 0 then copy_plane src dst e.nw else not_plane src dst e.nw
    else
      for w = 0 to e.nw - 1 do
        dst.(w) <- (dst.(w) land lnot m.(w)) lor ((src.(w) lxor flip) land m.(w))
      done
  done

(* The receiver class, from [c] on, that holds lane [j]. *)
let rec class_of e j c = if Bitwords.get e.rcs.(c).rmask j then c else class_of e j (c + 1)

(* Commit the deciders [m] of the word at lane [base], ascending, each
   lane's decision its receiver class's, sharing one [Some v] per value.
   Returns [newly] plus the first decisions. *)
let rec commit_word e k ~round ~emit_on base m newly =
  if m = 0 then newly
  else begin
    let bit = m land -m in
    let j = base + Bitwords.popcount (bit - 1) in
    let v =
      match e.rcs.(if k = 1 then 0 else class_of e j 0).ws.Protocol.ws_decide with
      | Some (Protocol.Decide_const 0) -> some_0
      | Some (Decide_const 1) -> some_1
      | Some (Decide_const v) -> Some v
      | Some (Decide_reg r) -> if Bitwords.get e.cur.(r) j then some_1 else some_0
      | None -> None
    in
    let first = Round.commit_decision e.lg ~round ~emit:emit_on j v in
    commit_word e k ~round ~emit_on base (m lxor bit)
      (if first then newly + 1 else newly)
  end

(* The decision discipline over the [k] receiver classes, in the scalar
   loop's pid order: every member of a deciding class commits its
   decision; a class that does not decide fails at its first member if
   it had decided (a revocation) or if it halts. The lowest such member
   raises, after the commits below it. Returns the first decisions. *)
let commit_classes e k ~round ~emit_on =
  let fail = ref max_int and revoked = ref false and deciding = ref false in
  for c = 0 to k - 1 do
    let rc = e.rcs.(c) in
    match rc.ws.Protocol.ws_decide with
    | Some _ -> deciding := true
    | None ->
        if rc.src.decided || rc.ws.Protocol.ws_halt then begin
          let j = first_lane rc.rmask in
          if j < !fail then begin
            fail := j;
            revoked := rc.src.decided
          end
        end
  done;
  let newly = ref 0 in
  if !deciding then
    for w = 0 to e.nw - 1 do
      let m = ref 0 and base = w * Bitwords.lanes in
      for c = 0 to k - 1 do
        if Option.is_some e.rcs.(c).ws.Protocol.ws_decide then
          m := !m lor e.rcs.(c).rmask.(w)
      done;
      (* Only the deciders below the first failure commit. *)
      let m = !m land Bitwords.mask_upto (Stdlib.max 0 (!fail - base)) in
      newly := commit_word e k ~round ~emit_on base m !newly
    done;
  if !fail < max_int then begin
    if !revoked then
      ignore (Round.commit_decision e.lg ~round ~emit:false !fail None);
    Round.halted_undecided !fail
  end;
  !newly

(* The next template classes: each of the [k] receiver classes that did
   not halt, with its new template, merged into an earlier one whose
   template agrees. The old class masks go back to [spare], and a lone
   class takes [amask] as its lanes: a lone receiver class that goes on
   keeps its template class's record. *)
let regroup e k =
  let old = e.classes in
  for c = 0 to Array.length old - 1 do
    give e old.(c).lanes
  done;
  if k = 1 && not e.rcs.(0).ws.Protocol.ws_halt then begin
    let { src = x; rmask; ws; _ } = e.rcs.(0) in
    give e rmask;
    x.tpl <- ws.Protocol.ws_state;
    x.lanes <- e.amask;
    x.decided <- x.decided || Option.is_some ws.Protocol.ws_decide;
    if Array.length old > 1 then e.classes <- [| x |]
  end
  else begin
    let out = ref [] in
    for c = 0 to k - 1 do
      let rc = e.rcs.(c) in
      let ws = rc.ws in
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
    e.classes <-
      (match !out with
      | [] -> [| { (old.(0)) with lanes = e.amask; decided = false } |]
      | [ x ] ->
          give e x.lanes;
          x.lanes <- e.amask;
          [| x |]
      | l -> Array.of_list (List.rev l))
  end

(* Phase B of packed round [round], per receiver class, on the
   post-Phase-A planes. Each class hears the survivors plus its groups'
   victims: its [nrecv] and counts add those victims to the survivors'
   (carried) ones, and its leader is the max-(priv, pid) of both. The
   transition runs once per class and writes the class's lanes; then the
   decisions, the halting classes, the tallies and the merged templates.
   Returns [false], having changed nothing, past [max_classes] classes. *)
let classes_phase_b e kills round =
  let k = receivers e kills (groups e kills) in
  k >= 0
  &&
  let lg = e.lg and width = e.cd.Protocol.bo_width in
  let emit_on = Obs.Sink.enabled lg.sink in
  (* Before the victims leave and the planes are overwritten. *)
  let ones = pending_ones e emit_on in
  let senders = e.active_cnt in
  drop_victims e kills;
  let survivors = e.active_cnt in
  e.lead <- -1;
  let delivered = ref 0 in
  for c = 0 to k - 1 do
    let rc = e.rcs.(c) in
    let nrecv = List.fold_left (fun a g -> a + g.len) survivors rc.named in
    delivered := !delivered + (rc.rsize * nrecv);
    let tallies =
      match rc.named with
      | [] ->
          (* A closure over [e] alone: a one-class round allocates no
             more than the transition itself. *)
          { Protocol.counts = e.tallies; leader = lazy (regs_at e (leader_pid e)) }
      | named ->
          {
            Protocol.counts =
              Array.init width (fun r ->
                  List.fold_left (fun a g -> a + g.vbits.(r)) e.tallies.(r) named);
            leader =
              lazy
                (regs_at e
                   (List.fold_left
                      (fun best g -> if leads e g.vlead best then g.vlead else best)
                      (leader_pid e) named));
          }
    in
    rc.ws <- e.bo.Protocol.bo_step rc.src.tpl ~round ~nrecv ~tallies;
    write_class e rc.ws.Protocol.ws_regs rc.rmask ~whole:(c = 0)
  done;
  let old = e.cur in
  e.cur <- e.nxt;
  e.nxt <- old;
  let newly_decided = commit_classes e k ~round ~emit_on in
  let newly_halted = ref 0 in
  for c = 0 to k - 1 do
    let rc = e.rcs.(c) in
    if rc.ws.Protocol.ws_halt then begin
      Bitwords.iter_ones rc.rmask e.nw (fun j ->
          lg.halted.(j) <- true;
          Bitwords.set e.amask j false);
      newly_halted := !newly_halted + rc.rsize;
      e.active_cnt <- e.active_cnt - rc.rsize
    end
  done;
  if k = 1 && !newly_halted = 0 then begin
    (* One receiver class, every survivor: each register's next count
       follows from the old ones by its source. *)
    let t = e.tallies and t' = e.tnxt in
    for r = 0 to width - 1 do
      t'.(r) <-
        (match e.rcs.(0).ws.Protocol.ws_regs.(r) with
        | Protocol.Keep -> t.(r)
        | Fill true -> survivors
        | Fill false -> 0
        | Copy i -> t.(i)
        | Not i -> survivors - t.(i))
    done;
    e.tallies <- t';
    e.tnxt <- t
  end
  else if k > 0 then
    for r = 0 to width - 1 do
      e.tallies.(r) <- Bitwords.popcount_masked e.cur.(r) e.amask e.nw
    done;
  regroup e k;
  (* With no kills, closing the round only advances its counter. *)
  if kills = [] then lg.round <- round else Round.apply_kills lg ~round kills;
  e.packed_rounds <- e.packed_rounds + 1;
  if emit_on then
    Round.emit_round lg ~round kills ~active:senders ~delivered:!delivered
      ~newly_decided ~newly_halted:!newly_halted ~ones;
  true

let step e adversary =
  if active_count e = 0 then `Quiescent
  else begin
    let lg = e.lg in
    let round = lg.round + 1 in
    if e.packed then packed_phase_a e else Round.phase_a (scalar e);
    let kills = Round.plan lg adversary (Round.view (Lazy.force e.viewer) ~round) in
    if not (e.packed && classes_phase_b e kills round) then begin
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
   [priv] and the Phase B scratch are dead between steps, so the
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
      rcs = [||];
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
