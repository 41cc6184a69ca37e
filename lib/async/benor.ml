type msg =
  | Report of { phase : int; v : int }
  | Proposal of { phase : int; v : int option }

type counters = { mutable zeros : int; mutable ones : int; mutable nones : int }

let fresh_counters () = { zeros = 0; ones = 0; nones = 0 }

let counters_total c = c.zeros + c.ones + c.nones

type state = {
  n : int;
  t : int;
  pid : int;
  mutable b : int;
  mutable phase : int;
  mutable step : [ `Reporting | `Proposing ];
  mutable decision : int option;
  mutable flips : int;
  reports : (int, counters) Hashtbl.t;
  proposals : (int, counters) Hashtbl.t;
}

let phase s = s.phase

let table_get tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c = fresh_counters () in
      Hashtbl.replace tbl key c;
      c

(* Advance through any step whose quorum is already complete; each
   transition emits a broadcast, which may complete the next step too. *)
let rec progress s rng acc =
  match s.step with
  | `Reporting ->
      let c = table_get s.reports s.phase in
      if counters_total c >= s.n - s.t then begin
        (* Candidate: a value reported by more than half of ALL processes —
           two such candidates in one phase would intersect in an honest
           reporter, so at most one exists. *)
        let candidate =
          if 2 * c.ones > s.n then Some 1
          else if 2 * c.zeros > s.n then Some 0
          else None
        in
        s.step <- `Proposing;
        progress s rng
          (acc @ Protocol.broadcast ~n:s.n (Proposal { phase = s.phase; v = candidate }))
      end
      else acc
  | `Proposing ->
      let p = table_get s.proposals s.phase in
      if counters_total p >= s.n - s.t then begin
        (* At least t+1 backers: every other quorum of n-t proposals will
           contain one, so everyone adopts the value next phase. *)
        if p.ones >= s.t + 1 then begin
          s.b <- 1;
          if s.decision = None then s.decision <- Some 1
        end
        else if p.zeros >= s.t + 1 then begin
          s.b <- 0;
          if s.decision = None then s.decision <- Some 0
        end
        else if p.ones >= 1 then s.b <- 1
        else if p.zeros >= 1 then s.b <- 0
        else begin
          s.b <- Prng.Rng.bit rng;
          s.flips <- s.flips + 1
        end;
        s.phase <- s.phase + 1;
        s.step <- `Reporting;
        progress s rng
          (acc @ Protocol.broadcast ~n:s.n (Report { phase = s.phase; v = s.b }))
      end
      else acc

let protocol ~t =
  let init ~n ~pid ~input =
    if t < 0 || 2 * t >= n then
      invalid_arg "Benor.protocol: needs 0 <= t < n/2";
    let s =
      {
        n;
        t;
        pid;
        b = input;
        phase = 1;
        step = `Reporting;
        decision = None;
        flips = 0;
        reports = Hashtbl.create 16;
        proposals = Hashtbl.create 16;
      }
    in
    (s, Protocol.broadcast ~n (Report { phase = 1; v = input }))
  in
  let on_message s ~sender:_ m rng =
    (match m with
    | Report { phase; v } ->
        let c = table_get s.reports phase in
        if v = 1 then c.ones <- c.ones + 1 else c.zeros <- c.zeros + 1
    | Proposal { phase; v } -> (
        let c = table_get s.proposals phase in
        match v with
        | Some 1 -> c.ones <- c.ones + 1
        | Some _ -> c.zeros <- c.zeros + 1
        | None -> c.nones <- c.nones + 1));
    let sends = progress s rng [] in
    (s, sends)
  in
  {
    Protocol.name = Printf.sprintf "benor-async[t=%d]" t;
    init;
    on_message;
    decision = (fun s -> s.decision);
    coin_flips = (fun s -> s.flips);
  }

(* ------------------------------------------------------------------ *)
(* The splitter scheduler                                              *)
(* ------------------------------------------------------------------ *)

(* The splitter delivers the oldest pending message of the lowest score
   (lower is better for the adversary):
   - 0: a proposal of no value;
   - 1: a report on its receiver's minority side for that phase (its value
     delivered no more often than the other): keeps the sample balanced;
   - 2: any other report short of a majority;
   - 3: a report whose value already holds half of the receiver's phase
     sample, so it would complete a candidate majority;
   - 4: a proposal of a value.
   A report's score depends only on its group (receiver, phase, value) and
   on the receiver's tally for that phase, so messages queue in one FIFO
   per group, and delivering one report rescores just the two groups of
   its (receiver, phase). The non-empty groups of scores 1-3 sit in one
   min-heap per score, keyed by their oldest id; the two proposal scores
   are plain FIFOs. Everything lives in int arrays that grow
   geometrically, so a pick costs O(log groups) and allocates nothing
   once they have grown. *)

(* FIFO ends, delivered-report counts, scores and heap positions are
   indexed by group: 0 holds the proposals of no value, 1 those of a
   value, and [2 * (phase * n + dst) + v] the phase-[phase] reports of
   [v] to [dst] (phases start at 1, so the two never meet). *)
type heap = { mutable groups : int array; mutable size : int }

type split = {
  mutable n : int;
  mutable step : int;  (* steps_taken at the last pick *)
  mutable seen : int;  (* ids below this are registered *)
  mutable tracked : int;  (* registered messages not yet picked *)
  (* Message slots: [id] and the next slot in the same group's FIFO; free
     slots are chained through [next] from [free]. *)
  mutable id : int array;
  mutable next : int array;
  mutable free : int;
  mutable used : int;
  mutable first : int array;  (* oldest slot of the group, -1 if empty *)
  mutable last : int array;
  mutable delivered : int array;
  mutable score : int array;  (* 1-3 while in a heap, else 0 *)
  mutable pos : int array;  (* index in its score's heap *)
  heaps : heap array;  (* scores 1, 2, 3 *)
}

let grow a len fill =
  if len <= Array.length a then a
  else begin
    let b = Array.make (Stdlib.max len (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let key st g = st.id.(st.first.(g))

let place st h i g =
  h.groups.(i) <- g;
  st.pos.(g) <- i

let rec sift_up st h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let g = h.groups.(i) and gp = h.groups.(p) in
    if key st g < key st gp then begin
      place st h i gp;
      place st h p g;
      sift_up st h p
    end
  end

let rec sift_down st h i =
  let l = (2 * i) + 1 in
  if l < h.size then begin
    let c =
      if l + 1 < h.size && key st h.groups.(l + 1) < key st h.groups.(l) then
        l + 1
      else l
    in
    let g = h.groups.(i) and gc = h.groups.(c) in
    if key st gc < key st g then begin
      place st h i gc;
      place st h c g;
      sift_down st h c
    end
  end

let heap_add st h g =
  h.groups <- grow h.groups (h.size + 1) 0;
  place st h h.size g;
  h.size <- h.size + 1;
  sift_up st h (h.size - 1)

let heap_remove st h g =
  let i = st.pos.(g) in
  h.size <- h.size - 1;
  if i < h.size then begin
    place st h i h.groups.(h.size);
    sift_up st h i;
    sift_down st h i
  end

(* Re-derive a report group's score from its tally after its FIFO or its
   (receiver, phase) tally changed, moving it between heaps; an unchanged
   score with a newly aged head re-sinks in place. *)
let rescore st g =
  let sc =
    if st.first.(g) < 0 then 0
    else
      let same = st.delivered.(g) and other = st.delivered.(g lxor 1) in
      if same >= st.n / 2 then 3 else if same <= other then 1 else 2
  in
  let old = st.score.(g) in
  if sc <> old then begin
    if old > 0 then heap_remove st st.heaps.(old - 1) g;
    st.score.(g) <- sc;
    if sc > 0 then heap_add st st.heaps.(sc - 1) g
  end
  else if sc > 0 then sift_down st st.heaps.(sc - 1) st.pos.(g)

let register st (m : msg Scheduler.in_flight) =
  let g =
    match m.Scheduler.payload with
    | Proposal { v = None; _ } -> 0
    | Proposal { v = Some _; _ } -> 1
    | Report { phase; v } ->
        (2 * ((phase * st.n) + m.Scheduler.dst)) + if v = 1 then 1 else 0
  in
  if g >= Array.length st.first then begin
    let len = (g lor 1) + 1 in
    st.first <- grow st.first len (-1);
    st.last <- grow st.last len (-1);
    st.delivered <- grow st.delivered len 0;
    st.score <- grow st.score len 0;
    st.pos <- grow st.pos len 0
  end;
  let s =
    if st.free >= 0 then begin
      let s = st.free in
      st.free <- st.next.(s);
      s
    end
    else begin
      st.used <- st.used + 1;
      st.id <- grow st.id st.used 0;
      st.next <- grow st.next st.used 0;
      st.used - 1
    end
  in
  st.id.(s) <- m.Scheduler.id;
  st.next.(s) <- -1;
  if st.last.(g) < 0 then begin
    st.first.(g) <- s;
    st.last.(g) <- s;
    if g >= 2 then rescore st g
  end
  else begin
    st.next.(st.last.(g)) <- s;
    st.last.(g) <- s
  end

(* Dequeue group [g]'s oldest message and return its id. *)
let take st g =
  let s = st.first.(g) in
  let nx = st.next.(s) in
  st.first.(g) <- nx;
  if nx < 0 then st.last.(g) <- -1;
  st.next.(s) <- st.free;
  st.free <- s;
  st.tracked <- st.tracked - 1;
  if g >= 2 then begin
    st.delivered.(g) <- st.delivered.(g) + 1;
    rescore st g;
    rescore st (g lxor 1)
  end;
  st.id.(s)

(* Forget every queued message; [tally] also forgets what was delivered. *)
let clear st ~tally =
  Array.fill st.first 0 (Array.length st.first) (-1);
  Array.fill st.last 0 (Array.length st.last) (-1);
  Array.fill st.score 0 (Array.length st.score) 0;
  if tally then Array.fill st.delivered 0 (Array.length st.delivered) 0;
  Array.iter (fun h -> h.size <- 0) st.heaps;
  st.free <- -1;
  st.used <- 0;
  st.seen <- 0;
  st.tracked <- 0

let splitter () =
  let st =
    {
      n = 0;
      step = max_int;
      seen = 0;
      tracked = 0;
      id = [||];
      next = [||];
      free = -1;
      used = 0;
      first = [||];
      last = [||];
      delivered = [||];
      score = [||];
      pos = [||];
      heaps = Array.init 3 (fun _ -> { groups = [||]; size = 0 });
    }
  in
  let pick view _rng =
    let count = view.Scheduler.pending_count in
    let nth = view.Scheduler.pending_nth in
    (* A step counter that did not advance means a fresh run. *)
    if view.Scheduler.steps_taken <= st.step then begin
      st.n <- view.Scheduler.n;
      clear st ~tally:true
    end
    else begin
      (* Only this scheduler's own picks remove messages, so the registered
         ones are exactly the [tracked] oldest pending; anything else (a
         crash's purge) re-registers the whole store. *)
      let k = st.tracked in
      if
        k > count
        || (k > 0 && (nth (k - 1)).Scheduler.id >= st.seen)
        || (k < count && (nth k).Scheduler.id < st.seen)
      then clear st ~tally:false
    end;
    for k = st.tracked to count - 1 do
      register st (nth k)
    done;
    st.tracked <- count;
    st.seen <- (nth (count - 1)).Scheduler.id + 1;
    let g =
      if st.first.(0) >= 0 then 0
      else if st.heaps.(0).size > 0 then st.heaps.(0).groups.(0)
      else if st.heaps.(1).size > 0 then st.heaps.(1).groups.(0)
      else if st.heaps.(2).size > 0 then st.heaps.(2).groups.(0)
      else 1
    in
    st.step <- view.Scheduler.steps_taken;
    Scheduler.Deliver (take st g)
  in
  { Scheduler.name = "splitter"; pick }
