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

(* Report values delivered to one receiver, indexed by phase; phases past
   the end of an array have had none. *)
type tally = { mutable zeros : int array; mutable ones : int array }

let tally_get a phase = if phase < Array.length a then a.(phase) else 0

let tally_bump a phase =
  let a =
    if phase < Array.length a then a
    else begin
      let grown = Array.make (Stdlib.max (phase + 1) (2 * Array.length a)) 0 in
      Array.blit a 0 grown 0 (Array.length a);
      grown
    end
  in
  a.(phase) <- a.(phase) + 1;
  a

let splitter () =
  let delivered = ref [||] in
  let pick view rng =
    let n = view.Scheduler.n in
    if view.Scheduler.steps_taken <= 1 then
      delivered := Array.init n (fun _ -> { zeros = [||]; ones = [||] });
    let half = n / 2 in
    (* Score: lower is better for the adversary. *)
    let score (m : msg Scheduler.in_flight) =
      match m.Scheduler.payload with
      | Proposal { v = None; _ } -> 0
      | Report { phase; v } ->
          let c = !delivered.(m.Scheduler.dst) in
          let same = tally_get (if v = 1 then c.ones else c.zeros) phase in
          let other = tally_get (if v = 1 then c.zeros else c.ones) phase in
          if same >= half then 3 (* would complete a candidate majority *)
          else if same <= other then 1 (* minority side: keeps the sample balanced *)
          else 2
      | Proposal { v = Some _; _ } -> 4
    in
    (* Arg-min keeping the earliest (oldest) minimum; 0 is the floor. *)
    let best = ref 0 in
    let best_sc = ref (score (view.Scheduler.pending_nth 0)) in
    let k = ref 1 in
    while !best_sc > 0 && !k < view.Scheduler.pending_count do
      let sc = score (view.Scheduler.pending_nth !k) in
      if sc < !best_sc then begin
        best := !k;
        best_sc := sc
      end;
      incr k
    done;
    let m = view.Scheduler.pending_nth !best in
    (match m.Scheduler.payload with
    | Report { phase; v } ->
        let c = !delivered.(m.Scheduler.dst) in
        if v = 1 then c.ones <- tally_bump c.ones phase
        else c.zeros <- tally_bump c.zeros phase
    | Proposal _ -> ());
    ignore rng;
    Scheduler.Deliver m.Scheduler.id
  in
  { Scheduler.name = "splitter"; pick }
