type summary = {
  trials : int;
  rounds : Stats.Welford.t;
  rounds_hist : Stats.Histogram.t;
  kills : Stats.Welford.t;
  decided_zero : int;
  decided_one : int;
  non_terminating : int;
  safety_errors : string list;
}

let mean_rounds s = Stats.Welford.mean s.rounds

let input_gen_random ~n rng = Prng.Sample.random_bits rng n

let input_gen_const ~n v _rng = Array.make n v

let input_gen_split ~n rng =
  let a = Array.init n (fun i -> if i < n / 2 then 0 else 1) in
  Prng.Sample.shuffle rng a;
  a

let consensus_value (o : Engine.outcome) =
  let v = ref None in
  Array.iter
    (fun d -> match (d, !v) with Some d, None -> v := Some d | _ -> ())
    o.decisions;
  !v

(* Observability slice of a chunk accumulator. Plain data only (the chunk
   is checkpointed with Marshal, which rejects closures): per-trial sinks
   are rebuilt inside [work] around these and never stored. *)
type obs_scope = {
  om : Obs.Metrics.t;
  orec : Obs.Recorder.t;
  oevents : bool;  (* also record the raw stream, not just metrics *)
}

type probe = { sink : Obs.Sink.t; metrics : Obs.Metrics.t }

(* Per-chunk accumulator of the generic fold: the model's own plain-data
   accumulator, the number of trials folded into it, and the chunk's
   observability slice. Merged in chunk order, so every field is
   identical for every worker count. *)
type 'acc chunk = {
  acc : 'acc;
  mutable folded : int;
  obs : obs_scope option;
}

(* Feed one event into a chunk's observability slice. *)
let obs_note o ev =
  Obs.Metrics.absorb_event o.om ev;
  if o.oevents then Obs.Recorder.push o.orec ev

exception Cancelled

type chunk_failed = {
  chunk : int;
  trial : int;
  attempt : int;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

let pp_chunk_failed f =
  if f.attempt = 0 then
    Printf.sprintf "chunk %d, trial %d: %s" f.chunk f.trial
      (Printexc.to_string f.exn)
  else
    Printf.sprintf "chunk %d, trial %d (attempt %d): %s" f.chunk f.trial
      f.attempt
      (Printexc.to_string f.exn)

type 'a folded = {
  partial : 'a option;
  completed_trials : int;
  total_trials : int;
  chunks_done : int;
  chunks_total : int;
  chunks_resumed : int;
  retried : chunk_failed list;
  failures : chunk_failed list;
  cancelled : bool;
  engine_used : string;
}

type report = summary folded

let fold ?jobs ?(chunk_size = Parallel.default_chunk_size)
    ?(cancel = fun () -> false) ?checkpoint ?capture ?(retries = 0) ?fault
    ~engine ~trials ~create ~merge run_one =
  if trials <= 0 then invalid_arg "Runner.fold: trials must be positive";
  if chunk_size < 1 then invalid_arg "Runner.fold: chunk_size";
  if retries < 0 then invalid_arg "Runner.fold: retries";
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | Some _ | None -> Parallel.default_jobs ()
  in
  (* Chunk boundaries depend only on [trials] and [chunk_size], never on
     [jobs]; so does fault placement, the injector being sized to them. *)
  let nchunks = (trials + chunk_size - 1) / chunk_size in
  let finj = Option.map (Fault.injector ~nchunks) fault in
  let scope c =
    let om = Obs.Metrics.create () and orec = Obs.Recorder.create () in
    { om; orec; oevents = Obs.Capture.record_events c }
  in
  let chunk_create () =
    { acc = create (); folded = 0; obs = Option.map scope capture }
  in
  let merge_scope x y =
    let om = Obs.Metrics.merge x.om y.om in
    { om; orec = Obs.Recorder.merge x.orec y.orec; oevents = x.oevents }
  in
  let chunk_merge a b =
    (* The chunk-ordered merge runs sequentially on the calling domain
       after the workers stop, so Metrics_merge faults are deterministic
       at any jobs count — and, having no chunk attempt to retry into,
       terminal by construction. *)
    Fault.trip finj Fault.Metrics_merge ~scope:Fault.run_scope;
    let obs =
      match (a.obs, b.obs) with
      | Some x, Some y -> Some (merge_scope x y)
      | _, _ -> None
    in
    { acc = merge a.acc b.acc; folded = a.folded + b.folded; obs }
  in
  let work index c =
    (* The sink closure is rebuilt per trial over the chunk's plain data
       slice, so the checkpointed chunk stays Marshal-safe. Under fault
       injection each absorbed event first trips the Event_sink site,
       scoped by the trial's chunk. *)
    let probe =
      Option.map
        (fun ob ->
          let sink =
            match finj with
            | None -> Obs.Sink.create (obs_note ob)
            | Some _ ->
                let scope = index / chunk_size in
                Obs.Sink.create (fun ev ->
                    Fault.trip finj Fault.Event_sink ~scope;
                    obs_note ob ev)
          in
          { sink; metrics = ob.om })
        c.obs
    in
    run_one ~index probe c.acc;
    c.folded <- c.folded + 1
  in
  (* Checkpoint traffic is itself observable. The store event is folded
     into the chunk *before* marshalling, so a resumed chunk replays it
     identically and resumed streams stay byte-identical; the resume event
     lands after load, marking this run's consumption of the file. *)
  let note_checkpoint c ~chunk ~resumed =
    match c.obs with
    | None -> ()
    | Some ob -> obs_note ob (Obs.Event.Checkpoint { chunk; resumed })
  in
  (* One slot per chunk, each written only by the worker that ran the
     chunk and published when [Parallel.run_workers] returns: no failure
     is dropped to a race, and each keeps its backtrace. *)
  let partials = Array.make nchunks None in
  let failed_rev = Array.make nchunks [] in
  let resumed = Atomic.make 0 in
  let run_chunk c =
    let lo = c * chunk_size in
    let hi = Stdlib.min trials (lo + chunk_size) - 1 in
    (* Attempts share the injector's hit counters (never reset), so an
       armed fault fires exactly once and the retried pass runs clean —
       and, each trial's RNG being a pure function of (seed, index),
       byte-identical. The store is re-consulted on every attempt: a
       failed store may have left a durable (or torn, then skipped by
       {!Checkpoint.load}) record behind. *)
    let rec attempt k =
      let i = ref lo in
      match
        let loaded =
          Option.bind checkpoint (fun ck ->
              Checkpoint.load ?fault:finj ck ~chunk:c)
        in
        match loaded with
        | Some acc ->
            note_checkpoint acc ~chunk:c ~resumed:true;
            Atomic.incr resumed;
            acc
        | None ->
            let acc = chunk_create () in
            while !i <= hi do
              Fault.trip finj Fault.Chunk_body ~scope:c;
              work !i acc;
              incr i
            done;
            Option.iter
              (fun ck ->
                note_checkpoint acc ~chunk:c ~resumed:false;
                Checkpoint.store ?fault:finj ck ~chunk:c acc)
              checkpoint;
            acc
      with
      | acc ->
          (* Published only once the chunk is durable: a chunk whose
             store raised is a failed chunk and contributes nothing. *)
          partials.(c) <- Some acc;
          true
      | exception exn ->
          let backtrace = Printexc.get_raw_backtrace () in
          failed_rev.(c) <-
            { chunk = c; trial = !i; attempt = k; exn; backtrace }
            :: failed_rev.(c);
          k < retries && attempt (k + 1)
    in
    attempt 0
  in
  let value, cancelled =
    try
      let cancelled =
        Parallel.run_workers ~jobs ~tasks:nchunks ~cancel run_chunk
      in
      (* Chunks that failed or never started are skipped; the survivors
         still merge in chunk order, so any worker count produces the
         same value bit for bit, even for non-associative float folds. *)
      let value =
        Array.fold_left
          (fun acc p ->
            match (acc, p) with
            | _, None -> acc
            | None, Some _ -> p
            | Some a, Some p -> Some (chunk_merge a p))
          None partials
      in
      (value, cancelled)
    with e ->
      (* A raising merge or cancel hook ends the fold incomplete too. *)
      let bt = Printexc.get_raw_backtrace () in
      Option.iter Checkpoint.close checkpoint;
      Printexc.raise_with_backtrace e bt
  in
  (match capture with
  | None -> ()
  | Some c ->
      let metrics, events =
        match value with
        | Some { obs = Some ob; _ } -> (ob.om, Obs.Recorder.events ob.orec)
        | Some { obs = None; _ } | None -> (Obs.Metrics.create (), [])
      in
      Obs.Capture.set c ~metrics ~events);
  let chunks_done =
    Array.fold_left
      (fun n p -> if Option.is_some p then n + 1 else n)
      0 partials
  in
  (* A fully successful fold retires its checkpoints: stale records must
     never outlive the run they belong to. An incomplete one makes its
     records durable for a resume. *)
  Option.iter
    (if chunks_done = nchunks then Checkpoint.clear else Checkpoint.close)
    checkpoint;
  (* Chunk order, then attempt order within a chunk: deterministic for
     plan-injected faults at any [jobs]. Only a chunk's last attempt can
     reach the budget, and only a chunk that never completed has one. *)
  let retried, failures =
    Array.to_list failed_rev
    |> List.concat_map List.rev
    |> List.partition (fun f -> f.attempt < retries)
  in
  {
    partial = Option.map (fun c -> c.acc) value;
    completed_trials = (match value with Some c -> c.folded | None -> 0);
    total_trials = trials;
    chunks_done;
    chunks_total = nchunks;
    chunks_resumed = Atomic.get resumed;
    retried;
    failures;
    cancelled;
    engine_used = engine;
  }

let value r =
  match (r.failures, r.partial) with
  | f :: _, _ ->
      (* All-or-nothing: the first failure in chunk order, original
         backtrace preserved. *)
      Printexc.raise_with_backtrace f.exn f.backtrace
  | [], _ when r.cancelled -> raise Cancelled
  | [], Some v -> v
  | [], None -> assert false (* trials > 0 and no cancel: some chunk ran *)

(* Per-chunk accumulator of the synchronous model. *)
type acc = {
  acc_rounds : Stats.Welford.t;
  acc_hist : Stats.Histogram.t;
  acc_kills : Stats.Welford.t;
  mutable acc_zero : int;
  mutable acc_one : int;
  mutable acc_nonterm : int;
  mutable acc_errors_rev : string list list;
      (* one in-order error list per offending trial, most recent first *)
}

let acc_create () =
  {
    acc_rounds = Stats.Welford.create ();
    acc_hist = Stats.Histogram.create ();
    acc_kills = Stats.Welford.create ();
    acc_zero = 0;
    acc_one = 0;
    acc_nonterm = 0;
    acc_errors_rev = [];
  }

let acc_merge a b =
  {
    acc_rounds = Stats.Welford.merge a.acc_rounds b.acc_rounds;
    acc_hist = Stats.Histogram.merge a.acc_hist b.acc_hist;
    acc_kills = Stats.Welford.merge a.acc_kills b.acc_kills;
    acc_zero = a.acc_zero + b.acc_zero;
    acc_one = a.acc_one + b.acc_one;
    acc_nonterm = a.acc_nonterm + b.acc_nonterm;
    acc_errors_rev = b.acc_errors_rev @ a.acc_errors_rev;
  }

let summary_of_acc acc =
  {
    (* Every completed trial bumps the kills accumulator exactly once, so
       its count is the number of trials actually folded in — which is
       what [trials] must mean for a salvaged partial summary. *)
    trials = Stats.Welford.count acc.acc_kills;
    rounds = acc.acc_rounds;
    rounds_hist = acc.acc_hist;
    kills = acc.acc_kills;
    decided_zero = acc.acc_zero;
    decided_one = acc.acc_one;
    non_terminating = acc.acc_nonterm;
    safety_errors = List.concat (List.rev acc.acc_errors_rev);
  }

let engine_name = function
  | `Concrete -> "concrete"
  | `Cohort -> "cohort"
  | `Bitkernel -> "bitkernel"

(* [`Auto] crossover: below this population the concrete engine's plain
   array sweep wins (packing overhead doesn't pay for itself); above it,
   the bit-packed kernel if the protocol is capable of it, else concrete.
   The probe trial's inputs are a pure function of (seed, 0), so peeking
   at [n] consumes nothing any real trial will miss. *)
let auto_crossover = 4096

let resolve_engine engine ~seed ~gen_inputs protocol =
  match engine with
  | (`Concrete | `Cohort | `Bitkernel) as e -> e
  | `Auto ->
      let n =
        Array.length (gen_inputs (Prng.Rng.of_seed_index ~seed ~index:0))
      in
      if n > auto_crossover && Protocol.bitkernel_capable protocol then
        `Bitkernel
      else `Concrete

let run_trials_supervised ?(max_rounds = 10_000) ?jobs ?chunk_size
    ?cancel ?checkpoint ?capture ?(engine = `Concrete) ?cohort_adversary
    ?retries ?fault ~trials ~seed ~gen_inputs ~t protocol make_adversary =
  let engine = resolve_engine engine ~seed ~gen_inputs protocol in
  let r =
    fold ?jobs ?chunk_size ?cancel ?checkpoint ?capture ?retries ?fault
      ~engine:(engine_name engine) ~trials ~create:acc_create ~merge:acc_merge
      (fun ~index probe acc ->
        (* The trial's randomness is a pure function of (seed, index): no
           master stream is shared, so trial [i] is reproducible regardless
           of worker count, scheduling, or how many trials run. *)
        let rng = Prng.Rng.of_seed_index ~seed ~index in
        let inputs = gen_inputs rng in
        let sink = Option.map (fun p -> p.sink) probe in
        (* A fresh adversary per trial: adversaries may close over mutable
           trackers, which must not be shared across concurrent trials. *)
        let o =
          match engine with
          | `Concrete ->
              Engine.run ~max_rounds ?sink protocol (make_adversary ())
                ~inputs ~t ~rng
          | `Cohort ->
              let adversary =
                match cohort_adversary with
                | Some f -> f ()
                | None -> Cohort.Concrete (make_adversary ())
              in
              Cohort.run ~max_rounds ?sink protocol adversary ~inputs ~t ~rng
          | `Bitkernel ->
              Bitkernel.run ~max_rounds ?sink protocol (make_adversary ())
                ~inputs ~t ~rng
        in
        (match probe with
        | None -> ()
        | Some { metrics = om; _ } ->
            Obs.Metrics.incr om "runner.trials";
            (match o.Engine.rounds_to_decide with
            | Some r -> Obs.Metrics.observe_int om "runner.rounds_to_decide" r
            | None -> Obs.Metrics.incr om "runner.non_terminating");
            Obs.Metrics.observe_int om "runner.kills_per_trial"
              o.Engine.kills_used);
        let verdict = Checker.check ~inputs o in
        if not (verdict.Checker.agreement && verdict.Checker.validity) then
          acc.acc_errors_rev <-
            List.map
              (Printf.sprintf "trial %d: %s" (index + 1))
              verdict.Checker.errors
            :: acc.acc_errors_rev;
        (match o.rounds_to_decide with
        | Some r ->
            Stats.Welford.add_int acc.acc_rounds r;
            Stats.Histogram.add acc.acc_hist r
        | None -> acc.acc_nonterm <- acc.acc_nonterm + 1);
        Stats.Welford.add_int acc.acc_kills o.kills_used;
        match consensus_value o with
        | Some 0 -> acc.acc_zero <- acc.acc_zero + 1
        | Some _ -> acc.acc_one <- acc.acc_one + 1
        | None -> ())
  in
  { r with partial = Option.map summary_of_acc r.partial }

let run_trials ?max_rounds ?jobs ?chunk_size ?capture ?engine
    ?cohort_adversary ~trials ~seed ~gen_inputs ~t protocol make_adversary =
  value
    (run_trials_supervised ?max_rounds ?jobs ?chunk_size ?capture ?engine
       ?cohort_adversary ~trials ~seed ~gen_inputs ~t protocol make_adversary)
