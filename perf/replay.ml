(* Per-layer measurements. Every number here is timed or counted from
   outside lib/: the replays drive the engines through their public
   start/step/outcome (Engines), the adversary's [plan] and the protocol
   record's callbacks are wrapped, and spans are recorded around those
   calls (Spans). *)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else 0.5 *. (a.((k / 2) - 1) +. a.(k / 2))

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ------------------------------------------------------------------ *)
(* Plain replays                                                       *)
(* ------------------------------------------------------------------ *)

let players (type s m) (w : (s, m) Workload.mc) : (s, m) Engines.players =
  {
    protocol = w.protocol;
    adversary = w.adversary ();
    cohort_adversary = Option.map (fun f -> f ()) w.cohort_adversary;
  }

(* The workload's trials, by hand on [entry], untraced: the same
   (seed, index) streams and summary as the e2e pass. Returns the summary
   and the rounds executed. *)
let plain (type s m) (w : (s, m) Workload.mc) (entry : Engines.entry) ~seed
    ~sink =
  let rounds = ref 0 in
  let summary =
    Workload.fold_trials ~trials:w.trials (fun index acc ->
        let rng = Prng.Rng.of_seed_index ~seed ~index in
        let inputs = w.inputs rng in
        let r = entry.start ~sink (players w) ~inputs ~t:w.t ~rng in
        Engines.run_until r ~max_rounds:w.max_rounds;
        let o = r.outcome () in
        rounds := !rounds + o.rounds_executed;
        Workload.acc_add acc ~index o (Sim.Checker.check ~inputs o))
  in
  (summary, !rounds)

(* ------------------------------------------------------------------ *)
(* Traced replay                                                       *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable absorb : int;
  mutable finish : int;
  mutable bo_step : int;
  mutable phase_a : int;
  mutable kills : int;
  mutable recipients : int;
  mutable minor_words : float;
  mutable packed : int;
  mutable rounds : int;
}

(* The protocol with every callback the engines call per process counted.
   The aggregate (with its cohort ops) and the bitops stay attached, so
   every engine takes the same path as on the unwrapped protocol. *)
let counted_protocol c (p : ('s, 'm) Sim.Protocol.t) : ('s, 'm) Sim.Protocol.t =
  let aggregate =
    Option.map
      (function
        | Sim.Protocol.Aggregate a ->
            Sim.Protocol.Aggregate
              {
                a with
                absorb =
                  (fun acc ~pid m ->
                    c.absorb <- c.absorb + 1;
                    a.absorb acc ~pid m);
                finish =
                  (fun s ~round acc ->
                    c.finish <- c.finish + 1;
                    a.finish s ~round acc);
              })
      p.aggregate
  in
  let bitops =
    Option.map
      (fun (b : ('s, 'm) Sim.Protocol.bitops) ->
        {
          b with
          bo_step =
            (fun s ~round ~nrecv ~tallies ->
              c.bo_step <- c.bo_step + 1;
              b.bo_step s ~round ~nrecv ~tallies);
        })
      p.bitops
  in
  {
    p with
    phase_a =
      (fun s rng ->
        c.phase_a <- c.phase_a + 1;
        p.phase_a s rng);
    aggregate;
    bitops;
  }

type traced = {
  summary : Sim.Runner.summary;
  wall_s : float;
  layers : (string * float) list;  (** Per-layer metric name, value. *)
}

(* Replay the workload's trials through [entry] with spans at every layer
   boundary: pass > trial > inputs / engine.start / engine.step >
   adversary.plan / engine.outcome / checker. *)
let traced (type s m) spans (w : (s, m) Workload.mc) (entry : Engines.entry)
    ~seed =
  let c =
    {
      absorb = 0;
      finish = 0;
      bo_step = 0;
      phase_a = 0;
      kills = 0;
      recipients = 0;
      minor_words = 0.0;
      packed = 0;
      rounds = 0;
    }
  in
  let protocol = counted_protocol c w.protocol in
  let step_id = ref (-1) and trial = ref 0 and last_plan = ref [] in
  let timed_plan plan view rng =
    let id = Spans.enter spans Adversary_plan ~parent:!step_id ~trial:!trial in
    let ks = plan view rng in
    Spans.leave spans id;
    last_plan := ks;
    ks
  in
  let adversary () =
    let a = w.adversary () in
    { a with Sim.Adversary.plan = timed_plan a.plan }
  in
  let cohort_adversary f =
    match f () with
    | Sim.Cohort.Aware { aname; aplan } ->
        Sim.Cohort.Aware { aname; aplan = timed_plan aplan }
    | Sim.Cohort.Concrete a ->
        Sim.Cohort.Concrete { a with plan = timed_plan a.plan }
  in
  let pass_id = Spans.enter spans Pass ~parent:(-1) ~trial:(-1) in
  let summary =
    Workload.fold_trials ~trials:w.trials (fun index acc ->
        trial := index;
        Spans.span spans Trial ~parent:pass_id ~trial:index (fun tid ->
            let under layer f =
              Spans.span spans layer ~parent:tid ~trial:index (fun _ -> f ())
            in
            let rng = Prng.Rng.of_seed_index ~seed ~index in
            let inputs =
              under Inputs (fun () -> w.inputs rng)
            in
            let players : (s, m) Engines.players =
              {
                protocol;
                adversary = adversary ();
                cohort_adversary = Option.map cohort_adversary w.cohort_adversary;
              }
            in
            let r =
              under Engine_start (fun () ->
                  entry.start ~sink:Obs.Sink.null players ~inputs ~t:w.t ~rng)
            in
            let rec loop () =
              if r.round () < w.max_rounds then begin
                last_plan := [];
                let m0 = Gc.minor_words () in
                let id = Spans.enter spans Engine_step ~parent:tid ~trial:index in
                step_id := id;
                let st = r.step () in
                Spans.leave spans id;
                c.minor_words <- c.minor_words +. (Gc.minor_words () -. m0);
                match st with
                | `Quiescent -> Spans.set_arg spans id (-1)
                | `Continue ->
                    let ks = !last_plan in
                    Spans.set_arg spans id (List.length ks);
                    c.kills <- c.kills + List.length ks;
                    List.iter
                      (fun (k : Sim.Adversary.kill) ->
                        c.recipients <- c.recipients + List.length k.deliver_to)
                      ks;
                    loop ()
              end
            in
            loop ();
            let o = under Engine_outcome r.outcome in
            let v = under Checker (fun () -> Sim.Checker.check ~inputs o) in
            c.rounds <- c.rounds + o.rounds_executed;
            c.packed <- c.packed + r.packed_rounds ();
            Workload.acc_add acc ~index o v))
  in
  Spans.leave spans pass_id;
  let dur id = float_of_int (Spans.duration_ns spans id) in
  let sum ids = List.fold_left (fun a id -> a +. dur id) 0.0 ids in
  let steps =
    List.filter (fun id -> spans.Spans.arg.(id) >= 0) (Spans.ids spans Engine_step)
  in
  let kill_steps = List.filter (fun id -> spans.Spans.arg.(id) > 0) steps in
  let calm_steps = List.filter (fun id -> spans.Spans.arg.(id) = 0) steps in
  let plans = Spans.ids spans Adversary_plan in
  let us ids = List.map (fun id -> dur id /. 1e3) ids in
  let step_ns = sum (Spans.ids spans Engine_step) in
  let plan_ns = sum plans in
  let trial_ns = sum (Spans.ids spans Trial) in
  let trials = float_of_int w.trials in
  let rounds = float_of_int c.rounds in
  let per_round x = ratio (float_of_int x) rounds in
  let ms_per_trial layer = sum (Spans.ids spans layer) /. 1e6 /. trials in
  (* Round times are means, not medians: kill-round cost is heavy-tailed
     (a few rounds carry most partial deliveries), and the mean is what
     adds up to wall time. *)
  let mean_us ids = ratio (sum ids /. 1e3) (float_of_int (List.length ids)) in
  let layers =
    [
      ("engine.round_us.kill", mean_us kill_steps);
      ("engine.round_us.nokill", mean_us calm_steps);
      ("engine.kill_round_share", ratio (sum kill_steps) step_ns);
      ("adversary.partial_recipients_per_round", per_round c.recipients);
      ("adversary.kills_per_round", per_round c.kills);
      ("adversary.plan_us", median (us plans));
      ("adversary.plan_share", ratio plan_ns trial_ns);
      ("engine.self_share", ratio (step_ns -. plan_ns) trial_ns);
      ("protocol.absorb_calls_per_round", per_round c.absorb);
      ("protocol.finish_calls_per_round", per_round c.finish);
      ("protocol.bo_step_calls_per_round", per_round c.bo_step);
      ("protocol.phase_a_calls_per_round", per_round c.phase_a);
      ("bitkernel.packed_share", per_round c.packed);
      ("engine.start_ms_per_trial", ms_per_trial Engine_start);
      ("inputs.ms_per_trial", ms_per_trial Inputs);
      ("engine.outcome_ms_per_trial", ms_per_trial Engine_outcome);
      ("checker.ms_per_trial", ms_per_trial Checker);
      ( "engine.alloc_kb_per_round",
        ratio (c.minor_words *. float_of_int (Sys.word_size / 8) /. 1024.0) rounds
      );
      ("engine.rounds_per_trial", rounds /. trials);
    ]
  in
  { summary; wall_s = dur pass_id /. 1e9; layers }

(* ------------------------------------------------------------------ *)
(* Engine comparison, observability cost, checkpoint store             *)
(* ------------------------------------------------------------------ *)

(* Rows are capped at this many rounds: a full trial of concrete FloodSet
   at n = 65536 alone would take minutes. *)
let engine_row_rounds = 256

(* engines.<name>.round_us: trial 0 of the workload on every engine of the
   table, first [engine_row_rounds] rounds, step loop only. Returns the
   rows and whether every engine reached the same outcome (the engines
   promise byte-identical executions). *)
let engine_rows (type s m) (w : (s, m) Workload.mc) ~seed =
  let rows =
    List.map
      (fun (e : Engines.entry) ->
        let rng = Prng.Rng.of_seed_index ~seed ~index:0 in
        let inputs = w.inputs rng in
        let r = e.start ~sink:Obs.Sink.null (players w) ~inputs ~t:w.t ~rng in
        let (), ns =
          Spans.time_ns (fun () ->
              Engines.run_until r ~max_rounds:(min engine_row_rounds w.max_rounds))
        in
        let us = float_of_int ns /. 1e3 in
        ( ("engines." ^ e.name ^ ".round_us", ratio us (float_of_int (r.round ()))),
          r.outcome () ))
      Engines.all
  in
  let outcomes = List.map snd rows in
  (List.map fst rows, List.for_all (fun o -> o = List.hd outcomes) outcomes)

(* obs.sink_cost_ratio and obs.events_per_round: the workload replayed
   with a counting sink vs the disabled [Obs.Sink.null]. *)
let sink_cost (type s m) (w : (s, m) Workload.mc) entry ~seed =
  let (quiet, _), quiet_ns =
    Spans.time_ns (fun () -> plain w entry ~seed ~sink:Obs.Sink.null)
  in
  let events = ref 0 in
  let counting = Obs.Sink.create (fun _ -> incr events) in
  let (loud, rounds), loud_ns =
    Spans.time_ns (fun () -> plain w entry ~seed ~sink:counting)
  in
  ( [
      ("obs.sink_cost_ratio", ratio (float_of_int loud_ns) (float_of_int quiet_ns));
      ("obs.events_per_round", ratio (float_of_int !events) (float_of_int rounds));
    ],
    [ quiet; loud ] )

(* checkpoint.store_ms / load_ms: Sim.Checkpoint.store (write + fsync +
   rename) and load of a Runner-chunk-sized accumulator, median of
   [k] chunks. *)
let checkpoint_ms ~tmp =
  let k = 16 in
  let cs = Sim.Parallel.default_chunk_size in
  let value =
    let a = Workload.acc_create () in
    for i = 1 to cs do
      Stats.Welford.add_int a.rounds (40 + i);
      Stats.Histogram.add a.hist (40 + i);
      Stats.Welford.add_int a.kills (1000 + i)
    done;
    a
  in
  let ck =
    Sim.Checkpoint.create ~root:(Filename.concat tmp "ckbench") ~exp:"perf"
      ~seed:0 ~chunk_size:cs ~n:(k * cs)
  in
  let time f = float_of_int (snd (Spans.time_ns f)) /. 1e6 in
  let store = List.init k (fun c -> time (fun () -> Sim.Checkpoint.store ck ~chunk:c value)) in
  let loaded = ref 0 in
  let load =
    List.init k (fun c ->
        time (fun () ->
            match (Sim.Checkpoint.load ck ~chunk:c : Workload.acc option) with
            | Some _ -> incr loaded
            | None -> ()))
  in
  Sim.Checkpoint.clear ck;
  ( [ ("checkpoint.store_ms", median store); ("checkpoint.load_ms", median load) ],
    !loaded = k )
