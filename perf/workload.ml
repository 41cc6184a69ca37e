(* The five workloads, the timed passes that run them through the entry
   points users call, and the outcome digests the correctness gate
   compares. All workloads are closed loops: the next trial (or
   experiment) starts when the previous one ends. *)

type ('s, 'm) mc = {
  n : int;
  t : int;
  trials : int;
  max_rounds : int;
  inputs : Prng.Rng.t -> int array;  (** The Runner's [gen_inputs]. *)
  protocol : ('s, 'm) Sim.Protocol.t;
  adversary : unit -> ('s, 'm) Sim.Adversary.t;
  cohort_adversary : (unit -> ('s, 'm) Sim.Cohort.adversary) option;
}
(** A Monte-Carlo workload: [trials] trials of [protocol] against a fresh
    [adversary ()] each, as [consensus_cli run --engine auto --jobs 1]
    runs them. *)

type kind =
  | Battery of string list  (** Experiment ids, run in order. *)
  | Mc : ('s, 'm) mc -> kind

type t = { name : string; kind : kind }

let synran_band ~n ~trials ~config =
  let rules = Core.Onesided.paper and bit_of_msg = Core.Synran.bit_of_msg in
  Mc
    {
      n;
      t = n - 1;
      trials;
      max_rounds = 2000;
      inputs = Sim.Runner.input_gen_random ~n;
      protocol = Core.Synran.protocol ~rules n;
      adversary =
        (fun () -> Core.Lb_adversary.band_control ~config ~rules ~bit_of_msg ());
      cohort_adversary =
        Some
          (fun () ->
            Core.Lb_adversary.band_control_cohort ~config ~rules ~bit_of_msg ());
    }

let synran_null ~n ~trials =
  Mc
    {
      n;
      t = n - 1;
      trials;
      max_rounds = 2000;
      inputs = Sim.Runner.input_gen_random ~n;
      protocol = Core.Synran.protocol n;
      adversary = (fun () -> Sim.Adversary.null);
      cohort_adversary = None;
    }

(* FloodSet with t = n - 1 runs exactly t + 1 = n rounds. *)
let floodset_null ~n ~trials =
  let t = n - 1 in
  Mc
    {
      n;
      t;
      trials;
      max_rounds = t + 2;
      inputs = Sim.Runner.input_gen_random ~n;
      protocol = Baselines.Floodset.protocol ~rounds:(t + 1) ();
      adversary = (fun () -> Sim.Adversary.null);
      cohort_adversary = None;
    }

(* [~smoke] shrinks every workload to n = 64 and 2 trials (the battery to
   two of its cheapest experiments) so the harness itself can run under
   [dune runtest]. *)
let size ~smoke n = if smoke then 64 else n

let count ~smoke k = if smoke then 2 else k

let table =
  [
    ( "battery_quick",
      fun ~smoke ->
        Battery (if smoke then [ "e2"; "e3" ] else Core.Experiments.ids) );
    ( "band_n1024",
      fun ~smoke ->
        synran_band ~n:(size ~smoke 1024) ~trials:(count ~smoke 35)
          ~config:Core.Lb_adversary.voting_config );
    ( "band_n1e5",
      fun ~smoke ->
        synran_band ~n:(size ~smoke 100_000) ~trials:(count ~smoke 1)
          ~config:Core.Lb_adversary.default_config );
    ( "synran_null_n65536",
      fun ~smoke ->
        synran_null ~n:(size ~smoke 65536) ~trials:(count ~smoke 15) );
    ( "floodset_null_n65536",
      fun ~smoke ->
        floodset_null ~n:(size ~smoke 65536) ~trials:(count ~smoke 1) );
  ]

let names = List.map fst table

let make ~smoke name =
  Option.map (fun kind -> { name; kind = kind ~smoke }) (List.assoc_opt name table)

(* ------------------------------------------------------------------ *)
(* Outcome digests                                                     *)
(* ------------------------------------------------------------------ *)

let welford_str w =
  Printf.sprintf "%d,%h,%h,%h,%h" (Stats.Welford.count w) (Stats.Welford.mean w)
    (Stats.Welford.variance w) (Stats.Welford.min w) (Stats.Welford.max w)

(* MD5 of a Runner summary: histogram bins, exact (hex-float) Welford
   moments of rounds and kills, decided 0/1, non-terminating, and every
   safety error. *)
let summary_digest (s : Sim.Runner.summary) =
  let bins =
    Stats.Histogram.bins s.rounds_hist
    |> List.map (fun (v, c) -> Printf.sprintf "%d:%d" v c)
    |> String.concat " "
  in
  [
    Printf.sprintf "trials=%d" s.trials;
    "rounds=" ^ welford_str s.rounds;
    "hist=" ^ bins;
    "kills=" ^ welford_str s.kills;
    Printf.sprintf "decided=%d/%d nonterm=%d" s.decided_zero s.decided_one
      s.non_terminating;
  ]
  @ s.safety_errors
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* Trials of a summary that count as failed ops: safety violations (one
   per offending trial) and non-termination. *)
let failed_trials (s : Sim.Runner.summary) =
  let offending =
    List.sort_uniq String.compare
      (List.map
         (fun e ->
           match String.index_opt e ':' with
           | Some i -> String.sub e 0 i
           | None -> e)
         s.safety_errors)
  in
  List.length offending + s.non_terminating

(* ------------------------------------------------------------------ *)
(* Runner-equivalent accumulation, for the by-hand replays            *)
(* ------------------------------------------------------------------ *)

(* The replays rebuild the exact summary Sim.Runner would: same per-trial
   fold, same chunking (Sim.Parallel.default_chunk_size), same chunk-order
   merge — Welford merges are not bit-identical to sequential adds, so the
   digest only matches if the chunk geometry does. *)

let consensus_value (o : Sim.Engine.outcome) =
  Array.fold_left
    (fun v d -> match v with Some _ -> v | None -> d)
    None o.decisions

type acc = {
  rounds : Stats.Welford.t;
  hist : Stats.Histogram.t;
  kills : Stats.Welford.t;
  mutable zero : int;
  mutable one : int;
  mutable nonterm : int;
  mutable errors_rev : string list list;
}

let acc_create () =
  {
    rounds = Stats.Welford.create ();
    hist = Stats.Histogram.create ();
    kills = Stats.Welford.create ();
    zero = 0;
    one = 0;
    nonterm = 0;
    errors_rev = [];
  }

let acc_add a ~index (o : Sim.Engine.outcome) (v : Sim.Checker.verdict) =
  if not (v.agreement && v.validity) then
    a.errors_rev <-
      List.map (Printf.sprintf "trial %d: %s" (index + 1)) v.errors
      :: a.errors_rev;
  (match o.rounds_to_decide with
  | Some r ->
      Stats.Welford.add_int a.rounds r;
      Stats.Histogram.add a.hist r
  | None -> a.nonterm <- a.nonterm + 1);
  Stats.Welford.add_int a.kills o.kills_used;
  match consensus_value o with
  | Some 0 -> a.zero <- a.zero + 1
  | Some _ -> a.one <- a.one + 1
  | None -> ()

let acc_merge a b =
  {
    rounds = Stats.Welford.merge a.rounds b.rounds;
    hist = Stats.Histogram.merge a.hist b.hist;
    kills = Stats.Welford.merge a.kills b.kills;
    zero = a.zero + b.zero;
    one = a.one + b.one;
    nonterm = a.nonterm + b.nonterm;
    errors_rev = b.errors_rev @ a.errors_rev;
  }

let summary_of_acc a : Sim.Runner.summary =
  {
    trials = Stats.Welford.count a.kills;
    rounds = a.rounds;
    rounds_hist = a.hist;
    kills = a.kills;
    decided_zero = a.zero;
    decided_one = a.one;
    non_terminating = a.nonterm;
    safety_errors = List.concat (List.rev a.errors_rev);
  }

(* [fold_trials ~trials f] runs [f index acc] for every trial index in
   Runner chunk geometry and returns the merged summary. *)
let fold_trials ~trials f =
  let cs = Sim.Parallel.default_chunk_size in
  let merged = ref None in
  let lo = ref 0 in
  while !lo < trials do
    let acc = acc_create () in
    for index = !lo to min trials (!lo + cs) - 1 do
      f index acc
    done;
    merged :=
      Some (match !merged with None -> acc | Some m -> acc_merge m acc);
    lo := !lo + cs
  done;
  summary_of_acc (Option.get !merged)

(* ------------------------------------------------------------------ *)
(* Timed passes                                                        *)
(* ------------------------------------------------------------------ *)

type pass = {
  wall_s : float;
  alloc_bytes : float;  (** Allocated by every domain during the pass. *)
  trials : int;  (** Monte-Carlo trials completed (inside the battery too). *)
  ops : int;  (** Trials, or experiments for the battery. *)
  failed : int;
  digest : string;
  engine_used : string;  (** [""] for the battery. *)
  chunks : int;
  chunk_retries : int;
  experiments : (string * float) list;  (** Battery: id, elapsed seconds. *)
}

(* [Gc.stat] (not [quick_stat]) also counts domains that have already
   terminated, so the battery's jobs=2 worker allocation is included. *)
let allocated_bytes () =
  let s = Gc.stat () in
  (s.minor_words +. s.major_words -. s.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let timed f =
  let a0 = allocated_bytes () in
  let x, ns = Spans.time_ns f in
  let a1 = allocated_bytes () in
  (x, float_of_int ns *. 1e-9, a1 -. a0)

let mc_pass (type s m) (w : (s, m) mc) ~seed ~jobs =
  let r, wall_s, alloc_bytes =
    timed (fun () ->
        Sim.Runner.run_trials_supervised ~max_rounds:w.max_rounds ~jobs
          ~engine:`Auto ~trials:w.trials ~seed
          ~gen_inputs:w.inputs ~t:w.t w.protocol w.adversary)
  in
  let digest, failed =
    match r.partial with
    | Some s -> (summary_digest s, failed_trials s)
    | None -> ("none", 0)
  in
  {
    wall_s;
    alloc_bytes;
    trials = r.completed_trials;
    ops = r.total_trials;
    failed = failed + (r.total_trials - r.completed_trials);
    digest;
    engine_used = r.engine_used;
    chunks = r.chunks_done;
    chunk_retries = List.length r.retried;
    experiments = [];
  }

(* One supervised regeneration of the experiments, with chunk checkpoints
   under [tmp] — what [consensus_cli experiments --jobs J] does, minus the
   manifest write. [around id f] wraps each experiment (the traced pass
   records a span there). *)
let battery_pass ?(around = fun _ f -> f ()) ids ~seed ~jobs ~tmp =
  let run () =
    let ctx =
      Core.Supervise.create ~checkpoints:(Filename.concat tmp "checkpoints") ()
    in
    List.map
      (fun id ->
        let f = Option.get (Core.Experiments.by_id id) in
        around id (fun () ->
            Core.Supervise.run_experiment ctx ~id (fun () ->
                f ~jobs ~sup:ctx Core.Experiments.Quick ~seed)))
      ids
  in
  let results, wall_s, alloc_bytes = timed run in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let digest =
    List.map
      (fun (r : Core.Supervise.result) ->
        let status =
          match r.status with
          | Completed -> "completed"
          | Failed _ -> "failed"
          | Timed_out -> "timed_out"
        in
        Printf.sprintf "%s %s\n%s" r.id status
          (match r.table with Some t -> Stats.Table.render t | None -> ""))
      results
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  {
    wall_s;
    alloc_bytes;
    trials = sum (fun r -> r.completed_trials);
    ops = List.length results;
    failed = List.length (List.filter Core.Supervise.failed results);
    digest;
    engine_used = "";
    chunks = sum (fun r -> r.chunks_done);
    chunk_retries = sum (fun r -> r.chunk_retries);
    experiments = List.map (fun (r : Core.Supervise.result) -> (r.id, r.elapsed_s)) results;
  }

let pass w ~seed ~jobs ~tmp =
  match w.kind with
  | Battery ids -> battery_pass ids ~seed ~jobs ~tmp
  | Mc m -> mc_pass m ~seed ~jobs

(* The worker-domain count each workload's e2e pass uses. *)
let jobs w = match w.kind with Battery _ -> 2 | Mc _ -> 1

(* The battery regenerates the published tables, whose seed is fixed at
   42: E9's async splitter makes the battery's cost swing 3x with the seed
   (6-19 s per pass measured), which would swamp any timing. The benchmark
   seed drives the Monte-Carlo workloads only. *)
let tables_seed = 42

let input_seed w ~seed = match w.kind with Battery _ -> tables_seed | Mc _ -> seed
