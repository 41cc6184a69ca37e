(* Command-line driver for the Bar-Joseph & Ben-Or reproduction.

   Subcommands:
     run          one protocol x adversary configuration, many trials
     trace        one execution with a per-round trace dump
     coinflip     one-round coin-flipping control measurement (Section 2)
     experiments  regenerate the EXPERIMENTS.md tables (E1-E12)
     bounds       print the paper's closed-form bounds for given n, t *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Master PRNG seed.")

(* Reject non-positive counts at the command line with a clear error
   instead of silently coercing them to a default deeper down. *)
let positive_int what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%s must be >= 1 (got %d)" what v))
    | None -> Error (`Msg (Printf.sprintf "%s must be an integer (got %S)" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let n_arg =
  Arg.(
    value
    & opt (positive_int "N") 64
    & info [ "n" ] ~docv:"N" ~doc:"Number of processes (must be >= 1).")

let jobs_arg =
  Arg.(
    value
    & opt (positive_int "JOBS") (Sim.Parallel.default_jobs ())
    & info [ "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for the trial loops (default: the machine's \
           recommended domain count; must be >= 1). Results are \
           bit-identical for every value.")

let chunk_size_arg =
  Arg.(
    value
    & opt (some (positive_int "CHUNK")) None
    & info [ "chunk-size" ] ~docv:"CHUNK"
        ~doc:
          (Printf.sprintf
             "Trials per work chunk (must be >= 1; default: %d, whatever the \
              trial count and JOBS). Results are bit-identical for every \
              value."
             Sim.Parallel.default_chunk_size))

let nonneg_int what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 0 -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%s must be >= 0 (got %d)" what v))
    | None ->
        Error (`Msg (Printf.sprintf "%s must be an integer (got %S)" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let retries_arg =
  Arg.(
    value
    & opt (nonneg_int "RETRIES") 0
    & info [ "retries" ] ~docv:"RETRIES"
        ~doc:
          "Per-chunk retry budget for the supervised trial loops: a failed \
           chunk is re-run from a fresh accumulator up to RETRIES extra \
           times before it counts as a failure. Safe because each trial's \
           randomness is a pure function of (seed, index), so a re-run \
           chunk is byte-identical.")

(* --fault-plan parses at the command line so a typo fails with the
   grammar error instead of deep inside a run. *)
let fault_plan_conv =
  let parse s =
    match Sim.Fault.plan_of_string s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  Arg.conv
    ( parse,
      fun fmt p -> Format.pp_print_string fmt (Sim.Fault.plan_to_string p) )

let fault_plan_arg =
  Arg.(
    value
    & opt (some fault_plan_conv) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Deterministic fault-injection plan: comma-joined arms \
           site@scope#hit:kind with sites body|store|load|merge|sink|manifest, \
           scope a chunk index or 'run', hit an occurrence index or '*', and \
           kinds raise|sys_error|torn|bitflip — e.g. \
           'body@1#2:raise,store@2#0:torn'. Replays exactly: fault placement \
           depends only on the plan and the chunk geometry, never on JOBS.")

let fault_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Draw a survivable fault plan deterministically from this seed \
           (printed, so it can be replayed via --fault-plan). Ignored when \
           --fault-plan is given.")

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("concrete", `Concrete);
             ("cohort", `Cohort);
             ("bitkernel", `Bitkernel);
             ("auto", `Auto);
           ])
        `Concrete
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: concrete (per-process arrays), cohort \
           (population-compressed equivalence classes; per-round cost \
           scales with distinct states instead of N), bitkernel \
           (bit-packed binary registers; word-parallel no-kill rounds), or \
           auto (concrete up to N=4096, then bitkernel if the protocol is \
           capable of it, else concrete; the choice lands in the run \
           manifest). All engines produce byte-identical results.")

let t_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "t" ] ~docv:"T" ~doc:"Adversary budget (default n-1).")

(* N and the budget T together: T defaults to [default_t n] and must lie
   in [0, N], so a bad -t is a usage error instead of an exception from
   the engine. *)
let n_t_args ~default_t =
  let check n t =
    let t = Option.value t ~default:(default_t n) in
    if t < 0 || t > n then
      `Error
        ( true,
          Printf.sprintf "option '-t': T must lie in [0, N] (got %d with N = %d)"
            t n )
    else `Ok (n, t)
  in
  Term.(ret (const check $ n_arg $ t_arg))

let trials_arg =
  Arg.(
    value
    & opt (positive_int "K") 100
    & info [ "trials" ] ~docv:"K" ~doc:"Trials to run (must be >= 1).")

let rules_conv =
  let parse = function
    | "paper" -> Ok Core.Onesided.paper
    | "no-zero-rule" -> Ok Core.Onesided.no_zero_rule
    | "symmetric" -> Ok Core.Onesided.symmetric
    | s -> Error (`Msg (Printf.sprintf "unknown rules %S" s))
  in
  let print ppf r = Format.pp_print_string ppf r.Core.Onesided.label in
  Arg.conv (parse, print)

let rules_arg =
  Arg.(
    value
    & opt rules_conv Core.Onesided.paper
    & info [ "rules" ] ~docv:"RULES"
        ~doc:"SynRan rule set: paper, no-zero-rule, or symmetric.")

let adversary_names =
  [ "null"; "random"; "static"; "drip"; "band"; "voting"; "leader-killer"; "crash-all" ]

let adversary_arg =
  Arg.(
    value
    & opt (enum (List.map (fun s -> (s, s)) adversary_names)) "band"
    & info [ "adversary" ] ~docv:"ADV"
        ~doc:
          "Adversary: null, random, static, drip, band (adaptive band \
           control + stalls), voting (band + rescue, no stalls), \
           leader-killer, crash-all.")

let protocol_names = [ "synran"; "leader"; "floodset" ]

let protocol_arg =
  Arg.(
    value
    & opt (enum (List.map (fun s -> (s, s)) protocol_names)) "synran"
    & info [ "protocol" ] ~docv:"PROTO"
        ~doc:"Protocol: synran, leader (CMS89-style leader coin), or floodset.")

let inputs_arg =
  Arg.(
    value
    & opt (enum [ ("random", `Random); ("split", `Split); ("zeros", `Zeros); ("ones", `Ones) ])
        `Random
    & info [ "inputs" ] ~docv:"INPUTS"
        ~doc:"Input distribution: random, split, zeros, or ones.")

let gen_of_inputs kind ~n =
  match kind with
  | `Random -> Sim.Runner.input_gen_random ~n
  | `Split -> Sim.Runner.input_gen_split ~n
  | `Zeros -> Sim.Runner.input_gen_const ~n 0
  | `Ones -> Sim.Runner.input_gen_const ~n 1

let generic_adversary_of_name name ~n ~t ~seed =
  match name with
  | "null" -> Sim.Adversary.null
  | "random" -> Baselines.Adversaries.random_crash ~p:0.05
  | "static" -> Baselines.Adversaries.static_random ~seed ~n ~budget:t ~horizon:8
  | "drip" -> Baselines.Adversaries.drip ~per_round:(Stdlib.max 1 (t / 16))
  | "crash-all" -> Baselines.Adversaries.crash_all_at ~round:1
  | other -> invalid_arg ("unknown adversary " ^ other)

let adversary_of_name name ~rules ~n ~t ~seed =
  match name with
  | "band" ->
      Core.Lb_adversary.band_control ~rules ~bit_of_msg:Core.Synran.bit_of_msg ()
  | "voting" ->
      Core.Lb_adversary.band_control ~config:Core.Lb_adversary.voting_config
        ~rules ~bit_of_msg:Core.Synran.bit_of_msg ()
  | "leader-killer" ->
      Core.Lb_adversary.leader_killer ~rules ~bit_of_msg:Core.Synran.bit_of_msg
        ~prio_of_msg:Core.Synran.prio_of_msg ()
  | other -> generic_adversary_of_name other ~n ~t ~seed

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"PATH"
        ~doc:
          "Write the run's metrics registry as JSON (schema metrics/v1, \
           sorted keys) to $(docv), e.g. results/metrics.json. The file is \
           byte-identical at any --jobs.")

let events_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events-out" ] ~docv:"PATH"
        ~doc:
          "Record the full observability event stream and write it as JSONL \
           (one sorted-key object per line) to $(docv), e.g. \
           results/events.jsonl. The file is byte-identical at any --jobs.")

(* A capture exists iff some output was requested; events are recorded only
   when they will actually be written. *)
let capture_for ~metrics_out ~events_out =
  match (metrics_out, events_out) with
  | None, None -> None
  | _ -> Some (Obs.Capture.create ~events:(events_out <> None) ())

let export_capture ~metrics_out ~events_out = function
  | None -> ()
  | Some c ->
      Option.iter
        (fun path -> Obs.Export.write_metrics ~path (Obs.Capture.metrics c))
        metrics_out;
      Option.iter
        (fun path -> Obs.Export.write_events ~path (Obs.Capture.events c))
        events_out

let print_summary name (s : Sim.Runner.summary) =
  Printf.printf "%s\n" name;
  Printf.printf "  trials            %d\n" s.Sim.Runner.trials;
  Printf.printf "  mean rounds       %.3f (+/- %.3f se)\n"
    (Sim.Runner.mean_rounds s)
    (Stats.Welford.std_error s.Sim.Runner.rounds);
  Printf.printf "  rounds min/max    %.0f / %.0f\n"
    (Stats.Welford.min s.Sim.Runner.rounds)
    (Stats.Welford.max s.Sim.Runner.rounds);
  Printf.printf "  mean kills        %.2f\n" (Stats.Welford.mean s.Sim.Runner.kills);
  Printf.printf "  decided 0 / 1     %d / %d\n" s.Sim.Runner.decided_zero
    s.Sim.Runner.decided_one;
  Printf.printf "  non-terminating   %d\n" s.Sim.Runner.non_terminating;
  (match s.Sim.Runner.safety_errors with
  | [] -> Printf.printf "  safety            ok\n"
  | errs ->
      Printf.printf "  SAFETY VIOLATIONS %d\n" (List.length errs);
      List.iter (fun e -> Printf.printf "    %s\n" e) errs);
  Printf.printf "  rounds histogram:\n%s\n"
    (Stats.Histogram.render ~width:30 s.Sim.Runner.rounds_hist)

let run_cmd =
  let run (n, t) trials seed jobs chunk_size engine rules adv_name proto_name
      inputs metrics_out events_out retries fault_plan fault_seed =
    let gen = gen_of_inputs inputs ~n in
    let capture = capture_for ~metrics_out ~events_out in
    let fault =
      match (fault_plan, fault_seed) with
      | (Some _ as p), _ -> p
      | None, Some fs ->
          let cs =
            Option.value chunk_size ~default:Sim.Parallel.default_chunk_size
          in
          let p = Sim.Fault.random_plan ~seed:fs ~n:trials ~chunk_size:cs in
          Printf.printf "fault plan (seed %d): %s\n" fs
            (Sim.Fault.plan_to_string p);
          Some p
      | None, None -> None
    in
    (* Every run goes through the supervised fold: without faults or
       retries its summary is the one [Sim.Runner.run_trials] returns, and
       a failed chunk is reported instead of escaping as an exception. *)
    let finish_report (r : Sim.Runner.report) =
      (match r.Sim.Runner.retried with
      | [] -> ()
      | rs ->
          Printf.printf "chunk retries (%d):\n" (List.length rs);
          List.iter
            (fun f -> Printf.printf "  %s\n" (Sim.Runner.pp_chunk_failed f))
            rs);
      match r.Sim.Runner.failures with
      | [] -> (
          match r.Sim.Runner.partial with
          | Some s -> s
          | None ->
              prerr_endline "no trials completed";
              exit 1)
      | fs ->
          List.iter
            (fun f ->
              prerr_endline ("chunk failed: " ^ Sim.Runner.pp_chunk_failed f))
            fs;
          Printf.eprintf "%d/%d trials completed before failure\n"
            r.Sim.Runner.completed_trials r.Sim.Runner.total_trials;
          exit 1
    in
    (match proto_name with
    | "synran" | "leader" ->
        let make_adversary () = adversary_of_name adv_name ~rules ~n ~t ~seed in
        (* Under the cohort engine the band adversaries run their native
           compressed port; anything else is wrapped as Cohort.Concrete by
           the runner (exact, but with view-reconstruction overhead). *)
        let cohort_adversary =
          match (engine, adv_name) with
          | `Cohort, "band" ->
              Some
                (fun () ->
                  Core.Lb_adversary.band_control_cohort ~rules
                    ~bit_of_msg:Core.Synran.bit_of_msg ())
          | `Cohort, "voting" ->
              Some
                (fun () ->
                  Core.Lb_adversary.band_control_cohort
                    ~config:Core.Lb_adversary.voting_config ~rules
                    ~bit_of_msg:Core.Synran.bit_of_msg ())
          | _ -> None
        in
        let coin =
          if proto_name = "leader" then Core.Synran.Leader_priority
          else Core.Synran.Local_flip
        in
        let protocol = Core.Synran.protocol ~rules ~coin n in
        let s =
          finish_report
            (Sim.Runner.run_trials_supervised ~max_rounds:2000 ~jobs
               ?chunk_size ?capture ~engine ?cohort_adversary ~retries ?fault
               ~trials ~seed ~gen_inputs:gen ~t protocol make_adversary)
        in
        print_summary
          (Printf.sprintf "%s vs %s (n=%d t=%d)" protocol.Sim.Protocol.name
             (make_adversary ()).Sim.Adversary.name n t)
          s
    | _ ->
        (* The bit-reading adversaries target SynRan-shaped protocols; fall
           back to drip for the bit-oblivious FloodSet. *)
        let adv_name =
          match adv_name with
          | "band" | "voting" | "leader-killer" -> "drip"
          | other -> other
        in
        let make_adversary () = generic_adversary_of_name adv_name ~n ~t ~seed in
        let protocol = Baselines.Floodset.protocol ~rounds:(t + 1) () in
        let s =
          finish_report
            (Sim.Runner.run_trials_supervised ~max_rounds:(t + 2) ~jobs
               ?chunk_size ?capture ~engine ~retries ?fault ~trials ~seed
               ~gen_inputs:gen ~t protocol make_adversary)
        in
        print_summary
          (Printf.sprintf "%s vs %s (n=%d t=%d)" protocol.Sim.Protocol.name
             (make_adversary ()).Sim.Adversary.name n t)
          s);
    export_capture ~metrics_out ~events_out capture
  in
  let term =
    Term.(
      const run
      $ n_t_args ~default_t:(fun n -> n - 1)
      $ trials_arg $ seed_arg $ jobs_arg $ chunk_size_arg $ engine_arg
      $ rules_arg $ adversary_arg $ protocol_arg $ inputs_arg $ metrics_out_arg
      $ events_out_arg $ retries_arg $ fault_plan_arg $ fault_seed_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run many trials of a protocol under an adversary")
    term

let trace_cmd =
  let run (n, t) seed rules adv_name inputs =
    let rng = Prng.Rng.create seed in
    let gen = gen_of_inputs inputs ~n in
    let input_bits = gen rng in
    let adversary = adversary_of_name adv_name ~rules ~n ~t ~seed in
    let protocol = Core.Synran.protocol ~rules n in
    let tr = Sim.Trace.create () in
    let o =
      Sim.Engine.run ~observer:Core.Synran.msg_is_one ~sink:(Sim.Trace.sink tr)
        ~max_rounds:2000 protocol adversary ~inputs:input_bits ~t ~rng
    in
    print_endline (Sim.Trace.render tr);
    Printf.printf "rounds to decide: %s; kills used: %d\n"
      (match o.Sim.Engine.rounds_to_decide with
      | Some r -> string_of_int r
      | None -> "did not terminate")
      o.Sim.Engine.kills_used;
    let verdict = Sim.Checker.check ~inputs:input_bits o in
    if Sim.Checker.ok verdict then print_endline "safety+termination: ok"
    else List.iter print_endline verdict.Sim.Checker.errors
  in
  let term =
    Term.(
      const run
      $ n_t_args ~default_t:(fun n -> n - 1)
      $ seed_arg $ rules_arg $ adversary_arg $ inputs_arg)
  in
  Cmd.v (Cmd.info "trace" ~doc:"Run one execution and dump the round trace") term

let coinflip_cmd =
  let run n seed jobs trials budget =
    let budget =
      Option.value budget
        ~default:(int_of_float (Float.ceil (Coinflip.Bounds.h n)))
    in
    Printf.printf "n=%d budget=%d (paper bound 4*sqrt(n ln n) = %.1f)\n\n" n
      budget (Coinflip.Bounds.h n);
    List.iter
      (fun game ->
        let best =
          Coinflip.Control.best_controllable_outcome ~trials ~jobs ~seed
            ~budget ~strategy:Coinflip.Strategy.best_available game
        in
        Printf.printf "%-22s best outcome %d forced with p=%.4f (target > %.4f): %s\n"
          game.Coinflip.Game.name best.Coinflip.Control.target
          best.Coinflip.Control.proportion
          (1.0 -. (1.0 /. float_of_int n))
          (if Coinflip.Control.controls best ~n then "CONTROLLED" else "not controlled"))
      (Coinflip.Games.all n)
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"B" ~doc:"Adversary budget (default 4 sqrt(n ln n)).")
  in
  let term =
    Term.(const run $ n_arg $ seed_arg $ jobs_arg $ trials_arg $ budget_arg)
  in
  Cmd.v
    (Cmd.info "coinflip" ~doc:"Measure control of one-round coin-flipping games")
    term

let experiments_cmd =
  let run profile seed jobs which csv resume deadline_s metrics_out events_out
      retries fault_plan =
    Printexc.record_backtrace true;
    let profile_label =
      match profile with Core.Experiments.Quick -> "quick" | Full -> "full"
    in
    let ids =
      match which with [] -> Core.Experiments.ids | ids -> ids
    in
    (* One supervisor for the whole run: each experiment gets its own
       watchdog deadline and failure record; a crash or timeout in one
       experiment never loses the others. *)
    let ctx =
      Core.Supervise.create ?deadline_s ~checkpoints:"results/checkpoints" ~resume
        ~retries ?fault:fault_plan ()
    in
    let results =
      List.map
        (fun id ->
          (* The experiment_id converter has validated every id. *)
          let f = Option.get (Core.Experiments.by_id id) in
          let r =
            Core.Supervise.run_experiment ctx ~id (fun () ->
                f ~jobs ~sup:ctx profile ~seed)
          in
          (match r.Core.Supervise.table with
          | Some tbl ->
              if csv then print_endline (Stats.Table.to_csv tbl)
              else print_endline (Stats.Table.render tbl)
          | None -> ());
          (match r.Core.Supervise.status with
          | Core.Supervise.Completed -> ()
          | _ -> print_endline ("*** " ^ Core.Supervise.status_line r ^ " ***"));
          if not csv then print_newline ();
          r)
        ids
    in
    (* Plans can arm the manifest site itself; an injector with zero
       chunk slots still carries the run-scope slot the site uses. *)
    let manifest_fault =
      Option.map (fun p -> Sim.Fault.injector p) fault_plan
    in
    (try
       Core.Supervise.write_manifest ?fault:manifest_fault
         ~path:"results/run_manifest.json" ~profile:profile_label ~seed ~jobs
         ~resume ~deadline_s results
     with e ->
       prerr_endline ("run manifest write failed: " ^ Printexc.to_string e);
       Stdlib.exit 1);
    (* Run-level observability exports: the per-experiment supervision
       registries merged under "<id>." prefixes, and the supervisor's
       watchdog/failure event stream. *)
    Option.iter
      (fun path ->
        Obs.Export.write_metrics ~path (Core.Supervise.merged_metrics results))
      metrics_out;
    Option.iter
      (fun path -> Obs.Export.write_events ~path (Core.Supervise.events ctx))
      events_out;
    if Core.Supervise.any_failed results then begin
      prerr_endline
        "one or more experiments failed or timed out; see \
         results/run_manifest.json";
      Stdlib.exit 1
    end
  in
  let profile_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("quick", Core.Experiments.Quick); ("full", Core.Experiments.Full) ])
          Core.Experiments.Quick
      & info [ "profile" ] ~docv:"PROFILE" ~doc:"quick or full.")
  in
  let experiment_id =
    Arg.enum (List.map (fun id -> (id, id)) Core.Experiments.ids)
  in
  let which_arg =
    Arg.(
      value & pos_all experiment_id []
      & info [] ~docv:"IDS" ~doc:"Experiment ids (e1..e12); all if omitted.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of tables.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Consume chunk checkpoints left under results/checkpoints by an \
             interrupted run instead of clearing them; the resumed tables \
             are byte-identical to an uninterrupted run.")
  in
  (* A NaN deadline never fires and an infinite one is not JSON: both
     fail here instead of disarming the watchdog or breaking the
     manifest. *)
  let finite_float =
    let parse s =
      match float_of_string_opt s with
      | Some v when Float.is_finite v -> Ok v
      | _ -> Error (`Msg ("SECONDS must be a finite number (got " ^ s ^ ")"))
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some finite_float) None
      & info [ "deadline-s" ] ~docv:"SECONDS"
          ~doc:
            "Per-experiment wall-clock deadline. A run past its deadline is \
             cancelled cooperatively at the next chunk boundary and \
             reported as TIMED OUT with its partial table.")
  in
  let term =
    Term.(
      const run $ profile_arg $ seed_arg $ jobs_arg $ which_arg $ csv_arg
      $ resume_arg $ deadline_arg $ metrics_out_arg $ events_out_arg
      $ retries_arg $ fault_plan_arg)
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:
         "Regenerate the paper-claim tables (E1-E12) under a supervisor: \
          failures and timeouts are isolated per experiment, recorded in \
          results/run_manifest.json, and make the exit code non-zero.")
    term

let bounds_cmd =
  let run n t =
    let t = Option.value t ~default:(n - 1) in
    Printf.printf "n = %d, t = %d\n" n t;
    Printf.printf "  lower bound rounds (Thm 1)     %.2f\n"
      (Core.Theory.lower_bound_rounds ~n ~t);
    Printf.printf "  with probability               %.4f\n"
      (Core.Theory.lower_bound_success_prob ~n);
    Printf.printf "  tight bound shape (Thm 3)      %.2f\n"
      (Core.Theory.tight_bound_shape ~n ~t);
    Printf.printf "  large-t shape sqrt(n/log n)    %.2f\n"
      (Core.Theory.upper_bound_large_t_shape ~n);
    Printf.printf "  deterministic rounds (t+1)     %d\n"
      (Core.Theory.deterministic_rounds ~t);
    Printf.printf "  per-round kills 4sqrt(n ln n)+1 %.2f\n"
      (Core.Theory.per_round_kills ~n);
    Printf.printf "  switch threshold sqrt(n/ln n)  %.2f\n"
      (Core.Synran.switch_threshold ~n);
    Printf.printf "  coin-game budget (Cor 2.2,k=2) %.2f\n"
      (Coinflip.Bounds.lemma_budget ~k:2 n)
  in
  let term = Term.(const run $ n_arg $ t_arg) in
  Cmd.v (Cmd.info "bounds" ~doc:"Print the closed-form bounds for n, t") term

let valency_cmd =
  let run (n, t) seed rounds adv_name rules =
    let adversary = adversary_of_name adv_name ~rules ~n ~t ~seed in
    Printf.printf
      "Valency trajectory (Sec 3.2): n=%d t=%d adversary=%s\n\n" n t
      adversary.Sim.Adversary.name;
    Printf.printf "  %-12s %-8s %-8s %s\n" "after round" "min r" "max r"
      "classification";
    List.iter
      (fun (r, e) ->
        Printf.printf "  %-12d %-8.3f %-8.3f %s\n" r
          e.Core.Valency_probe.min_r e.Core.Valency_probe.max_r
          (Core.Valency.to_string e.Core.Valency_probe.classification))
      (Core.Valency_probe.trajectory ~rounds ~n ~t ~seed adversary)
  in
  let rounds_arg =
    Arg.(
      value & opt int 8
      & info [ "rounds" ] ~docv:"R" ~doc:"Rounds to probe.")
  in
  let term =
    Term.(
      const run
      $ n_t_args ~default_t:(fun n -> n - 1)
      $ seed_arg $ rounds_arg $ adversary_arg $ rules_arg)
  in
  Cmd.v
    (Cmd.info "valency"
       ~doc:"Probe the valency (Sec 3.2) of an attacked execution, round by round")
    term

let async_cmd =
  let run (n, t) seed trials scheduler_name =
    let make_scheduler () =
      match scheduler_name with
      | "fair" -> Async.Scheduler.fair
      | "fifo" -> Async.Scheduler.fifo
      | "crash" -> Async.Scheduler.random_crash ~p:0.02
      | _ -> Async.Benor.splitter ()
    in
    let s =
      Sim.Runner.value
        (Async.Engine.run_trials ~max_steps:400_000
           ~phase_of:Async.Benor.phase ~trials ~seed
           ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng n)
           ~t (Async.Benor.protocol ~t) make_scheduler)
    in
    Printf.printf "async Ben-Or, n=%d t=%d scheduler=%s (%d trials)\n" n t
      scheduler_name trials;
    Printf.printf "  mean phases      %.2f\n" (Stats.Welford.mean s.Async.Engine.phases);
    Printf.printf "  mean deliveries  %.0f\n" (Stats.Welford.mean s.Async.Engine.deliveries);
    Printf.printf "  mean coin flips  %.1f\n" (Stats.Welford.mean s.Async.Engine.flips);
    Printf.printf "  non-terminating  %d\n" s.Async.Engine.non_terminating;
    Printf.printf "  disagreements    %d, validity errors %d\n"
      s.Async.Engine.disagreements s.Async.Engine.validity_errors
  in
  let scheduler_arg =
    Arg.(
      value
      & opt (enum [ ("fair", "fair"); ("fifo", "fifo"); ("crash", "crash"); ("splitter", "splitter") ]) "fair"
      & info [ "scheduler" ] ~docv:"S"
          ~doc:"Scheduler: fair, fifo, crash, or splitter (adversarial).")
  in
  let term =
    Term.(
      const run
      $ n_t_args ~default_t:(fun n -> (n - 1) / 2)
      $ seed_arg $ trials_arg $ scheduler_arg)
  in
  Cmd.v
    (Cmd.info "async" ~doc:"Run asynchronous Ben-Or under a chosen scheduler")
    term

let byzantine_cmd =
  let run (n, t) seed trials proto_name adv_name =
    (* The protocol-tailored attack stands in for king-spoofer; the other
       adversaries are content-agnostic. *)
    let adversary ~t ~spoofer () =
      match adv_name with
      | "null" -> Byz.Adversary.null
      | "equivocator" -> Byz.Adversary.equivocator ~budget_fraction:1.0 ()
      | "king-spoofer" -> spoofer ()
      | _ ->
          Byz.Adversary.crash_like
            ~victims:(List.init t (fun i -> (i + 1, i)))
    in
    let report name r =
      let s = Sim.Runner.value r in
      Printf.printf "%s vs %s (n=%d t=%d, %d trials)\n" name adv_name n t
        trials;
      Printf.printf "  mean rounds        %.2f\n"
        (Stats.Welford.mean s.Byz.Engine.rounds);
      Printf.printf "  non-terminating    %d\n" s.Byz.Engine.non_terminating;
      Printf.printf "  agreement errors   %d\n" s.Byz.Engine.agreement_errors;
      Printf.printf "  validity errors    %d\n" s.Byz.Engine.validity_errors
    in
    let gen rng = Prng.Sample.random_bits rng n in
    match proto_name with
    | "phase-king" ->
        report "phase-king"
          (Byz.Engine.run_trials ~max_rounds:500 ~trials ~seed ~gen_inputs:gen
             ~t (Byz.Phase_king.protocol ~t)
             (adversary ~t ~spoofer:Byz.Phase_king.king_spoofer))
    | "eig" ->
        let t = Stdlib.min t 2 in
        report "eig"
          (Byz.Engine.run_trials ~max_rounds:500 ~trials ~seed ~gen_inputs:gen
             ~t (Byz.Eig.protocol ~t)
             (adversary ~t ~spoofer:Byz.Eig.liar))
    | "chor-coan" ->
        let g = Stdlib.max 1 (int_of_float (log (float_of_int n) /. log 2.0)) in
        report
          (Printf.sprintf "chor-coan (g=%d)" g)
          (Byz.Engine.run_trials ~max_rounds:500 ~trials ~seed ~gen_inputs:gen
             ~t (Byz.Chor_coan.protocol ~t ~group_size:g)
             (adversary ~t
                ~spoofer:(Byz.Chor_coan.group_corruptor ~group_size:g)))
    | _ ->
        (* king-spoofer forges Phase King payloads; Rabin gets the generic
           equivocator in its place. *)
        report "rabin-oracle"
          (Byz.Engine.run_trials ~max_rounds:500 ~trials ~seed ~gen_inputs:gen
             ~t (Byz.Rabin.protocol ~t ~oracle_seed:(seed + 3))
             (adversary ~t
                ~spoofer:(Byz.Adversary.equivocator ~budget_fraction:1.0)))
  in
  let proto_arg =
    Arg.(
      value
      & opt (enum [ ("phase-king", "phase-king"); ("eig", "eig"); ("rabin", "rabin"); ("chor-coan", "chor-coan") ]) "phase-king"
      & info [ "protocol" ] ~docv:"P"
          ~doc:"phase-king, eig, rabin, or chor-coan.")
  in
  let adv_arg =
    Arg.(
      value
      & opt (enum [ ("null", "null"); ("equivocator", "equivocator"); ("king-spoofer", "king-spoofer"); ("crash", "crash") ]) "equivocator"
      & info [ "adversary" ] ~docv:"A"
          ~doc:"null, equivocator, king-spoofer (protocol-tailored), or crash.")
  in
  let term =
    Term.(
      const run
      $ n_t_args ~default_t:(fun n -> (n - 1) / 5)
      $ seed_arg $ trials_arg $ proto_arg $ adv_arg)
  in
  Cmd.v
    (Cmd.info "byzantine"
       ~doc:"Run a Byzantine protocol under a forging adversary")
    term

let () =
  let doc = "Reproduction of Bar-Joseph & Ben-Or, PODC 1998" in
  let info = Cmd.info "synran" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; trace_cmd; coinflip_cmd; experiments_cmd; bounds_cmd;
            valency_cmd; async_cmd; byzantine_cmd;
          ]))
