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

(* Reject counts below [lo] at the command line with a clear error
   instead of silently coercing them to a default deeper down. *)
let int_at_least lo what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo -> Ok v
    | Some v ->
        Error (`Msg (Printf.sprintf "%s must be >= %d (got %d)" what lo v))
    | None ->
        Error (`Msg (Printf.sprintf "%s must be an integer (got %S)" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1

let n_arg_with default =
  Arg.(
    value
    & opt (positive_int "N") default
    & info [ "n" ] ~docv:"N" ~doc:"Number of processes (must be >= 1).")

let n_arg = n_arg_with 64

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

let retries_arg =
  Arg.(
    value
    & opt (int_at_least 0 "RETRIES") 0
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
           depends only on the plan and the chunk geometry, never on JOBS. \
           The run subcommand reaches only body, merge and, with \
           --metrics-out or --events-out, sink; an arm at another site is \
           a usage error there.")

let fault_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Draw a survivable fault plan deterministically from this seed \
           and keep the arms at sites this run reaches (printed, so it can \
           be replayed via --fault-plan). Ignored when --fault-plan is \
           given.")

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("concrete", `Concrete); ("bitkernel", `Bitkernel);
             ("auto", `Auto) ])
        `Auto
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: concrete (the reference), bitkernel \
           (bit-packed registers), or auto (bitkernel for a register \
           protocol, as SynRan and FloodSet are, else concrete). All \
           engines print byte-identical results.")

let t_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "t" ] ~docv:"T" ~doc:"Adversary budget (default n-1).")

(* N (read by [n_arg]) and the budget T together: T defaults to
   [default_t n] and must lie in [0, N], so a bad -t is a usage error
   instead of an exception from the engine. *)
let n_t_with n_arg ~default_t =
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

let n_t_args = n_t_with n_arg

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

let string_enum names = Arg.enum (List.map (fun s -> (s, s)) names)

let adversary_arg =
  Arg.(
    value
    & opt
        (string_enum
           [ "null"; "random"; "static"; "drip"; "band"; "voting";
             "leader-killer"; "crash-all" ])
        "band"
    & info [ "adversary" ] ~docv:"ADV"
        ~doc:
          "Adversary: null, random, static, drip, band (adaptive band \
           control + stalls), voting (band + rescue, no stalls), \
           leader-killer, crash-all.")

let protocol_arg =
  Arg.(
    value
    & opt (string_enum [ "synran"; "leader"; "floodset" ]) "synran"
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
      Core.Lb_adversary.leader_killer ~rules
        ~bit_of_msg:Core.Synran.bit_of_msg ()
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

let export_capture ~metrics_out ~events_out = function
  | None -> ()
  | Some c ->
      Option.iter
        (fun path -> Obs.Json.write ~path (Obs.Capture.metrics_json c))
        metrics_out;
      Option.iter
        (fun path -> Obs.Json.write ~path (Obs.Capture.events_jsonl c))
        events_out

(* [run]'s fault plan: --fault-plan, or the arms of a --fault-seed draw
   at the sites [run] reaches (printed, for replay). With no checkpoint
   store, no manifest and events only under a capture, an arm at any other
   site would never fire, so it is a usage error. *)
let run_fault_args =
  let check plan seed trials chunk_size metrics_out events_out =
    let reached =
      Sim.Fault.[ Chunk_body; Metrics_merge ]
      @ if metrics_out = None && events_out = None then []
        else [ Sim.Fault.Event_sink ]
    in
    let reaches (a : Sim.Fault.arm) = List.mem a.site reached in
    let drawn seed =
      let chunk_size =
        Option.value chunk_size ~default:Sim.Parallel.default_chunk_size
      in
      let p = Sim.Fault.random_plan ~seed ~n:trials ~chunk_size in
      let p = List.filter reaches p in
      Printf.printf "fault plan (seed %d): %s\n" seed
        (Sim.Fault.plan_to_string p);
      p
    in
    let plan =
      match plan with
      | Some p -> p
      | None -> Option.fold seed ~none:[] ~some:drawn
    in
    match List.find_opt (fun a -> not (reaches a)) plan with
    | None -> `Ok plan
    | Some a ->
        `Error
          ( true,
            Printf.sprintf
              "option '--fault-plan': arm %s names a site run never reaches \
               (it reaches %s)"
              (Sim.Fault.plan_to_string [ a ])
              (String.concat ", " (List.map Sim.Fault.site_label reached)) )
  in
  Term.(
    ret
      (const check $ fault_plan_arg $ fault_seed_arg $ trials_arg
     $ chunk_size_arg $ metrics_out_arg $ events_out_arg))

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
      inputs metrics_out events_out retries fault =
    let gen = gen_of_inputs inputs ~n in
    (* A capture exists iff some output was requested; events are recorded
       only when they will actually be written. *)
    let capture =
      if metrics_out = None && events_out = None then None
      else Some (Obs.Capture.create ~events:(events_out <> None) ())
    in
    let guard = { Sim.Runner.unguarded with retries; fault } in
    (* Every run goes through the supervised fold: without faults or
       retries its summary is the one [Sim.Runner.run_trials] returns, and
       a failed chunk is reported instead of escaping as an exception. So
       is a fault in the chunk-ordered merge, which the fold raises: it
       has no chunk to retry. *)
    let summarize ~max_rounds protocol make_adversary =
      let r =
        try
          Sim.Runner.run_trials_supervised ~max_rounds ~jobs ?chunk_size
            ?capture ~guard ~engine ~trials ~seed
            ~gen_inputs:gen ~t protocol make_adversary
        with Sim.Fault.Injected { site = Sim.Fault.Metrics_merge; _ } as exn ->
          prerr_endline ("merge failed: " ^ Printexc.to_string exn);
          exit 1
      in
      (match r.Sim.Runner.retried with
      | [] -> ()
      | rs ->
          Printf.printf "chunk retries (%d):\n" (List.length rs);
          List.iter
            (fun f -> Printf.printf "  %s\n" (Sim.Runner.pp_chunk_failed f))
            rs);
      let s =
        match (r.Sim.Runner.failures, r.Sim.Runner.partial) with
        | [], Some s -> s
        | [], None ->
            prerr_endline "no trials completed";
            exit 1
        | fs, _ ->
            List.iter
              (fun f ->
                prerr_endline ("chunk failed: " ^ Sim.Runner.pp_chunk_failed f))
              fs;
            Printf.eprintf "%d/%d trials completed before failure\n"
              r.Sim.Runner.completed_trials r.Sim.Runner.total_trials;
            exit 1
      in
      print_summary
        (Printf.sprintf "%s vs %s (n=%d t=%d)" protocol.Sim.Protocol.name
           (make_adversary ()).Sim.Adversary.name n t)
        s
    in
    (match proto_name with
    | "synran" | "leader" ->
        let coin =
          if proto_name = "leader" then Core.Synran.Leader_priority
          else Core.Synran.Local_flip
        in
        summarize ~max_rounds:2000
          (Core.Synran.protocol ~rules ~coin n)
          (fun () -> adversary_of_name adv_name ~rules ~n ~t ~seed)
    | _ ->
        (* The bit-reading adversaries target SynRan-shaped protocols; fall
           back to drip for the bit-oblivious FloodSet. *)
        let adv_name =
          match adv_name with
          | "band" | "voting" | "leader-killer" -> "drip"
          | other -> other
        in
        summarize ~max_rounds:(t + 2)
          (Baselines.Floodset.protocol ~rounds:(t + 1) ())
          (fun () -> generic_adversary_of_name adv_name ~n ~t ~seed));
    export_capture ~metrics_out ~events_out capture
  in
  let term =
    Term.(
      const run
      $ n_t_args ~default_t:(fun n -> n - 1)
      $ trials_arg $ seed_arg $ jobs_arg $ chunk_size_arg $ engine_arg
      $ rules_arg $ adversary_arg $ protocol_arg $ inputs_arg $ metrics_out_arg
      $ events_out_arg $ retries_arg $ run_fault_args)
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
    let ids = if which = [] then Core.Experiments.ids else which in
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
          (* The IDS enum has validated every id. *)
          let f = Option.get (Core.Experiments.by_id id) in
          let r =
            Core.Supervise.run_experiment ctx ~id (fun () ->
                f ~jobs ~sup:ctx profile ~seed)
          in
          Option.iter
            (fun tbl ->
              print_endline
                (if csv then Stats.Table.to_csv tbl else Stats.Table.render tbl))
            r.Core.Supervise.table;
          (match r.Core.Supervise.status with
          | Core.Supervise.Completed -> ()
          | _ -> print_endline ("*** " ^ Core.Supervise.status_line r ^ " ***"));
          if not csv then print_newline ();
          r)
        ids
    in
    (* Plans can arm the manifest site itself; an injector with zero
       chunk slots still carries the run-scope slot the site uses. *)
    let manifest_fault = Option.map Sim.Fault.injector fault_plan in
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
        Obs.Json.write ~path
          (Obs.Json.to_file
             (Obs.Metrics.to_json (Core.Supervise.merged_metrics results))))
      metrics_out;
    Option.iter
      (fun path ->
        Obs.Json.write ~path (Obs.Event.to_jsonl (Core.Supervise.events ctx)))
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
  let which_arg =
    Arg.(
      value
      & pos_all (string_enum Core.Experiments.ids) []
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
    let traj = Core.Valency_probe.trajectory ~rounds ~n ~t ~seed adversary in
    List.iter
      (fun (r, e) ->
        Printf.printf "  %-12d %-8.3f %-8.3f %s\n" r
          e.Core.Valency_probe.min_r e.Core.Valency_probe.max_r
          (Core.Valency.to_string e.Core.Valency_probe.classification))
      traj;
    let k = List.length traj in
    if k < rounds && Core.Valency.epsilon ~n ~k <= 0.0 then
      Printf.printf "\n  stopped before round %d: eps_%d <= 0, where Sec 3.2 \
                     calls every state null-valent\n" k k
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
      & opt (string_enum [ "fair"; "fifo"; "crash"; "splitter" ]) "fair"
      & info [ "scheduler" ] ~docv:"S"
          ~doc:"Scheduler: fair, fifo, crash, or splitter (adversarial).")
  in
  let term =
    Term.(
      const run
      (* Ben-Or's phases grow exponentially in n: at n = 64 every trial
         runs into the step cap. 8 is E9's largest quick size. *)
      $ n_t_with (n_arg_with 8) ~default_t:(fun n -> (n - 1) / 2)
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
    (* [t'] is the budget the protocol runs under; the report names [t]. *)
    let report ?(t' = t) name protocol spoofer =
      let s =
        Sim.Runner.value
          (Byz.Engine.run_trials ~max_rounds:500 ~trials ~seed
             ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng n)
             ~t:t' protocol (adversary ~t:t' ~spoofer))
      in
      Printf.printf "%s vs %s (n=%d t=%d, %d trials)\n" name adv_name n t
        trials;
      Printf.printf "  mean rounds        %.2f\n"
        (Stats.Welford.mean s.Byz.Engine.rounds);
      Printf.printf "  non-terminating    %d\n" s.Byz.Engine.non_terminating;
      Printf.printf "  agreement errors   %d\n" s.Byz.Engine.agreement_errors;
      Printf.printf "  validity errors    %d\n" s.Byz.Engine.validity_errors
    in
    match proto_name with
    | "phase-king" ->
        report "phase-king" (Byz.Phase_king.protocol ~t)
          Byz.Phase_king.king_spoofer
    | "eig" ->
        let t' = Stdlib.min t 2 in
        report ~t' "eig" (Byz.Eig.protocol ~t:t') Byz.Eig.liar
    | "chor-coan" ->
        let g = Stdlib.max 1 (int_of_float (log (float_of_int n) /. log 2.0)) in
        report
          (Printf.sprintf "chor-coan (g=%d)" g)
          (Byz.Chor_coan.protocol ~t ~group_size:g)
          (Byz.Chor_coan.group_corruptor ~group_size:g)
    | _ ->
        (* king-spoofer forges Phase King payloads; Rabin gets the generic
           equivocator in its place. *)
        report "rabin-oracle"
          (Byz.Rabin.protocol ~t ~oracle_seed:(seed + 3))
          (Byz.Adversary.equivocator ~budget_fraction:1.0)
  in
  let proto_arg =
    Arg.(
      value
      & opt (string_enum [ "phase-king"; "eig"; "rabin"; "chor-coan" ]) "phase-king"
      & info [ "protocol" ] ~docv:"P"
          ~doc:"phase-king, eig, rabin, or chor-coan.")
  in
  let adv_arg =
    Arg.(
      value
      & opt (string_enum [ "null"; "equivocator"; "king-spoofer"; "crash" ]) "equivocator"
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
