(* perf/main.exe — the benchmark. See perf/README.md.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--trace-out PATH]
     main.exe --smoke BENCHMARK.json

   The process given --workload is the parent: it spawns one fresh child
   that runs the workload (and, for an e2e run, set-up probes while it
   runs), reads the child's report from a pipe, and prints the result as
   one JSON object on the last line of stdout. The exit code is 0 iff every
   op succeeded and every digest matched. Children are this same
   executable with --role. *)

let e2e_metrics =
  [
    ("wall_s", "s");
    ("trials_per_s", "1/s");
    ("setup_s", "s");
    ("alloc_mb", "MB");
    ("peak_rss_mb", "MB");
    ("success_ratio", "ratio");
  ]

(* Every per-layer metric, in report order. A workload reports 0 for a
   layer it never runs (the battery has no engine replay, the Monte-Carlo
   workloads run no experiment). *)
let per_layer_metrics =
  List.map (fun id -> ("experiments." ^ id ^ "_s", "s")) Core.Experiments.ids
  @ [
      ("supervise.chunks", "count");
      ("supervise.chunk_retries", "count");
      ("parallel.speedup", "ratio");
      ("checkpoint.store_ms", "ms");
      ("checkpoint.load_ms", "ms");
      ("engine.round_us.kill", "us");
      ("engine.round_us.nokill", "us");
      ("engine.kill_round_share", "ratio");
      ("adversary.partial_recipients_per_round", "count/round");
      ("adversary.kills_per_round", "count/round");
      ("adversary.plan_us", "us");
      ("adversary.plan_share", "ratio");
      ("engine.self_share", "ratio");
      ("protocol.absorb_calls_per_round", "count/round");
      ("protocol.finish_calls_per_round", "count/round");
      ("protocol.bo_step_calls_per_round", "count/round");
      ("protocol.phase_a_calls_per_round", "count/round");
      ("bitkernel.packed_share", "ratio");
      ("engine.start_ms_per_trial", "ms");
      ("inputs.ms_per_trial", "ms");
      ("engine.outcome_ms_per_trial", "ms");
      ("checker.ms_per_trial", "ms");
      ("engine.alloc_kb_per_round", "KB");
      ("engine.rounds_per_trial", "count/trial");
      ("obs.events_per_round", "count/round");
      ("obs.sink_cost_ratio", "ratio");
    ]
  @ List.map
      (fun (e : Engines.entry) -> ("engines." ^ e.name ^ ".round_us", "us"))
      Engines.all
  @ [ ("trace.overhead_ratio", "ratio") ]

let golden_seed = 42

(* Children get this long before the parent kills them, so the whole
   command ends within 180 s. *)
let child_deadline_s = 170.0

(* Set-up probes per e2e run; with the measuring child, setup_s is the
   median of [setup_probes + 1] samples. *)
let setup_probes = 20

(* Untraced passes a traced run makes before its replays. *)
let traced_e2e_passes = 3

let now_s () = float_of_int (Spans.now_ns ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Child → parent report lines                                         *)
(* ------------------------------------------------------------------ *)

(* "@metric name unit value samples min max", "@ops attempted failed",
   "@setup_ns n", "@note text". *)

let finite x = if Float.is_finite x then x else 0.0

let emit_metric name unit ~samples ~lo ~hi v =
  Printf.printf "@metric %s %s %.17g %d %.17g %.17g\n" name unit (finite v)
    samples (finite lo) (finite hi)

let note fmt = Printf.ksprintf (fun s -> Printf.printf "@note %s\n%!" s) fmt

let unit_of name metrics = List.assoc name metrics

(* ------------------------------------------------------------------ *)
(* Child                                                               *)
(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  |> Option.get
  |> fun kb -> float_of_int kb *. 1024.0 /. 1e6

let read_golden name =
  match Jsonr.member name (Jsonr.of_file (Filename.concat "perf" "expected.json")) with
  | Some (Jsonr.Str d) -> Some d
  | _ -> None
  | exception (Sys_error _ | Jsonr.Error _) -> None

type tally = { mutable attempted : int; mutable failed : int }

let child ~(w : Workload.t) ~seed ~seconds ~trace ~trace_out ~smoke ~tmp
    ~spawn_ns ~probe =
  let seed = Workload.input_seed w ~seed in
  let golden =
    if smoke || seed <> golden_seed then None
    else
      match read_golden w.name with
      | Some d -> Some d
      | None -> Some "missing from perf/expected.json"
  in
  Printf.printf "@setup_ns %d\n%!" (Spans.now_ns () - spawn_ns);
  if not probe then begin
    let jobs = Workload.jobs w in
    let spans = Spans.create (if trace then Spans.default_capacity else 0) in
    let t0 = now_s () in
    (* Passes run back to back; one that would end after [seconds] (judged
       by the last pass's length) is not started, so a run lasts about
       [seconds], or one pass if that is longer. A traced run needs the
       passes only as the base of its ratios, so it stops after
       [traced_e2e_passes]. *)
    let rec loop acc =
      let p = Workload.pass w ~seed ~jobs ~tmp in
      let acc = p :: acc in
      if
        smoke
        || (trace && List.length acc >= traced_e2e_passes)
        || now_s () -. t0 +. p.wall_s > seconds
      then List.rev acc
      else loop acc
    in
    (* The battery's traced run measures its one traced pass instead of
       e2e passes: a span per experiment costs nothing against an ~11 s
       pass, and the run then takes two passes (traced, jobs=1), not
       three. *)
    let battery_traced ids =
      let pass_id = Spans.enter spans Pass ~parent:(-1) ~trial:(-1) in
      let around id f =
        let trial =
          Option.value ~default:(-1) (List.find_index (String.equal id) ids)
        in
        Spans.span spans Experiment ~parent:pass_id ~trial (fun _ -> f ())
      in
      let p = Workload.battery_pass ~around ids ~seed ~jobs ~tmp in
      Spans.leave spans pass_id;
      p
    in
    let passes =
      match w.kind with
      | Battery ids when trace -> [ battery_traced ids ]
      | _ -> loop []
    in
    let first = List.hd passes in
    let reference = Option.value golden ~default:first.digest in
    let tally = { attempted = 0; failed = 0 } in
    (* One op per digest comparison; a mismatch is a failed op. *)
    let check what digest =
      tally.attempted <- tally.attempted + 1;
      if digest <> reference then begin
        tally.failed <- tally.failed + 1;
        note "DIGEST MISMATCH in %s: %s, expected %s" what digest reference
      end
    in
    let ops (p : Workload.pass) =
      tally.attempted <- tally.attempted + p.ops;
      tally.failed <- tally.failed + p.failed
    in
    List.iteri
      (fun i (p : Workload.pass) ->
        ops p;
        check (Printf.sprintf "pass %d" (i + 1)) p.digest)
      passes;
    let walls = List.map (fun (p : Workload.pass) -> p.wall_s) passes in
    let median_wall = Replay.median walls in
    note "workload %s seed %d: %d pass(es) at jobs=%d%s, digest %s (%s)" w.name
      seed (List.length passes) jobs
      (if first.engine_used = "" then "" else ", engine " ^ first.engine_used)
      first.digest
      (match golden with
      | None -> "golden checked only at seed 42; passes must agree"
      | Some _ -> "golden from perf/expected.json");
    let series name unit xs =
      emit_metric name unit ~samples:(List.length xs)
        ~lo:(List.fold_left Float.min Float.infinity xs)
        ~hi:(List.fold_left Float.max Float.neg_infinity xs)
        (Replay.median xs)
    in
    if not trace then begin
      let e2e name = series name (unit_of name e2e_metrics) in
      e2e "wall_s" walls;
      e2e "trials_per_s"
        (List.map
           (fun (p : Workload.pass) -> float_of_int p.trials /. p.wall_s)
           passes);
      e2e "alloc_mb"
        (List.map (fun (p : Workload.pass) -> p.alloc_bytes /. 1e6) passes);
      e2e "peak_rss_mb" [ peak_rss_mb () ]
    end
    else begin
      let layer name v = series name (unit_of name per_layer_metrics) [ v ] in
      let layers =
        match w.kind with
        | Battery ids ->
            (* [first] is the traced pass, so trace.overhead_ratio is 1. *)
            let serial = Workload.battery_pass ids ~seed ~jobs:1 ~tmp in
            ops serial;
            check "jobs=1 pass" serial.digest;
            List.map (fun (id, s) -> ("experiments." ^ id ^ "_s", s)) first.experiments
            @ [
                ("supervise.chunks", float_of_int first.chunks);
                ("supervise.chunk_retries", float_of_int first.chunk_retries);
                ("parallel.speedup", serial.wall_s /. median_wall);
                ("trace.overhead_ratio", first.wall_s /. median_wall);
              ]
        | Mc m ->
            let entry =
              match Engines.find first.engine_used with
              | Some e -> e
              | None -> failwith ("unknown engine " ^ first.engine_used)
            in
            let replayed = Replay.traced spans m entry ~seed in
            let summary_ops what (s : Sim.Runner.summary) =
              tally.attempted <- tally.attempted + s.trials;
              tally.failed <- tally.failed + Workload.failed_trials s;
              check what (Workload.summary_digest s)
            in
            summary_ops "traced replay" replayed.summary;
            let parallel = Workload.mc_pass m ~seed ~jobs:2 in
            ops parallel;
            check "jobs=2 pass" parallel.digest;
            let sink, sink_summaries = Replay.sink_cost m entry ~seed in
            List.iter (summary_ops "sink replay") sink_summaries;
            let rows, engines_agree = Replay.engine_rows m ~seed in
            tally.attempted <- tally.attempted + 1;
            if not engines_agree then begin
              tally.failed <- tally.failed + 1;
              note "ENGINES DISAGREE on trial 0 of %s" w.name
            end;
            replayed.layers @ sink @ rows
            @ [
                ("supervise.chunks", float_of_int first.chunks);
                ("supervise.chunk_retries", float_of_int first.chunk_retries);
                ("parallel.speedup", median_wall /. parallel.wall_s);
                ("trace.overhead_ratio", replayed.wall_s /. median_wall);
              ]
      in
      let ckpt, loaded = Replay.checkpoint_ms ~tmp in
      tally.attempted <- tally.attempted + 1;
      if not loaded then begin
        tally.failed <- tally.failed + 1;
        note "CHECKPOINT round-trip failed"
      end;
      let layers = layers @ ckpt in
      List.iter
        (fun (name, _) ->
          layer name (Option.value ~default:0.0 (List.assoc_opt name layers)))
        per_layer_metrics;
      Option.iter (Spans.write spans) trace_out
    end;
    Printf.printf "@ops %d %d\n%!" tally.attempted tally.failed
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type metric = {
  name : string;
  unit : string;
  value : float;
  samples : int;
  lo : float;
  hi : float;
}

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;
}

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

(* Run this executable with [args], collect its stdout until it exits or
   [deadline] passes (then kill it), and always reap it. While waiting,
   [tick ()] runs every [every] seconds. *)
let spawn ?(every = Float.infinity) ?(tick = ignore) args ~deadline =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let next_tick = ref (now_s () +. every) in
  let rec read () =
    let now = now_s () in
    if now >= deadline then false
    else if now >= !next_tick then begin
      tick ();
      next_tick := now_s () +. every;
      read ()
    end
    else
      let wait = Float.min (deadline -. now) (!next_tick -. now) in
      match retry_eintr (fun () -> Unix.select [ rd ] [] [] wait) with
      | [], _, _ -> read ()
      | _ ->
          let k = retry_eintr (fun () -> Unix.read rd chunk 0 (Bytes.length chunk)) in
          if k = 0 then true
          else begin
            Buffer.add_subbytes buf chunk 0 k;
            read ()
          end
  in
  let finished = read () in
  if not finished then Unix.kill pid Sys.sigkill;
  Unix.close rd;
  let _, status = retry_eintr (fun () -> Unix.waitpid [] pid) in
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  match status with
  | Unix.WEXITED 0 when finished -> Ok lines
  | _ when not finished -> Error "timed out"
  | Unix.WEXITED c -> Error (Printf.sprintf "exited with code %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Error (Printf.sprintf "killed by signal %d" s)

let measure ~workload ~seed ~seconds ~trace ~trace_out ~smoke =
  let deadline = now_s () +. child_deadline_s in
  (* Checkpoints go under a fresh temp dir ($TMPDIR, which run.sh points
     into the checkout's _build/), removed at exit. *)
  let tmp = Filename.temp_dir "perf" "" in
  let run_child ?every ?tick role =
    let args =
      [
        "--role"; role;
        "--workload"; workload;
        "--seed"; string_of_int seed;
        "--seconds"; Printf.sprintf "%.17g" seconds;
        "--trace"; (if trace then "1" else "0");
        "--tmp"; tmp;
        "--spawn-ns"; string_of_int (Spans.now_ns ());
      ]
      @ (if smoke then [ "--smoke-child"; "1" ] else [])
      @ match trace_out with Some p -> [ "--trace-out"; p ] | None -> []
    in
    spawn ?every ?tick args ~deadline
  in
  let result =
    Fun.protect
      ~finally:(fun () -> remove_tree tmp)
      (fun () ->
        if trace then run_child "child"
        else begin
          (* Set-up time sits at levels ~30% apart that each last about a
             second (host scheduling), so probes fired back to back all see
             one level. Spreading them over the run mixes the levels: the
             parent, idle while the measuring child runs, spawns one every
             [seconds / setup_probes], and any left over afterwards. *)
          let probes = ref (Ok []) and left = ref setup_probes in
          let probe () =
            if !left > 0 then begin
              decr left;
              probes :=
                Result.bind !probes (fun ls ->
                    Result.map (fun l -> l @ ls) (run_child "probe"))
            end
          in
          let every = Float.max 0.05 (seconds /. float_of_int setup_probes) in
          let child = run_child ~every ~tick:probe "child" in
          while !left > 0 do
            probe ()
          done;
          Result.bind !probes (fun p -> Result.map (fun c -> p @ c) child)
        end)
  in
  match result with
  | Error e -> Error (Printf.sprintf "workload %s: child %s" workload e)
  | Ok lines ->
      let setups = ref [] and metrics = ref [] and notes = ref [] in
      let ops = ref None in
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "@setup_ns"; ns ] -> setups := (float_of_string ns *. 1e-9) :: !setups
          | [ "@metric"; name; unit; v; k; lo; hi ] ->
              metrics :=
                {
                  name;
                  unit;
                  value = float_of_string v;
                  samples = int_of_string k;
                  lo = float_of_string lo;
                  hi = float_of_string hi;
                }
                :: !metrics
          | [ "@ops"; a; f ] -> ops := Some (int_of_string a, int_of_string f)
          | "@note" :: words -> notes := String.concat " " words :: !notes
          | _ -> ())
        lines;
      let setup =
        if trace then []
        else
          [
            {
              name = "setup_s";
              unit = unit_of "setup_s" e2e_metrics;
              value = Replay.median !setups;
              samples = List.length !setups;
              lo = List.fold_left Float.min Float.infinity !setups;
              hi = List.fold_left Float.max Float.neg_infinity !setups;
            };
          ]
      in
      (match !ops with
      | None -> Error (Printf.sprintf "workload %s: child reported no ops" workload)
      | Some (attempted, failed) ->
          (* failed / attempted reads 0 on every correct run; its
             complement never does, and with bound 0 any failure worsens
             it. *)
          let success =
            let value = float_of_int (attempted - failed) /. float_of_int attempted in
            if trace then []
            else
              [
                {
                  name = "success_ratio";
                  unit = unit_of "success_ratio" e2e_metrics;
                  value;
                  samples = 1;
                  lo = value;
                  hi = value;
                };
              ]
          in
          Ok
            {
              correct = failed = 0;
              attempted;
              failed;
              metrics = List.rev !metrics @ setup @ success;
              notes = List.rev !notes;
            })

let json_of (o : outcome) =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
          (Obs.Json.escape m.name) (Obs.Json.float_str m.value)
          (Obs.Json.escape m.unit))
      o.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed (String.concat ", " metrics)

let print_report (o : outcome) =
  List.iter (fun n -> Printf.printf "%s\n" n) o.notes;
  List.iter
    (fun m ->
      if m.samples > 1 then
        Printf.printf "  %-40s %14.6g %-11s median of %d (min %.6g, max %.6g)\n"
          m.name m.value m.unit m.samples m.lo m.hi
      else Printf.printf "  %-40s %14.6g %s\n" m.name m.value m.unit)
    o.metrics;
  Printf.printf "ops: %d attempted, %d failed (fail_ratio %g)\n" o.attempted
    o.failed
    (float_of_int o.failed /. float_of_int o.attempted)

(* ------------------------------------------------------------------ *)
(* Smoke                                                               *)
(* ------------------------------------------------------------------ *)

(* Every workload shrunk to n <= 64, e2e and traced, checking that each
   metric BENCHMARK.json names is printed and that every op passed. *)
let smoke bench_path =
  let bench = Jsonr.of_file bench_path in
  let names key =
    Option.fold ~none:[] ~some:Jsonr.list (Jsonr.member key bench)
    |> List.filter_map (fun m -> Option.bind (Jsonr.member "name" m) Jsonr.string)
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let listed = names "workloads" in
  if List.sort String.compare listed <> List.sort String.compare Workload.names
  then
    problem "BENCHMARK.json workloads [%s] differ from the program's [%s]"
      (String.concat ", " listed)
      (String.concat ", " Workload.names);
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, key) ->
          match
            measure ~workload ~seed:golden_seed ~seconds:0.0 ~trace
              ~trace_out:None ~smoke:true
          with
          | Error e -> problem "%s" e
          | Ok o ->
              if not o.correct then
                problem "%s (trace %b): %d/%d ops failed: %s" workload trace
                  o.failed o.attempted (String.concat "; " o.notes);
              List.iter
                (fun name ->
                  if not (List.exists (fun m -> m.name = name) o.metrics) then
                    problem "%s (trace %b): metric %s not printed" workload
                      trace name)
                (names key))
        [ (false, "end_to_end"); (true, "per_layer") ])
    Workload.names;
  match List.rev !problems with
  | [] ->
      Printf.printf "perf smoke: ok (%d workloads, %d + %d metrics)\n"
        (List.length Workload.names)
        (List.length (names "end_to_end"))
        (List.length (names "per_layer"));
      0
  | ps ->
      List.iter (fun p -> Printf.printf "perf smoke: %s\n" p) ps;
      1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
   [--trace-out PATH]\n\
  \       main.exe --smoke BENCHMARK.json\n\
   workloads: " ^ String.concat ", " Workload.names

let die msg =
  prerr_endline ("perf: " ^ msg);
  prerr_endline usage;
  exit 2

let () =
  let opts = Hashtbl.create 8 in
  let rec parse = function
    | [] -> ()
    | f :: v :: rest when String.starts_with ~prefix:"--" f ->
        Hashtbl.replace opts f v;
        parse rest
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let known =
    [
      "--workload"; "--seed"; "--seconds"; "--trace"; "--trace-out"; "--smoke";
      "--role"; "--tmp"; "--spawn-ns"; "--smoke-child";
    ]
  in
  Hashtbl.iter
    (fun k _ -> if not (List.mem k known) then die ("unknown option " ^ k))
    opts;
  let opt k = Hashtbl.find_opt opts k in
  let int_opt k ~default =
    match opt k with
    | None -> default
    | Some v -> (
        match int_of_string_opt v with
        | Some i -> i
        | None -> die (Printf.sprintf "%s must be an integer (got %S)" k v))
  in
  match opt "--smoke" with
  | Some path -> exit (smoke path)
  | None -> (
      let seed = int_opt "--seed" ~default:golden_seed in
      let seconds =
        match opt "--seconds" with
        | None -> 10.0
        | Some v -> (
            match float_of_string_opt v with
            | Some s when s >= 0.0 -> s
            | _ -> die (Printf.sprintf "--seconds must be >= 0 (got %S)" v))
      in
      let trace =
        match opt "--trace" with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some v -> die (Printf.sprintf "--trace must be 0 or 1 (got %S)" v)
      in
      let trace_out = opt "--trace-out" in
      let smoke = Hashtbl.mem opts "--smoke-child" in
      let workload =
        match opt "--workload" with
        | Some name when List.mem name Workload.names -> name
        | Some name -> die ("unknown workload " ^ name)
        | None -> die "--workload is required"
      in
      match opt "--role" with
      | Some (("child" | "probe") as role) ->
          let w = Option.get (Workload.make ~smoke workload) in
          child ~w ~seed ~seconds ~trace ~trace_out ~smoke
            ~tmp:(Option.value ~default:"." (opt "--tmp"))
            ~spawn_ns:(int_opt "--spawn-ns" ~default:(Spans.now_ns ()))
            ~probe:(role = "probe")
      | Some r -> die ("unknown role " ^ r)
      | None -> (
          match measure ~workload ~seed ~seconds ~trace ~trace_out ~smoke with
          | Error e ->
              prerr_endline ("perf: " ^ e);
              exit 1
          | Ok o ->
              print_report o;
              print_endline (json_of o);
              exit (if o.correct then 0 else 1)))
