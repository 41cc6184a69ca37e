(* Experiment-level supervision: per-experiment wall-clock watchdogs,
   chunk checkpoint/resume plumbing, structured failure capture, and the
   machine-readable run manifest. See supervise.mli for the contract. *)

let now () =
  (Unix.gettimeofday
  [@detlint.allow
    "R2: the watchdog deadline and the manifest's elapsed times are \
     intentionally wall-clock; they only gate cooperative cancellation \
     and reporting and never feed an experiment table, an RNG, or any \
     other deterministic output"]) ()

type status =
  | Completed
  | Failed of { message : string; backtrace : string }
  | Timed_out

type result = {
  id : string;
  table : Stats.Table.t option;
  status : status;
  elapsed_s : float;
  chunks_done : int;
  chunks_resumed : int;
  chunk_retries : int;
  completed_trials : int;
  total_trials : int;
  engines : string list;
  metrics : Obs.Metrics.t;
}

type ctx = {
  deadline_s : float option;
  ckpt_root : string option;
  resume : bool;
  retry_budget : int option;
  fault : Sim.Fault.plan option;
  mutable deadline_at : float option;
  mutable table : Stats.Table.t option;
  mutable chunks_done : int;
  mutable chunks_resumed : int;
  mutable chunk_retries : int;
  mutable completed_trials : int;
  mutable total_trials : int;
  mutable engines_rev : string list;
      (* Engines the experiment's runner folds executed on, most recent
         first, deduplicated — [`Auto] resolution made auditable. *)
  mutable last_failure : Sim.Runner.chunk_failed option;
  mutable stores_rev : string list;
      (* Checkpoint store directories the experiment's folds opened. *)
  obs_events : Obs.Recorder.t;
      (* Run-level supervision events (watchdog fires, chunk retries and
         terminal chunk failures), accumulated across experiments for
         [--events-out]. *)
}

let create ?deadline_s ?checkpoints ?(resume = false) ?retries ?fault () =
  (match retries with
  | Some r when r < 0 -> invalid_arg "Supervise.create: retries"
  | _ -> ());
  (* A NaN deadline would never fire, and neither it nor an infinite one
     can be written to the manifest as JSON. A negative one fires on the
     first poll. *)
  (match deadline_s with
  | Some d when not (Float.is_finite d) ->
      invalid_arg "Supervise.create: deadline_s"
  | _ -> ());
  {
    deadline_s;
    ckpt_root = checkpoints;
    resume;
    retry_budget = retries;
    fault;
    deadline_at = None;
    table = None;
    chunks_done = 0;
    chunks_resumed = 0;
    chunk_retries = 0;
    completed_trials = 0;
    total_trials = 0;
    engines_rev = [];
    last_failure = None;
    stores_rev = [];
    obs_events = Obs.Recorder.create ();
  }

let events ctx = Obs.Recorder.events ctx.obs_events

(* A retried (and by construction recovered) chunk attempt: one
   Chunk_retry event per failed pass, plus the per-experiment retry
   count. The count stays out of the metrics registry on purpose — a
   survivable chaos run must keep the manifest's metrics_digest
   byte-identical to the fault-free run. *)
let note_chunk_retried c (f : Sim.Runner.chunk_failed) =
  c.chunk_retries <- c.chunk_retries + 1;
  Obs.Recorder.push c.obs_events
    (Obs.Event.Chunk_retry
       {
         chunk = f.Sim.Runner.chunk;
         attempt = f.Sim.Runner.attempt;
         trial = f.Sim.Runner.trial;
         error = Printexc.to_string f.Sim.Runner.exn;
       })

(* A chunk whose retry budget is exhausted: the distinct terminal
   event. [attempts] counts every failed pass, so a budget of r lands
   attempts = r + 1. *)
let note_chunk_failed c (f : Sim.Runner.chunk_failed) =
  c.last_failure <- Some f;
  Obs.Recorder.push c.obs_events
    (Obs.Event.Chunk_failed
       {
         chunk = f.Sim.Runner.chunk;
         attempts = f.Sim.Runner.attempt + 1;
         trial = f.Sim.Runner.trial;
         error = Printexc.to_string f.Sim.Runner.exn;
       })

let register sup table =
  (match sup with Some c -> c.table <- Some table | None -> ());
  table

let commit sup (r : _ Sim.Runner.folded) =
  (match sup with
  | None -> ()
  | Some c ->
      c.chunks_done <- c.chunks_done + r.Sim.Runner.chunks_done;
      c.chunks_resumed <- c.chunks_resumed + r.Sim.Runner.chunks_resumed;
      c.completed_trials <- c.completed_trials + r.Sim.Runner.completed_trials;
      c.total_trials <- c.total_trials + r.Sim.Runner.total_trials;
      if not (List.mem r.Sim.Runner.engine_used c.engines_rev) then
        c.engines_rev <- r.Sim.Runner.engine_used :: c.engines_rev;
      List.iter (note_chunk_retried c) r.Sim.Runner.retried;
      match r.Sim.Runner.failures with
      | f :: _ -> note_chunk_failed c f
      | [] -> ());
  Sim.Runner.value r

let fold sup ~key ~seed ~trials run =
  let checkpoint =
    match sup with
    | Some ({ ckpt_root = Some root; _ } as c) ->
        let ck =
          Sim.Checkpoint.create ~root ~exp:key ~seed
            ~chunk_size:Sim.Parallel.default_chunk_size ~n:trials
        in
        (* Without --resume the run is fresh by definition: drop any
           stale chunks now so they can neither be consumed nor mix with
           this run's files. *)
        if not c.resume then Sim.Checkpoint.clear ck;
        c.stores_rev <- Sim.Checkpoint.dir ck :: c.stores_rev;
        Some ck
    | Some _ | None -> None
  in
  let field f = Option.bind sup f in
  (* The watchdog closure captures the deadline as an immutable float:
     worker domains polling it never read mutable ctx state. *)
  let cancel =
    Option.map (fun at () -> now () > at) (field (fun c -> c.deadline_at))
  in
  commit sup
    (run ?cancel ?checkpoint
       ?retries:(field (fun c -> c.retry_budget))
       ?fault:(field (fun c -> c.fault))
       ())

let stores ctx = List.rev ctx.stores_rev

let run_experiment ctx ~id f =
  ctx.table <- None;
  ctx.chunks_done <- 0;
  ctx.chunks_resumed <- 0;
  ctx.chunk_retries <- 0;
  ctx.completed_trials <- 0;
  ctx.total_trials <- 0;
  ctx.engines_rev <- [];
  ctx.last_failure <- None;
  ctx.stores_rev <- [];
  ctx.deadline_at <- Option.map (fun d -> now () +. d) ctx.deadline_s;
  let t0 = now () in
  let finish table status =
    (* The per-experiment registry deliberately excludes wall-clock
       quantities ([elapsed_s] stays manifest-only) and the retry count
       ([chunk_retries] stays manifest-only too): every metric here is a
       function of the experiment's deterministic progress counters, so
       the manifest's metrics_digest is [--jobs]-independent — and a
       survivable chaos run digests identically to the fault-free run. *)
    let metrics = Obs.Metrics.create () in
    Obs.Metrics.incr metrics ~by:ctx.chunks_done "supervise.chunks_done";
    Obs.Metrics.incr metrics ~by:ctx.chunks_resumed "supervise.chunks_resumed";
    Obs.Metrics.incr metrics ~by:ctx.completed_trials
      "supervise.completed_trials";
    Obs.Metrics.incr metrics ~by:ctx.total_trials "supervise.total_trials";
    (match status with
    | Completed -> ()
    | Failed _ -> Obs.Metrics.incr metrics "supervise.failures"
    | Timed_out -> Obs.Metrics.incr metrics "supervise.watchdog_fires");
    {
      id;
      table;
      status;
      elapsed_s = now () -. t0;
      chunks_done = ctx.chunks_done;
      chunks_resumed = ctx.chunks_resumed;
      chunk_retries = ctx.chunk_retries;
      completed_trials = ctx.completed_trials;
      total_trials = ctx.total_trials;
      engines = List.rev ctx.engines_rev;
      metrics;
    }
  in
  match f () with
  | table -> finish (Some table) Completed
  | exception Sim.Runner.Cancelled ->
      Obs.Recorder.push ctx.obs_events (Obs.Event.Watchdog { experiment = id });
      finish ctx.table Timed_out
  | exception exn ->
      let backtrace =
        Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
      in
      let message =
        match ctx.last_failure with
        | Some f -> Sim.Runner.pp_chunk_failed f
        | None -> Printexc.to_string exn
      in
      finish ctx.table (Failed { message; backtrace })

let failed r =
  match r.status with Completed -> false | Failed _ | Timed_out -> true

let any_failed results = List.exists failed results

let status_line r =
  match r.status with
  | Completed ->
      Printf.sprintf "%s: completed in %.1f s (%d chunks%s%s)" r.id r.elapsed_s
        r.chunks_done
        (if r.chunks_resumed > 0 then
           Printf.sprintf ", %d resumed" r.chunks_resumed
         else "")
        (if r.chunk_retries > 0 then
           Printf.sprintf ", %d retried" r.chunk_retries
         else "")
  | Timed_out ->
      Printf.sprintf
        "%s: TIMED OUT after %.1f s — partial table above (%d chunks, %d/%d \
         trials completed)"
        r.id r.elapsed_s r.chunks_done r.completed_trials r.total_trials
  | Failed { message; _ } ->
      Printf.sprintf
        "%s: FAILED after %.1f s — %s (%d chunks completed before the \
         failure)"
        r.id r.elapsed_s message r.chunks_done

let status_string = function
  | Completed -> "completed"
  | Failed _ -> "failed"
  | Timed_out -> "timed_out"

let merged_metrics results =
  List.fold_left
    (fun acc r ->
      Obs.Metrics.merge acc (Obs.Metrics.prefixed (r.id ^ ".") r.metrics))
    (Obs.Metrics.create ()) results

let write_manifest ?fault ~path ~profile ~seed ~jobs ~resume ~deadline_s
    results =
  Sim.Fault.trip fault Sim.Fault.Manifest_write ~scope:Sim.Fault.run_scope;
  let dir = Filename.dirname path in
  if dir <> "" && dir <> "." && not (Sys.file_exists dir) then
    Sys.mkdir dir 0o755;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"run_manifest/v1\",\n\
        \  \"profile\": \"%s\",\n\
        \  \"seed\": %d,\n\
        \  \"jobs\": %d,\n\
        \  \"resume\": %b,\n\
        \  \"deadline_s\": %s,\n\
        \  \"experiments\": [\n"
        (Obs.Json.escape profile) seed jobs resume
        (match deadline_s with
        | Some d -> Printf.sprintf "%g" d
        | None -> "null");
      let last = List.length results - 1 in
      List.iteri
        (fun i r ->
          let failure =
            match r.status with
            | Completed -> "null"
            | Timed_out -> "\"timed out\""
            | Failed { message; _ } ->
                Printf.sprintf "\"%s\"" (Obs.Json.escape message)
          in
          let engines =
            String.concat ", "
              (List.map
                 (fun e -> Printf.sprintf "\"%s\"" (Obs.Json.escape e))
                 r.engines)
          in
          Printf.fprintf oc
            "    { \"id\": \"%s\", \"status\": \"%s\", \"elapsed_s\": %.3f, \
             \"chunks_done\": %d, \"chunks_resumed\": %d, \
             \"chunk_retries\": %d, \"completed_trials\": %d, \
             \"total_trials\": %d, \"engines\": [%s], \"metrics_digest\": \
             \"%s\", \"failure\": %s }%s\n"
            (Obs.Json.escape r.id)
            (status_string r.status)
            r.elapsed_s r.chunks_done r.chunks_resumed r.chunk_retries
            r.completed_trials r.total_trials engines
            (Obs.Metrics.digest r.metrics)
            failure
            (if i = last then "" else ","))
        results;
      Printf.fprintf oc "  ],\n  \"failed\": %d\n}\n"
        (List.length (List.filter failed results)))
