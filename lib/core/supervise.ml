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

(* One experiment's supervision state: [run_experiment] replaces it
   whole, so nothing of one experiment leaks into the next. *)
type exp = {
  deadline_at : float option;
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
}

type ctx = {
  deadline_s : float option;
  ckpt_root : string option;
  resume : bool;
  retries : int;
  fault : Sim.Fault.plan;
  obs_events : Obs.Recorder.t;
      (* Run-level supervision events (watchdog fires, chunk retries and
         terminal chunk failures), accumulated across experiments for
         [--events-out]. *)
  mutable exp : exp;
}

let fresh_exp deadline_at =
  { deadline_at; table = None; chunks_done = 0; chunks_resumed = 0;
    chunk_retries = 0; completed_trials = 0; total_trials = 0;
    engines_rev = []; last_failure = None; stores_rev = [] }

let create ?deadline_s ?checkpoints ?(resume = false) ?(retries = 0)
    ?(fault = []) () =
  if retries < 0 then invalid_arg "Supervise.create: retries";
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
    retries;
    fault;
    obs_events = Obs.Recorder.create ();
    exp = fresh_exp None;
  }

let events ctx = Obs.Recorder.events ctx.obs_events

(* A retried (and by construction recovered) chunk attempt: one
   Chunk_retry event per failed pass, plus the per-experiment retry
   count. The count stays out of the metrics registry on purpose — a
   survivable chaos run must keep its registry byte-identical to the
   fault-free run's. *)
let note_chunk_retried ctx (f : Sim.Runner.chunk_failed) =
  ctx.exp.chunk_retries <- ctx.exp.chunk_retries + 1;
  Obs.Recorder.push ctx.obs_events
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
let note_chunk_failed ctx (f : Sim.Runner.chunk_failed) =
  ctx.exp.last_failure <- Some f;
  Obs.Recorder.push ctx.obs_events
    (Obs.Event.Chunk_failed
       {
         chunk = f.Sim.Runner.chunk;
         attempts = f.Sim.Runner.attempt + 1;
         trial = f.Sim.Runner.trial;
         error = Printexc.to_string f.Sim.Runner.exn;
       })

let register ctx table =
  ctx.exp.table <- Some table;
  table

let commit ctx (r : _ Sim.Runner.folded) =
  let e = ctx.exp in
  e.chunks_done <- e.chunks_done + r.Sim.Runner.chunks_done;
  e.chunks_resumed <- e.chunks_resumed + r.Sim.Runner.chunks_resumed;
  e.completed_trials <- e.completed_trials + r.Sim.Runner.completed_trials;
  e.total_trials <- e.total_trials + r.Sim.Runner.total_trials;
  if not (List.mem r.Sim.Runner.engine_used e.engines_rev) then
    e.engines_rev <- r.Sim.Runner.engine_used :: e.engines_rev;
  List.iter (note_chunk_retried ctx) r.Sim.Runner.retried;
  (match r.Sim.Runner.failures with
  | f :: _ -> note_chunk_failed ctx f
  | [] -> ());
  Sim.Runner.value r

let fold ctx ~key ~seed ~trials run =
  let checkpoint =
    Option.map
      (fun root ->
        let ck =
          Sim.Checkpoint.create ~root ~exp:key ~seed
            ~chunk_size:Sim.Parallel.default_chunk_size ~n:trials
        in
        (* Without --resume the run is fresh by definition: drop any
           stale chunks now so they can neither be consumed nor mix with
           this run's files. *)
        if not ctx.resume then Sim.Checkpoint.clear ck;
        ctx.exp.stores_rev <- Sim.Checkpoint.dir ck :: ctx.exp.stores_rev;
        ck)
      ctx.ckpt_root
  in
  (* The watchdog closure captures the deadline as an immutable float:
     worker domains polling it never read mutable ctx state. *)
  let cancel =
    match ctx.exp.deadline_at with
    | Some at -> fun () -> now () > at
    | None -> Sim.Runner.unguarded.cancel
  in
  let { retries; fault; _ } = ctx in
  commit ctx (run { Sim.Runner.cancel; checkpoint; retries; fault })

let stores ctx = List.rev ctx.exp.stores_rev

let run_experiment ctx ~id f =
  let e = fresh_exp (Option.map (fun d -> now () +. d) ctx.deadline_s) in
  ctx.exp <- e;
  let t0 = now () in
  let finish table status =
    (* The per-experiment registry deliberately excludes wall-clock
       quantities ([elapsed_s] stays manifest-only) and the retry count
       ([chunk_retries] stays manifest-only too): every metric here is a
       function of the experiment's deterministic progress counters, so
       the registry is [--jobs]-independent — and a survivable chaos run's
       is identical to the fault-free run's. *)
    let metrics = Obs.Metrics.create () in
    Obs.Metrics.incr metrics ~by:e.chunks_done "supervise.chunks_done";
    Obs.Metrics.incr metrics ~by:e.chunks_resumed "supervise.chunks_resumed";
    Obs.Metrics.incr metrics ~by:e.completed_trials
      "supervise.completed_trials";
    Obs.Metrics.incr metrics ~by:e.total_trials "supervise.total_trials";
    (match status with
    | Completed -> ()
    | Failed _ -> Obs.Metrics.incr metrics "supervise.failures"
    | Timed_out -> Obs.Metrics.incr metrics "supervise.watchdog_fires");
    {
      id;
      table;
      status;
      elapsed_s = now () -. t0;
      chunks_done = e.chunks_done;
      chunks_resumed = e.chunks_resumed;
      chunk_retries = e.chunk_retries;
      completed_trials = e.completed_trials;
      total_trials = e.total_trials;
      engines = List.rev e.engines_rev;
      metrics;
    }
  in
  match f () with
  | table -> finish (Some table) Completed
  | exception Sim.Runner.Cancelled ->
      Obs.Recorder.push ctx.obs_events (Obs.Event.Watchdog { experiment = id });
      finish e.table Timed_out
  | exception exn ->
      let backtrace =
        Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
      in
      let message =
        match e.last_failure with
        | Some f -> Sim.Runner.pp_chunk_failed f
        | None -> Printexc.to_string exn
      in
      finish e.table (Failed { message; backtrace })

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

let table_digest (r : result) =
  Option.map
    (fun t -> Digest.to_hex (Digest.string (Stats.Table.render t)))
    r.table

let write_manifest ?fault ~path ~profile ~seed ~jobs ~resume ~deadline_s
    results =
  Sim.Fault.trip fault Sim.Fault.Manifest_write ~scope:Sim.Fault.run_scope;
  let open Obs.Json in
  let option f = Option.fold ~none:Null ~some:f in
  let experiment r =
    Obj
      [ ("id", String r.id); ("status", String (status_string r.status));
        ("elapsed_s", Num (Printf.sprintf "%.3f" r.elapsed_s));
        ("chunks_done", Int r.chunks_done);
        ("chunks_resumed", Int r.chunks_resumed);
        ("chunk_retries", Int r.chunk_retries);
        ("completed_trials", Int r.completed_trials);
        ("total_trials", Int r.total_trials);
        ("engines", List (List.map (fun e -> String e) r.engines));
        ("table_digest", option (fun d -> String d) (table_digest r));
        ( "failure",
          match r.status with
          | Completed -> Null
          | Timed_out -> String "timed out"
          | Failed { message; _ } -> String message ) ]
  in
  write ~path
    (to_file
       (Obj
          [ ("schema", String "run_manifest/v2"); ("profile", String profile);
            ("seed", Int seed); ("jobs", Int jobs); ("resume", Bool resume);
            ( "deadline_s",
              option (fun d -> Num (Printf.sprintf "%g" d)) deadline_s );
            ("experiments", List (List.map experiment results));
            ("failed", Int (List.length (List.filter failed results))) ]))
