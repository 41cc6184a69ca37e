let default_jobs () = Domain.recommended_domain_count ()

let default_chunk_size = 8

(* Helper domains persist across folds: a fold hands its worker loop to
   parked helpers instead of spawning and joining a domain per fold (a
   quick battery pass runs ~160 multi-chunk folds). Every mutable field
   of [pool] and of a [batch] is touched only under [pool.lock]; the
   lock also publishes what a helper's tasks wrote to the domain that
   waits for its batch, as [Domain.join] did. *)
type batch = {
  mutable left : int;  (* queued or running tasks of this fold *)
  mutable raised : (exn * Printexc.raw_backtrace) option;
}

type task = {
  run : unit -> (exn * Printexc.raw_backtrace) option;
  backtraces : bool;
  batch : batch;
}

type pool = {
  lock : Mutex.t;
  queued : Condition.t;  (* a task was queued *)
  finished : Condition.t;  (* a task finished *)
  tasks : task Queue.t;
  mutable size : int;  (* helpers spawned *)
  mutable idle : int;  (* helpers free for a new task *)
}

let pool =
  {
    lock = Mutex.create ();
    queued = Condition.create ();
    finished = Condition.create ();
    tasks = Queue.create ();
    size = 0;
    idle = 0;
  }

(* A helper's life: take a task, run it with the submitting domain's
   backtrace setting, report back, park again. It never exits. *)
let park pool =
  Mutex.lock pool.lock;
  while true do
    while Queue.is_empty pool.tasks do
      Condition.wait pool.queued pool.lock
    done;
    let task = Queue.pop pool.tasks in
    Mutex.unlock pool.lock;
    Printexc.record_backtrace task.backtraces;
    let raised = task.run () in
    Mutex.lock pool.lock;
    if Option.is_none task.batch.raised then task.batch.raised <- raised;
    task.batch.left <- task.batch.left - 1;
    pool.idle <- pool.idle + 1;
    Condition.broadcast pool.finished
  done

(* Queue [run] for up to [want] helpers: idle ones first, then new ones
   while the pool is below [cap]. A fold that finds every helper busy
   (one nested in a chunk body) gets fewer, possibly none; its result is
   the same at any worker count, and nothing ever waits for a helper
   that is not free, so nesting cannot deadlock. *)
let hire ~want ~cap run =
  Mutex.lock pool.lock;
  let idle = Stdlib.min want pool.idle in
  let fresh = Stdlib.max 0 (Stdlib.min (want - idle) (cap - pool.size)) in
  pool.idle <- pool.idle - idle;
  pool.size <- pool.size + fresh;
  Mutex.unlock pool.lock;
  (* A domain that cannot be spawned only means fewer workers. *)
  let spawned = ref 0 in
  (try
     while !spawned < fresh do
       (* detlint's R4 inspects this closure: it captures only [pool],
          whose mutable state is lock-guarded. *)
       ignore (Domain.spawn (fun () -> park pool) : unit Domain.t);
       incr spawned
     done
   with Failure _ -> ());
  let batch = { left = idle + !spawned; raised = None } in
  let task = { run; backtraces = Printexc.backtrace_status (); batch } in
  Mutex.lock pool.lock;
  pool.size <- pool.size - (fresh - !spawned);
  for _ = 1 to batch.left do
    Queue.push task pool.tasks
  done;
  Condition.broadcast pool.queued;
  Mutex.unlock pool.lock;
  batch

let await batch =
  Mutex.lock pool.lock;
  while batch.left > 0 do
    Condition.wait pool.finished pool.lock
  done;
  Mutex.unlock pool.lock;
  batch.raised

(* Worker 0 is the calling domain, so [jobs = 1] never uses a helper.
   [stop] is the poison flag: it is raised by the first task that
   reports failure and by the cooperative [cancel] hook; workers re-check
   it before claiming, so an in-flight task always drains to completion
   but no new task starts after poisoning. An exception out of a worker
   ([run] and [cancel] alike) poisons the pool too and is re-raised once
   every helper is done, the caller's own first. *)
let run_workers ~jobs ~tasks ~cancel run =
  let next = Atomic.make 0 in
  let stop = Atomic.make false in
  let cancelled = Atomic.make false in
  let worker () =
    let rec loop () =
      if not (Atomic.get stop) then
        if cancel () then begin
          Atomic.set cancelled true;
          Atomic.set stop true
        end
        else begin
          let k = Atomic.fetch_and_add next 1 in
          if k < tasks then begin
            if not (run k) then Atomic.set stop true;
            loop ()
          end
        end
    in
    match loop () with
    | () -> None
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Atomic.set stop true;
        Some (e, bt)
  in
  let want = if jobs <= 1 then 0 else Stdlib.min (jobs - 1) (tasks - 1) in
  let raised =
    if want = 0 then worker ()
    else begin
      let batch = hire ~want ~cap:(jobs - 1) worker in
      let mine = worker () in
      let theirs = await batch in
      match mine with Some _ -> mine | None -> theirs
    end
  in
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) raised;
  Atomic.get cancelled
