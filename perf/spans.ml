(* In-memory span buffer for the traced run.

   A span is {id, parent, trial, layer, start_ns, end_ns}; [id] is the
   span's index in the buffer and [parent] is -1 for a root. Columns are
   flat arrays allocated up front (and doubled if a run outgrows them), so
   recording a span costs two clock reads and a few array stores. Every
   span is recorded from the benchmark's own code around a call into the
   library: nothing inside lib/ is instrumented. Besides the schema's
   columns, each span carries one private integer [arg] (the kill count of
   an engine.step span) that the per-layer metrics classify rounds by. *)

type layer =
  | Pass
  | Trial
  | Inputs
  | Engine_start
  | Engine_step
  | Adversary_plan
  | Engine_outcome
  | Checker
  | Experiment

let layer_name = function
  | Pass -> "pass"
  | Trial -> "trial"
  | Inputs -> "inputs"
  | Engine_start -> "engine.start"
  | Engine_step -> "engine.step"
  | Adversary_plan -> "adversary.plan"
  | Engine_outcome -> "engine.outcome"
  | Checker -> "checker"
  | Experiment -> "experiment"

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [time_ns f] is [f ()] and its duration in ns. *)
let time_ns f =
  let t0 = now_ns () in
  let x = f () in
  (x, now_ns () - t0)

type t = {
  mutable parent : int array;
  mutable trial : int array;
  mutable layer : layer array;
  mutable start_ns : int array;
  mutable end_ns : int array;
  mutable arg : int array;
  mutable len : int;
}

(* A workload's traced replay records a few spans per trial plus two per
   round: 2^18 covers the longest (FloodSet at n = 65536, 65536 rounds)
   without growing. *)
let default_capacity = 1 lsl 18

let create capacity =
  let capacity = max 16 capacity in
  {
    parent = Array.make capacity (-1);
    trial = Array.make capacity 0;
    layer = Array.make capacity Pass;
    start_ns = Array.make capacity 0;
    end_ns = Array.make capacity 0;
    arg = Array.make capacity 0;
    len = 0;
  }

let grow b =
  let cap = 2 * Array.length b.parent in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  b.parent <- extend b.parent (-1);
  b.trial <- extend b.trial 0;
  b.layer <- extend b.layer Pass;
  b.start_ns <- extend b.start_ns 0;
  b.end_ns <- extend b.end_ns 0;
  b.arg <- extend b.arg 0

(* Open a span now; returns its id. *)
let enter b layer ~parent ~trial =
  if b.len = Array.length b.parent then grow b;
  let id = b.len in
  b.len <- id + 1;
  b.parent.(id) <- parent;
  b.trial.(id) <- trial;
  b.layer.(id) <- layer;
  b.arg.(id) <- 0;
  b.start_ns.(id) <- now_ns ();
  id

let leave b id = b.end_ns.(id) <- now_ns ()

let set_arg b id v = b.arg.(id) <- v

(* [span b layer ~parent ~trial f] times [f id] as one span. *)
let span b layer ~parent ~trial f =
  let id = enter b layer ~parent ~trial in
  let r = f id in
  leave b id;
  r

let duration_ns b id = b.end_ns.(id) - b.start_ns.(id)

(* The ids of every span of [layer], in recording order. *)
let ids b layer =
  let acc = ref [] in
  for id = b.len - 1 downto 0 do
    if b.layer.(id) = layer then acc := id :: !acc
  done;
  !acc

let write b path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for id = 0 to b.len - 1 do
        Printf.fprintf oc
          "{\"id\": %d, \"parent\": %d, \"trial\": %d, \"layer\": \"%s\", \
           \"start_ns\": %d, \"end_ns\": %d}\n"
          id b.parent.(id) b.trial.(id)
          (Obs.Json.escape (layer_name b.layer.(id)))
          b.start_ns.(id) b.end_ns.(id)
      done)
