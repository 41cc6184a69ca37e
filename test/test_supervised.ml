(* Tests for the supervision layer: structured failure capture and partial
   salvage in Sim.Runner.fold, the pool it runs on, the chunk checkpoint
   store, exact checkpoint/resume through Sim.Runner, and Core.Supervise's
   per-experiment watchdog, failure records and run manifest. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Every checkpoint store in these tests lives under a per-test temp root,
   removed on teardown — `dune runtest` must leave no ckpt_test_* debris in
   the repository root. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_root name f =
  let dir = Filename.temp_dir "ckpt_test_" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> f (Filename.concat dir name))

let plan_of_string_exn s =
  match Sim.Fault.plan_of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad plan %S: %s" s e

(* List-of-indices accumulator: the merged value spells out exactly which
   indices were folded in, in merge order. *)
let indices_fold ?jobs ?cancel ?checkpoint ?retries ?fault ~chunk_size ~n
    ~crash_at () =
  Sim.Runner.fold ?jobs ~chunk_size ?cancel ?checkpoint ?retries ?fault
    ~engine:"indices" ~trials:n
    ~create:(fun () -> ref [])
    ~merge:(fun a b ->
      a := !a @ !b;
      a)
    (fun ~index _ acc ->
      if List.mem index crash_at then failwith (Printf.sprintf "boom %d" index);
      acc := !acc @ [ index ])

(* --- Runner.fold: failure capture & salvage ---------------------------- *)

let test_crash_structured () =
  (* Sequential workers make the poisoning deterministic: chunks 0-2
     complete, chunk 3 (index 13) fails, chunks 4-9 never start. *)
  let s = indices_fold ~jobs:1 ~chunk_size:4 ~n:40 ~crash_at:[ 13 ] () in
  check_int "chunks_total" 10 s.Sim.Runner.chunks_total;
  check_int "chunks_done" 3 s.Sim.Runner.chunks_done;
  check_int "chunks_resumed" 0 s.Sim.Runner.chunks_resumed;
  check_bool "not cancelled" false s.Sim.Runner.cancelled;
  (match s.Sim.Runner.failures with
  | [ f ] ->
      check_int "failing chunk" 3 f.Sim.Runner.chunk;
      check_int "failing trial" 13 f.Sim.Runner.trial;
      check_bool "original exception" true
        (f.Sim.Runner.exn = Failure "boom 13");
      check_string "pp_chunk_failed" "chunk 3, trial 13: Failure(\"boom 13\")"
        (Sim.Runner.pp_chunk_failed f)
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs));
  match s.Sim.Runner.partial with
  | Some v -> Alcotest.(check (list int)) "salvaged prefix" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ] !v
  | None -> Alcotest.fail "partial value missing"

let test_crash_salvage_parallel () =
  (* Under real parallelism the set of completed chunks is timing-dependent,
     but the invariants are not: the failing chunk is captured exactly,
     nothing from it is merged, and the merge stays in chunk order. *)
  let s = indices_fold ~jobs:4 ~chunk_size:4 ~n:40 ~crash_at:[ 13 ] () in
  check_bool "not cancelled" false s.Sim.Runner.cancelled;
  (match s.Sim.Runner.failures with
  | [ f ] ->
      check_int "failing chunk" 3 f.Sim.Runner.chunk;
      check_int "failing trial" 13 f.Sim.Runner.trial
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs));
  let v = match s.Sim.Runner.partial with Some v -> !v | None -> [] in
  check_int "value covers exactly the completed chunks"
    (4 * s.Sim.Runner.chunks_done)
    (List.length v);
  check_bool "nothing from the failed chunk leaks in" true
    (List.for_all (fun i -> i < 12 || i > 15) v);
  check_bool "merge order is chunk order" true (List.sort compare v = v)

let test_checkpoint_fault_recorded () =
  (* A checkpoint fault is the chunk's failure. A raising store's [trial]
     is one past the chunk, so it cannot be mistaken for a trial index,
     and the chunk is not durable, so it does not merge; a raising load's
     is the chunk's first index, no trial having run. *)
  with_temp_root "ckpt_test_fault" @@ fun root ->
  let run plan =
    let checkpoint =
      Sim.Checkpoint.create ~root ~exp:plan ~seed:0 ~chunk_size:4 ~n:16
    in
    indices_fold ~jobs:1 ~chunk_size:4 ~n:16 ~crash_at:[] ~checkpoint
      ~fault:(plan_of_string_exn plan) ()
  in
  let only_failure (s : _ Sim.Runner.folded) =
    match s.Sim.Runner.failures with
    | [ f ] -> f
    | fs ->
        Alcotest.failf "expected exactly one failure, got %d" (List.length fs)
  in
  let injected site scope (f : Sim.Runner.chunk_failed) =
    f.Sim.Runner.exn
    = Sim.Fault.Injected { site; scope; kind = Sim.Fault.Crash }
  in
  let s = run "store@2#0:raise" in
  check_int "chunks_done" 2 s.Sim.Runner.chunks_done;
  let f = only_failure s in
  check_int "failing chunk" 2 f.Sim.Runner.chunk;
  check_int "trial is one past the chunk" 12 f.Sim.Runner.trial;
  check_bool "store's exception" true (injected Sim.Fault.Checkpoint_store 2 f);
  (match s.Sim.Runner.partial with
  | Some v -> Alcotest.(check (list int)) "only durable chunks merged" [ 0; 1; 2; 3; 4; 5; 6; 7 ] !v
  | None -> Alcotest.fail "partial value missing");
  let s = run "load@1#0:raise" in
  check_int "chunks_done" 1 s.Sim.Runner.chunks_done;
  let f = only_failure s in
  check_int "failing chunk" 1 f.Sim.Runner.chunk;
  check_int "trial is the chunk's first index" 4 f.Sim.Runner.trial;
  check_bool "load's exception" true (injected Sim.Fault.Checkpoint_load 1 f)

(* --- Runner.fold: retry budget ------------------------------------------ *)

let test_retry_recovers () =
  (* An armed fault on chunk 1's third work call (index 6) fires exactly
     once — hit counters persist across retries — so the retried pass
     runs clean and the final value is the complete fold. *)
  let fault = plan_of_string_exn "body@1#2:raise" in
  let s =
    indices_fold ~jobs:1 ~chunk_size:4 ~n:16 ~crash_at:[] ~retries:1 ~fault ()
  in
  check_bool "no terminal failures" true (s.Sim.Runner.failures = []);
  check_int "all chunks done" 4 s.Sim.Runner.chunks_done;
  (match s.Sim.Runner.retried with
  | [ f ] ->
      check_int "retried chunk" 1 f.Sim.Runner.chunk;
      check_int "retried trial" 6 f.Sim.Runner.trial;
      check_int "retried attempt" 0 f.Sim.Runner.attempt;
      check_bool "injected exception preserved" true
        (match f.Sim.Runner.exn with
        | Sim.Fault.Injected
            { site = Sim.Fault.Chunk_body; scope = 1; kind = Sim.Fault.Crash }
          ->
            true
        | _ -> false);
      check_string "pp renders the injected fault"
        "chunk 1, trial 6: injected fault: body@1:raise"
        (Sim.Runner.pp_chunk_failed f)
  | fs ->
      Alcotest.failf "expected exactly one retried attempt, got %d"
        (List.length fs));
  match s.Sim.Runner.partial with
  | Some v ->
      Alcotest.(check (list int))
        "retried fold is complete"
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]
        !v
  | None -> Alcotest.fail "value missing"

let test_retry_budget_exhausted () =
  (* An every-hit arm defeats any budget: [retries] extra passes all land
     in [retried], the terminal attempt in [failures] with the original
     exception, and the chunk contributes nothing. *)
  let fault = plan_of_string_exn "body@1#*:raise" in
  let s =
    indices_fold ~jobs:1 ~chunk_size:4 ~n:16 ~crash_at:[] ~retries:2 ~fault ()
  in
  (match s.Sim.Runner.failures with
  | [ f ] ->
      check_int "terminal chunk" 1 f.Sim.Runner.chunk;
      check_int "terminal attempt is the budget" 2 f.Sim.Runner.attempt
  | fs -> Alcotest.failf "expected one terminal failure, got %d" (List.length fs));
  Alcotest.(check (list int))
    "every non-terminal attempt recorded" [ 0; 1 ]
    (List.map (fun f -> f.Sim.Runner.attempt) s.Sim.Runner.retried);
  check_bool "retried attempts are all chunk 1" true
    (List.for_all (fun f -> f.Sim.Runner.chunk = 1) s.Sim.Runner.retried);
  (* Only a terminal failure poisons the pool: with one worker, chunk 0
     completed before the budget ran out and chunks 2-3 never started. *)
  match s.Sim.Runner.partial with
  | Some v ->
      Alcotest.(check (list int))
        "failed chunk contributes nothing" [ 0; 1; 2; 3 ] !v
  | None -> Alcotest.fail "salvaged value missing"

let test_retries_validated () =
  Alcotest.check_raises "negative retries rejected"
    (Invalid_argument "Runner.fold: retries") (fun () ->
      ignore
        (indices_fold ~jobs:1 ~chunk_size:4 ~n:8 ~crash_at:[] ~retries:(-1) ()))

let test_deadline_validated () =
  (* A NaN deadline would never fire; neither it nor an infinite one is
     JSON in the manifest. A past (negative) deadline stays legal. *)
  List.iter
    (fun d ->
      Alcotest.check_raises
        (Printf.sprintf "deadline %g rejected" d)
        (Invalid_argument "Supervise.create: deadline_s") (fun () ->
          ignore (Core.Supervise.create ~deadline_s:d ())))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  ignore (Core.Supervise.create ~deadline_s:(-1.0) ())

(* --- Runner.fold: cooperative cancellation ------------------------------ *)

let test_cancel_before_first_chunk () =
  let s =
    indices_fold ~jobs:1 ~chunk_size:4 ~n:40 ~crash_at:[]
      ~cancel:(fun () -> true)
      ()
  in
  check_bool "cancelled" true s.Sim.Runner.cancelled;
  check_int "no chunks ran" 0 s.Sim.Runner.chunks_done;
  check_bool "no failures" true (s.Sim.Runner.failures = []);
  check_bool "no value" true (s.Sim.Runner.partial = None)

let test_cancel_at_chunk_boundary () =
  (* The watchdog is polled before claiming each chunk, never mid-chunk:
     with one worker, firing on the third poll stops after exactly two
     whole chunks. *)
  let polls = ref 0 in
  let cancel () =
    incr polls;
    !polls > 2
  in
  let s = indices_fold ~jobs:1 ~chunk_size:4 ~n:40 ~crash_at:[] ~cancel () in
  check_bool "cancelled" true s.Sim.Runner.cancelled;
  check_int "two whole chunks" 2 s.Sim.Runner.chunks_done;
  match s.Sim.Runner.partial with
  | Some v -> Alcotest.(check (list int)) "partial prefix" [ 0; 1; 2; 3; 4; 5; 6; 7 ] !v
  | None -> Alcotest.fail "partial value missing"

(* --- the persistent worker pool ---------------------------------------- *)

(* Helper domains outlive their folds, so these check that a fold leaves
   the pool as it found it whatever happened inside. [clean ()] is a
   plain fold whose result every test compares against [jobs = 1]. *)
let clean ?(jobs = 2) () =
  match
    (indices_fold ~jobs ~chunk_size:3 ~n:50 ~crash_at:[] ()).Sim.Runner.partial
  with
  | Some v -> !v
  | None -> Alcotest.fail "clean fold lost its value"

let all_indices = List.init 50 Fun.id

let test_pool_nested_fold () =
  (* Every chunk body runs a jobs=2 fold of its own while the outer fold
     holds the pool's helper: the inner folds must finish (on fewer
     workers) and the whole equals the sequential fold. *)
  let nested jobs =
    Sim.Runner.value
      (Sim.Runner.fold ~jobs ~chunk_size:2 ~engine:"outer" ~trials:12
         ~create:(fun () -> ref [])
         ~merge:(fun a b ->
           a := !a @ !b;
           a)
         (fun ~index:i _ acc ->
           let inner =
             Sim.Runner.value
               (Sim.Runner.fold ~jobs ~chunk_size:3 ~engine:"inner"
                  ~trials:(10 + i)
                  ~create:(fun () -> ref 0)
                  ~merge:(fun a b ->
                    a := !a + !b;
                    a)
                  (fun ~index:k _ sum -> sum := !sum + (i * k)))
           in
           acc := !acc @ [ !inner ]))
  in
  Alcotest.(check (list int)) "nested jobs=2 = jobs=1" !(nested 1) !(nested 2);
  Alcotest.(check (list int)) "pool usable after nesting" all_indices (clean ())

(* Spin until [flag] counts [k] arrivals; bounded, so a pool that never
   runs the other side fails the test instead of hanging it. *)
let rendezvous flag k =
  Atomic.incr flag;
  let spins = ref 0 in
  while Atomic.get flag < k && !spins < 100_000_000 do
    incr spins;
    Domain.cpu_relax ()
  done

let test_pool_worker_failure () =
  (* Chunks 0 and 1 wait for each other before raising, so they run on
     different workers at jobs=2: one of the two failures comes from the
     pooled helper, which must report it in full and stay usable. *)
  let was = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  let met = Atomic.make 0 in
  let s =
    Fun.protect
      ~finally:(fun () -> Printexc.record_backtrace was)
      (fun () ->
        Sim.Runner.fold ~jobs:2 ~chunk_size:4 ~engine:"pool" ~trials:40
          ~create:(fun () -> ref [])
          ~merge:(fun a b ->
            a := !b @ !a;
            a)
          (fun ~index:i _ acc ->
            if i = 1 || i = 5 then begin
              rendezvous met 2;
              failwith (Printf.sprintf "boom %d" i)
            end;
            acc := i :: !acc))
  in
  check_int "both sides met" 2 (Atomic.get met);
  (match s.Sim.Runner.failures with
  | [ f0; f1 ] ->
      check_int "first failing chunk" 0 f0.Sim.Runner.chunk;
      check_int "its trial" 1 f0.Sim.Runner.trial;
      check_int "second failing chunk" 1 f1.Sim.Runner.chunk;
      check_int "its trial" 5 f1.Sim.Runner.trial;
      List.iter
        (fun f ->
          check_bool "exception kept" true
            (f.Sim.Runner.exn
            = Failure (Printf.sprintf "boom %d" f.Sim.Runner.trial));
          check_bool "backtrace kept" true
            (Printexc.raw_backtrace_length f.Sim.Runner.backtrace > 0))
        [ f0; f1 ]
  | fs -> Alcotest.failf "expected chunks 0 and 1 to fail, got %d failures"
            (List.length fs));
  Alcotest.(check (list int)) "next fold runs clean" all_indices (clean ())

let test_pool_back_to_back () =
  let reference = clean ~jobs:1 () in
  for k = 1 to 200 do
    if clean () <> reference then Alcotest.failf "fold %d differs" k
  done

let test_pool_cancel_mid_fold () =
  (* The hook fires on its fifth poll (shared by both workers), so the
     fold stops early; then it raises instead, which must surface from
     the fold. Either way the pool serves the next fold cleanly. *)
  let polls = Atomic.make 0 in
  let s =
    indices_fold ~jobs:2 ~chunk_size:3 ~n:50 ~crash_at:[]
      ~cancel:(fun () -> Atomic.fetch_and_add polls 1 >= 4)
      ()
  in
  check_bool "cancelled" true s.Sim.Runner.cancelled;
  check_bool "stopped early" true
    (s.Sim.Runner.chunks_done < s.Sim.Runner.chunks_total);
  Alcotest.(check (list int)) "pool usable after a cancel" all_indices (clean ());
  let polls = Atomic.make 0 in
  Alcotest.check_raises "a raising hook surfaces" (Failure "hook") (fun () ->
      ignore
        (indices_fold ~jobs:2 ~chunk_size:3 ~n:50 ~crash_at:[]
           ~cancel:(fun () ->
             if Atomic.fetch_and_add polls 1 >= 4 then failwith "hook";
             false)
           ()));
  Alcotest.(check (list int)) "pool usable after a raising hook" all_indices
    (clean ())

(* --- checkpoint store -------------------------------------------------- *)

let test_checkpoint_roundtrip () =
  with_temp_root "ckpt_test_roundtrip" @@ fun root ->
  let ck =
    Sim.Checkpoint.create ~root ~exp:"unit" ~seed:7
      ~chunk_size:4 ~n:16
  in
  check_bool "missing chunk loads None" true
    ((Sim.Checkpoint.load ck ~chunk:0 : float option) = None);
  Sim.Checkpoint.store ck ~chunk:2 (3.5, [ 1; 2; 3 ]);
  (match (Sim.Checkpoint.load ck ~chunk:2 : (float * int list) option) with
  | Some v -> check_bool "round-trips exactly" true (v = (3.5, [ 1; 2; 3 ]))
  | None -> Alcotest.fail "stored chunk did not load");
  Sim.Checkpoint.clear ck;
  check_bool "clear removes the store" false
    (Sys.file_exists (Sim.Checkpoint.dir ck))

let test_checkpoint_key_mismatch () =
  (* Same directory, different key (n differs): a record written under
     one configuration is alien to the other and loads as None — and,
     since nothing is ever deleted from the journal, the alien read does
     not consume the original, and the two keys' records coexist. *)
  with_temp_root "ckpt_test_key" @@ fun root ->
  let mk n = Sim.Checkpoint.create ~root ~exp:"e" ~seed:3 ~chunk_size:4 ~n in
  let ck16 = mk 16 and ck24 = mk 24 in
  check_string "same directory" (Sim.Checkpoint.dir ck16)
    (Sim.Checkpoint.dir ck24);
  Sim.Checkpoint.store ck16 ~chunk:0 [ 42 ];
  check_bool "mismatched key rejected" true
    ((Sim.Checkpoint.load ck24 ~chunk:0 : int list option) = None);
  check_bool "alien read leaves the original" true
    ((Sim.Checkpoint.load ck16 ~chunk:0 : int list option) = Some [ 42 ]);
  Sim.Checkpoint.store ck24 ~chunk:0 [ 99 ];
  check_bool "each key loads its own record" true
    ((Sim.Checkpoint.load (mk 16) ~chunk:0 : int list option) = Some [ 42 ]
    && (Sim.Checkpoint.load (mk 24) ~chunk:0 : int list option) = Some [ 99 ]);
  Sim.Checkpoint.clear ck16

let test_checkpoint_sanitized_dir () =
  with_temp_root "ckpt_test_san" @@ fun root ->
  let ck =
    Sim.Checkpoint.create ~root ~exp:"e5;n=24/gen=split"
      ~seed:1 ~chunk_size:8 ~n:10
  in
  let base = Filename.basename (Sim.Checkpoint.dir ck) in
  check_bool "store name survives exp punctuation" true
    (String.for_all
       (fun ch ->
         match ch with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       base)

let test_checkpoint_collision_distinct () =
  (* Regression: sanitization is lossy — "e1/a" and "e1 a" both sanitize
     to "e1_a" and used to share (and clobber) one store directory. The
     short raw-id hash in the directory name keeps them apart. *)
  with_temp_root "ckpt_test_collide" @@ fun root ->
  let mk exp =
    Sim.Checkpoint.create ~root ~exp ~seed:1 ~chunk_size:4 ~n:8
  in
  let ck_slash = mk "e1/a" and ck_space = mk "e1 a" in
  check_bool "lossy-sanitizing ids get distinct directories" true
    (Sim.Checkpoint.dir ck_slash <> Sim.Checkpoint.dir ck_space);
  (* And the stores really are independent: each loads only its own data. *)
  Sim.Checkpoint.store ck_slash ~chunk:0 [ 1 ];
  Sim.Checkpoint.store ck_space ~chunk:0 [ 2 ];
  check_bool "slash store unclobbered" true
    ((Sim.Checkpoint.load ck_slash ~chunk:0 : int list option) = Some [ 1 ]);
  check_bool "space store unclobbered" true
    ((Sim.Checkpoint.load ck_space ~chunk:0 : int list option) = Some [ 2 ]);
  Sim.Checkpoint.clear ck_slash;
  Sim.Checkpoint.clear ck_space

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let journal ck = Filename.concat (Sim.Checkpoint.dir ck) "journal"

let file_size path = (Unix.stat path).Unix.st_size

let test_checkpoint_torn_tail () =
  (* A run killed mid-append leaves half a record at the journal's tail:
     the chunks before it still resume, the torn one loads None, and a
     record appended after the torn bytes (the resumed run's) loads. *)
  with_temp_root "ckpt_test_torn" @@ fun root ->
  let mk () =
    Sim.Checkpoint.create ~root ~exp:"torn" ~seed:2 ~chunk_size:4 ~n:12
  in
  let load ck c : int list option = Sim.Checkpoint.load ck ~chunk:c in
  let ck = mk () in
  Sim.Checkpoint.store ck ~chunk:0 [ 0 ];
  Sim.Checkpoint.store ck ~chunk:1 [ 1 ];
  let intact = file_size (journal ck) in
  Sim.Checkpoint.store ck ~chunk:2 [ 2; 2; 2 ];
  Sim.Checkpoint.close ck;
  let j = read_file (journal ck) in
  write_file (journal ck)
    (String.sub j 0 (intact + ((String.length j - intact) / 2)));
  let resumed = mk () in
  check_bool "chunks before the torn tail resume" true
    (load resumed 0 = Some [ 0 ] && load resumed 1 = Some [ 1 ]);
  check_bool "torn chunk loads None" true (load resumed 2 = None);
  Sim.Checkpoint.store resumed ~chunk:2 [ 2; 2; 2 ];
  Sim.Checkpoint.close resumed;
  check_bool "a record after the torn bytes loads" true
    (load (mk ()) 2 = Some [ 2; 2; 2 ]);
  Sim.Checkpoint.clear resumed

let test_checkpoint_corrupt_records () =
  (* Every way a record can rot in the journal — a flipped payload bit, a
     truncated payload, an alien key, a flipped chunk index — must load
     as None (recompute), never as a wrong value, and must not hide the
     records after it. The bad bytes stay in the journal. *)
  with_temp_root "ckpt_test_corrupt" @@ fun root ->
  let mk () =
    Sim.Checkpoint.create ~root ~exp:"rot" ~seed:3 ~chunk_size:4 ~n:16
  in
  let check_rot label corrupt =
    let ck = mk () in
    Sim.Checkpoint.store ck ~chunk:0 [ 1; 2; 3 ];
    let r0 = file_size (journal ck) in
    Sim.Checkpoint.store ck ~chunk:1 [ 4 ];
    Sim.Checkpoint.close ck;
    let j = read_file (journal ck) in
    (* Record 0 is "\n<key>\n<chunk> <len> <md5>\n<payload>". *)
    let meta = String.index_from j 1 '\n' + 1 in
    let payload = String.index_from j meta '\n' + 1 in
    let bad = corrupt j ~meta ~payload ~r0 in
    write_file (journal ck) bad;
    let fresh = mk () in
    check_bool (label ^ ": loads None") true
      ((Sim.Checkpoint.load fresh ~chunk:0 : int list option) = None);
    check_bool (label ^ ": the next record still loads") true
      ((Sim.Checkpoint.load fresh ~chunk:1 : int list option) = Some [ 4 ]);
    check_bool (label ^ ": no other chunk gains it") true
      ((Sim.Checkpoint.load fresh ~chunk:2 : int list option) = None);
    check_bool (label ^ ": bad bytes kept") true
      (read_file (journal ck) = bad);
    Sim.Checkpoint.clear fresh
  in
  let flip j i =
    let b = Bytes.of_string j in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
    Bytes.to_string b
  in
  check_rot "bit-flipped payload" (fun j ~meta:_ ~payload ~r0 ->
      flip j ((payload + r0) / 2));
  check_rot "truncated payload" (fun j ~meta:_ ~payload ~r0 ->
      let cut = (payload + r0) / 2 in
      String.sub j 0 cut ^ String.sub j r0 (String.length j - r0));
  check_rot "alien key" (fun j ~meta ~payload:_ ~r0:_ ->
      let k = String.sub j 0 meta in
      let i = String.length k - String.length "fmt=5\n" in
      String.sub j 0 i ^ "fmt=4"
      ^ String.sub j (i + 5) (String.length j - i - 5));
  check_rot "chunk index flipped" (fun j ~meta ~payload:_ ~r0:_ ->
      String.sub j 0 meta ^ "2"
      ^ String.sub j (meta + 1) (String.length j - meta - 1));
  (* A clean re-store wins the chunk back: the latest verified record,
     both through the handle's index and through a fresh read. *)
  let ck = mk () in
  check_bool "index read before the stores" true
    ((Sim.Checkpoint.load ck ~chunk:0 : int list option) = None);
  Sim.Checkpoint.store ck ~chunk:0 [ 9 ];
  Sim.Checkpoint.store ck ~chunk:0 [ 1; 2; 3 ];
  check_bool "same handle sees its store" true
    ((Sim.Checkpoint.load ck ~chunk:0 : int list option) = Some [ 1; 2; 3 ]);
  Sim.Checkpoint.close ck;
  check_bool "latest verified record wins" true
    ((Sim.Checkpoint.load (mk ()) ~chunk:0 : int list option)
    = Some [ 1; 2; 3 ]);
  Sim.Checkpoint.clear ck

let test_checkpoint_old_format_debris () =
  (* Files an fmt-4 binary left in the store directory (chunk files, a
     stale temporary, a quarantine) are not the journal: loads ignore
     them and [clear] removes them with the directory. *)
  with_temp_root "ckpt_test_debris" @@ fun root ->
  let ck =
    Sim.Checkpoint.create ~root ~exp:"debris" ~seed:2 ~chunk_size:4 ~n:8
  in
  Sim.Checkpoint.store ck ~chunk:1 [ 7 ];
  let good = Marshal.to_string [ 5 ] [] in
  List.iter
    (fun (f, s) -> write_file (Filename.concat (Sim.Checkpoint.dir ck) f) s)
    [
      ( "chunk-0",
        "exp=debris;seed=2;chunk_size=4;n=8;fmt=4\n"
        ^ Digest.to_hex (Digest.string good)
        ^ "\n" ^ good );
      ("chunk-3.tmp", "half-written");
      ("chunk-2.corrupt", "old quarantined bytes");
    ];
  check_bool "fmt-4 chunk file ignored" true
    ((Sim.Checkpoint.load ck ~chunk:0 : int list option) = None);
  check_bool "journal record loads" true
    ((Sim.Checkpoint.load ck ~chunk:1 : int list option) = Some [ 7 ]);
  Sim.Checkpoint.clear ck;
  check_bool "clear removes the debris and the store" false
    (Sys.file_exists (Sim.Checkpoint.dir ck))

(* --- Sim.Runner: supervised runs --------------------------------------- *)

let summary_key (s : Sim.Runner.summary) =
  ( s.Sim.Runner.trials,
    Stats.Welford.mean s.Sim.Runner.rounds,
    Stats.Welford.variance s.Sim.Runner.rounds,
    Stats.Histogram.bins s.Sim.Runner.rounds_hist,
    Stats.Welford.mean s.Sim.Runner.kills,
    (s.Sim.Runner.decided_zero, s.Sim.Runner.decided_one) )

let test_runner_crash_salvage () =
  (* A crash at a known trial: with one worker the 14th adversary build is
     trial index 13 (chunk 3 at chunk_size 4); the salvaged partial is
     exactly the summary of the 12 trials that completed — bit-identical
     to a fresh 12-trial run, because each trial's randomness is a pure
     function of (seed, index). *)
  let n = 8 in
  let protocol = Core.Synran.protocol n in
  let builds = ref 0 in
  let make_adversary () =
    incr builds;
    if !builds = 14 then failwith "adversary exploded";
    Sim.Adversary.null
  in
  let r =
    Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs:1 ~chunk_size:4
      ~trials:20 ~seed:5
      ~gen_inputs:(Sim.Runner.input_gen_random ~n)
      ~t:2 protocol make_adversary
  in
  check_bool "not cancelled" false r.Sim.Runner.cancelled;
  check_int "chunks_total" 5 r.Sim.Runner.chunks_total;
  check_int "chunks_done" 3 r.Sim.Runner.chunks_done;
  check_int "completed_trials" 12 r.Sim.Runner.completed_trials;
  check_int "total_trials" 20 r.Sim.Runner.total_trials;
  (match r.Sim.Runner.failures with
  | [ f ] ->
      check_int "failing chunk" 3 f.Sim.Runner.chunk;
      check_int "failing trial" 13 f.Sim.Runner.trial
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs));
  (* The fresh run must use the same chunk boundaries: Welford merging is
     a non-associative float fold, so only identical chunking is
     bit-identical. *)
  let fresh =
    match
      (Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs:1 ~chunk_size:4
         ~trials:12 ~seed:5
         ~gen_inputs:(Sim.Runner.input_gen_random ~n)
         ~t:2 protocol
         (fun () -> Sim.Adversary.null))
        .Sim.Runner.partial
    with
    | Some s -> s
    | None -> Alcotest.fail "fresh run produced no summary"
  in
  match r.Sim.Runner.partial with
  | Some p ->
      check_bool "salvaged partial = fresh 12-trial run" true
        (summary_key p = summary_key fresh)
  | None -> Alcotest.fail "partial summary missing"

let test_runner_checkpoint_resume_exact () =
  let n = 8 and trials = 24 and seed = 11 in
  let protocol = Core.Synran.protocol n in
  let gen_inputs = Sim.Runner.input_gen_random ~n in
  let make_adversary () = Sim.Adversary.null in
  let run_supervised ?cancel ?checkpoint ~jobs () =
    Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs ~chunk_size:4
      ?cancel ?checkpoint ~trials ~seed ~gen_inputs ~t:3 protocol
      make_adversary
  in
  let baseline =
    match (run_supervised ~jobs:1 ()).Sim.Runner.partial with
    | Some s -> s
    | None -> Alcotest.fail "baseline run failed"
  in
  with_temp_root "ckpt_test_resume" @@ fun ck_root ->
  let make_ck () =
    Sim.Checkpoint.create ~root:ck_root ~exp:"resume" ~seed
      ~chunk_size:4 ~n:trials
  in
  (* Interrupt after three whole chunks; their accumulators hit disk. *)
  let polls = ref 0 in
  let cancel () =
    incr polls;
    !polls > 3
  in
  let interrupted = run_supervised ~cancel ~checkpoint:(make_ck ()) ~jobs:1 () in
  check_bool "interrupted run cancelled" true interrupted.Sim.Runner.cancelled;
  check_int "three chunks persisted" 3 interrupted.Sim.Runner.chunks_done;
  check_bool "checkpoint files survive the interrupt" true
    (Sys.file_exists (Sim.Checkpoint.dir (make_ck ())));
  (* A kill mid-append leaves half a record at the journal's tail; plant
     a torn copy of the last record and check it costs the resume
     nothing. *)
  let j = read_file (journal (make_ck ())) in
  let rec last i = if String.sub j i 5 = "\nexp=" then i else last (i - 1) in
  let last = last (String.length j - 5) in
  write_file (journal (make_ck ()))
    (j ^ String.sub j last ((String.length j - last) / 2));
  (* Resume at a different worker count: saved chunks short-circuit, the
     rest recompute, and the merged summary is byte-identical. *)
  let resumed = run_supervised ~checkpoint:(make_ck ()) ~jobs:3 () in
  check_bool "no failures" true (resumed.Sim.Runner.failures = []);
  check_bool "not cancelled" false resumed.Sim.Runner.cancelled;
  check_int "all chunks done" resumed.Sim.Runner.chunks_total
    resumed.Sim.Runner.chunks_done;
  check_int "three chunks came from disk" 3 resumed.Sim.Runner.chunks_resumed;
  (match resumed.Sim.Runner.partial with
  | Some s ->
      check_bool "resumed summary = uninterrupted summary" true
        (summary_key s = summary_key baseline)
  | None -> Alcotest.fail "resumed summary missing");
  check_bool "completed run retires its checkpoints" false
    (Sys.file_exists (Sim.Checkpoint.dir (make_ck ())))

let test_runner_chunk_size_validated () =
  (* A non-positive [chunk_size] fails fast, before any trial runs. The
     CLI rejects it even earlier, at argument parsing ("--chunk-size 0"
     never reaches this code). *)
  Alcotest.check_raises "chunk_size 0 rejected"
    (Invalid_argument "Runner.fold: chunk_size") (fun () ->
      ignore
        (Sim.Runner.run_trials ~chunk_size:0 ~jobs:1 ~trials:4 ~seed:5
           ~gen_inputs:(Sim.Runner.input_gen_random ~n:8) ~t:3
           (Core.Synran.protocol 8)
           (fun () -> Sim.Adversary.null)))

let test_runner_chunk_size_identity () =
  (* Like [jobs], [chunk_size] must not change the summary. *)
  let run chunk_size =
    Sim.Runner.run_trials ~max_rounds:500 ~jobs:1 ~chunk_size ~trials:12
      ~seed:9
      ~gen_inputs:(Sim.Runner.input_gen_random ~n:8)
      ~t:3
      (Core.Synran.protocol 8)
      (fun () -> Sim.Adversary.null)
  in
  check_bool "chunk_size 1 = chunk_size 5" true
    (summary_key (run 1) = summary_key (run 5))

let test_runner_auto_engine () =
  (* [`Auto] is a pure performance decision: whatever it resolves to must
     produce a summary byte-identical to naming that engine explicitly,
     and the resolution must be auditable through [engine_used] and the
     manifest's [engines] list. Small populations stay on the concrete
     engine; above the crossover a bitkernel-capable protocol takes the
     bit-packed kernel. *)
  let run ~engine ~n ~trials protocol =
    Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs:1 ~chunk_size:2
      ~trials ~seed:11 ~engine
      ~gen_inputs:(Sim.Runner.input_gen_random ~n)
      ~t:2 protocol
      (fun () -> Sim.Adversary.null)
  in
  let key (r : Sim.Runner.report) =
    match r.Sim.Runner.partial with
    | Some s -> summary_key s
    | None -> Alcotest.fail "summary missing"
  in
  (* n = 8 <= crossover: auto must stay concrete. *)
  let small = Core.Synran.protocol 8 in
  let auto_small = run ~engine:`Auto ~n:8 ~trials:6 small in
  let conc_small = run ~engine:`Concrete ~n:8 ~trials:6 small in
  check_string "small n resolves concrete" "concrete"
    auto_small.Sim.Runner.engine_used;
  check_bool "auto = explicit concrete" true
    (key auto_small = key conc_small);
  (* n = 4100 > crossover, FloodSet publishes bitops: auto goes packed.
     rounds = 3 keeps the trial cheap at this width. *)
  let large = Baselines.Floodset.protocol ~rounds:3 () in
  let auto_large = run ~engine:`Auto ~n:4100 ~trials:2 large in
  let bitk_large = run ~engine:`Bitkernel ~n:4100 ~trials:2 large in
  let conc_large = run ~engine:`Concrete ~n:4100 ~trials:2 large in
  check_string "large bitops n resolves bitkernel" "bitkernel"
    auto_large.Sim.Runner.engine_used;
  check_string "explicit engine is reported as-is" "concrete"
    conc_large.Sim.Runner.engine_used;
  check_bool "auto = explicit bitkernel" true (key auto_large = key bitk_large);
  check_bool "bitkernel = concrete" true (key bitk_large = key conc_large);
  (* The manifest audit trail: committing reports from two engines leaves
     both in the experiment record, in first-use order, and the engines
     list never perturbs the metrics digest (it is manifest-only). *)
  let ctx = Core.Supervise.create () in
  let res =
    Core.Supervise.run_experiment ctx ~id:"auto" (fun () ->
        ignore (Core.Supervise.commit (Some ctx) auto_small);
        ignore (Core.Supervise.commit (Some ctx) auto_large);
        ignore (Core.Supervise.commit (Some ctx) auto_large);
        Stats.Table.create ~title:"auto" ~columns:[ "engine" ])
  in
  Alcotest.(check (list string))
    "engines in first-use order, deduplicated" [ "concrete"; "bitkernel" ]
    res.Core.Supervise.engines;
  with_temp_root "manifest_engines_tmp" @@ fun root ->
  let path = Filename.concat root "run_manifest.json" in
  Core.Supervise.write_manifest ~path ~profile:"quick" ~seed:11 ~jobs:1
    ~resume:false ~deadline_s:None [ res ];
  let ic = open_in path in
  let json = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let mem needle =
    let lw = String.length needle in
    let rec go i =
      i + lw <= String.length json
      && (String.sub json i lw = needle || go (i + 1))
    in
    go 0
  in
  check_bool "manifest records both engines" true
    (mem "\"engines\": [\"concrete\", \"bitkernel\"]")

(* --- Sim.Runner.fold: the async and Byzantine instances ---------------- *)

(* A Byzantine fold (EIG under the equivocator) with full capture and its
   own checkpoint store: the summary and the capture digest. *)
let byz_fold ?fault ?(retries = 0) ~root ~tag ~jobs () =
  let capture = Obs.Capture.create ~events:true () in
  let checkpoint =
    Sim.Checkpoint.create ~root ~exp:tag ~seed:23 ~chunk_size:8 ~n:30
  in
  let r =
    Byz.Engine.run_trials ~jobs ~checkpoint ~capture ~retries ?fault
      ~trials:30 ~seed:23
      ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng 7)
      ~t:2 (Byz.Eig.protocol ~t:2)
      (fun () -> Byz.Adversary.equivocator ~budget_fraction:1.0 ())
  in
  (r, Obs.Capture.digest capture)

let test_byz_pinned_plan_invisible () =
  (* The bench-smoke chaos plan (a raising trial, a torn checkpoint write,
     a raising event sink) against a Byzantine fold: with a retry budget
     it is byte-invisible at any worker count. *)
  with_temp_root "byz_chaos" @@ fun root ->
  let plan = plan_of_string_exn "body@1#2:raise,store@2#0:torn,sink@3#5:raise" in
  let base, base_digest = byz_fold ~root ~tag:"base" ~jobs:1 () in
  let base = Sim.Runner.value base in
  List.iter
    (fun jobs ->
      let r, digest =
        byz_fold ~fault:plan ~retries:2 ~root
          ~tag:(Printf.sprintf "chaos-j%d" jobs)
          ~jobs ()
      in
      check_int
        (Printf.sprintf "three retried attempts at jobs %d" jobs)
        3
        (List.length r.Sim.Runner.retried);
      check_bool
        (Printf.sprintf "summary byte-identical at jobs %d" jobs)
        true
        (Sim.Runner.value r = base);
      check_string
        (Printf.sprintf "capture digest byte-identical at jobs %d" jobs)
        base_digest digest)
    [ 1; 3 ]

let test_async_resume_exact () =
  (* Interrupt an async Ben-Or fold under the splitter after three chunks,
     resume it at another worker count: the stored chunks short-circuit
     and the summary comes back byte-identical. *)
  let trials = 40 and seed = 31 in
  let run ?cancel ?checkpoint ~jobs () =
    Async.Engine.run_trials ~phase_of:Async.Benor.phase ~jobs ?cancel
      ?checkpoint ~trials ~seed
      ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng 4)
      ~t:1 (Async.Benor.protocol ~t:1) Async.Benor.splitter
  in
  let baseline = Sim.Runner.value (run ~jobs:1 ()) in
  with_temp_root "async_resume" @@ fun root ->
  let make_ck () =
    Sim.Checkpoint.create ~root ~exp:"async" ~seed ~chunk_size:8 ~n:trials
  in
  let polls = ref 0 in
  let cancel () =
    incr polls;
    !polls > 3
  in
  let interrupted = run ~cancel ~checkpoint:(make_ck ()) ~jobs:1 () in
  check_bool "interrupted" true interrupted.Sim.Runner.cancelled;
  check_int "three chunks done" 3 interrupted.Sim.Runner.chunks_done;
  check_int "their trials counted" 24 interrupted.Sim.Runner.completed_trials;
  let resumed = run ~checkpoint:(make_ck ()) ~jobs:3 () in
  check_int "three chunks from disk" 3 resumed.Sim.Runner.chunks_resumed;
  check_int "every trial counted" trials resumed.Sim.Runner.completed_trials;
  check_string "engine recorded" "async" resumed.Sim.Runner.engine_used;
  check_bool "resumed summary = uninterrupted summary" true
    (Sim.Runner.value resumed = baseline)

let test_rows_distinct_stores () =
  (* Every fold of every experiment gets its own checkpoint store: two
     folds with equal keys would resume from each other's chunks. The MD5
     of each experiment's store basenames, in fold order, pins how the
     keys are spelled, so a run interrupted by an older build of the same
     tables still resumes. E2 opens no store. *)
  List.iter
    (fun (id, stores, md5) ->
      with_temp_root ("stores_" ^ id) @@ fun root ->
      let ctx = Core.Supervise.create ~checkpoints:root () in
      let driver = Option.get (Core.Experiments.by_id id) in
      let r =
        Core.Supervise.run_experiment ctx ~id (fun () ->
            driver ~jobs:1 ~sup:ctx Core.Experiments.Quick ~seed:42)
      in
      check_bool (id ^ " completed") false (Core.Supervise.failed r);
      let names = List.map Filename.basename (Core.Supervise.stores ctx) in
      check_int (id ^ ": one store per fold") stores (List.length names);
      check_int (id ^ ": no two folds share a store") stores
        (List.length (List.sort_uniq String.compare names));
      check_string (id ^ ": store names pinned") md5
        (Digest.to_hex (Digest.string (String.concat "\n" names)));
      if id = "e11" then begin
        (* Phase-king meets the king-spoofer at t and at t + 1: rows that
           differ only in the corruption budget, which the key carries. *)
        let has prefix = List.exists (String.starts_with ~prefix) names in
        check_bool "king-spoofer at t has its store" true
          (has "e11-phase-king-king-spoofer_n_17_t_3_");
        check_bool "king-spoofer at t + 1 has another" true
          (has "e11-phase-king__over_budget_-king-spoofer_n_17_t_4_");
        check_int "trials counted for the manifest" (9 * 60)
          r.Core.Supervise.completed_trials;
        Alcotest.(check (list string))
          "engine recorded" [ "byz" ] r.Core.Supervise.engines
      end)
    [
      ("e1", 64, "ab4cbf8cacb0819a112032f58e3099f0");
      ("e2", 0, "d41d8cd98f00b204e9800998ecf8427e");
      ("e3", 6, "9e43d12a96068d9d3387a0977bb77aa2");
      ("e4", 12, "bd70a05d24a5670b312e01ee15ad5e59");
      ("e5", 6, "7c945f183bbd0b850255fb29ce73ec93");
      ("e6", 12, "8ca40719f0fb7b7560c2b2de4252fd39");
      ("e7", 14, "2cb0e8849dfd0210badc795d727111a2");
      ("e8", 12, "ce77d3eb06f0fd8457e676a2485102cb");
      ("e9", 9, "66ca6d561fd251d13868367755848338");
      ("e10", 12, "2b086d1c3db65ae46cd46aa0fe7484c6");
      ("e11", 9, "ddddd2c8f120695a1222555654107a51");
      ("e12", 8, "0e346059f3fca469ceb72f6b5cd07166");
    ]

(* E1 under a supervisor with checkpoints under [root]: the result and
   its table's MD5. *)
let e1_run ?fault ?retries ?(resume = false) ~root ~jobs () =
  let ctx =
    Core.Supervise.create ~checkpoints:root ~resume ?fault ?retries ()
  in
  let e1 = Option.get (Core.Experiments.by_id "e1") in
  let r =
    Core.Supervise.run_experiment ctx ~id:"e1" (fun () ->
        e1 ~jobs ~sup:ctx Core.Experiments.Quick ~seed:42)
  in
  let md5 =
    Option.fold ~none:"" r.Core.Supervise.table ~some:(fun t ->
        Digest.to_hex (Digest.string (Stats.Table.render t)))
  in
  (r, md5)

(* The core.experiments pin of E1's quick table at seed 42. *)
let e1_md5 = "453908beda5f04f4172d849bf2bd9f69"

let test_e1_resume_after_failure () =
  (* E1's coin folds checkpoint like every other population: a run that a
     terminal fault stops in its first fold resumes from the stored
     chunks, at any worker count, to the pinned table. *)
  List.iter
    (fun jobs ->
      with_temp_root "e1_resume" @@ fun root ->
      let failed, _ =
        e1_run ~fault:(plan_of_string_exn "body@5#*:raise") ~root ~jobs:1 ()
      in
      check_bool "terminal fault fails E1" true (Core.Supervise.failed failed);
      let r, md5 = e1_run ~resume:true ~root ~jobs () in
      check_bool (Printf.sprintf "resumed at jobs %d" jobs) false
        (Core.Supervise.failed r);
      check_bool "chunks came from disk" true
        (r.Core.Supervise.chunks_resumed > 0);
      check_string "pinned E1 table" e1_md5 md5)
    [ 1; 2 ]

let test_e1_chaos_invisible () =
  (* The pinned chaos plan against E1's folds: the retry budget absorbs
     it, and the table and the manifest's metrics digest equal the
     fault-free run's. *)
  with_temp_root "e1_chaos" @@ fun root ->
  let base, base_md5 = e1_run ~root ~jobs:1 () in
  check_string "fault-free E1 table" e1_md5 base_md5;
  List.iter
    (fun jobs ->
      let r, md5 =
        e1_run
          ~fault:
            (plan_of_string_exn "body@1#2:raise,store@2#0:torn,sink@3#5:raise")
          ~retries:2 ~root ~jobs ()
      in
      check_bool "plan survived" false (Core.Supervise.failed r);
      check_bool "faults fired" true (r.Core.Supervise.chunk_retries > 0);
      check_string (Printf.sprintf "table at jobs %d" jobs) e1_md5 md5;
      check_string
        (Printf.sprintf "metrics digest at jobs %d" jobs)
        (Obs.Metrics.digest base.Core.Supervise.metrics)
        (Obs.Metrics.digest r.Core.Supervise.metrics))
    [ 1; 2 ]

let test_drivers_register_first () =
  (* Every driver registers its table before its first trial: under an
     expired deadline each one times out on its first fold and still
     reports its table, with no row. E2 is closed-form and completes. *)
  let ctx = Core.Supervise.create ~deadline_s:(-1.0) () in
  List.iter
    (fun id ->
      let driver = Option.get (Core.Experiments.by_id id) in
      let r =
        Core.Supervise.run_experiment ctx ~id (fun () ->
            driver ~jobs:1 ~sup:ctx Core.Experiments.Quick ~seed:42)
      in
      match (id, r.Core.Supervise.status, r.Core.Supervise.table) with
      | "e2", Core.Supervise.Completed, Some _ -> ()
      | "e2", _, _ -> Alcotest.fail "e2 did not complete"
      | _, Core.Supervise.Timed_out, Some tbl -> (
          match String.split_on_char '\n' (Stats.Table.render tbl) with
          | [ title; _header; rule ] ->
              check_bool (id ^ ": title line") true
                (String.starts_with
                   ~prefix:("== " ^ String.uppercase_ascii id ^ " ")
                   title);
              check_bool (id ^ ": rule line") true
                (String.for_all (fun c -> c = ' ' || c = '-') rule)
          | lines ->
              Alcotest.failf "%s: %d lines, expected title, header, rule" id
                (List.length lines))
      | _, Core.Supervise.Timed_out, None ->
          Alcotest.failf "%s: table not registered" id
      | _ -> Alcotest.failf "%s did not time out" id)
    Core.Experiments.ids

(* --- Core.Supervise ----------------------------------------------------- *)

let test_supervise_failure_record () =
  let ctx = Core.Supervise.create () in
  let r = Core.Supervise.run_experiment ctx ~id:"ex" (fun () -> failwith "kaput") in
  check_bool "failed" true (Core.Supervise.failed r);
  (match r.Core.Supervise.status with
  | Core.Supervise.Failed { message; _ } ->
      check_string "message" "Failure(\"kaput\")" message
  | _ -> Alcotest.fail "expected Failed");
  check_bool "no table registered" true (r.Core.Supervise.table = None);
  check_bool "status line names the experiment" true
    (String.length (Core.Supervise.status_line r) > 0
    && String.sub (Core.Supervise.status_line r) 0 2 = "ex")

let test_supervise_timeout_salvages_table () =
  let ctx = Core.Supervise.create () in
  let r =
    Core.Supervise.run_experiment ctx ~id:"ex" (fun () ->
        let tbl =
          Core.Supervise.register (Some ctx)
            (Stats.Table.create ~title:"partial" ~columns:[ "a" ])
        in
        Stats.Table.add_row tbl [ Stats.Table.Str "row" ];
        raise Sim.Runner.Cancelled)
  in
  (match r.Core.Supervise.status with
  | Core.Supervise.Timed_out -> ()
  | _ -> Alcotest.fail "expected Timed_out");
  match r.Core.Supervise.table with
  | Some tbl ->
      Alcotest.(check string)
        "partial rows survive" "a\nrow" (Stats.Table.to_csv tbl)
  | None -> Alcotest.fail "partial table lost"

let test_supervise_armed_watchdog () =
  (* A deadline in the past fires on the first poll: the fold's cancel
     hook reports true and the fold raises, without any sleeping in the
     test. *)
  let fold sup ~armed =
    Core.Supervise.fold sup ~key:"watchdog" ~seed:5 ~trials:4
      (fun ?cancel ?checkpoint ?retries ?fault () ->
        (match cancel with
        | Some poll when armed ->
            check_bool "expired deadline polls true" true (poll ())
        | Some _ -> Alcotest.fail "unarmed supervisor polls"
        | None -> if armed then Alcotest.fail "watchdog not armed");
        Sim.Runner.run_trials_supervised ~jobs:1 ?cancel ?checkpoint ?retries
          ?fault ~trials:4 ~seed:5
          ~gen_inputs:(Sim.Runner.input_gen_random ~n:8)
          ~t:2 (Core.Synran.protocol 8)
          (fun () -> Sim.Adversary.null))
  in
  let ctx = Core.Supervise.create ~deadline_s:(-1.0) () in
  let r =
    Core.Supervise.run_experiment ctx ~id:"ex" (fun () ->
        ignore (fold (Some ctx) ~armed:true);
        Alcotest.fail "fold did not raise past the deadline")
  in
  (match r.Core.Supervise.status with
  | Core.Supervise.Timed_out -> ()
  | _ -> Alcotest.fail "expected Timed_out");
  (* Unarmed supervisors are inert. *)
  ignore (fold (Some (Core.Supervise.create ())) ~armed:false);
  ignore (fold None ~armed:false)

let test_supervise_isolation_and_exit () =
  (* One crashing experiment neither prevents nor poisons the next — the
     supervisor's whole point. *)
  let ctx = Core.Supervise.create () in
  let bad = Core.Supervise.run_experiment ctx ~id:"e_bad" (fun () -> failwith "x") in
  let good =
    Core.Supervise.run_experiment ctx ~id:"e_good" (fun () ->
        Stats.Table.create ~title:"ok" ~columns:[ "c" ])
  in
  check_bool "good experiment unaffected" false (Core.Supervise.failed good);
  check_bool "exit code trips on any failure" true
    (Core.Supervise.any_failed [ good; bad ]);
  check_bool "all-clean run exits zero" false
    (Core.Supervise.any_failed [ good ])

let supervised_fold ctx =
  (* The production wiring in miniature: the supervisor carries the fault
     plan and retry budget, and Supervise.fold hands them to the runner
     fold and commits the report back, as Core.Experiments does. *)
  Core.Supervise.fold (Some ctx) ~key:"mini" ~seed:5 ~trials:16
    (fun ?cancel ?checkpoint ?retries ?fault () ->
      Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs:1 ~chunk_size:4
        ?cancel ?checkpoint ?retries ?fault ~trials:16 ~seed:5
        ~gen_inputs:(Sim.Runner.input_gen_random ~n:8)
        ~t:2 (Core.Synran.protocol 8)
        (fun () -> Sim.Adversary.null))

let test_supervise_retry_accounting () =
  let ctx =
    Core.Supervise.create ~retries:1
      ~fault:(plan_of_string_exn "body@1#2:raise") ()
  in
  let r =
    Core.Supervise.run_experiment ctx ~id:"er" (fun () ->
        let s = supervised_fold ctx in
        check_int "all trials completed despite the fault" 16
          s.Sim.Runner.trials;
        Stats.Table.create ~title:"t" ~columns:[ "c" ])
  in
  check_bool "completed" false (Core.Supervise.failed r);
  check_int "one retry accounted" 1 r.Core.Supervise.chunk_retries;
  check_bool "status line reports the retry" true
    (let line = Core.Supervise.status_line r in
     let needle = "1 retried" in
     let lw = String.length needle in
     let rec go i =
       i + lw <= String.length line
       && (String.sub line i lw = needle || go (i + 1))
     in
     go 0);
  (match
     List.filter
       (function Obs.Event.Chunk_retry _ -> true | _ -> false)
       (Core.Supervise.events ctx)
   with
  | [ Obs.Event.Chunk_retry { chunk; attempt; trial; error } ] ->
      check_int "event chunk" 1 chunk;
      check_int "event attempt" 0 attempt;
      check_int "event trial" 6 trial;
      check_string "event error" "injected fault: body@1:raise" error
  | evs -> Alcotest.failf "expected one Chunk_retry event, got %d"
             (List.length evs));
  with_temp_root "manifest_retry_tmp" @@ fun root ->
  let path = Filename.concat root "m.json" in
  Core.Supervise.write_manifest ~path ~profile:"quick" ~seed:5 ~jobs:1
    ~resume:false ~deadline_s:None [ r ];
  let json = read_file path in
  let mem needle =
    let lw = String.length needle in
    let rec go i =
      i + lw <= String.length json
      && (String.sub json i lw = needle || go (i + 1))
    in
    go 0
  in
  check_bool "manifest records the retries" true (mem "\"chunk_retries\": 1")

let test_supervise_fault_budget_exhausted () =
  (* An every-hit arm outlasts the budget: the experiment lands as Failed
     with the injected fault's message and original backtrace, and the
     run-level stream carries both the retried passes and the terminal
     Chunk_failed. *)
  let ctx =
    Core.Supervise.create ~retries:1
      ~fault:(plan_of_string_exn "body@1#*:raise") ()
  in
  let r =
    Core.Supervise.run_experiment ctx ~id:"ef" (fun () ->
        let _ = supervised_fold ctx in
        Alcotest.fail "commit did not re-raise the terminal failure")
  in
  (match r.Core.Supervise.status with
  | Core.Supervise.Failed { message; backtrace = _ } ->
      check_string "original fault message"
        "chunk 1, trial 4 (attempt 1): injected fault: body@1:raise" message
  | _ -> Alcotest.fail "expected Failed");
  check_int "the recovered pass is still accounted" 1
    r.Core.Supervise.chunk_retries;
  match
    List.filter
      (function Obs.Event.Chunk_failed _ -> true | _ -> false)
      (Core.Supervise.events ctx)
  with
  | [ Obs.Event.Chunk_failed { chunk; attempts; trial; error } ] ->
      check_int "terminal chunk" 1 chunk;
      check_int "total attempts" 2 attempts;
      check_int "terminal trial" 4 trial;
      check_string "terminal error" "injected fault: body@1:raise" error
  | evs ->
      Alcotest.failf "expected one Chunk_failed event, got %d"
        (List.length evs)

let test_manifest_shape () =
  let ctx = Core.Supervise.create () in
  let ok =
    Core.Supervise.run_experiment ctx ~id:"e1" (fun () ->
        Stats.Table.create ~title:"t" ~columns:[ "c" ])
  in
  let bad =
    Core.Supervise.run_experiment ctx ~id:"e2" (fun () -> failwith "boom-q")
  in
  with_temp_root "manifest_test_tmp" @@ fun root ->
  let path = Filename.concat root "run_manifest.json" in
  Core.Supervise.write_manifest ~path ~profile:"quick" ~seed:42 ~jobs:2
    ~resume:false ~deadline_s:(Some 30.0) [ ok; bad ];
  let ic = open_in path in
  let len = in_channel_length ic in
  let json = really_input_string ic len in
  close_in ic;
  let mem needle =
    let lw = String.length needle in
    let rec go i =
      i + lw <= String.length json
      && (String.sub json i lw = needle || go (i + 1))
    in
    go 0
  in
  check_bool "schema tag" true (mem "\"schema\": \"run_manifest/v1\"");
  check_bool "run parameters" true (mem "\"deadline_s\": 30");
  check_bool "completed record" true (mem "\"id\": \"e1\", \"status\": \"completed\"");
  check_bool "failed record" true (mem "\"id\": \"e2\", \"status\": \"failed\"");
  (* Printexc renders Failure "boom-q" as Failure("boom-q"); Obs.Json.escape
     then escapes those inner quotes for the manifest. *)
  check_bool "failure message escaped" true (mem "Failure(\\\"boom-q\\\")");
  check_bool "failed count" true (mem "\"failed\": 1")

let suites =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "supervised.fold",
      [
        tc "crash yields structured failure + salvaged prefix"
          test_crash_structured;
        tc "salvage invariants hold under parallel workers"
          test_crash_salvage_parallel;
        tc "checkpoint store and load faults are the chunk's failure"
          test_checkpoint_fault_recorded;
        tc "cancel before the first chunk" test_cancel_before_first_chunk;
        tc "cancel fires only at chunk boundaries"
          test_cancel_at_chunk_boundary;
        tc "armed fault fires once; the retried pass recovers"
          test_retry_recovers;
        tc "exhausted retry budget is a terminal failure"
          test_retry_budget_exhausted;
        tc "negative retries rejected" test_retries_validated;
        tc "non-finite deadline rejected" test_deadline_validated;
      ] );
    ( "supervised.pool",
      [
        tc "fold nested in a chunk body" test_pool_nested_fold;
        tc "failure on a pooled worker is reported in full"
          test_pool_worker_failure;
        tc "200 back-to-back folds agree" test_pool_back_to_back;
        tc "cancel mid-fold leaves the pool usable" test_pool_cancel_mid_fold;
      ] );
    ( "supervised.checkpoint",
      [
        tc "store/load round-trip and clear" test_checkpoint_roundtrip;
        tc "key mismatch is rejected" test_checkpoint_key_mismatch;
        tc "experiment names are sanitized" test_checkpoint_sanitized_dir;
        tc "lossy-sanitizing ids do not collide"
          test_checkpoint_collision_distinct;
        tc "a torn tail costs only the torn chunk" test_checkpoint_torn_tail;
        tc "corrupt records load None and hide nothing"
          test_checkpoint_corrupt_records;
        tc "fmt-4 debris is ignored and cleared"
          test_checkpoint_old_format_debris;
      ] );
    ( "supervised.runner",
      [
        tc "crash salvages the completed-trial prefix exactly"
          test_runner_crash_salvage;
        tc "interrupt + resume is byte-identical"
          test_runner_checkpoint_resume_exact;
        tc "chunk_size is validated" test_runner_chunk_size_validated;
        tc "chunk_size does not change the summary"
          test_runner_chunk_size_identity;
        tc "auto engine resolution is identical and audited"
          test_runner_auto_engine;
        tc "pinned fault plan is invisible to a Byzantine fold"
          test_byz_pinned_plan_invisible;
        tc "interrupted async fold resumes byte-identical"
          test_async_resume_exact;
        tc "every experiment's folds get distinct, pinned stores"
          test_rows_distinct_stores;
        tc "E1 resumes after a terminal fault" test_e1_resume_after_failure;
        tc "pinned chaos plan is invisible to E1" test_e1_chaos_invisible;
        tc "every driver registers its table before its first trial"
          test_drivers_register_first;
      ] );
    ( "supervised.ctx",
      [
        tc "failure becomes a structured record" test_supervise_failure_record;
        tc "timeout salvages the registered table"
          test_supervise_timeout_salvages_table;
        tc "armed watchdog cancels and raises" test_supervise_armed_watchdog;
        tc "failures are isolated; exit code trips"
          test_supervise_isolation_and_exit;
        tc "retries are accounted in events, status and manifest"
          test_supervise_retry_accounting;
        tc "exhausted budget fails the experiment with the fault"
          test_supervise_fault_budget_exhausted;
        tc "manifest shape" test_manifest_shape;
      ] );
  ]
