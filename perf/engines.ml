(* The engine table: one entry per synchronous engine, each driving a trial
   through that engine's public start/step/outcome. The traced replay looks
   its engine up here by the name Sim.Runner reports in [engine_used], and
   the engines.<name>.round_us comparison rows iterate over [all] — so
   deleting an engine deletes exactly one entry. *)

type run = {
  step : unit -> [ `Continue | `Quiescent ];
  round : unit -> int;
  outcome : unit -> Sim.Engine.outcome;
  packed_rounds : unit -> int;
      (** Rounds executed at word granularity (bitkernel only, else 0). *)
}

type ('s, 'm) players = {
  protocol : ('s, 'm) Sim.Protocol.t;
  adversary : ('s, 'm) Sim.Adversary.t;
  cohort_adversary : ('s, 'm) Sim.Cohort.adversary option;
      (** A cohort-native planner, used by the cohort entry in place of the
          per-process compatibility wrapper — as [--engine cohort] does. *)
}

type entry = {
  name : string;
  start :
    's 'm.
    sink:Obs.Sink.t ->
    ('s, 'm) players ->
    inputs:int array ->
    t:int ->
    rng:Prng.Rng.t ->
    run;
}

let concrete =
  {
    name = "concrete";
    start =
      (fun ~sink p ~inputs ~t ~rng ->
        let e = Sim.Engine.start ~sink p.protocol ~inputs ~t ~rng in
        {
          step = (fun () -> Sim.Engine.step e p.adversary);
          round = (fun () -> Sim.Engine.round e);
          outcome = (fun () -> Sim.Engine.outcome e);
          packed_rounds = (fun () -> 0);
        });
  }

let bitkernel =
  {
    name = "bitkernel";
    start =
      (fun ~sink p ~inputs ~t ~rng ->
        let e = Sim.Bitkernel.start ~sink p.protocol ~inputs ~t ~rng in
        {
          step = (fun () -> Sim.Bitkernel.step e p.adversary);
          round = (fun () -> Sim.Bitkernel.round e);
          outcome = (fun () -> Sim.Bitkernel.outcome e);
          packed_rounds = (fun () -> Sim.Bitkernel.packed_rounds e);
        });
  }

let cohort =
  {
    name = "cohort";
    start =
      (fun ~sink p ~inputs ~t ~rng ->
        let e = Sim.Cohort.start ~sink p.protocol ~inputs ~t ~rng in
        let adversary =
          match p.cohort_adversary with
          | Some a -> a
          | None -> Sim.Cohort.Concrete p.adversary
        in
        {
          step = (fun () -> Sim.Cohort.step e adversary);
          round = (fun () -> Sim.Cohort.round e);
          outcome = (fun () -> Sim.Cohort.outcome e);
          packed_rounds = (fun () -> 0);
        });
  }

let all = [ concrete; bitkernel; cohort ]

let find name = List.find_opt (fun e -> e.name = name) all

(* Step until quiescent or [max_rounds] rounds have executed — the loop of
   every engine's [run_until]. *)
let run_until r ~max_rounds =
  let rec loop () =
    if r.round () < max_rounds then
      match r.step () with `Quiescent -> () | `Continue -> loop ()
  in
  loop ()
