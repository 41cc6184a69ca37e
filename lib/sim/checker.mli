(** Consensus correctness checking (Section 3.1's three conditions).

    Every randomized test and every experiment trial runs its outcome
    through this checker, so safety violations cannot hide behind good
    averages. The conditions are written once, in {!judge}; the
    synchronous ({!check}), Byzantine ([Byz.Engine.check]) and
    asynchronous ([Async.Engine.run_trials]) models differ only in the
    masks they pass. *)

type verdict = {
  agreement : bool;
      (** All judged deciders decided the same value. {!check} judges every
          process: decisions of processes that decided and were killed
          later must agree too — a decision is an output the moment it is
          made. *)
  validity : bool;
      (** If all judged processes' inputs were [v], every judged decision
          is [v]. *)
  termination : bool;
      (** Every process that must decide decided within the executed
          rounds. *)
  errors : string list;  (** Human-readable description of each violation. *)
}

val ok : verdict -> bool

type mask =
  | Every  (** Every process. *)
  | Except of bool array  (** Every process not marked in the array. *)
(** A set of processes, for {!judge}. *)

val judge :
  inputs:int array ->
  int option array ->
  judged:mask ->
  must_decide:mask ->
  rounds:int ->
  verdict
(** [judge ~inputs decisions ~judged ~must_decide ~rounds]: agreement and
    validity among the [judged] processes, termination of the
    [must_decide] ones. [rounds] is the run's length, quoted in
    termination errors. Allocates only to describe a violation. *)

val check : inputs:int array -> Engine.outcome -> verdict
(** Every process judged; the non-faulty ones must decide. *)

val assert_ok : inputs:int array -> Engine.outcome -> unit
(** Raises [Failure] with the collected errors on any violation. *)
