(** Ben-Or's randomized asynchronous consensus [BO83] — the protocol
    SynRan descends from ("The algorithm is similar to Ben-Or's algorithm",
    Section 4), in its crash-fault form for t < n/2.

    Phase r:
    - {b Report}: broadcast (R, r, b); collect n - t phase-r reports. If
      some value has more than n/2 of them, it becomes the candidate.
    - {b Propose}: broadcast (P, r, candidate); collect n - t phase-r
      proposals. A value proposed at least t+1 times is decided; a value
      proposed at least once is adopted; otherwise flip a fair local coin.

    Agreement holds because two candidates of the same phase would each be
    backed by more than n/2 reports of honest (crash-only) processes.
    Termination holds with probability 1, but only in expected {e
    exponential} phases against a full-information scheduler — the
    asynchronous weakness that motivates the paper's synchronous
    question. *)

type msg = private
  | Report of { phase : int; v : int }
  | Proposal of { phase : int; v : int option }
      (** [v = None]: no candidate emerged from the sender's reports. *)
(** Readable, so a scheduler (or a test's reference scan) can score a
    pending message; only the protocol builds them. *)

type state

val protocol : t:int -> (state, msg) Protocol.t
(** [protocol ~t] waits for n - t messages per step; requires t < n/2 for
    liveness and safety margins (checked at init). A decided process keeps
    participating so that slower processes can finish. *)

val phase : state -> int
(** Current phase (the async round-complexity measure). *)

val splitter : unit -> msg Scheduler.t
(** The FLP-flavoured full-information scheduler: it tracks what it has
    delivered to every process and keeps each receiver's phase-r report
    sample balanced between 0s and 1s (delivering the minority value
    first), so no candidate emerges and every process flips, every phase.
    It only loses when the collective coin flips land so lopsided that
    balancing is impossible — an exponentially rare event, making expected
    phases exponential in n.

    Each pick delivers the oldest message of the lowest score, in
    O(log groups) time, where a group is a (receiver, phase, value) class
    of reports: pending messages queue per group, and one delivery
    rescores only the two groups of its (receiver, phase). State is per
    run: a pick whose [steps_taken] does not exceed the previous pick's
    starts afresh, so one instance may serve consecutive runs, and a
    pending store that lost messages other than its own picks (a crash
    by a wrapping scheduler) is re-read whole. *)
