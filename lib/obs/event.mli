(** The unified structured event taxonomy.

    One variant covers every observable the three engines, the lower-bound
    adversary, the trial runner, and the supervisor emit. Events are pure
    observations: emitting them never touches an RNG, never reads a clock,
    and never changes engine behaviour, so a run with sinks attached is
    byte-identical to one without.

    Serialization ({!to_json}) is deterministic: one JSON object per
    event, printed by {!Json}. *)

type engine = Sync | Async | Byz

type t =
  | Round of {
      engine : engine;
      round : int;
      active : int;  (** Processes that staged a broadcast this round. *)
      victims : int array;  (** Killed/corrupted this round, ascending. *)
      partial_sends : int;  (** Victims whose last message still reached someone. *)
      delivered : int;  (** Total (sender, receiver) deliveries. *)
      newly_decided : int;
      newly_halted : int;
      ones_pending : int option;
          (** Broadcasts classified "1" by the engine's observer; [None]
              when no observer was supplied. *)
    }  (** A full round (or, for [Async], not emitted — async progress is
           per-event). *)
  | Kill of { engine : engine; round : int; victim : int; delivered_to : int }
      (** A fail-stop kill, an async crash ([round] is the step index), or
          a Byzantine corruption ([delivered_to] is then 0). *)
  | Decision of { engine : engine; round : int; pid : int; value : int }
      (** First (and per the decision discipline, only) decision of [pid]. *)
  | Valency_probe of { round : int; pr_one : float; expected_rounds : float }
      (** A Monte-Carlo valency estimate of the lower-bound adversary
          before executing [round]. *)
  | Band of {
      round : int;
      ones : int;
      zeros : int;
      flip_lo : int;
      flip_hi : int;
      margin : int;
      action : string;
      kills : int;
    }  (** One band-control planning step: the observed 1/0 split, the flip
           band, and the branch taken ([action]). Band figures are 0 for
           the early "idle" branch, which returns before computing them. *)
  | Checkpoint of { chunk : int; resumed : bool }
      (** A chunk accumulator persisted ([resumed = false]) or satisfied
          from disk ([resumed = true]). *)
  | Chunk_retry of { chunk : int; attempt : int; trial : int; error : string }
      (** A chunk attempt that failed and was re-run under the retry
          budget ([attempt] counts from 0; safe because [(seed,
          trial_index)] seeding makes the re-run byte-identical). *)
  | Chunk_failed of { chunk : int; attempts : int; trial : int; error : string }
      (** A chunk that exhausted its retry budget: [attempts] failed
          passes were made and the chunk contributes nothing. *)
  | Watchdog of { experiment : string }
      (** A per-experiment wall-clock watchdog fired. *)

val engine_label : engine -> string
(** ["sim"], ["async"], or ["byz"]. *)

val to_json : t -> Json.t
(** The event as an object: an ["event"] tag (["round"], ["kill"], ...),
    ["engine"] where the constructor has one, and every field under its
    own name ([ones_pending = None] is [null]). *)

val to_jsonl : t list -> string
(** JSONL: one {!Json.to_line} line per event, each ending in a newline;
    [""] for no events. *)
