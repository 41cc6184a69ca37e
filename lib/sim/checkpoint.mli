(** Crash-consistent chunk-level checkpoint store for {!Runner.fold}.

    A store is one append-only [journal] file in
    [<root>/<exp>-<hash>-<seed>/], holding one record per stored chunk:
    the key line [exp=..;seed=..;chunk_size=..;n=..;fmt=..], the chunk
    index, the payload length, an MD5 digest of chunk index and payload,
    and the marshalled accumulator. {!load} trusts only a record whose
    key matches the store's exactly {e and} whose digest verifies, and
    the latest such record for a chunk wins: a checkpoint written under
    different parameters (or a different experiment, or an older format
    generation) can never leak into a resumed run, and corrupted bytes
    are never fed to [Marshal]. [fmt] is bumped whenever a checkpointed
    acc type or the record layout changes (currently 5).

    Resuming is {b exact}: the fold merges chunk accumulators in chunk
    order whether they were just computed or loaded from disk, and
    [Marshal] round-trips the accumulator records (Welford moments,
    histogram tables, counters) bit for bit — so a resumed run's summary
    is byte-identical to an uninterrupted one.

    {b Durability.} Records are flushed to the OS as they are appended,
    and only {!close} fsyncs the journal: a completed fold's journal is
    deleted by {!clear} unsynced, and an incomplete one's is synced when
    the fold closes it. A killed process loses no flushed record; an OS
    crash before {!close} can lose or tear any of them. Every record is
    digest-verified on load, so a record that cannot be trusted — lost or
    torn by a crash, flipped bits, an alien key — reads as an absent
    chunk, which the fold recomputes; its bytes stay in the journal for a
    post-mortem until {!clear}, which also removes files of older formats
    (fmt-4 [chunk-<c>] files, which loads ignore).

    {b Fault injection.} {!store} and {!load} are named {!Fault} sites
    ([store@<chunk>], [load@<chunk>]): the corruption kinds append a torn
    or bit-flipped record before raising (a crash that lost payload
    bytes), or make a load find its record corrupt (latent media
    corruption) — exactly the damage the digest check recovers from.

    {b Typing caveat:} {!load} is a [Marshal] read and is only type-safe
    when paired with the same fold that produced the store — the key pins
    the configuration but cannot pin the OCaml type. Callers must create
    one store per fold and never share stores across accumulator types. *)

type t

val create :
  root:string -> exp:string -> seed:int -> chunk_size:int -> n:int -> t
(** [create ~root ~exp ~seed ~chunk_size ~n] names the store
    [<root>/<sanitized exp>-<hash>-<seed>/], where [<hash>] is a short
    digest of the {e raw} experiment id — sanitization is lossy (["e1/a"]
    and ["e1 a"] sanitize identically) and the hash keeps such ids from
    sharing a store. The directory is created on first {!store}. *)

val dir : t -> string
(** The store's directory (may not exist yet).
    Kept for tests: the crash-recovery tests plant torn, corrupt and
    alien records in its journal. *)

val store : ?fault:Fault.injector -> t -> chunk:int -> 'acc -> unit
(** Append one chunk accumulator to the journal. Safe to call from
    concurrent domains. Raises [Sys_error] on filesystem failure, and the
    armed fault (if [fault] has a {!Fault.Checkpoint_store} arm at this
    chunk's next hit). *)

val load : ?fault:Fault.injector -> t -> chunk:int -> 'acc option
(** [load t ~chunk] is the accumulator of the latest verified record for
    [chunk], or [None] when there is none. The journal is read on the
    first load; later loads also see this handle's own {!store}s. Raises
    only injected {!Fault.Checkpoint_load} faults. *)

val close : t -> unit
(** Fsync and close the journal; the next {!store} reopens it. Called
    when a fold ends incomplete, so its records survive for a resume. *)

val clear : t -> unit
(** Close the journal and remove every file in the store directory and
    the directory itself, ignoring filesystem errors. Called after a
    fully successful fold so stale checkpoints never outlive the run they
    belong to. *)
