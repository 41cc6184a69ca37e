(** Crash-consistent chunk-level checkpoint store for
    {!Parallel.fold_chunks_supervised}.

    Each completed chunk accumulator is marshalled to
    [<root>/<exp>-<hash>-<seed>/chunk-<c>], headed by a textual key line
    [exp=..;seed=..;chunk_size=..;n=..;fmt=..] and an MD5 digest of the
    marshalled payload. {!load} only returns a value when the on-disk
    key matches the store's key exactly {e and} the payload digest
    verifies, so a checkpoint written under different parameters (or a
    different experiment, or an older format generation) can never leak
    into a resumed run, and corrupted bytes are never fed to [Marshal];
    [fmt] is the format generation, bumped whenever a checkpointed acc
    type or the header layout changes (currently 4: every fold's model
    accumulator inside the generic chunk record).

    Resuming is {b exact}: the fold merges chunk accumulators in chunk
    order whether they were just computed or loaded from disk, and
    [Marshal] round-trips the accumulator records (Welford moments,
    histogram tables, counters) bit for bit — so a resumed run's summary
    is byte-identical to an uninterrupted one.

    {b Durability.} Chunk files are written to a [.tmp], [fsync]ed, and
    renamed into place: an interrupt mid-{!store} leaves at worst a
    stale [.tmp] (swept on the next {!create}), and a file visible under
    the chunk name has durable bytes.

    {b Quarantine.} Any chunk file {!load} cannot trust — truncated,
    bit-flipped, empty, headerless, alien key, undigestable — is renamed
    to [chunk-<c>.corrupt] and reported as absent, so the fold
    recomputes the chunk instead of crashing and the evidence survives
    for a post-mortem. Quarantined files are retired by {!clear} after a
    fully successful fold and swept (with stale [.tmp]s) on the next
    {!create} over the directory.

    {b Fault injection.} {!store} and {!load} are named {!Fault} sites
    ([store@<chunk>], [load@<chunk>]): the corruption kinds write a torn
    or bit-flipped payload under the chunk name before raising
    (simulating a crash that lost payload bytes after the rename), or
    corrupt the on-disk file in place before a read (latent media
    corruption) — exactly the damage the quarantine path recovers from.

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
    sharing a store. If the directory already exists (a resume), stale
    [chunk-*.tmp] files left by a killed {!store} and stale
    [chunk-*.corrupt] quarantines from earlier runs are swept; otherwise
    the directory is created on first {!store}. *)

val dir : t -> string
(** The store's directory (may not exist yet).
    Kept for tests: the crash-recovery tests plant torn, stale and corrupt
    chunk files here. *)

val store : ?fault:Fault.injector -> t -> chunk:int -> 'acc -> unit
(** Persist one chunk accumulator (write, fsync, rename). Safe to call
    concurrently for distinct chunks. Raises [Sys_error] on filesystem
    failure, and the armed fault (if [fault] has a
    {!Fault.Checkpoint_store} arm at this chunk's next hit). *)

val load : ?fault:Fault.injector -> t -> chunk:int -> 'acc option
(** [load t ~chunk] is the accumulator stored for [chunk], or [None]
    when the file is missing — or was just quarantined to
    [chunk-<c>.corrupt] because its key, digest, or payload could not be
    trusted. Raises only injected {!Fault.Checkpoint_load} faults. *)

val clear : t -> unit
(** Remove every chunk file (quarantines included) and the store
    directory, ignoring filesystem errors. Called after a fully
    successful fold so stale checkpoints never outlive the run they
    belong to. *)
