(** Sharded RomulusDB: the LevelDB interface of {!Romulus_db}, hash-
    partitioned across N independent per-shard PTM instances.  Each shard
    owns its own region, twin-copy engine, C-RW-WP lock and flat-combining
    array, so updates to different shards commit concurrently and each
    shard amortizes its own batch under one set of persistence fences.

    Single-key operations and batches that touch one shard keep exact
    Romulus semantics (with one shard the store is bit-for-bit equivalent
    to {!Romulus_db} over the same operations).  A cross-shard
    [write_batch] is made all-or-nothing by the decentralized
    presumed-abort commit protocol:

    - PREPARE+APPLY: each participant shard, in one durable transaction,
      writes its own {e intent mirror} (batch id, coordinator, participant
      set, its slice of operations with per-key undo images) and applies
      the slice — mirror durable iff slice applied.
    - COMMIT: one transaction on the {e coordinator} shard (the minimum
      participant) hooks a flip record carrying the batch id; the flip is
      the batch's durability point.  No fixed shard serializes the
      protocol.
    - CLEAR (lazy): stale mirrors are reclaimed piggybacked on the
      shard's next protocol transaction, and a flip once every mirror of
      its batch is gone, so the steady-state extra cost of a cross-shard
      batch is the single coordinator flip.

    Mirror payloads are {e chunked}: a payload that fits one
    [chunk_bytes] allocation rides the single PREPARE transaction as
    before, while a larger one streams as a linked chain of bounded,
    CRC-32-protected chunk records — one engine transaction each — made
    valid only by a final {e seal} transaction that flips the mirror's
    seal word and applies the slice in the same transaction.  Unsealed
    chains are presumed-abort garbage that recovery (or the inline abort
    path) collects without decoding a byte.  Undo images larger than
    [spill_threshold] are spilled into their own CRC-protected records
    and referenced from the payload, so rollback data for very large
    values never inflates the payload chain.  Graceful degradation is
    governed by per-shard admission control: each cross-shard batch is
    charged its encoded payload bytes against [admission_budget] before
    any persistent effect, and an overloaded shard fails the batch with
    the typed {!Overloaded} (after a bounded backoff) rather than
    surfacing [Palloc.Out_of_memory]; a redo-log overflow mid-PREPARE
    aborts cleanly and retries the batch with smaller chunks (and a
    piggybacked lazy-CLEAR drain that overflows a protocol transaction
    is dropped from it — the records stay parked — rather than failing
    a batch that would fit alone).

    Recovery reconciles by presumed abort: every surviving mirror is
    resolved against its coordinator's flip — flip present means the
    batch committed (the slice is already applied, the mirror is just
    reclaimed); flip absent means the batch aborted, and the mirror's
    still-valid undo images are rolled back (chunk chain and spilled
    images re-verified against their CRCs; unsealed chains collected).
    Crash-during-recovery is idempotent.  A store still holding a batch
    intent of the retired centralized (shard-0) protocol is refused at
    open with {!Shard_open_failed} on shard 0 rather than replayed.

    Isolation caveat: a cross-shard batch is crash-atomic and its shards
    individually linearizable, but concurrent readers may observe the
    batch half-applied across shards (there is no cross-shard snapshot
    isolation).  A concurrent single-key write racing a batch on the same
    key is {e not} lost on abort: the write durably invalidates the
    batch's undo image for that key, so neither a runtime rollback nor
    crash recovery overwrites it. *)

(** Raised by [open_db] when given an empty shard array. *)
exception Invalid_shards of int

(** Raised by a cross-shard batch refused by admission control: shard
    [shard] already has [in_flight] payload bytes inside the commit
    protocol and the batch's charge would exceed [budget].  Raised
    before any persistent effect (never wrapped in [Tx_aborted]), after
    a bounded backoff — immediately when the batch alone exceeds the
    budget. *)
exception Overloaded of { shard : int; in_flight : int; budget : int }

(** Raised by [open_from_files] when [shards] disagrees with the snapshot
    file family actually on disk ([found] is the number of consecutive
    shard files present).  An elastic store's family grows when a split
    adds a shard, so the mismatch is detected before any region is
    opened instead of surfacing as an untyped failure inside region
    load. *)
exception Shard_mismatch of { requested : int; found : int }

(** Why a shard is not (fully) available. *)
type health_cause =
  | Unrepairable_media of { offset : int; state : string }
      (** a salvage scrub found a line no twin can vouch for; [offset]
          is region-relative, [state] the protocol state it was found
          under *)
  | Open_failed of string
      (** the shard's engine could not be mounted (recovery refused the
          region, media errors while opening, ...) *)
  | Evacuated of { target : int }
      (** the shard's surviving keys were moved onto [target] and its
          slots re-routed; the verdict is permanent *)

(** Per-shard availability state.  [Healthy] serves everything.
    [Degraded] (engine open, media errors pending repair) serves reads —
    a read of an actually lost line still raises
    [Pmem.Region.Media_error] — and refuses writes.  [Quarantined]
    (unopenable, poisoned, or evacuated) serves nothing. *)
type health =
  | Healthy
  | Degraded of health_cause
  | Quarantined of health_cause

(** An operation routed to a shard that cannot serve it.  Raised instead
    of crashing and instead of silently missing — each refusal is also
    counted in the refusing shard's [Stats.unavailable_rejections]. *)
exception Shard_unavailable of { shard : int; cause : health_cause }

(** A shard the store cannot even degrade around failed to come up:
    shard 0 (which anchors the routing table and the health record)
    refused to open or holds a batch intent of the retired centralized
    protocol (cause [Romulus.Engine.Recovery_error]), a snapshot file
    could not be loaded, or {!Make.recover_shard} was pointed at a dead
    engine.  [cause] is the underlying failure, preserved. *)
exception Shard_open_failed of { shard : int; cause : exn }

(** Routing-directory granularity: a store created over [n] regions
    routes through [slots_per_shard * n] slots for its whole life, so it
    can grow online to at most that many shards.  Epoch-0 routing (no
    resize yet) is bit-for-bit the original hash-modulo route. *)
val slots_per_shard : int

(** Defaults of {!with_overload_retry}. *)
val default_overload_retries : int

val default_overload_base_ns : int

(** The exact backoff schedule {!with_overload_retry} uses: [retries]
    waits, exponentially growing from [base_ns] with deterministic
    xorshift jitter seeded by [seed].  Pure — equal arguments give the
    identical schedule, which the unit tests assert. *)
val overload_backoff_schedule :
  retries:int -> base_ns:int -> seed:int -> int list

(** Run [f], retrying up to [retries] times when it raises {!Overloaded}
    (any other exception propagates), waiting out the schedule above
    between attempts; [on_wait] observes each wait (for tests).  The
    final attempt's [Overloaded] propagates.  Used by migration move
    batches against the target's admission budget, and by clients whose
    batches race an admission limit or an open migration window. *)
val with_overload_retry :
  ?retries:int ->
  ?base_ns:int ->
  ?seed:int ->
  ?on_wait:(int -> unit) ->
  (unit -> 'a) ->
  'a

(** Smallest accepted [chunk_bytes] (the floor the redo-log-overflow
    retry shrinks toward). *)
val min_chunk_bytes : int

val default_chunk_bytes : int
val default_spill_threshold : int
val default_admission_budget : int
val default_clear_flush_threshold : int

(** Pure chunk-chain codec used for mirror payloads; exposed so the
    round-trip and corruption-rejection properties are testable without
    a store. *)
module Chunk : sig
  (** CRC-32 of a piece, as stored in its chunk record. *)
  val crc : string -> int

  (** Cut a payload into pieces of at most [chunk_bytes] bytes, in
      order; the last piece may be shorter and an empty payload is one
      empty piece.  Raises [Invalid_argument] when [chunk_bytes <= 0]. *)
  val split : chunk_bytes:int -> string -> string list

  (** Reassemble a chain read back as [(piece, stored_crc)] pairs in
      chain order.  [Error] when any piece fails its CRC or the total
      length differs from [expect_len] (truncated or over-long chain). *)
  val join :
    expect_len:int -> (string * int) list -> (string, string) result
end

(** Any of the Romulus front-ends: the PTM signature plus the recovery /
    scrub / diagnostics hooks every shard needs. *)
module type SHARD_PTM = sig
  include Romulus.Ptm_intf.S

  val recover : t -> unit

  (** Salvage-mode recovery: returns the tolerated IDL data-loss lines
      instead of refusing the mount over them (see
      {!Romulus.Engine.recover_salvage}). *)
  val recover_salvage : t -> (int * string) list

  val scrub : t -> Romulus.Engine.scrub_report

  (** Salvage-mode scrub (see {!Romulus.Engine.scrub_salvage}). *)
  val scrub_salvage : t -> Romulus.Engine.scrub_report

  val media_spans : t -> (int * int) list
  val allocator_check : t -> (unit, string) result
end

module Make (P : SHARD_PTM) : sig
  type t

  (** Open (or create) the database over one region per shard; the shard
      count is the array length, fixed for the life of the store (keys
      are routed by hash modulo that count).  Each region is formatted or
      recovered as usual, then any protocol state left by a crash is
      reconciled.

      [chunk_bytes] (default {!default_chunk_bytes}) bounds each mirror
      payload chunk — and therefore each streamed PREPARE transaction;
      [spill_threshold] (default {!default_spill_threshold}) is the
      undo-image size above which the pre-image is spilled into its own
      record; [admission_budget] (default {!default_admission_budget})
      caps each shard's in-flight cross-shard payload bytes (see
      {!Overloaded}); [clear_flush_threshold] (default
      {!default_clear_flush_threshold}) bounds the lazy-CLEAR queues
      (see {!val-flush_clears}).

      Raises {!Invalid_shards} on an empty array, {!Shard_open_failed}
      when shard 0 cannot be opened or holds a legacy centralized batch
      intent, {!Romulus_db.Invalid_buckets} when [initial_buckets] is
      not positive, and [Invalid_argument] when [chunk_bytes] is below
      {!min_chunk_bytes} or another knob is not positive. *)
  val open_db :
    ?initial_buckets:int ->
    ?chunk_bytes:int ->
    ?spill_threshold:int ->
    ?admission_budget:int ->
    ?clear_flush_threshold:int ->
    Pmem.Region.t array ->
    t

  val put : t -> string -> string -> unit
  val get : t -> string -> string option
  val delete : t -> string -> bool
  val count : t -> int

  (** LevelDB's write batch, upgraded to an all-or-nothing transaction
      even across shards.  Operations performed on the handle passed to
      [f] are buffered (reads see the buffered writes) and applied when
      [f] returns: a batch touching one shard runs as that shard's single
      durable transaction, exactly as in {!Romulus_db}; a cross-shard
      batch runs under the presumed-abort commit protocol. *)
  val write_batch : t -> (t -> unit) -> unit

  (** Full scans; keys are hash-ordered within a shard and shards are
      visited in index order.  With one shard the order matches
      {!Romulus_db}.  Evacuated shards are skipped (their residual maps
      are stale duplicates of their target's keys); any other
      quarantined shard raises {!Shard_unavailable} — a scan never
      silently misses keys.  [count] behaves the same way. *)
  val iter : t -> (string -> string -> unit) -> unit

  val iter_reverse : t -> (string -> string -> unit) -> unit

  (** Structural invariant check of every healthy shard's map and
      allocator (shards whose engine is down or degraded are skipped —
      their damage is reported through {!health}, not as a structural
      failure). *)
  val check : t -> (unit, string) result

  (** Number of attached shards (grows with {!split_shard}; a merged
      source stays attached but owns no slots). *)
  val shards : t -> int

  (** The shard a key routes to under the current routing epoch
      (deterministic, stable across close/reopen). *)
  val shard_of_key : t -> string -> int

  (** {2 Elastic sharding}

      The store routes keys through a persistent, versioned directory:
      [route_hash k mod route_slots] picks a slot, the slot's assignment
      picks the shard.  A resize streams the moving slots' keys between
      shards online — reads double-read (target first, then the source
      for not-yet-moved keys), single-key writes route on the new epoch
      with per-key forwarding, and cross-shard batches touching moving
      slots are refused with {!Overloaded} (retry with
      {!with_overload_retry}).  One epoch-flip transaction is the
      validity point; a crash at any instruction either never started
      the resize (no intent) or completes it during recovery (resume
      from the durable cursor), so every key is present exactly once
      afterwards. *)

  (** Split half of shard [source]'s slots onto a new shard opened over
      the given region (formatted in place); returns the new shard's
      index ([shards t - 1]).  Raises [Invalid_argument] when called
      through a batch handle, while another migration is in flight, or
      when [source] owns fewer than two slots. *)
  val split_shard : t -> source:int -> Pmem.Region.t -> int

  (** Move every slot of [source] onto [target].  The source region
      stays attached (shard indices are stable; shard 0 always anchors
      the directory) but owns no slots and holds no keys afterwards.
      Raises [Invalid_argument] on self-merge, a slotless source, or the
      conditions of {!split_shard}. *)
  val merge_shards : t -> source:int -> target:int -> unit

  (** Completed-resize count (0 until the first split/merge). *)
  val epoch : t -> int

  (** Routing-directory slot count (fixed at first creation). *)
  val route_slots : t -> int

  (** The directory slot a key hashes to. *)
  val slot_of_key : t -> string -> int

  (** The shard a slot is assigned to. *)
  val shard_of_slot : t -> int -> int

  (** A durable migration intent is still hooked — never true after
      [open_db]/{!recover} when every endpoint is healthy (recovery
      then completes the in-flight migration) or after a resize
      returns.  A migration whose endpoint is sick is {e parked} here
      until {!repair} heals it. *)
  val migration_pending : t -> bool

  (** The per-shard regions, in shard order (shared, not copies). *)
  val regions : t -> Pmem.Region.t array

  (** Aggregated instrumentation counters across every shard's region. *)
  val stats : t -> Pmem.Stats.t

  (** {2 Group-commit accounting}

      Ticked by the {!Group_commit} front-end; exposed here so the
      coalescing layer's activity is metered on the shard regions it
      drained and aggregates with the rest of {!stats}.  A drained
      window of [logical] transactions that needed [engine] engine
      rounds (> 1 only when a raiser split the window) saved
      [logical - engine] fence sequences; [merged] cross-shard batches
      rode another batch's intent record instead of writing their own. *)
  val note_group_commit :
    t -> shard:int -> logical:int -> engine:int -> merged:int -> unit

  (** [n] operations acknowledged at enqueue ([Async] mode), metered on
      the shard whose queue accepted them. *)
  val note_async_acks : t -> shard:int -> int -> unit

  (** One explicit drain-everything barrier (metered on shard 0, like
      the other whole-store events). *)
  val note_flush : t -> unit

  (** {2 Fault isolation and self-healing}

      Each shard carries a {!health} verdict.  Verdicts are recomputed
      from the media at every open/recovery (rot is persistent), and
      additionally persisted in shard 0 next to the routing table so
      the non-recomputable [Evacuated] verdict survives reopen.  The
      store serves every slot whose shard can serve it and refuses the
      rest with the typed {!Shard_unavailable}: a sick shard never
      takes the store down, never crashes a caller, and never turns
      into a silent miss. *)

  (** Shard [i]'s current verdict.  Raises [Invalid_argument] on a bad
      index. *)
  val health : t -> int -> health

  (** Re-run crash recovery on every shard — in parallel (one domain per
      shard) by default — then run the reconciliation pass over the
      surviving protocol records.  Idempotent, like the single-engine
      recovery it fans out.  Per-shard failures are classified instead
      of raised: a shard whose salvage recovery refuses comes back
      [Quarantined] with its engine detached, data-loss survivors come
      back [Degraded], and work owed to a sick shard (mirrors,
      migrations) is parked until {!repair}.  Only shard 0
      failing — or a simulated machine crash — still raises
      ({!Shard_open_failed} / [Crash_point]). *)
  val recover : ?parallel:bool -> t -> unit

  (** Engine-level recovery of one shard only (no reconciliation);
      exposed so recovery latency can be measured per shard.  A failure
      is wrapped in {!Shard_open_failed} naming the shard. *)
  val recover_shard : t -> int -> unit

  (** What {!repair} did to one sick shard. *)
  type repair_outcome =
    | Scrub_repaired  (** a reopen+scrub pass came back clean *)
    | Snapshot_restored
        (** the region was replaced from its snapshot file (writes
            after the snapshot are lost; owed protocol records
            re-settle via reconciliation) *)
    | Evacuated_keys of { target : int; moved : int }
        (** [moved] surviving keys were placed on [target] exactly
            once and the source retired as [Evacuated] *)
    | Unrepaired of health_cause
        (** nothing applied; the verdict stands *)

  (** The self-healing driver.  For every [Degraded]/[Quarantined]
      (non-evacuated) shard, escalate:

      + scrub retries under the jittered-exponential backoff schedule
        of {!overload_backoff_schedule} ([retries]/[base_ns]/[seed],
        attempts counted in [Stats.repair_attempts]);
      + restore from the shard's snapshot file under [snapshot_base]
        (as written by {!save_to_files}), adopted only after a clean
        validating scrub;
      + evacuate the surviving keys onto [target] (or the first healthy
        shard) — needs a readable source engine and never applies to
        shard 0.

      Verdict changes are persisted, then the reconciliation pass
      re-runs so parked work settles on the healed store.  Returns one
      outcome per shard repair considered, in shard order.  Raises
      [Invalid_argument] through a batch handle. *)
  val repair :
    ?retries:int ->
    ?base_ns:int ->
    ?seed:int ->
    ?snapshot_base:string ->
    ?target:int ->
    t ->
    (int * repair_outcome) list

  (** Evacuate shard [source]'s surviving keys onto the healthy shard
      [target] directly (the R3 step of {!repair}): durable evacuation
      intent, best-effort read-only salvage stream in bounded
      insert-if-absent batches, then one shard-0 transaction flipping
      the routing table and the source's [Evacuated] verdict together.
      Returns the number of salvaged keys.  Raises [Invalid_argument]
      through a batch handle, for shard 0, an unhealthy target, or
      while a migration intent is in flight. *)
  val start_evacuation : t -> source:int -> target:int -> int

  (** Protocol records currently hooked across the store: every mirror
      and flip.  Committed batches park their records here until a later
      protocol transaction, {!flush_clears} or recovery reclaims them. *)
  val pending_intents : t -> int

  (** Reclaim every parked lazy-CLEAR record now, in dedicated
      transactions (one per shard with a non-empty queue, counted in
      [Stats.clear_flushes]).  The same drain runs automatically for any
      shard whose queue reaches [clear_flush_threshold], so a
      write-quiet shard's stale mirrors are reclaimed without waiting
      for its next protocol transaction.  After this, a quiescent store
      reports zero {!pending_intents}. *)
  val flush_clears : t -> unit

  (** Salvage-scrub every open shard's twins; the report sums the
      per-shard reports, with tolerated data-loss lines concatenated
      (their offsets are shard-relative — use {!scrub_shards} for
      attribution).  Shards whose engine is down are skipped.  Raises
      [Romulus.Engine.Unrepairable] only when damage poisons a line
      recovery would have to trust (a bad header, MUT/CPY state). *)
  val scrub : t -> Romulus.Engine.scrub_report

  (** Per-shard salvage scrub reports, one entry per open engine in
      shard order: every repaired or tolerated line is attributed to
      exactly the shard whose region holds it. *)
  val scrub_shards : t -> (int * Romulus.Engine.scrub_report) list

  (** Per-shard media-fault target spans, in shard order (offsets are
      relative to that shard's own region). *)
  val media_spans : t -> (int * int) list array

  (** Save one snapshot file per shard under
      [Pmem.Region.shard_snapshot_path base ~shard]. *)
  val save_to_files : t -> string -> unit

  (** Reopen a store from the file family written by {!save_to_files}
      ([shards] must match the saved shard count). *)
  val open_from_files :
    ?fence:Pmem.Fence.profile ->
    ?initial_buckets:int ->
    ?chunk_bytes:int ->
    ?spill_threshold:int ->
    ?admission_budget:int ->
    ?clear_flush_threshold:int ->
    shards:int ->
    string ->
    t
end

(** Sharded RomulusDB over the paper's default PTM (RomulusLog). *)
module Default : module type of Make (Romulus.Logged)
