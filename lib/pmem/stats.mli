(** Instrumentation counters for a persistent-memory region. *)

type t = {
  mutable pwbs : int;        (** persist write-backs issued *)
  mutable pfences : int;     (** persist fences issued *)
  mutable psyncs : int;      (** persist syncs issued *)
  mutable loads : int;       (** word/blob loads from the region *)
  mutable stores : int;      (** word stores to the region *)
  mutable nvm_bytes : int;   (** every byte stored into the region *)
  mutable user_bytes : int;  (** payload bytes credited by the PTM *)
  mutable load_bytes : int;  (** every byte loaded from the region *)
  mutable copy_calls : int;  (** region-internal copies (replication, recovery) *)
  mutable replicated_bytes : int; (** bytes moved by region-internal copies *)
  mutable commits : int;     (** durably committed transactions (ticked by the engine) *)
  mutable delay_ns : int;    (** virtual latency injected by the fence profile *)
  mutable crashes : int;     (** simulated crashes *)
  mutable tx_aborts : int;   (** transactions aborted and rolled back (ticked by the PTM) *)
  mutable scrubbed_lines : int;     (** lines whose sidecar CRC a scrub verified *)
  mutable repaired_lines : int;     (** bad lines a scrub rewrote from their twin *)
  mutable unrepairable_lines : int; (** bad lines no twin could repair *)
  mutable media_errors : int;       (** loads that hit a line failing its CRC *)
  mutable intent_prepares : int;    (** cross-shard intent mirrors made durable (one per participant) *)
  mutable coordinator_flips : int;  (** cross-shard COMMIT flips (the batch durability point) *)
  mutable lazy_clears : int;        (** intent records reclaimed lazily (piggybacked on a later protocol transaction) *)
  mutable rolled_forward : int;     (** intents resolved as committed during reconciliation *)
  mutable rolled_back : int;        (** intents resolved by presumed-abort rollback (recovery or runtime abort) *)
  mutable chunks_written : int;      (** mirror payload chunks made durable (incl. the single-chunk fast path) *)
  mutable chunks_spilled : int;      (** oversized undo images spilled out of the inline payload *)
  mutable overload_rejections : int; (** batches refused by per-shard admission control *)
  mutable clear_flushes : int;       (** dedicated lazy-CLEAR flush transactions (threshold or explicit) *)
  mutable migrations_started : int;   (** shard split/merge intents made durable *)
  mutable migrations_resumed : int;   (** in-flight migrations picked up by recovery *)
  mutable migrations_completed : int; (** migrations whose epoch flip committed *)
  mutable keys_migrated : int;        (** keys inserted into a migration target *)
  mutable double_reads : int;         (** reads that fell back to the migration source *)
  mutable health_degraded : int;     (** shard transitions into Degraded (read-only) *)
  mutable health_quarantined : int;  (** shard transitions into Quarantined *)
  mutable health_repaired : int;     (** shard transitions back to Healthy *)
  mutable repair_attempts : int;     (** scrub/reopen attempts by the repair driver *)
  mutable repair_snapshot_restores : int; (** shards restored from a snapshot file *)
  mutable shards_evacuated : int;    (** dying shards whose keys were evacuated *)
  mutable keys_evacuated : int;      (** keys copied off a dying shard *)
  mutable unavailable_rejections : int; (** operations refused with Shard_unavailable *)
  mutable group_commits : int;   (** coalesced engine rounds run by the group-commit front-end *)
  mutable group_size_sum : int;  (** logical transactions settled across those rounds *)
  mutable group_size_max : int;  (** largest single coalesced group (summed by [aggregate]) *)
  mutable fences_saved : int;    (** fence sequences avoided: logical txs settled minus engine rounds paid *)
  mutable merged_intents : int;  (** cross-shard batches that shared another batch's intent record *)
  mutable async_acks : int;      (** operations acknowledged at enqueue (Async mode) *)
  mutable flushes : int;         (** explicit group-commit flushes (drain-everything barriers) *)
}

val create : unit -> t
val reset : t -> unit

(** Independent copy of the current counter values. *)
val snapshot : t -> t

(** Counters accumulated between [past] and [now]. *)
val since : now:t -> past:t -> t

(** Field-wise sum of the given counter records, as a fresh independent
    record — the aggregate view of a multi-region (sharded) store. *)
val aggregate : t list -> t

(** [pfences + psyncs] — the persistence-fence count the paper reports. *)
val fences : t -> int

(** [nvm_bytes / user_bytes]; [nan] when no user bytes were credited. *)
val write_amplification : t -> float

(** Per-committed-transaction rates; [nan] when no transaction committed
    in the counted window. *)
val pwbs_per_tx : t -> float

val copies_per_tx : t -> float
val replicated_bytes_per_tx : t -> float

val pp : Format.formatter -> t -> unit
