(* Sharded RomulusDB: the LevelDB interface of Romulus_db, hash-
   partitioned across N independent per-shard PTM instances.  One engine
   means one C-RW-WP writer lock and one flat-combining array, so update
   throughput is flat no matter how many domains run; with a shard per
   partition, unrelated updates commit concurrently and each shard
   amortizes its own batch under one set of persistence fences, while
   every shard keeps the paper's twin-copy 4-fence protocol intact.

   Cross-shard write batches are made all-or-nothing by the
   *decentralized presumed-abort* commit protocol:

     PREPARE+APPLY  one ordinary durable transaction per participant
                    shard writes that shard's own *intent mirror*
                    (batch id, coordinator, participant set, its slice
                    of ops + per-key undo images) into the shard's
                    mirror list and, in the same transaction, applies
                    the slice.  Mirror durable <=> slice applied.
     COMMIT         one transaction on the *coordinator* shard (the
                    minimum participant index — different batches pick
                    different coordinators, so no fixed shard serializes
                    the protocol) hooks a flip record carrying the batch
                    id.  The flip is the batch's durability point.
     CLEAR (lazy)   nothing is unhooked eagerly: a shard reclaims its
                    stale mirrors piggybacked on its next PREPARE (or
                    flip) transaction, and the coordinator's flip is
                    reclaimed once every mirror of its batch is gone —
                    a flip may never be removed while a mirror of its
                    batch survives anywhere, or presumed abort would
                    roll a committed batch back.

   Recovery (after every shard's engine recovery has restored per-shard
   consistency) runs a reconciliation pass: collect the intent mirrors
   across shards and resolve each by querying its coordinator's flip
   list — flip present => the batch committed, the mirror's slice is
   already applied (PREPARE and APPLY are one transaction), so the
   mirror is only unhooked; flip absent => presumed abort, the mirror's
   still-valid undo images are replayed and the mirror unhooked, both
   in one per-shard transaction.  Flips are cleared in a second phase
   once no mirror remains.  Every step is idempotent at the KV level,
   so a crash inside reconciliation reconverges on the next recovery.

   A concurrent single-key write racing an in-flight batch on the same
   key *invalidates the batch's undo entry for that key* inside its own
   transaction (a one-byte flip in the mirror), so neither a runtime
   abort nor crash recovery can overwrite the racing committed write
   with the batch's stale pre-image (the CORRECTNESS.md §10 lost-update
   gap).

   The retired centralized protocol kept a single batch-intent record in
   shard 0's root slot [intent_slot]; the slot stays reserved, and a
   store that still holds such a record (crashed mid-batch under that
   protocol) is refused at open rather than replayed.  A batch that
   touches a single shard (always the case with one shard) skips the
   protocol and runs as that shard's lone transaction, exactly as in
   Romulus_db. *)

exception Invalid_shards of int

exception Overloaded of { shard : int; in_flight : int; budget : int }

(* [open_from_files ~shards] against a snapshot family saved with a
   different shard count: the requested count disagrees with the files
   actually on disk (elastic stores grow their family when a split adds
   a shard). *)
exception Shard_mismatch of { requested : int; found : int }

(* ---- per-shard health ----

   Media damage on one shard must not take the store down: every shard
   carries a health verdict, persisted in shard 0 next to the slot
   table, and operations on a sick shard's slots fail with a typed
   exception instead of crashing the caller or silently missing. *)

type health_cause =
  | Unrepairable_media of { offset : int; state : string }
      (* a salvage scrub found lines no twin can vouch for (Degraded:
         tolerable IDL data loss; Quarantined: damage recovery would
         have to copy) *)
  | Open_failed of string
      (* the shard's engine refused to open or recover *)
  | Evacuated of { target : int }
      (* the shard's surviving keys were moved onto [target]; its slots
         no longer route here *)

type health =
  | Healthy
  | Degraded of health_cause (* read-only: media errors pending repair *)
  | Quarantined of health_cause (* unreadable / unopenable / evacuated *)

(* An operation routed to a shard that cannot serve it.  Raised by reads
   of a quarantined shard's slots and writes to any non-healthy shard's
   slots — never a raw [Media_error] leak, never a silent miss. *)
exception Shard_unavailable of { shard : int; cause : health_cause }

(* A shard-attributed open/recovery failure: [open_from_files] wraps a
   per-shard snapshot-load failure (previously a raw [Sys_error] or
   [Snapshot_corrupt] with no shard attribution), [recover_shard]
   wraps its engine's failure, and shard 0 — whose failure is fatal,
   because it anchors routing and health —
   surfaces its open failure this way from [open_db]. *)
exception Shard_open_failed of { shard : int; cause : exn }

(* ---- routing directory ----

   Keys route through a slot table: [route_hash k mod n_slots] picks a
   slot, the slot's assignment picks the shard.  [n_slots] is fixed at
   [slots_per_shard * initial shard count] when the store is first
   created; epoch 0 assigns slot [s] to shard [s mod n], which makes the
   epoch-0 route bit-for-bit the original hash-modulo route (because n
   divides n_slots, [(h mod n_slots) mod n = h mod n]).  Multi-shard
   stores pin the table durably at first open (so a crashed resize can
   never be confused about the pre-resize count); a 1-shard store writes
   no routing metadata at all until its first split. *)
let slots_per_shard = 8

(* ---- typed-backoff retry around [Overloaded] ----

   Deterministic: the sleep schedule is a pure function of
   [retries]/[base_ns]/[seed] (exponential growth, xorshift jitter), so
   tests can assert the exact schedule and crash campaigns stay
   reproducible.  Shared by migration move batches and exposed for
   clients whose cross-shard batches may be refused by admission control
   or by an in-flight migration window. *)
let default_overload_retries = 5
let default_overload_base_ns = 20_000

let overload_backoff_schedule ~retries ~base_ns ~seed =
  if retries < 0 then invalid_arg "overload_backoff_schedule: retries < 0";
  if base_ns <= 0 then invalid_arg "overload_backoff_schedule: base_ns <= 0";
  let state = ref (if seed = 0 then 0x6b8b4567 else seed land max_int) in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x land max_int;
    !state
  in
  List.init retries (fun i ->
      let slot = base_ns * (1 lsl min i 20) in
      slot + (next () mod max 1 (slot / 2)))

(* Busy-wait roughly [ns] of backoff; virtual time, not measured — the
   point is a bounded, monotonically growing pause between retries. *)
let backoff_wait_ns ns =
  for _ = 1 to max 1 (ns / 100) do
    Domain.cpu_relax ()
  done

let with_overload_retry ?(retries = default_overload_retries)
    ?(base_ns = default_overload_base_ns) ?(seed = 0) ?(on_wait = fun _ -> ())
    f =
  let rec go = function
    | [] -> f ()
    | wait :: rest -> (
      try f ()
      with Overloaded _ ->
        on_wait wait;
        backoff_wait_ns wait;
        go rest)
  in
  go (overload_backoff_schedule ~retries ~base_ns ~seed)

(* Chunked mirror streaming: a mirror whose payload exceeds [chunk_bytes]
   is written as a linked chain of CRC-protected chunks, one engine
   transaction each, and only becomes meaningful when a final seal
   transaction flips the mirror's [sealed] word and applies the slice —
   unsealed chains are garbage-collected as presumed abort. *)
let min_chunk_bytes = 128

let default_chunk_bytes = 16 * 1024
let default_spill_threshold = 4 * 1024
let default_admission_budget = 4 * 1024 * 1024
let default_clear_flush_threshold = 32

(* attempts a batch makes to get under the per-shard in-flight budget
   before raising [Overloaded] *)
let admission_retries = 6

module type SHARD_PTM = sig
  include Romulus.Ptm_intf.S

  val recover : t -> unit
  val recover_salvage : t -> (int * string) list
  val scrub : t -> Romulus.Engine.scrub_report
  val scrub_salvage : t -> Romulus.Engine.scrub_report
  val media_spans : t -> (int * int) list
  val allocator_check : t -> (unit, string) result
end

(* Crash-window failpoints.  The campaign arms one of these with a
   simulated power-off to kill inside a protocol window, between the
   per-shard commits, and around recovery's fan-out. *)
let fp_mirror_applied = Fault.site "sharded.d.mirror_applied"
let fp_flip_written = Fault.site "sharded.d.flip_written"
let fp_mirror_cleared = Fault.site "sharded.d.mirror_cleared"
let fp_rollback_undone = Fault.site "sharded.d.rollback_undone"
let fp_recover_shard_done = Fault.site "sharded.recover.shard_done"
let fp_recover_resolved = Fault.site "sharded.recover.mirror_resolved"
let fp_recover_reconciled = Fault.site "sharded.recover.reconciled"

(* chunk-chain windows: after each streamed chunk commit, after each
   spilled undo image, between the last chunk and the seal transaction,
   and after recovery garbage-collects an unsealed chain *)
let fp_chunk_written = Fault.site "sharded.chunk.written"
let fp_chunk_spilled = Fault.site "sharded.chunk.spilled"
let fp_seal_window = Fault.site "sharded.chunk.seal_window"
let fp_chunk_gc = Fault.site "sharded.chunk.gc"

(* migration windows: after the intent record commits, after each move
   batch's source transaction (keys deleted from the source, cursor
   durable, target not yet updated), after each move batch's target
   transaction, after recovery replays the durable cursor, after the
   epoch-flip transaction (the migration's validity point), and after
   the post-flip reclamation pass *)
let fp_mig_intent = Fault.site "sharded.migrate.intent_open"
let fp_mig_moved = Fault.site "sharded.migrate.batch_moved"
let fp_mig_applied = Fault.site "sharded.migrate.batch_applied"
let fp_mig_resumed = Fault.site "sharded.migrate.resumed"
let fp_mig_flip = Fault.site "sharded.migrate.epoch_flip"
let fp_mig_reclaim = Fault.site "sharded.migrate.reclaimed"

(* health windows: after a shard's health transition is observed (its
   durable record may lag by one shard-0 transaction — recomputed
   deterministically at the next open either way), after an evacuation
   intent commits, and after the evacuation's combined route+health
   flip (the evacuation's validity point) *)
let fp_health_degraded = Fault.site "sharded.health.degraded"
let fp_health_quarantined = Fault.site "sharded.health.quarantined"
let fp_health_repaired = Fault.site "sharded.health.repaired"
let fp_health_evacuate_start = Fault.site "sharded.health.evacuate_start"
let fp_health_evacuated = Fault.site "sharded.health.evacuated"

(* ---- record serialization (PTM-independent) ----

   All lengths are 64-bit little-endian; a value option carries a
   presence tag so "put empty string" and "delete" stay distinct.  A
   mirror stores one blob per shard slice whose undo entries each carry
   a leading validity byte ('\001' live, '\000' invalidated by a racing
   single-key write). *)

let add_str b s =
  Buffer.add_int64_le b (Int64.of_int (String.length s));
  Buffer.add_string b s

let add_opt b v =
  match v with
  | None -> Buffer.add_char b '\000'
  | Some v ->
    Buffer.add_char b '\001';
    add_str b v

let add_kv_list b l =
  Buffer.add_int64_le b (Int64.of_int (List.length l));
  List.iter
    (fun (k, v) ->
      add_str b k;
      add_opt b v)
    l

(* An undo image inside a mirror payload: the key's pre-batch value
   either did not exist, is stored inline, or — when larger than the
   spill threshold — was spilled into its own CRC-protected record and
   the payload carries only the (offset, length) reference. *)
type undo_image =
  | U_absent
  | U_inline of string
  | U_spilled of { off : int; len : int }

let image_of_opt = function None -> U_absent | Some v -> U_inline v

let add_image b = function
  | U_absent -> Buffer.add_char b '\000'
  | U_inline v ->
    Buffer.add_char b '\001';
    add_str b v
  | U_spilled { off; len } ->
    Buffer.add_char b '\002';
    Buffer.add_int64_le b (Int64.of_int off);
    Buffer.add_int64_le b (Int64.of_int len)

(* Mirror payload: shard count, the slice's ops, then undo entries with
   a per-entry validity byte.  Returns the payload plus each undo key's
   validity-byte offset *relative to the payload start*, so a racing
   write can invalidate its entry with a one-byte durable store. *)
let encode_mirror ~nshards ~ops ~undo =
  let b = Buffer.create 256 in
  Buffer.add_int64_le b (Int64.of_int nshards);
  add_kv_list b ops;
  Buffer.add_int64_le b (Int64.of_int (List.length undo));
  let valid_offs =
    List.map
      (fun (k, img) ->
        let off = Buffer.length b in
        Buffer.add_char b '\001';
        add_str b k;
        add_image b img;
        (k, off))
      undo
  in
  (Buffer.contents b, valid_offs)

(* Exact length of the payload [encode_mirror] would produce with every
   undo image inline — the admission-control charge of a mirror, and the
   chunked-vs-fast-path decision, without building the string. *)
let opt_len = function None -> 1 | Some v -> 1 + 8 + String.length v

let mirror_payload_len ~ops ~undo =
  let kv_list l =
    8 + List.fold_left (fun a (k, v) -> a + 8 + String.length k + opt_len v) 0 l
  in
  8 + kv_list ops
  + 8
  + List.fold_left
      (fun a (k, v) -> a + 1 + 8 + String.length k + opt_len v)
      0 undo

type parser_ = { payload : string; mutable pos : int }

let bad what =
  raise
    (Romulus.Engine.Recovery_error
       (Printf.sprintf "sharded batch intent: truncated %s record" what))

let take_int pr what =
  if pr.pos + 8 > String.length pr.payload then bad what;
  let v = Int64.to_int (String.get_int64_le pr.payload pr.pos) in
  pr.pos <- pr.pos + 8;
  if v < 0 then bad what;
  v

let take_str pr what =
  let len = take_int pr what in
  if pr.pos + len > String.length pr.payload then bad what;
  let s = String.sub pr.payload pr.pos len in
  pr.pos <- pr.pos + len;
  s

let take_byte pr what =
  if pr.pos >= String.length pr.payload then bad what;
  let c = pr.payload.[pr.pos] in
  pr.pos <- pr.pos + 1;
  c

let take_opt pr what =
  match take_byte pr what with
  | '\000' -> None
  | '\001' -> Some (take_str pr what)
  | _ -> bad what

let take_kv_list pr what =
  let n = take_int pr what in
  List.init n (fun _ ->
      let k = take_str pr what in
      (k, take_opt pr what))

let take_image pr what =
  match take_byte pr what with
  | '\000' -> U_absent
  | '\001' -> U_inline (take_str pr what)
  | '\002' ->
    let off = take_int pr what in
    let len = take_int pr what in
    U_spilled { off; len }
  | _ -> bad what

(* Returns (nshards, ops, undo) where each undo entry carries its
   validity flag. *)
let decode_mirror payload =
  let pr = { payload; pos = 0 } in
  let nshards = take_int pr "shard-count" in
  let ops = take_kv_list pr "operation" in
  let n = take_int pr "undo" in
  let undo =
    List.init n (fun _ ->
        let valid =
          match take_byte pr "undo-validity" with
          | '\000' -> false
          | '\001' -> true
          | _ -> bad "undo-validity"
        in
        let k = take_str pr "undo" in
        (valid, k, take_image pr "undo"))
  in
  (nshards, ops, undo)

(* ---- health record codec (PTM-independent) ----

   The per-shard health array persists as one length-prefixed record in
   shard 0 (wholesale replace, like the routing table): shard count,
   then one tagged verdict per shard. *)

let add_cause b = function
  | Unrepairable_media { offset; state } ->
    Buffer.add_char b '\000';
    Buffer.add_int64_le b (Int64.of_int offset);
    add_str b state
  | Open_failed msg ->
    Buffer.add_char b '\001';
    add_str b msg
  | Evacuated { target } ->
    Buffer.add_char b '\002';
    Buffer.add_int64_le b (Int64.of_int target)

let encode_health healths =
  let b = Buffer.create 64 in
  Buffer.add_int64_le b (Int64.of_int (Array.length healths));
  Array.iter
    (fun h ->
      match h with
      | Healthy -> Buffer.add_char b '\000'
      | Degraded c ->
        Buffer.add_char b '\001';
        add_cause b c
      | Quarantined c ->
        Buffer.add_char b '\002';
        add_cause b c)
    healths;
  Buffer.contents b

let take_cause pr =
  match take_byte pr "health-cause" with
  | '\000' ->
    let offset = take_int pr "health-cause" in
    let state = take_str pr "health-cause" in
    Unrepairable_media { offset; state }
  | '\001' -> Open_failed (take_str pr "health-cause")
  | '\002' -> Evacuated { target = take_int pr "health-cause" }
  | _ -> bad "health-cause"

let decode_health payload =
  let pr = { payload; pos = 0 } in
  let n = take_int pr "health" in
  Array.init n (fun _ ->
      match take_byte pr "health" with
      | '\000' -> Healthy
      | '\001' -> Degraded (take_cause pr)
      | '\002' -> Quarantined (take_cause pr)
      | _ -> bad "health")

(* ---- chunk chains (PTM-independent) ----

   A payload too large for one allocation is cut into bounded pieces;
   each piece is stored in its own record with a CRC-32 and reassembled
   on read with every CRC re-verified and the total length checked
   against the mirror header.  Pure, so the round-trip and the
   rejection of truncated / corrupted chains are testable without a
   store. *)
module Chunk = struct
  let crc s = Pmem.Crc32.string s

  (* cut [payload] into pieces of at most [chunk_bytes] (the last piece
     may be shorter); the empty payload is one empty piece *)
  let split ~chunk_bytes payload =
    if chunk_bytes <= 0 then invalid_arg "Chunk.split: chunk_bytes <= 0";
    let n = String.length payload in
    if n = 0 then [ "" ]
    else begin
      let rec go pos acc =
        if pos >= n then List.rev acc
        else
          let len = min chunk_bytes (n - pos) in
          go (pos + len) (String.sub payload pos len :: acc)
      in
      go 0 []
    end

  (* reassemble a chain read back as (piece, stored_crc) pairs in chain
     order; every piece must pass its CRC and the total must be exactly
     [expect_len] *)
  let join ~expect_len pieces =
    let b = Buffer.create expect_len in
    let rec go = function
      | [] ->
        if Buffer.length b <> expect_len then
          Error
            (Printf.sprintf "chunk chain holds %d bytes, mirror declares %d"
               (Buffer.length b) expect_len)
        else Ok (Buffer.contents b)
      | (piece, stored) :: rest ->
        if crc piece <> stored then
          Error
            (Printf.sprintf "chunk CRC mismatch at payload byte %d"
               (Buffer.length b))
        else if Buffer.length b + String.length piece > expect_len then
          Error
            (Printf.sprintf "chunk chain exceeds declared length %d"
               expect_len)
        else begin
          Buffer.add_string b piece;
          go rest
        end
    in
    go pieces
end

module Make (P : SHARD_PTM) = struct
  module Map_ = Str_hash_map.Make (P)

  type shard = { p : P.t; map : Map_.t; region : Pmem.Region.t }

  (* A batch handle is a shallow copy of the store with [batch = Some _]:
     operations on it are buffered (newest first) instead of applied, so
     concurrent batches never share mutable state. *)
  type batch = { mutable ops : (string * string option) list }

  (* A still-valid undo entry of an in-flight batch, consulted by racing
     single-key writes: [pu_valid] is the absolute offset of the entry's
     validity byte, which lives inside the payload chunk at [pu_chunk]
     of shard [pu_shard]'s mirror — the chunk whose CRC an invalidation
     must refresh. *)
  type pending_undo = {
    pu_shard : int;
    pu_mirror : int;
    pu_chunk : int;
    pu_valid : int;
  }

  (* Volatile protocol state, shared by every handle of one store (batch
     handles are shallow copies).  Lost at a crash by definition — the
     recovery reconciliation pass rebuilds the persistent truth and this
     record is reset. *)
  (* Resource-governance knobs, fixed at [open_db]. *)
  type config = {
    initial_buckets : int;
    chunk_bytes : int;
    spill_threshold : int;
    admission_budget : int;
    clear_flush_threshold : int;
  }

  type proto = {
    config : config;
    mutable next_batch_id : int;
    pending : (string, pending_undo) Hashtbl.t;
    (* per shard: committed-batch mirrors awaiting a piggybacked unhook *)
    mutable clearable_mirrors : (int * int) list array;
    (* (mirror_off, batch id) *)
    (* per coordinator shard: flips whose batches have no mirror left *)
    mutable clearable_flips : int list array; (* flip_off *)
    (* batch id -> (coordinator, flip_off, mirrors still hooked) *)
    live_flips : (int, int * int * int ref) Hashtbl.t;
    (* per shard: payload bytes of batches currently inside the commit
       protocol, charged by admission control (volatile by design — a
       crash empties the protocol) *)
    mutable in_flight : int array;
  }

  (* An in-flight migration's volatile window state (the persistent truth
     is the intent record): moving slots already route to the target,
     reads double-read (target, then tombstones, then source), and
     [mig_tomb] — a map in the target region — records keys a racing
     delete made authoritatively absent, so neither the move stream nor
     recovery can resurrect them from a stale source copy. *)
  type mig = {
    mig_source : int;
    mig_target : int;
    mig_epoch : int;
    moving : bool array; (* per slot *)
    mig_tomb : Map_.t;
  }

  (* The routing directory's volatile image, shared by every handle (the
     persistent record — if any — lives in shard 0).  [epoch] counts
     completed resizes; the migration window, when open, has already
     re-pointed [assignment] for the moving slots (the "new epoch"
     route). *)
  type router = {
    mutable epoch : int;
    mutable n_slots : int;
    mutable assignment : int array; (* slot -> shard *)
    mutable migration : mig option;
  }

  type t = {
    (* [None] when the shard's engine could not be opened or recovered;
       the slot keeps its region (and health verdict) so stats, repair
       and snapshot restore still have somewhere to stand. *)
    mutable shard_arr : shard option array;
    (* one region per shard, always populated — even for down shards *)
    mutable region_arr : Pmem.Region.t array;
    mutable health_arr : health array;
    batch : batch option;
    proto : proto;
    router : router;
  }

  let db_root = 0 (* same slot as Romulus_db: the map's anchor *)

  (* Reserved root slots, far from the map's anchor.  None is touched
     before the first cross-shard batch, so a 1-shard store stays
     bit-for-bit identical to Romulus_db.  [intent_slot] held the
     retired centralized protocol's batch record (shard 0); it stays
     reserved so the other slots keep their numbers, and a non-zero
     value is refused at open.  [mirror_slot] and [flip_slot] head each
     shard's mirror and flip lists. *)
  let intent_slot = Romulus.Ptm_intf.root_slots - 1
  let mirror_slot = Romulus.Ptm_intf.root_slots - 2
  let flip_slot = Romulus.Ptm_intf.root_slots - 3

  (* Elastic-sharding slots.  [route_slot] (shard 0) holds the persisted
     routing table, pinned at first open for multi-shard stores and
     rewritten by each resize's epoch flip (1-shard stores leave it at 0
     until they split); [mig_slot] (shard 0) holds the single migration intent
     record; [cursor_slot] (the migration source) holds the current
     move batch's CRC-protected cursor; [tomb_slot] (the migration
     target) anchors the tombstone map. *)
  let route_slot = Romulus.Ptm_intf.root_slots - 4
  let mig_slot = Romulus.Ptm_intf.root_slots - 5
  let cursor_slot = Romulus.Ptm_intf.root_slots - 6
  let tomb_slot = Romulus.Ptm_intf.root_slots - 7

  (* Per-shard health array (shard 0, next to the slot table). *)
  let health_slot = Romulus.Ptm_intf.root_slots - 8

  (* mirror record: next | batch id | coordinator | participant mask |
     sealed | payload length | chunk-chain head | spill-list head.
     The payload itself always lives in the chunk chain (a single chunk
     on the fast path); [sealed] is 0 while the chain is streaming and
     flipped to 1 in the transaction that applies the slice, so
     sealed <=> slice applied and an unsealed chain is garbage for
     recovery to collect. *)
  let mirror_hdr = 64

  let m_next = 0
  let m_id = 8
  let m_coord = 16
  let m_mask = 24
  let m_sealed = 32
  let m_plen = 40
  let m_chunks = 48
  let m_spills = 56

  (* chunk / spill record: next | byte length | crc32 | bytes *)
  let chunk_hdr = 24

  let c_len = 8
  let c_crc = 16

  (* flip record: next | batch id | participant mask *)
  let flip_size = 24

  (* FNV-1a core as the map's bucket hash, plus an avalanche step so the
     shard route is independent of the bucket index even when the shard
     count shares factors with the bucket count. *)
  let route_hash s =
    let h = ref 0x4bf29ce484222325 in
    String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
    let h = !h in
    let h = h lxor (h lsr 33) in
    let h = h * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int

  let shards t = Array.length t.region_arr
  let epoch t = t.router.epoch
  let route_slots t = t.router.n_slots
  let slot_of_key t k = route_hash k mod t.router.n_slots
  let shard_of_slot t s = t.router.assignment.(s)
  let shard_of_key t k = t.router.assignment.(slot_of_key t k)
  let regions t = Array.copy t.region_arr

  let health t i =
    if i < 0 || i >= shards t then
      invalid_arg (Printf.sprintf "Sharded_db.health: bad shard %d" i);
    t.health_arr.(i)

  let stats t =
    Pmem.Stats.aggregate
      (Array.to_list (Array.map Pmem.Region.stats t.region_arr))

  let tick s f =
    let st = Pmem.Region.stats s.region in
    f st

  (* Tick by shard index through the region table, so counters attach to
     the right shard even when its engine is down. *)
  let tick_region t i f = f (Pmem.Region.stats t.region_arr.(i))

  (* ---- availability gates ----

     [raw]: the engine, for protocol/recovery machinery that has already
     established the shard is reachable.  [live]: read availability
     (Healthy and Degraded serve reads; Degraded reads of an actually
     lost line still surface [Media_error] — damage is never silently
     blessed).  [rw]: write availability (Healthy only).  Each rejection
     is metered on the refusing shard and raises the typed
     {!Shard_unavailable} carrying that shard's verdict. *)

  let unavailable t i =
    tick_region t i (fun st ->
        st.Pmem.Stats.unavailable_rejections <-
          st.Pmem.Stats.unavailable_rejections + 1);
    let cause =
      match t.health_arr.(i) with
      | Degraded c | Quarantined c -> c
      | Healthy -> Open_failed "shard engine is not open"
    in
    raise (Shard_unavailable { shard = i; cause })

  let raw t i =
    match t.shard_arr.(i) with Some s -> s | None -> unavailable t i

  let live t i =
    match t.health_arr.(i) with
    | Healthy | Degraded _ -> raw t i
    | Quarantined _ -> unavailable t i

  let rw t i =
    match t.health_arr.(i) with
    | Healthy -> raw t i
    | Degraded _ | Quarantined _ -> unavailable t i

  let shard_for t k = live t (shard_of_key t k)

  (* The shard can participate in recovery-side reconciliation: its
     engine is open and it is not quarantined. *)
  let engine_up t i =
    Option.is_some t.shard_arr.(i)
    && (match t.health_arr.(i) with Quarantined _ -> false | _ -> true)

  let healthy t i =
    Option.is_some t.shard_arr.(i) && t.health_arr.(i) = Healthy

  (* Full scans drop an evacuated shard (its residual map is a stale
     duplicate of its target's keys) but refuse — typed, loudly — on any
     other quarantined shard: a scan must never silently miss keys. *)
  let scan_shard t i =
    match t.health_arr.(i) with
    | Quarantined (Evacuated _) -> None
    | Healthy | Degraded _ -> Some (raw t i)
    | Quarantined _ -> unavailable t i

  let tick_prepare s =
    tick s (fun st ->
        st.Pmem.Stats.intent_prepares <- st.Pmem.Stats.intent_prepares + 1)

  let tick_flip s =
    tick s (fun st ->
        st.Pmem.Stats.coordinator_flips <- st.Pmem.Stats.coordinator_flips + 1)

  let tick_lazy_clear s n =
    tick s (fun st ->
        st.Pmem.Stats.lazy_clears <- st.Pmem.Stats.lazy_clears + n)

  let tick_forward s =
    tick s (fun st ->
        st.Pmem.Stats.rolled_forward <- st.Pmem.Stats.rolled_forward + 1)

  let tick_back s =
    tick s (fun st ->
        st.Pmem.Stats.rolled_back <- st.Pmem.Stats.rolled_back + 1)

  let tick_chunk s =
    tick s (fun st ->
        st.Pmem.Stats.chunks_written <- st.Pmem.Stats.chunks_written + 1)

  let tick_spill s =
    tick s (fun st ->
        st.Pmem.Stats.chunks_spilled <- st.Pmem.Stats.chunks_spilled + 1)

  let tick_overload s =
    tick s (fun st ->
        st.Pmem.Stats.overload_rejections <-
          st.Pmem.Stats.overload_rejections + 1)

  let tick_clear_flush s =
    tick s (fun st ->
        st.Pmem.Stats.clear_flushes <- st.Pmem.Stats.clear_flushes + 1)

  let tick_mig_started s =
    tick s (fun st ->
        st.Pmem.Stats.migrations_started <- st.Pmem.Stats.migrations_started + 1)

  let tick_mig_resumed s =
    tick s (fun st ->
        st.Pmem.Stats.migrations_resumed <- st.Pmem.Stats.migrations_resumed + 1)

  let tick_mig_completed s =
    tick s (fun st ->
        st.Pmem.Stats.migrations_completed <-
          st.Pmem.Stats.migrations_completed + 1)

  let tick_migrated s n =
    tick s (fun st ->
        st.Pmem.Stats.keys_migrated <- st.Pmem.Stats.keys_migrated + n)

  let tick_double_read s =
    tick s (fun st ->
        st.Pmem.Stats.double_reads <- st.Pmem.Stats.double_reads + 1)

  let tick_health t i h =
    tick_region t i (fun st ->
        match h with
        | Healthy ->
          st.Pmem.Stats.health_repaired <- st.Pmem.Stats.health_repaired + 1
        | Degraded _ ->
          st.Pmem.Stats.health_degraded <- st.Pmem.Stats.health_degraded + 1
        | Quarantined _ ->
          st.Pmem.Stats.health_quarantined <-
            st.Pmem.Stats.health_quarantined + 1)

  (* ---- group-commit accounting (ticked by the front-end layer) ----

     The group-commit front-end ({!Group_commit}) coalesces many
     logical transactions into one engine transaction (single-shard
     windows) or one shared intent record (cross-shard windows).  It
     meters each drained window on the shard whose queue it drained so
     the counters aggregate naturally with the rest of the per-shard
     stats: [logical] transactions were settled using [engine] engine
     rounds (> 1 only when a raiser split the window), and [merged]
     cross-shard batches rode another batch's intent record. *)

  let note_group_commit t ~shard ~logical ~engine ~merged =
    tick_region t shard (fun st ->
        st.Pmem.Stats.group_commits <- st.Pmem.Stats.group_commits + engine;
        st.Pmem.Stats.group_size_sum <-
          st.Pmem.Stats.group_size_sum + logical;
        if logical > st.Pmem.Stats.group_size_max then
          st.Pmem.Stats.group_size_max <- logical;
        st.Pmem.Stats.fences_saved <-
          st.Pmem.Stats.fences_saved + (logical - engine);
        st.Pmem.Stats.merged_intents <-
          st.Pmem.Stats.merged_intents + merged)

  let note_async_acks t ~shard n =
    tick_region t shard (fun st ->
        st.Pmem.Stats.async_acks <- st.Pmem.Stats.async_acks + n)

  let note_flush t =
    tick_region t 0 (fun st ->
        st.Pmem.Stats.flushes <- st.Pmem.Stats.flushes + 1)

  (* ---- plain (non-batch) operations ---- *)

  (* Double-read during a transfer window: a moving key may not have
     reached the target yet, so a target miss consults the tombstones
     (a racing delete is authoritative) and then the source. *)
  let underlying_get t k =
    match t.router.migration with
    | Some m when m.moving.(slot_of_key t k) -> (
      match Map_.get (raw t m.mig_target).map k with
      | Some _ as r -> r
      | None ->
        tick_double_read (raw t m.mig_source);
        if Map_.mem m.mig_tomb k then None
        else Map_.get (raw t m.mig_source).map k)
    | _ -> Map_.get (shard_for t k).map k

  let underlying_mem t k =
    match t.router.migration with
    | Some m when m.moving.(slot_of_key t k) ->
      Map_.mem (raw t m.mig_target).map k
      || begin
        tick_double_read (raw t m.mig_source);
        (not (Map_.mem m.mig_tomb k))
        && Map_.mem (raw t m.mig_source).map k
      end
    | _ -> Map_.mem (shard_for t k).map k

  let apply_op s (k, v) =
    match v with
    | Some v -> ignore (Map_.put s.map k v : bool)
    | None -> ignore (Map_.remove s.map k : bool)

  (* A single-key write that races an in-flight cross-shard batch on the
     same key must not be overwritten by that batch's rollback: inside
     the write's own transaction the batch's undo entry for the key is
     invalidated (one byte in the mirror), so neither the inline abort
     path nor crash recovery will replay the stale pre-image. *)
  (* A single-key write to a moving slot during a transfer window routes
     on the new epoch with per-key forwarding: the target transaction is
     authoritative (a put clears the key's tombstone, a delete plants
     one), then the stale source copy is removed in its own transaction.
     A crash between the two is harmless — the target copy (or the
     tombstone) shadows the source under double-read, and recovery's
     resumed move stream re-deletes the source copy without overwriting
     the target (insert-if-absent). *)
  let forward_write t m k v =
    let tgt = raw t m.mig_target in
    let src = raw t m.mig_source in
    (match v with
    | Some value ->
      P.update_tx tgt.p (fun () ->
          ignore (Map_.put tgt.map k value : bool);
          ignore (Map_.remove m.mig_tomb k : bool))
    | None ->
      P.update_tx tgt.p (fun () ->
          ignore (Map_.remove tgt.map k : bool);
          ignore (Map_.put m.mig_tomb k "" : bool)));
    if Map_.mem src.map k then
      P.update_tx src.p (fun () -> ignore (Map_.remove src.map k : bool))

  let write_direct t k v =
    match t.router.migration with
    | Some m when m.moving.(slot_of_key t k) -> forward_write t m k v
    | _ -> (
    let s = rw t (shard_of_key t k) in
    match Hashtbl.find_opt t.proto.pending k with
    | None -> apply_op s (k, v)
    | Some pu ->
      let sp = (raw t pu.pu_shard).p in
      P.update_tx sp (fun () ->
          P.store_bytes sp pu.pu_valid "\000";
          (* the validity byte lives inside a CRC-protected chunk:
             refresh the chunk's CRC in the same transaction so a later
             rollback read of the chain still verifies *)
          let len = P.load sp (pu.pu_chunk + c_len) in
          let bytes = P.load_bytes sp (pu.pu_chunk + chunk_hdr) len in
          P.store sp (pu.pu_chunk + c_crc) (Chunk.crc bytes);
          apply_op s (k, v));
      Hashtbl.remove t.proto.pending k)

  (* newest-first scan of the buffered operations *)
  let rec lookup_ops k = function
    | [] -> None
    | (k', v) :: _ when String.equal k' k -> Some v
    | _ :: rest -> lookup_ops k rest

  (* net effect of the buffer: the newest operation per key *)
  let net_ops b =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (k, v) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v)
      b.ops;
    tbl

  let get t k =
    match t.batch with
    | None -> underlying_get t k
    | Some b -> (
      match lookup_ops k b.ops with
      | Some v -> v
      | None -> underlying_get t k)

  let put t k v =
    match t.batch with
    | None -> write_direct t k (Some v)
    | Some b -> b.ops <- (k, Some v) :: b.ops

  let delete t k =
    match t.batch with
    | None ->
      let existed = underlying_mem t k in
      write_direct t k None;
      existed
    | Some b ->
      let existed =
        match lookup_ops k b.ops with
        | Some v -> Option.is_some v
        | None -> underlying_mem t k
      in
      b.ops <- (k, None) :: b.ops;
      existed

  let count t =
    let base = ref 0 in
    for i = 0 to shards t - 1 do
      match scan_shard t i with
      | None -> ()
      | Some s -> base := !base + Map_.length s.map
    done;
    let base = !base in
    match t.batch with
    | None -> base
    | Some b ->
      Hashtbl.fold
        (fun k v acc ->
          let before = underlying_mem t k in
          let after = Option.is_some v in
          acc + Bool.to_int after - Bool.to_int before)
        (net_ops b) base

  (* Shards visited in index order, hash order within a shard.  Under a
     batch handle the buffered writes are overlaid: overwritten keys are
     filtered from the underlying pass, buffered puts appended last
     (oldest first) — order inside a batch is unspecified anyway. *)
  let iter_dir ~reverse t f =
    let emit map = Map_.iter ~reverse map f in
    let shard_seq g =
      let n = shards t in
      let visit i =
        match scan_shard t i with None -> () | Some s -> g s
      in
      if reverse then
        for i = n - 1 downto 0 do
          visit i
        done
      else
        for i = 0 to n - 1 do
          visit i
        done
    in
    match t.batch with
    | None -> shard_seq (fun s -> emit s.map)
    | Some b ->
      let net = net_ops b in
      shard_seq (fun s ->
          Map_.iter ~reverse s.map (fun k v ->
              if not (Hashtbl.mem net k) then f k v));
      List.iter
        (fun (k, _) ->
          match Hashtbl.find_opt net k with
          | Some (Some v) ->
            f k v;
            Hashtbl.remove net k (* emit each net put once *)
          | Some None | None -> ())
        (List.rev b.ops)

  let iter t f = iter_dir ~reverse:false t f
  let iter_reverse t f = iter_dir ~reverse:true t f

  (* Structural check of every healthy shard; a non-healthy shard's
     structure is by definition damaged (or its engine gone), so it is
     skipped rather than failing the check of the serving data. *)
  let check t =
    let n = shards t in
    let rec go i =
      if i = n then Ok ()
      else
        match (t.shard_arr.(i), t.health_arr.(i)) with
        | Some s, Healthy -> (
          match Map_.check s.map with
          | Error e -> Error (Printf.sprintf "shard %d: %s" i e)
          | Ok () -> (
            match P.allocator_check s.p with
            | Error e -> Error (Printf.sprintf "shard %d allocator: %s" i e)
            | Ok () -> go (i + 1)))
        | _ -> go (i + 1)
    in
    go 0

  (* ---- shared cross-shard protocol helpers ---- *)

  (* stable split of [ops] (oldest first) into per-shard groups,
     ascending shard index, preserving operation order within a shard *)
  let group_by_shard t ops =
    let n = shards t in
    let groups = Array.make n [] in
    List.iter
      (fun ((k, _) as op) ->
        let i = shard_of_key t k in
        groups.(i) <- op :: groups.(i))
      ops;
    let out = ref [] in
    for i = n - 1 downto 0 do
      if groups.(i) <> [] then out := (i, List.rev groups.(i)) :: !out
    done;
    !out

  (* pre-batch image of every distinct key of [slice], oldest first *)
  let undo_of t slice =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun (k, _) ->
        if Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          Some (k, underlying_get t k)
        end)
      slice

  (* splice [off] out of the linked list headed at root [slot] and free
     it; a no-op when the record is already gone (inside an update tx) *)
  let unhook p ~slot off =
    let rec go prev cur =
      if cur = 0 then ()
      else if cur = off then begin
        let next = P.load p cur in
        if prev = 0 then P.set_root p slot next else P.store p prev next;
        P.free p cur
      end
      else go cur (P.load p cur)
    in
    go 0 (P.get_root p slot)

  (* free every record of a chunk or spill chain headed at [head]
     (inside an update tx) *)
  let free_chain p head =
    let rec go c =
      if c <> 0 then begin
        let next = P.load p c in
        P.free p c;
        go next
      end
    in
    go head

  (* reclaim a mirror together with its chunk chain and spilled undo
     images, and splice it out of the mirror list (inside an update tx);
     never reads payload bytes, so it is safe on unsealed chains *)
  let unhook_mirror p off =
    free_chain p (P.load p (off + m_chunks));
    free_chain p (P.load p (off + m_spills));
    unhook p ~slot:mirror_slot off

  let wrap_abort e backtrace =
    match e with
    | Romulus.Engine.Tx_aborted _ -> raise e
    | e -> raise (Romulus.Engine.Tx_aborted { cause = e; backtrace })

  (* ---- the decentralized presumed-abort protocol ---- *)

  (* Unhook every clearable record of shard [i] inside the caller's
     already-open transaction; the volatile bookkeeping is committed only
     by [finish_drain] after the transaction returns, so an abort (or a
     re-executing STM closure) leaves the plan intact. *)
  let drain_plan t i =
    (t.proto.clearable_mirrors.(i), t.proto.clearable_flips.(i))

  let drain_in_tx t i (mirrors, flips) =
    let p = (raw t i).p in
    List.iter (fun (off, _) -> unhook_mirror p off) mirrors;
    List.iter (fun off -> unhook p ~slot:flip_slot off) flips

  let finish_drain t i (mirrors, flips) =
    let pr = t.proto in
    pr.clearable_mirrors.(i) <- [];
    pr.clearable_flips.(i) <- [];
    let n = List.length mirrors + List.length flips in
    if n > 0 then tick_lazy_clear (raw t i) n;
    (* a batch whose last mirror is gone frees its flip for reclamation *)
    List.iter
      (fun (_, id) ->
        match Hashtbl.find_opt pr.live_flips id with
        | None -> ()
        | Some (coord, flip_off, remaining) ->
          decr remaining;
          if !remaining = 0 then begin
            Hashtbl.remove pr.live_flips id;
            pr.clearable_flips.(coord) <-
              flip_off :: pr.clearable_flips.(coord)
          end)
      mirrors;
    if n > 0 then Fault.hit fp_mirror_cleared

  (* Run a protocol transaction that piggybacks shard [i]'s parked
     lazy-CLEAR drain.  If the combined transaction overflows the redo
     log, retry [f] alone — the records stay parked for a later flush —
     so reclamation can never fail a batch that would fit by itself
     (shrinking the chunk size cannot shrink the drain). *)
  let tx_with_drain t i f =
    let s = raw t i in
    let (mirrors, flips) as plan = drain_plan t i in
    match
      P.update_tx s.p (fun () ->
          let r = f () in
          drain_in_tx t i plan;
          r)
    with
    | r ->
      finish_drain t i plan;
      r
    | exception
        Romulus.Engine.Tx_aborted { cause = Romulus.Redo_log.Overflow _; _ }
      when mirrors <> [] || flips <> [] ->
      P.update_tx s.p f

  (* Dedicated reclamation transaction for one shard's parked records —
     the bound on the lazy-CLEAR queues.  Unlike the piggybacked drain,
     this pays its own transaction, so it only runs when asked
     ([flush_clears]) or when a queue crosses the flush threshold. *)
  let flush_shard_clears t i =
    let (mirrors, flips) as plan = drain_plan t i in
    if mirrors <> [] || flips <> [] then begin
      let s = raw t i in
      P.update_tx s.p (fun () -> drain_in_tx t i plan);
      tick_clear_flush s;
      finish_drain t i plan
    end

  let flush_clears t =
    let n = shards t in
    for i = 0 to n - 1 do
      flush_shard_clears t i
    done;
    (* draining a batch's last mirror releases its flip into the
       coordinator's queue, which the first pass may already have
       visited — a second pass leaves the store fully reclaimed *)
    for i = 0 to n - 1 do
      flush_shard_clears t i
    done

  (* After a commit, flush any shard whose parked queue crossed the
     threshold — including shards the batch never touched, so a
     write-quiet shard's stale mirrors are still reclaimed. *)
  let maybe_flush_clears t =
    let threshold = t.proto.config.clear_flush_threshold in
    let n = shards t in
    for i = 0 to n - 1 do
      if
        List.length t.proto.clearable_mirrors.(i)
        + List.length t.proto.clearable_flips.(i)
        >= threshold
      then flush_shard_clears t i
    done

  (* ---- validated chunk-chain reads ---- *)

  let chain_error msg =
    raise (Romulus.Engine.Recovery_error ("sharded mirror: " ^ msg))

  (* read and reassemble the payload of the *sealed* mirror at [off]
     (inside a transaction on shard [s]); every chunk's CRC and the
     total length are verified against the header *)
  let read_payload_in_tx s off =
    let p = s.p in
    let plen = P.load p (off + m_plen) in
    if plen < 0 then chain_error "negative payload length";
    let rec pieces acc c =
      if c = 0 then List.rev acc
      else begin
        let next = P.load p c in
        let len = P.load p (c + c_len) in
        if len < 0 || len > plen then
          chain_error "chunk length out of range";
        let stored = P.load p (c + c_crc) in
        let bytes = P.load_bytes p (c + chunk_hdr) len in
        pieces ((bytes, stored) :: acc) next
      end
    in
    match
      Chunk.join ~expect_len:plen (pieces [] (P.load p (off + m_chunks)))
    with
    | Ok payload -> payload
    | Error msg -> chain_error msg

  (* resolve a spilled undo image reference (CRC-checked) *)
  let read_spill_in_tx s ~off ~len =
    let p = s.p in
    let slen = P.load p (off + c_len) in
    if slen <> len then chain_error "spilled undo image length mismatch";
    let stored = P.load p (off + c_crc) in
    let bytes = P.load_bytes p (off + chunk_hdr) slen in
    if Chunk.crc bytes <> stored then
      chain_error "spilled undo image CRC mismatch";
    bytes

  (* replay the still-valid undo entries of the sealed mirror at [off]
     and reclaim it (chunk chain and spills included), inside one
     transaction on shard [i]; reads the validity bytes back from the
     chain so racing invalidations are honored *)
  let rollback_mirror_tx t i off =
    let s = raw t i in
    P.update_tx s.p (fun () ->
        let payload = read_payload_in_tx s off in
        let _, _, undo = decode_mirror payload in
        List.iter
          (fun (valid, k, img) ->
            if valid then
              match img with
              | U_absent -> apply_op s (k, None)
              | U_inline v -> apply_op s (k, Some v)
              | U_spilled { off = soff; len } ->
                apply_op s (k, Some (read_spill_in_tx s ~off:soff ~len)))
          undo;
        unhook_mirror s.p off)

  (* collect a partially-streamed (unsealed) chain: nothing of its slice
     was applied, so this only frees records — payload bytes are never
     decoded, which is what makes it safe on arbitrary chain prefixes *)
  let gc_mirror_tx t i off =
    let s = raw t i in
    P.update_tx s.p (fun () -> unhook_mirror s.p off)

  (* ---- PREPARE: one mirror per participant, fast or streamed ----

     Fast path (payload fits one chunk, nothing to spill): one
     transaction allocates chunk and sealed mirror, hooks it, reclaims
     stale records and applies the slice — exactly one protocol
     transaction per participant, as before chunking.

     Streamed path: an *unsealed* mirror shell is hooked first; each
     spilled undo image and each payload chunk then commits in its own
     bounded transaction, linked into the shell as it goes; a final seal
     transaction flips [sealed] and applies the slice.  A crash anywhere
     before the seal leaves an unsealed chain that recovery collects as
     presumed abort; a runtime abort collects it inline.  Sealed <=>
     slice applied — the PR 6 invariant at chain granularity. *)
  let prepare_shard t ~chunk_bytes i ~id ~coord ~mask slice =
    let s = raw t i in
    let cfg = t.proto.config in
    let nshards = shards t in
    let undo = undo_of t slice in
    let inline_len = mirror_payload_len ~ops:slice ~undo in
    let needs_spill =
      List.exists
        (fun (_, v) ->
          match v with
          | Some v -> String.length v > cfg.spill_threshold
          | None -> false)
        undo
    in
    if (not needs_spill) && inline_len <= chunk_bytes then begin
      let payload, rel_offs =
        encode_mirror ~nshards ~ops:slice
          ~undo:(List.map (fun (k, v) -> (k, image_of_opt v)) undo)
      in
      let plen = String.length payload in
      let moff, coff =
        tx_with_drain t i (fun () ->
            let c = P.alloc s.p (chunk_hdr + plen) in
            P.store s.p c 0;
            P.store s.p (c + c_len) plen;
            P.store s.p (c + c_crc) (Chunk.crc payload);
            P.store_bytes s.p (c + chunk_hdr) payload;
            let o = P.alloc s.p mirror_hdr in
            P.store s.p (o + m_next) (P.get_root s.p mirror_slot);
            P.store s.p (o + m_id) id;
            P.store s.p (o + m_coord) coord;
            P.store s.p (o + m_mask) mask;
            P.store s.p (o + m_sealed) 1;
            P.store s.p (o + m_plen) plen;
            P.store s.p (o + m_chunks) c;
            P.store s.p (o + m_spills) 0;
            P.set_root s.p mirror_slot o;
            List.iter (apply_op s) slice;
            (o, c))
      in
      tick_chunk s;
      ( moff,
        List.map (fun (k, rel) -> (k, coff, coff + chunk_hdr + rel)) rel_offs
      )
    end
    else begin
      (* unsealed shell first: from here the chain is crash-visible and
         recovery (or the inline abort path) can always collect it *)
      let moff =
        tx_with_drain t i (fun () ->
            let o = P.alloc s.p mirror_hdr in
            P.store s.p (o + m_next) (P.get_root s.p mirror_slot);
            P.store s.p (o + m_id) id;
            P.store s.p (o + m_coord) coord;
            P.store s.p (o + m_mask) mask;
            P.store s.p (o + m_sealed) 0;
            P.store s.p (o + m_plen) 0;
            P.store s.p (o + m_chunks) 0;
            P.store s.p (o + m_spills) 0;
            P.set_root s.p mirror_slot o;
            o)
      in
      try
        (* oversized undo images leave the payload: one record each,
           linked into the shell's spill list *)
        let images =
          List.map
            (fun (k, v) ->
              match v with
              | Some v when String.length v > cfg.spill_threshold ->
                let len = String.length v in
                let soff =
                  P.update_tx s.p (fun () ->
                      let o = P.alloc s.p (chunk_hdr + len) in
                      P.store s.p o (P.load s.p (moff + m_spills));
                      P.store s.p (o + c_len) len;
                      P.store s.p (o + c_crc) (Chunk.crc v);
                      P.store_bytes s.p (o + chunk_hdr) v;
                      P.store s.p (moff + m_spills) o;
                      o)
                in
                tick_spill s;
                Fault.hit fp_chunk_spilled;
                (k, U_spilled { off = soff; len })
              | v -> (k, image_of_opt v))
            undo
        in
        let payload, rel_offs =
          encode_mirror ~nshards ~ops:slice ~undo:images
        in
        (* stream the chain, tracking each piece's payload interval so
           validity-byte offsets can be mapped into their chunks *)
        let segs = ref [] in
        let prev = ref 0 in
        let pos = ref 0 in
        List.iter
          (fun piece ->
            let at = !pos and prev_off = !prev in
            let plen = String.length piece in
            let coff =
              P.update_tx s.p (fun () ->
                  let c = P.alloc s.p (chunk_hdr + plen) in
                  P.store s.p c 0;
                  P.store s.p (c + c_len) plen;
                  P.store s.p (c + c_crc) (Chunk.crc piece);
                  P.store_bytes s.p (c + chunk_hdr) piece;
                  if prev_off = 0 then P.store s.p (moff + m_chunks) c
                  else P.store s.p prev_off c;
                  c)
            in
            segs := (coff, at, plen) :: !segs;
            prev := coff;
            pos := at + plen;
            tick_chunk s;
            Fault.hit fp_chunk_written)
          (Chunk.split ~chunk_bytes payload);
        let segs = List.rev !segs in
        Fault.hit fp_seal_window;
        (* the seal: sealed <=> slice applied, atomically *)
        P.update_tx s.p (fun () ->
            P.store s.p (moff + m_plen) (String.length payload);
            P.store s.p (moff + m_sealed) 1;
            List.iter (apply_op s) slice);
        let abs_of rel =
          let rec find = function
            | (c, st, ln) :: rest ->
              if rel >= st && rel < st + ln then
                (c, c + chunk_hdr + (rel - st))
              else find rest
            | [] -> assert false
          in
          find segs
        in
        ( moff,
          List.map
            (fun (k, rel) ->
              let c, a = abs_of rel in
              (k, c, a))
            rel_offs )
      with
      | Pmem.Region.Crash_point ->
        (* dead machine: recovery collects the unsealed chain *)
        raise Pmem.Region.Crash_point
      | e ->
        (* runtime abort mid-stream: collect our own unsealed chain
           before re-raising to the batch-level abort handler *)
        gc_mirror_tx t i moff;
        raise e
    end

  let cross_shard_batch t ~chunk_bytes groups =
    let pr = t.proto in
    let id = pr.next_batch_id in
    pr.next_batch_id <- id + 1;
    let coord = fst (List.hd groups) in
    let mask =
      List.fold_left (fun m (i, _) -> m lor (1 lsl (i land 61))) 0 groups
    in
    let applied = ref [] in
    (* keys whose pending-undo entries this batch registered *)
    let registered = ref [] in
    let unregister () =
      List.iter (fun k -> Hashtbl.remove pr.pending k) !registered;
      registered := []
    in
    match
      (* PREPARE+APPLY: each participant's mirror becomes durable-and-
         sealed in the same transaction that applies its slice (the fast
         path), or via a streamed chain whose seal transaction applies
         the slice — either way a sealed mirror always means an applied
         slice.  Stale records of earlier committed batches are
         reclaimed inside the protocol transactions (the lazy CLEAR). *)
      List.iter
        (fun (i, slice) ->
          let moff, valids =
            prepare_shard t ~chunk_bytes i ~id ~coord ~mask slice
          in
          applied := (i, moff) :: !applied;
          tick_prepare (raw t i);
          (* expose the undo entries to racing single-key writes *)
          List.iter
            (fun (k, coff, aoff) ->
              Hashtbl.replace pr.pending k
                { pu_shard = i; pu_mirror = moff; pu_chunk = coff;
                  pu_valid = aoff };
              registered := k :: !registered)
            valids;
          Fault.hit fp_mirror_applied)
        groups
    with
    | () -> (
      (* COMMIT: one flip transaction on the coordinator — the batch's
         durability point.  Also a piggyback opportunity for the
         coordinator's own stale records. *)
      let sc = raw t coord in
      let flip_off =
        tx_with_drain t coord (fun () ->
            let o = P.alloc sc.p flip_size in
            P.store sc.p o (P.get_root sc.p flip_slot);
            P.store sc.p (o + 8) id;
            P.store sc.p (o + 16) mask;
            P.set_root sc.p flip_slot o;
            o)
      in
      tick_flip sc;
      unregister ();
      Fault.hit fp_flip_written;
      (* CLEAR is deferred: each mirror rides its shard's next PREPARE;
         the flip follows once every mirror is gone.  Queues are
         bounded: any shard past the flush threshold is drained by a
         dedicated transaction right away. *)
      let participants = !applied in
      Hashtbl.replace pr.live_flips id
        (coord, flip_off, ref (List.length participants));
      List.iter
        (fun (i, off) ->
          pr.clearable_mirrors.(i) <- (off, id) :: pr.clearable_mirrors.(i))
        participants;
      maybe_flush_clears t)
    | exception Pmem.Region.Crash_point ->
      (* dead machine: recovery presumed-aborts the hooked mirrors *)
      raise Pmem.Region.Crash_point
    | exception e ->
      (* Runtime abort: the failing shard's own transaction already
         rolled back (mirror and slice together); the shards that did
         apply are rolled back from their own mirrors — honoring undo
         entries invalidated by racing writes — and the mirror unhooked,
         atomically per shard.  A crash inside this rollback leaves the
         remaining mirrors, with no flip, for recovery to presumed-abort
         idempotently. *)
      let backtrace = Printexc.get_backtrace () in
      List.iter
        (fun (i, off) ->
          rollback_mirror_tx t i off;
          tick_back (raw t i);
          Fault.hit fp_rollback_undone)
        !applied;
      unregister ();
      wrap_abort e backtrace

  (* ---- admission control ----

     Every cross-shard batch is charged its per-shard mirror footprint
     (the exact inline-encoded payload length) against a volatile
     per-shard in-flight budget *before any persistent effect*.  A batch
     that cannot fit spins through a bounded backoff and then fails with
     the typed [Overloaded] — raised directly, not wrapped in
     [Tx_aborted], because nothing was written.  A single batch larger
     than the whole budget fails immediately: no backoff can help it. *)

  let backoff_spin round =
    for _ = 1 to (round + 1) * 64 do
      Domain.cpu_relax ()
    done

  let admit t charges =
    let budget = t.proto.config.admission_budget in
    let infl = t.proto.in_flight in
    let rec attempt round =
      match
        List.find_opt (fun (i, c) -> infl.(i) + c > budget) charges
      with
      | None -> List.iter (fun (i, c) -> infl.(i) <- infl.(i) + c) charges
      | Some (i, c) ->
        if round < admission_retries && c <= budget then begin
          backoff_spin round;
          attempt (round + 1)
        end
        else begin
          tick_overload (raw t i);
          raise (Overloaded { shard = i; in_flight = infl.(i); budget })
        end
    in
    attempt 0

  let release t charges =
    let infl = t.proto.in_flight in
    List.iter (fun (i, c) -> infl.(i) <- infl.(i) - c) charges

  (* ---- elastic sharding: routing directory + live migration ----

     A resize is a state machine persisted in two records:

       INTENT    one transaction on shard 0 hooks the migration intent
                 (kind, source, target, new epoch, moving-slot bitmap).
                 From here a crash always *completes* the migration:
                 intent durable => the resize happens (roll-forward, so
                 the oracle is deterministic).
       MOVE*     per bounded batch: one transaction on the source writes
                 the CRC-protected cursor (the batch's keys and values)
                 and deletes those keys from the source map — atomically,
                 so the cursor IS the keys' only home if the crash lands
                 before the target transaction — then one transaction on
                 the target inserts each key unless the target already
                 has it (a racing put won) or a tombstone marks it dead
                 (a racing delete won).  Replaying a cursor is therefore
                 idempotent.
       FLIP      one transaction on shard 0 persists the routing table
                 under the new epoch — the migration's validity point.
       RECLAIM   post-flip, idempotent: sweep stale source copies, free
                 the cursor, clear the tombstones, and unhook the intent
                 (last, because the intent is recovery's trigger).

     The volatile window ([router.migration]) re-points the moving slots
     at the target as soon as the intent commits, so writes route on the
     new epoch (with per-key forwarding) and reads double-read. *)

  let mig_hdr = 40 (* kind | source | target | new epoch | n_slots *)
  let cursor_hdr = 32 (* epoch | len | crc | reserved | bytes *)

  let route_error fmt =
    Printf.ksprintf
      (fun msg -> raise (Romulus.Engine.Recovery_error ("sharded routing: " ^ msg)))
      fmt

  let tomb_map t target =
    let cfg = t.proto.config in
    Map_.open_or_create ~initial_buckets:cfg.initial_buckets
      (raw t target).p ~root:tomb_slot

  let read_root t i slot =
    let p = (raw t i).p in
    P.read_tx p (fun () -> P.get_root p slot)

  (* Replace the persisted routing table: alloc the new record, swing
     the root, free the old.  Called at first open (multi-shard stores)
     and by each resize's epoch flip — a 1-shard store keeps this slot
     at 0 until it splits, staying bit-for-bit Romulus_db.  The in-tx
     variant runs inside a caller-owned shard-0 transaction so an
     evacuation can swing route and health atomically. *)
  let persist_route_in_tx t ~epoch =
    let r = t.router in
    let s0 = raw t 0 in
    let o = P.alloc s0.p (24 + (8 * r.n_slots)) in
    P.store s0.p o epoch;
    P.store s0.p (o + 8) r.n_slots;
    P.store s0.p (o + 16) (shards t);
    Array.iteri (fun s a -> P.store s0.p (o + 24 + (8 * s)) a) r.assignment;
    let old = P.get_root s0.p route_slot in
    P.set_root s0.p route_slot o;
    if old <> 0 then P.free s0.p old

  let persist_route t ~epoch =
    let s0 = raw t 0 in
    P.update_tx s0.p (fun () -> persist_route_in_tx t ~epoch)

  (* ---- durable health record (shard 0, [health_slot]) ----

     Wholesale replace, like the routing table.  The record is a cache
     of deterministically recomputable verdicts (media rot is
     persistent), with one exception: [Quarantined (Evacuated _)] is
     authoritative — an evacuated shard's residual bytes may even scrub
     clean, but its keys live on the target now, so the verdict must
     survive reopen. *)
  let persist_health_in_tx t =
    let s0 = raw t 0 in
    let payload = encode_health t.health_arr in
    let len = String.length payload in
    let o = P.alloc s0.p (8 + len) in
    P.store s0.p o len;
    P.store_bytes s0.p (o + 8) payload;
    let old = P.get_root s0.p health_slot in
    P.set_root s0.p health_slot o;
    if old <> 0 then P.free s0.p old

  let persist_health t =
    let s0 = raw t 0 in
    P.update_tx s0.p (fun () -> persist_health_in_tx t)

  let load_health t =
    match read_root t 0 health_slot with
    | 0 -> None
    | off ->
      let s0 = raw t 0 in
      let payload =
        P.read_tx s0.p (fun () ->
            let len = P.load s0.p off in
            if len < 0 then route_error "negative health record length";
            P.load_bytes s0.p (off + 8) len)
      in
      Some (decode_health payload)

  (* Record a health transition: volatile verdict, counter, failpoint,
     and (unless the caller batches several transitions under one
     [persist_health]) the durable record.  A crash between the
     failpoint and the durable write converges: verdicts are recomputed
     at the next open. *)
  let set_health ?(persist = true) t i h =
    if t.health_arr.(i) <> h then begin
      t.health_arr.(i) <- h;
      tick_health t i h;
      (match h with
      | Healthy -> Fault.hit fp_health_repaired
      | Degraded _ -> Fault.hit fp_health_degraded
      | Quarantined _ -> Fault.hit fp_health_quarantined);
      if persist then persist_health t
    end

  (* Rebuild the volatile routing image from shard 0's persisted record,
     or the identity epoch-0 table when none was ever written.  Validated:
     a table naming a shard beyond the attached regions means the store
     was reopened without a region a completed split added. *)
  let load_router t =
    let r = t.router in
    let n = shards t in
    let off = read_root t 0 route_slot in
    if off = 0 then begin
      (* No table was ever flipped.  Usually the identity layout over the
         attached regions — but a crash inside the *first* migration
         leaves an intent and no table, and the identity must then be
         computed over the pre-resize shard count, which the intent's
         slot count encodes (n_slots = slots_per_shard * original n). *)
      let n_slots =
        match read_root t 0 mig_slot with
        | 0 -> slots_per_shard * n
        | moff ->
          let s0 = raw t 0 in
          P.read_tx s0.p (fun () -> P.load s0.p (moff + 32))
      in
      if n_slots <= 0 || n_slots mod slots_per_shard <> 0 then
        route_error "bad slot count %d" n_slots;
      let base = n_slots / slots_per_shard in
      if base <= 0 || base > n then
        route_error "identity table over %d shards, store has %d regions"
          base n;
      r.epoch <- 0;
      r.n_slots <- n_slots;
      r.assignment <- Array.init n_slots (fun s -> s mod base);
      (* Pin the identity table durably for multi-shard stores (1-shard
         stores stay metadata-free and bit-for-bit Romulus_db): a crash
         between a split's target-region attach and its intent commit
         must not let a later reopen-with-the-target-attached rebuild
         the identity over the wrong shard count.  Skipped while an
         intent is pending — the resumed migration's flip persists the
         final table itself. *)
      if base > 1 && read_root t 0 mig_slot = 0 then
        persist_route t ~epoch:0
    end
    else begin
      let s0 = raw t 0 in
      let epoch, n_slots, assignment =
        P.read_tx s0.p (fun () ->
            let epoch = P.load s0.p off in
            let n_slots = P.load s0.p (off + 8) in
            if epoch < 0 then route_error "bad epoch %d" epoch;
            if n_slots <= 0 || n_slots > slots_per_shard * 4096 then
              route_error "bad slot count %d" n_slots;
            ( epoch, n_slots,
              Array.init n_slots (fun s -> P.load s0.p (off + 24 + (8 * s))) ))
      in
      Array.iter
        (fun a ->
          if a < 0 || a >= n then
            route_error
              "table names shard %d, store has %d regions (reopen with \
               every shard of the family attached)"
              a n)
        assignment;
      r.epoch <- epoch;
      r.n_slots <- n_slots;
      r.assignment <- assignment
    end;
    r.migration <- None

  let read_mig_intent t =
    let off = read_root t 0 mig_slot in
    if off = 0 then None
    else begin
      let s0 = raw t 0 in
      let kind, source, target, mepoch, n_slots, bitmap =
        P.read_tx s0.p (fun () ->
            let n_slots = P.load s0.p (off + 32) in
            if n_slots <= 0 || n_slots > slots_per_shard * 4096 then
              route_error "migration intent has bad slot count %d" n_slots;
            ( P.load s0.p off, P.load s0.p (off + 8), P.load s0.p (off + 16),
              P.load s0.p (off + 24), n_slots,
              P.load_bytes s0.p (off + mig_hdr) n_slots ))
      in
      let n = shards t in
      (* kind 0 = split, 1 = merge, 2 = evacuation *)
      if kind < 0 || kind > 2 then
        route_error "migration intent has bad kind %d" kind;
      if source < 0 || source >= n || target < 0 || target >= n then
        route_error
          "migration intent names shards %d->%d, store has %d regions \
           (reopen with the migration target's region attached)"
          source target n;
      if n_slots <> t.router.n_slots then
        route_error "migration intent has %d slots, table has %d" n_slots
          t.router.n_slots;
      if mepoch <> t.router.epoch && mepoch <> t.router.epoch + 1 then
        route_error "migration intent epoch %d does not follow table epoch %d"
          mepoch t.router.epoch;
      let moving = Array.init n_slots (fun s -> bitmap.[s] = '\001') in
      Some (off, kind, source, target, mepoch, moving)
    end

  (* One bounded move batch: [moved] is (key, value) pairs still living
     in the source.  Source transaction: replace the cursor (free the
     previous batch's) and delete the keys; target transaction: insert
     each unless a racing write already decided the key.  The target
     charge rides admission control with the shared typed-backoff
     retry. *)
  let move_batch t m moved =
    let src = raw t m.mig_source in
    let tgt = raw t m.mig_target in
    let b = Buffer.create 256 in
    add_kv_list b (List.map (fun (k, v) -> (k, Some v)) moved);
    let payload = Buffer.contents b in
    let plen = String.length payload in
    P.update_tx src.p (fun () ->
        let o = P.alloc src.p (cursor_hdr + plen) in
        P.store src.p o m.mig_epoch;
        P.store src.p (o + 8) plen;
        P.store src.p (o + 16) (Chunk.crc payload);
        P.store src.p (o + 24) 0;
        P.store_bytes src.p (o + cursor_hdr) payload;
        let old = P.get_root src.p cursor_slot in
        P.set_root src.p cursor_slot o;
        if old <> 0 then P.free src.p old;
        List.iter
          (fun (k, _) -> ignore (Map_.remove src.map k : bool))
          moved);
    Fault.hit fp_mig_moved;
    let charge = [ (m.mig_target, plen) ] in
    with_overload_retry ~seed:(m.mig_epoch + plen) (fun () -> admit t charge);
    Fun.protect
      ~finally:(fun () -> release t charge)
      (fun () ->
        let inserted = ref 0 in
        P.update_tx tgt.p (fun () ->
            List.iter
              (fun (k, v) ->
                if
                  (not (Map_.mem tgt.map k))
                  && not (Map_.mem m.mig_tomb k)
                then begin
                  ignore (Map_.put tgt.map k v : bool);
                  incr inserted
                end)
              moved);
        tick_migrated tgt !inserted);
    Fault.hit fp_mig_applied

  (* Stream every source key of a moving slot to the target in bounded
     batches (payload <= chunk_bytes, always at least one key).  Keys a
     racing write touches mid-stream are skipped naturally: a forwarded
     put or delete removes its key from the source before the stream
     reaches it.  A final re-collection pass confirms the source is
     drained. *)
  let run_move_loop t m =
    let src = raw t m.mig_source in
    let chunk_bytes = t.proto.config.chunk_bytes in
    let rec pass () =
      let pending = ref [] in
      Map_.iter src.map (fun k v ->
          if m.moving.(slot_of_key t k) then pending := (k, v) :: !pending);
      match !pending with
      | [] -> ()
      | kvs ->
        let rec batches = function
          | [] -> ()
          | kvs ->
            let rec take acc size = function
              | [] -> (List.rev acc, [])
              | ((k, v) :: rest) as all ->
                let size = size + 17 + String.length k + String.length v in
                if acc <> [] && size > chunk_bytes then (List.rev acc, all)
                else take ((k, v) :: acc) size rest
            in
            let batch, rest = take [] 8 kvs in
            (* a racing write may have retired a key since collection *)
            let moved =
              List.filter (fun (k, _) -> Map_.mem src.map k) batch
            in
            if moved <> [] then move_batch t m moved;
            batches rest
        in
        batches kvs;
        pass ()
    in
    pass ()

  (* The migration's validity point: persist the routing table under the
     new epoch in one shard-0 transaction.  The volatile assignment was
     re-pointed when the window opened, so this only makes it durable. *)
  let flip_epoch t m =
    persist_route t ~epoch:m.mig_epoch;
    t.router.epoch <- m.mig_epoch;
    t.router.migration <- None;
    tick_mig_completed (raw t 0);
    Fault.hit fp_mig_flip

  (* Post-flip reclamation, idempotent (recovery re-runs it whole when a
     crash lands inside): finish any straggler source copies, free the
     cursor, clear the tombstones, and unhook the intent last — it is
     the durable evidence that reclamation may still be owed. *)
  let reclaim_migration t ~source ~target ~moving =
    let src = raw t source in
    let tgt = raw t target in
    let tomb = tomb_map t target in
    (* stale moving-slot copies left in the source: none in a crash-free
       run (the move stream deletes as it goes); after a crash, a copy
       whose key the target never decided is completed rather than
       dropped — exactly-once either way *)
    let stale = ref [] in
    Map_.iter src.map (fun k v ->
        if moving.(slot_of_key t k) then stale := (k, v) :: !stale);
    if !stale <> [] then begin
      let orphans =
        List.filter
          (fun (k, _) ->
            (not (Map_.mem tgt.map k)) && not (Map_.mem tomb k))
          !stale
      in
      if orphans <> [] then
        P.update_tx tgt.p (fun () ->
            List.iter
              (fun (k, v) -> ignore (Map_.put tgt.map k v : bool))
              orphans);
      P.update_tx src.p (fun () ->
          List.iter
            (fun (k, _) -> ignore (Map_.remove src.map k : bool))
            !stale)
    end;
    let coff = read_root t source cursor_slot in
    if coff <> 0 then
      P.update_tx src.p (fun () ->
          P.set_root src.p cursor_slot 0;
          P.free src.p coff);
    let tkeys = ref [] in
    Map_.iter tomb (fun k _ -> tkeys := k :: !tkeys);
    if !tkeys <> [] then
      P.update_tx tgt.p (fun () ->
          List.iter
            (fun k -> ignore (Map_.remove tomb k : bool))
            !tkeys);
    (match read_root t 0 mig_slot with
    | 0 -> ()
    | ioff ->
      let s0 = raw t 0 in
      P.update_tx s0.p (fun () ->
          P.set_root s0.p mig_slot 0;
          P.free s0.p ioff));
    Fault.hit fp_mig_reclaim

  (* Open a fresh region as the next shard index (formatting it under
     its own engine) and grow the per-shard protocol arrays. *)
  let attach_shard t region =
    let cfg = t.proto.config in
    let p = P.open_region region in
    let map =
      Map_.open_or_create ~initial_buckets:cfg.initial_buckets p
        ~root:db_root
    in
    t.shard_arr <- Array.append t.shard_arr [| Some { p; map; region } |];
    t.region_arr <- Array.append t.region_arr [| region |];
    t.health_arr <- Array.append t.health_arr [| Healthy |];
    let pr = t.proto in
    pr.clearable_mirrors <- Array.append pr.clearable_mirrors [| [] |];
    pr.clearable_flips <- Array.append pr.clearable_flips [| [] |];
    pr.in_flight <- Array.append pr.in_flight [| 0 |];
    shards t - 1

  (* Run a migration from an already-durable intent: open the window
     (moving slots route to the target from here), stream, flip,
     reclaim. *)
  let run_migration t ~source ~target ~mepoch ~moving =
    let r = t.router in
    let m =
      { mig_source = source; mig_target = target; mig_epoch = mepoch;
        moving; mig_tomb = tomb_map t target }
    in
    r.migration <- Some m;
    Array.iteri (fun s mv -> if mv then r.assignment.(s) <- target) moving;
    run_move_loop t m;
    flip_epoch t m;
    reclaim_migration t ~source ~target ~moving

  (* Make a migration intent durable (kind 0 = split, 1 = merge, 2 =
     evacuation) and return the epoch it will flip to. *)
  let write_mig_intent t ~kind ~source ~target ~moving =
    let r = t.router in
    let mepoch = r.epoch + 1 in
    let s0 = raw t 0 in
    let bitmap =
      String.init r.n_slots (fun s -> if moving.(s) then '\001' else '\000')
    in
    P.update_tx s0.p (fun () ->
        let o = P.alloc s0.p (mig_hdr + r.n_slots) in
        P.store s0.p o kind;
        P.store s0.p (o + 8) source;
        P.store s0.p (o + 16) target;
        P.store s0.p (o + 24) mepoch;
        P.store s0.p (o + 32) r.n_slots;
        P.store_bytes s0.p (o + mig_hdr) bitmap;
        P.set_root s0.p mig_slot o);
    tick_mig_started s0;
    Fault.hit fp_mig_intent;
    mepoch

  let start_migration t ~kind ~source ~target ~moving =
    let mepoch = write_mig_intent t ~kind ~source ~target ~moving in
    run_migration t ~source ~target ~mepoch ~moving

  let check_resizable t ~source =
    if t.batch <> None then
      invalid_arg "Sharded_db: cannot resize through a batch handle";
    if t.router.migration <> None then
      invalid_arg "Sharded_db: a migration is already in progress";
    let n = shards t in
    if source < 0 || source >= n then
      invalid_arg (Printf.sprintf "Sharded_db: bad source shard %d" source)

  let owned_slots t shard =
    let r = t.router in
    let owned = ref [] in
    for s = r.n_slots - 1 downto 0 do
      if r.assignment.(s) = shard then owned := s :: !owned
    done;
    !owned

  (* Split half of [source]'s slots (every other owned slot) onto a new
     shard opened over [region]; returns the new shard's index.  Online:
     reads and single-key writes proceed during the stream. *)
  let split_shard t ~source region =
    check_resizable t ~source;
    (* the move stream reads and deletes from the source: Healthy only *)
    ignore (rw t source : shard);
    let owned = owned_slots t source in
    if List.length owned < 2 then
      invalid_arg
        (Printf.sprintf
           "Sharded_db.split_shard: shard %d owns %d slot(s), cannot split"
           source (List.length owned));
    let target = attach_shard t region in
    let moving = Array.make t.router.n_slots false in
    List.iteri (fun i s -> if i land 1 = 1 then moving.(s) <- true) owned;
    start_migration t ~kind:0 ~source ~target ~moving;
    target

  (* Move every slot of [source] onto [target]; the source region stays
     attached (it may anchor the routing directory or host protocol
     records) but owns no slots and holds no keys afterwards. *)
  let merge_shards t ~source ~target =
    check_resizable t ~source;
    let n = shards t in
    if target < 0 || target >= n then
      invalid_arg (Printf.sprintf "Sharded_db: bad target shard %d" target);
    if target = source then
      invalid_arg "Sharded_db.merge_shards: source = target";
    (* both endpoints take writes during the stream: Healthy only *)
    ignore (rw t source : shard);
    ignore (rw t target : shard);
    let owned = owned_slots t source in
    if owned = [] then
      invalid_arg
        (Printf.sprintf "Sharded_db.merge_shards: shard %d owns no slots"
           source);
    let moving = Array.make t.router.n_slots false in
    List.iter (fun s -> moving.(s) <- true) owned;
    start_migration t ~kind:1 ~source ~target ~moving

  (* ---- evacuation: moving surviving keys off a dying shard ----

     Unlike split/merge, the source is Degraded: client writes to it are
     already refused, so there is no transfer window, no cursor and no
     tombstones — the source is treated as strictly read-only.  The
     stream is best-effort salvage: iteration keeps every key reached
     before the first rotten line on its path.  The flip is one shard-0
     transaction swinging the routing table (moving slots -> target,
     epoch+1) AND the source's durable [Evacuated] verdict atomically,
     so a reopen either routes to the source (pre-flip, intent re-runs
     the idempotent stream) or to the target with the source retired. *)
  let collect_salvageable src =
    let acc = ref [] in
    (try Map_.iter src.map (fun k v -> acc := (k, v) :: !acc)
     with Pmem.Region.Media_error _ -> ());
    List.rev !acc

  let run_evacuation t ~source ~target ~mepoch ~moving =
    let src = raw t source in
    let tgt = raw t target in
    Fault.hit fp_health_evacuate_start;
    let kvs = collect_salvageable src in
    (* bounded insert-if-absent batches (idempotent on re-run): a moving
       key can only be written through the source, which refuses, so a
       key already present in the target was placed by this stream *)
    let chunk_bytes = t.proto.config.chunk_bytes in
    let flush batch =
      if batch <> [] then begin
        let inserted = ref 0 in
        P.update_tx tgt.p (fun () ->
            List.iter
              (fun (k, v) ->
                if not (Map_.mem tgt.map k) then begin
                  ignore (Map_.put tgt.map k v : bool);
                  incr inserted
                end)
              batch);
        tick_region t target (fun st ->
            st.Pmem.Stats.keys_evacuated <-
              st.Pmem.Stats.keys_evacuated + !inserted)
      end
    in
    let rec batches = function
      | [] -> ()
      | kvs ->
        let rec take acc size = function
          | [] -> (List.rev acc, [])
          | ((k, v) :: rest) as all ->
            let size = size + 17 + String.length k + String.length v in
            if acc <> [] && size > chunk_bytes then (List.rev acc, all)
            else take ((k, v) :: acc) size rest
        in
        let batch, rest = take [] 8 kvs in
        flush batch;
        batches rest
    in
    batches kvs;
    (* volatile route + verdict first (precedent: run_migration opening
       the window before its durable flip), then the atomic flip *)
    let r = t.router in
    Array.iteri (fun s mv -> if mv then r.assignment.(s) <- target) moving;
    let verdict = Quarantined (Evacuated { target }) in
    t.health_arr.(source) <- verdict;
    tick_health t source verdict;
    let s0 = raw t 0 in
    P.update_tx s0.p (fun () ->
        persist_route_in_tx t ~epoch:mepoch;
        persist_health_in_tx t);
    r.epoch <- mepoch;
    tick_mig_completed s0;
    tick_region t source (fun st ->
        st.Pmem.Stats.shards_evacuated <- st.Pmem.Stats.shards_evacuated + 1);
    Fault.hit fp_health_evacuated;
    (* retire the dying engine; residual source bytes are never touched
       again (its map still holds stale duplicates of the target's keys,
       which is why scans drop Evacuated shards) *)
    t.shard_arr.(source) <- None;
    (match read_root t 0 mig_slot with
    | 0 -> ()
    | ioff ->
      P.update_tx s0.p (fun () ->
          P.set_root s0.p mig_slot 0;
          P.free s0.p ioff));
    Fault.hit fp_mig_reclaim;
    List.length kvs

  let start_evacuation t ~source ~target =
    if t.batch <> None then
      invalid_arg "Sharded_db: cannot evacuate through a batch handle";
    if source = 0 then
      invalid_arg "Sharded_db: shard 0 anchors the store and cannot be \
                   evacuated";
    if read_root t 0 mig_slot <> 0 then
      invalid_arg "Sharded_db: a migration is already in progress";
    if not (healthy t target) then
      invalid_arg
        (Printf.sprintf "Sharded_db: evacuation target %d is not healthy"
           target);
    let owned = owned_slots t source in
    let moving = Array.make t.router.n_slots false in
    List.iter (fun s -> moving.(s) <- true) owned;
    let mepoch = write_mig_intent t ~kind:2 ~source ~target ~moving in
    run_evacuation t ~source ~target ~mepoch ~moving

  (* Recovery-side reconciliation of an in-flight migration.  Split and
     merge intents are rolled *forward* — but only when both endpoints
     are fully healthy: the move stream reads and deletes from the
     source and writes the target, so against rotten media it is
     *parked* instead (intent left hooked, window never opened, slots
     routing on the old epoch) until a {!repair} pass heals the
     endpoints and re-drives this.  An evacuation intent (kind 2)
     re-runs the read-only salvage stream when the source engine is up
     and the target healthy; flipped, it owes only the intent unhook —
     the dying source is never written. *)
  let reconcile_migration t =
    match read_mig_intent t with
    | None -> ()
    | Some (ioff, kind, source, target, mepoch, moving) ->
      if kind = 2 then begin
        if t.router.epoch >= mepoch then begin
          (* routing and the Evacuated verdict flipped durably together;
             only the intent unhook is owed *)
          let s0 = raw t 0 in
          tick_mig_resumed s0;
          P.update_tx s0.p (fun () ->
              P.set_root s0.p mig_slot 0;
              P.free s0.p ioff);
          Fault.hit fp_mig_reclaim
        end
        else if Option.is_some t.shard_arr.(source) && healthy t target
        then begin
          tick_mig_resumed (raw t 0);
          Fault.hit fp_mig_resumed;
          ignore (run_evacuation t ~source ~target ~mepoch ~moving : int)
        end
        (* else parked: the salvage source is unopenable or the target is
           sick; a later repair pass re-drives the evacuation *)
      end
      else if not (healthy t source && healthy t target) then
        () (* parked split/merge; resumed by repair via reconcile *)
      else begin
        tick_mig_resumed (raw t 0);
        if t.router.epoch >= mepoch then
          reclaim_migration t ~source ~target ~moving
        else begin
          let src = raw t source in
          let tgt = raw t target in
        let tomb = tomb_map t target in
        let coff = read_root t source cursor_slot in
        if coff <> 0 then begin
          let cepoch, payload =
            P.read_tx src.p (fun () ->
                let cepoch = P.load src.p coff in
                let len = P.load src.p (coff + 8) in
                if len < 0 then chain_error "negative migration cursor length";
                let stored = P.load src.p (coff + 16) in
                let bytes = P.load_bytes src.p (coff + cursor_hdr) len in
                if Chunk.crc bytes <> stored then
                  chain_error "migration cursor CRC mismatch";
                (cepoch, bytes))
          in
          if cepoch = mepoch then begin
            let pr = { payload; pos = 0 } in
            let kvs = take_kv_list pr "migration-cursor" in
            let inserted = ref 0 in
            P.update_tx tgt.p (fun () ->
                List.iter
                  (fun (k, v) ->
                    match v with
                    | Some v ->
                      if
                        (not (Map_.mem tgt.map k))
                        && not (Map_.mem tomb k)
                      then begin
                        ignore (Map_.put tgt.map k v : bool);
                        incr inserted
                      end
                    | None -> ())
                  kvs);
            tick_migrated tgt !inserted
          end
        end;
        Fault.hit fp_mig_resumed;
        run_migration t ~source ~target ~mepoch ~moving
        end
      end

  let commit_batch t b =
    let ops = List.rev b.ops in
    if ops <> [] then begin
      (* Epoch consistency: a batch whose keys touch slots inside an
         open transfer window cannot be grouped consistently under one
         epoch (its slices would interleave with the move stream), so it
         is refused with the typed [Overloaded] — retryable via
         {!with_overload_retry}; once the window closes the retry routes
         cleanly on the new epoch.  Batches on untouched slots group
         identically under both epochs and proceed. *)
      (match t.router.migration with
      | Some m when List.exists (fun (k, _) -> m.moving.(slot_of_key t k)) ops
        ->
        let i = m.mig_target in
        tick_overload (raw t i);
        raise
          (Overloaded
             { shard = i; in_flight = t.proto.in_flight.(i);
               budget = t.proto.config.admission_budget })
      | _ -> ());
      match group_by_shard t ops with
      | [] -> ()
      | [ (i, sops) ] ->
        (* one shard: a single ordinary transaction, no intent — exact
           Romulus_db semantics (and the only path with one shard) *)
        let s = rw t i in
        P.update_tx s.p (fun () -> List.iter (apply_op s) sops)
      | groups -> (
        (* every participant must accept writes before any intent or
           mirror is made durable: a batch never partially lands on the
           healthy subset of its shards *)
        List.iter (fun (i, _) -> ignore (rw t i : shard)) groups;
        let charges =
          List.map
            (fun (i, slice) ->
              (i, mirror_payload_len ~ops:slice ~undo:(undo_of t slice)))
            groups
        in
        admit t charges;
        Fun.protect
          ~finally:(fun () -> release t charges)
          (fun () ->
            (* A redo-log overflow inside PREPARE aborts cleanly (the
               batch-level handler already rolled every applied mirror
               back), so re-enter the chunked path with smaller chunks —
               bounding each protocol transaction — instead of surfacing
               the overflow.  When even [min_chunk_bytes] overflows (the
               slice itself is too wide for the redo log) the typed
               [Tx_aborted] carries the cause. *)
            let rec attempt chunk_bytes =
              try cross_shard_batch t ~chunk_bytes groups
              with
              | Romulus.Engine.Tx_aborted
                  { cause = Romulus.Redo_log.Overflow _; _ }
                when chunk_bytes > min_chunk_bytes ->
                attempt (max min_chunk_bytes (chunk_bytes / 4))
            in
            attempt t.proto.config.chunk_bytes))
    end

  let write_batch t f =
    match t.batch with
    | Some _ -> f t (* nested batch flattens, like a nested update_tx *)
    | None -> (
      let b = { ops = [] } in
      match f { t with batch = Some b } with
      | () -> commit_batch t b
      | exception ((Romulus.Engine.Tx_aborted _ | Pmem.Region.Crash_point) as e)
        ->
        raise e
      | exception e ->
        (* the buffered operations are simply discarded; surface the same
           typed abort a Romulus_db batch (one update_tx) would *)
        let backtrace = Printexc.get_backtrace () in
        raise (Romulus.Engine.Tx_aborted { cause = e; backtrace }))

  (* ---- recovery, reconciliation, scrub ---- *)

  (* A batch intent left in shard 0's reserved slot by the retired
     centralized protocol cannot be replayed any more: refuse the store
     loudly instead of leaving that batch silently half-applied. *)
  let refuse_legacy_intent t =
    if read_root t 0 intent_slot <> 0 then
      raise
        (Shard_open_failed
           { shard = 0;
             cause =
               Romulus.Engine.Recovery_error
                 "sharded store holds a centralized batch intent (protocol \
                  removed); it cannot be replayed" })

  (* Batch reconciliation: resolve every hooked mirror against
     its coordinator's flip list, then clear the flips.  Phase order
     matters — a flip may only be removed once no mirror of its batch
     remains anywhere, or a crash between the two phases would turn a
     committed batch into a presumed abort.

     Flip present  => the batch committed; the mirror's slice was
                      applied in the same transaction that wrote the
                      mirror, so resolution just unhooks it.
     Flip absent   => presumed abort; replay the mirror's still-valid
                      undo images and unhook, one transaction per
                      mirror.  Idempotent: every step is an absolute
                      put/delete plus a list splice.

     Health interplay: a mirror is never presumed aborted while its
     coordinator's flip list is unreadable (engine down) — absence of
     evidence is not evidence of abort — and a mirror whose resolution
     trips rotten media is left hooked.  Any such skip also parks phase
     2 wholesale: a flip may only be reclaimed once no mirror of its
     batch can remain anywhere. *)
  let reconcile_mirrors t =
    let n = shards t in
    let skipped = ref false in
    (* all durable flips of reachable coordinators, keyed by
       (coordinator shard, batch id) *)
    let flips = Hashtbl.create 8 in
    for c = 0 to n - 1 do
      if engine_up t c then begin
        let p = (raw t c).p in
        P.read_tx p (fun () ->
            let rec go off =
              if off <> 0 then begin
                Hashtbl.replace flips (c, P.load p (off + 8)) off;
                go (P.load p off)
              end
            in
            go (P.get_root p flip_slot))
      end
    done;
    (* phase 1: resolve every hooked mirror.  Offsets are collected in
       one read pass per shard and stay valid as others are unhooked
       (a splice never moves surviving records), so a mirror left
       hooked on purpose cannot spin the walk. *)
    for i = 0 to n - 1 do
      if not (engine_up t i) then begin
        (* an evacuated shard is retired for good — its residual mirrors
           are abandoned with it and never block flip reclamation; any
           other down shard may come back via repair, so its unresolved
           mirrors park phase 2 *)
        match t.health_arr.(i) with
        | Quarantined (Evacuated _) -> ()
        | _ -> skipped := true
      end
      else begin
        let s = raw t i in
        let offs =
          P.read_tx s.p (fun () ->
              let rec go acc off =
                if off = 0 then List.rev acc
                else go (off :: acc) (P.load s.p off)
              in
              go [] (P.get_root s.p mirror_slot))
        in
        List.iter
          (fun head ->
            match
              let id, coord, sealed =
                P.read_tx s.p (fun () ->
                    (P.load s.p (head + m_id), P.load s.p (head + m_coord),
                     P.load s.p (head + m_sealed)))
              in
              if coord < 0 || coord >= n then
                raise
                  (Romulus.Engine.Recovery_error
                     (Printf.sprintf
                        "sharded mirror names coordinator %d of %d" coord n));
              if sealed <> 0 && sealed <> 1 then
                raise
                  (Romulus.Engine.Recovery_error
                     (Printf.sprintf "sharded mirror has bad seal word %d"
                        sealed));
              if sealed = 0 then begin
                (* partially-streamed chain, never sealed: the slice was
                   never applied, so the whole chain is presumed-abort
                   garbage — collected without decoding a byte *)
                gc_mirror_tx t i head;
                tick_back s;
                Fault.hit fp_chunk_gc
              end
              else if not (engine_up t coord) then
                (* coordinator down: commit vs abort is undecidable;
                   leave the sealed mirror hooked until after repair *)
                skipped := true
              else begin
                let payload =
                  P.read_tx s.p (fun () -> read_payload_in_tx s head)
                in
                let nshards, _, _ = decode_mirror payload in
                (* mirrors may predate a split; only more-than-attached
                   is corrupt *)
                if nshards <= 0 || nshards > n then
                  raise
                    (Romulus.Engine.Recovery_error
                       (Printf.sprintf
                          "sharded mirror names %d shards, store has %d"
                          nshards n));
                if Hashtbl.mem flips (coord, id) then begin
                  (* committed: the slice is already applied *)
                  P.update_tx s.p (fun () -> unhook_mirror s.p head);
                  tick_forward s
                end
                else begin
                  rollback_mirror_tx t i head;
                  tick_back s
                end
              end
            with
            | () -> Fault.hit fp_recover_resolved
            | exception (Pmem.Region.Crash_point as e) -> raise e
            | exception
                ( Pmem.Region.Media_error _
                | Romulus.Engine.Tx_aborted
                    { cause = Pmem.Region.Media_error _; _ } ) ->
              skipped := true
            | exception (Romulus.Engine.Recovery_error _ as e) -> (
              (* a rotten shard can truncate a chain mid-record; on a
                 sound shard the same shape is real corruption *)
              match t.health_arr.(i) with
              | Degraded _ -> skipped := true
              | _ -> raise e))
          offs
      end
    done;
    (* phase 2: with nothing skipped no mirror survives anywhere, so
       every flip is reclaimable *)
    if not !skipped then
      for c = 0 to n - 1 do
        if engine_up t c then begin
          let s = raw t c in
          let rec clear_head () =
            let head = P.read_tx s.p (fun () -> P.get_root s.p flip_slot) in
            if head <> 0 then begin
              P.update_tx s.p (fun () ->
                  P.set_root s.p flip_slot (P.load s.p head);
                  P.free s.p head);
              clear_head ()
            end
          in
          clear_head ()
        end
      done

  (* Reconciliation rebuilds the persistent truth, so the volatile
     protocol bookkeeping (which may hold offsets of records the pass
     just freed) is reset first. *)
  let reconcile t =
    let pr = t.proto in
    Hashtbl.reset pr.pending;
    Hashtbl.reset pr.live_flips;
    Array.fill pr.clearable_mirrors 0 (Array.length pr.clearable_mirrors) [];
    Array.fill pr.clearable_flips 0 (Array.length pr.clearable_flips) [];
    Array.fill pr.in_flight 0 (Array.length pr.in_flight) 0;
    (* a legacy intent first (nothing may run over that store), the
       routing table next (batch reconciliation may route), then the
       commit protocol (per-key truth must be settled before keys are
       streamed between shards), then any in-flight migration — which is
       always completed, so handles never see an open window after
       recovery *)
    refuse_legacy_intent t;
    load_router t;
    reconcile_mirrors t;
    reconcile_migration t

  let recover_shard t i =
    if i < 0 || i >= shards t then
      invalid_arg (Printf.sprintf "Sharded_db.recover_shard: bad shard %d" i);
    match t.shard_arr.(i) with
    | None ->
      raise
        (Shard_open_failed
           { shard = i;
             cause = Romulus.Engine.Recovery_error "engine is not open" })
    | Some s -> (
      try P.recover s.p with
      | Pmem.Region.Crash_point as e -> raise e
      | e -> raise (Shard_open_failed { shard = i; cause = e }))

  (* Per-shard engine recovery (salvage mode), fanned out across
     domains, classified into health verdicts instead of raised: shard
     0 failing is fatal ({!Shard_open_failed} — it anchors the store),
     any other failing shard is quarantined with its engine detached,
     and data-loss survivors come back Degraded.  A previously recorded
     [Evacuated] verdict is authoritative and never reclassified. *)
  let recover ?(parallel = true) t =
    let n = shards t in
    let verdicts = Array.make n None in
    let run s = try Ok (P.recover_salvage s.p) with e -> Error e in
    if parallel && n > 1 then begin
      let doms =
        Array.map
          (Option.map (fun s -> Domain.spawn (fun () -> run s)))
          t.shard_arr
      in
      Array.iteri
        (fun i d ->
          match d with
          | None -> ()
          | Some d ->
            verdicts.(i) <- Some (Domain.join d);
            Fault.hit fp_recover_shard_done)
        doms
    end
    else
      Array.iteri
        (fun i so ->
          match so with
          | None -> ()
          | Some s ->
            verdicts.(i) <- Some (run s);
            Fault.hit fp_recover_shard_done)
        t.shard_arr;
    (* a simulated machine crash is the whole store dying, not a shard
       fault; and without shard 0 there is nothing to degrade to *)
    Array.iter
      (function
        | Some (Error Pmem.Region.Crash_point) -> raise Pmem.Region.Crash_point
        | _ -> ())
      verdicts;
    (match verdicts.(0) with
    | Some (Error e) -> raise (Shard_open_failed { shard = 0; cause = e })
    | _ -> ());
    let changed = ref false in
    Array.iteri
      (fun i v ->
        match (v, t.health_arr.(i)) with
        | None, _ | _, Quarantined (Evacuated _) -> ()
        | Some v, prev ->
          let h =
            match v with
            | Ok [] -> Healthy
            | Ok ((offset, state) :: _) ->
              Degraded (Unrepairable_media { offset; state })
            | Error (Romulus.Engine.Unrepairable { offset; state }) ->
              Quarantined (Unrepairable_media { offset; state })
            | Error (Romulus.Engine.Recovery_error msg) ->
              Quarantined (Open_failed msg)
            | Error (Pmem.Region.Media_error { offset; _ }) ->
              Quarantined
                (Open_failed
                   (Printf.sprintf "media error at offset %d during recovery"
                      offset))
            | Error e -> raise (Shard_open_failed { shard = i; cause = e })
          in
          (match h with
          | Quarantined _ -> t.shard_arr.(i) <- None
          | Healthy | Degraded _ -> ());
          if prev <> h then begin
            set_health ~persist:false t i h;
            changed := true
          end)
      verdicts;
    if !changed then persist_health t;
    reconcile t;
    Fault.hit fp_recover_reconciled

  (* Hooked protocol records across the whole store: every mirror and
     flip.  Committed batches leave theirs here until the lazy CLEAR
     reclaims them. *)
  let pending_intents t =
    let count p slot =
      P.read_tx p (fun () ->
          let rec go n off = if off = 0 then n else go (n + 1) (P.load p off) in
          go 0 (P.get_root p slot))
    in
    Array.fold_left
      (fun acc so ->
        match so with
        | None -> acc
        | Some s -> acc + count s.p mirror_slot + count s.p flip_slot)
      0 t.shard_arr

  (* A durable migration intent is still hooked (never true after
     recovery or a completed resize: reclamation unhooks it). *)
  let migration_pending t = read_root t 0 mig_slot <> 0

  let media_spans t =
    Array.map
      (function None -> [] | Some s -> P.media_spans s.p)
      t.shard_arr

  (* Store-wide salvage scrub over every shard whose engine is open,
     with the tolerated data-loss lines of all shards concatenated
     (offsets are shard-relative — {!scrub_shards} keeps the
     attribution). *)
  let scrub t =
    Array.fold_left
      (fun (acc : Romulus.Engine.scrub_report) so ->
        match so with
        | None -> acc
        | Some s ->
          let r = P.scrub_salvage s.p in
          { Romulus.Engine.scrubbed = acc.scrubbed + r.scrubbed;
            repaired = acc.repaired + r.repaired;
            unrepairable = acc.unrepairable @ r.unrepairable })
      { Romulus.Engine.scrubbed = 0; repaired = 0; unrepairable = [] }
      t.shard_arr

  (* Per-shard salvage scrub reports, one entry per open engine: each
     repaired or tolerated line is attributed to exactly the shard whose
     region holds it. *)
  let scrub_shards t =
    let acc = ref [] in
    Array.iteri
      (fun i so ->
        match so with
        | None -> ()
        | Some s -> acc := (i, P.scrub_salvage s.p) :: !acc)
      t.shard_arr;
    List.rev !acc

  (* ---- the repair supervisor ---- *)

  type repair_outcome =
    | Scrub_repaired
    | Snapshot_restored
    | Evacuated_keys of { target : int; moved : int }
    | Unrepaired of health_cause

  (* Re-mount a detached engine over the shard's region; false when the
     region still refuses to open. *)
  let try_reopen t i =
    match t.shard_arr.(i) with
    | Some _ -> true
    | None -> (
      try
        let region = t.region_arr.(i) in
        let p = P.open_region region in
        let map =
          Map_.open_or_create ~initial_buckets:t.proto.config.initial_buckets
            p ~root:db_root
        in
        t.shard_arr.(i) <- Some { p; map; region };
        true
      with
      | Pmem.Region.Crash_point as e -> raise e
      | _ -> false)

  (* R1: bounded scrub retries under the shared jittered-exponential
     backoff schedule.  Succeeds when a reopen+salvage-scrub pass comes
     back with nothing unrepairable (rot healed from a twin, or cleared
     at the source). *)
  let repair_scrub t i ~retries ~base_ns ~seed =
    let attempt () =
      tick_region t i (fun st ->
          st.Pmem.Stats.repair_attempts <- st.Pmem.Stats.repair_attempts + 1);
      try_reopen t i
      &&
      match t.shard_arr.(i) with
      | None -> false
      | Some s -> (
        match P.scrub_salvage s.p with
        | { Romulus.Engine.unrepairable = []; _ } -> true
        | _ -> false
        | exception Pmem.Region.Crash_point -> raise Pmem.Region.Crash_point
        | exception _ -> false)
    in
    let rec go = function
      | [] -> attempt ()
      | wait :: rest ->
        attempt ()
        ||
        (backoff_wait_ns wait;
         go rest)
    in
    go (overload_backoff_schedule ~retries ~base_ns ~seed)

  (* R2: replace the shard's region wholesale from its latest snapshot
     file, validated by a clean salvage scrub before it is adopted.
     Writes committed to the shard after the snapshot are lost — which
     is why this is strictly a fallback — and any batch the store owed
     the shard is re-settled by the reconciliation replay that follows
     repair. *)
  let repair_restore t i ~snapshot_base =
    match snapshot_base with
    | None -> false
    | Some base -> (
      let path = Pmem.Region.shard_snapshot_path base ~shard:i in
      Sys.file_exists path
      &&
      try
        let region = Pmem.Region.load_from_file path in
        let p = P.open_region region in
        let map =
          Map_.open_or_create ~initial_buckets:t.proto.config.initial_buckets
            p ~root:db_root
        in
        (match P.scrub_salvage p with
        | { Romulus.Engine.unrepairable = []; _ } ->
          t.region_arr.(i) <- region;
          t.shard_arr.(i) <- Some { p; map; region };
          tick_region t i (fun st ->
              st.Pmem.Stats.repair_snapshot_restores <-
                st.Pmem.Stats.repair_snapshot_restores + 1);
          true
        | _ -> false)
      with
      | Pmem.Region.Crash_point as e -> raise e
      | _ -> false)

  (* R3 target selection: an explicit healthy target, or the first
     healthy shard that is not the patient. *)
  let find_evac_target t i ~target =
    match target with
    | Some tgt ->
      if tgt < 0 || tgt >= shards t then
        invalid_arg
          (Printf.sprintf "Sharded_db.repair: bad target shard %d" tgt);
      if tgt <> i && healthy t tgt then Some tgt else None
    | None ->
      let rec scan j =
        if j >= shards t then None
        else if j <> i && healthy t j then Some j
        else scan (j + 1)
      in
      scan 0

  (* The self-healing driver, escalating per sick shard:
       R1 scrub retries (backoff), R2 snapshot restore, R3 evacuation.
     Evacuation needs a readable source engine, a healthy target, shard
     0 to not be the patient, and no migration intent in flight; a
     shard nothing applies to keeps its verdict as [Unrepaired].  All
     verdict changes are persisted in one health record, then the
     reconciliation pass re-runs so work parked on the sick shards
     (batch intents, mirrors, migrations) settles on the healed
     store. *)
  let repair ?(retries = default_overload_retries)
      ?(base_ns = default_overload_base_ns) ?(seed = 0) ?snapshot_base
      ?target t =
    if t.batch <> None then
      invalid_arg "Sharded_db: cannot repair through a batch handle";
    let outcomes = ref [] in
    let changed = ref false in
    for i = 0 to shards t - 1 do
      match t.health_arr.(i) with
      | Healthy | Quarantined (Evacuated _) -> ()
      | Degraded cause | Quarantined cause ->
        if repair_scrub t i ~retries ~base_ns ~seed:(seed + i) then begin
          set_health ~persist:false t i Healthy;
          changed := true;
          outcomes := (i, Scrub_repaired) :: !outcomes
        end
        else if i <> 0 && repair_restore t i ~snapshot_base then begin
          set_health ~persist:false t i Healthy;
          changed := true;
          outcomes := (i, Snapshot_restored) :: !outcomes
        end
        else begin
          match
            if
              i = 0
              || Option.is_none t.shard_arr.(i)
              || read_root t 0 mig_slot <> 0
            then None
            else find_evac_target t i ~target
          with
          | Some tgt ->
            let moved = start_evacuation t ~source:i ~target:tgt in
            changed := true;
            outcomes := (i, Evacuated_keys { target = tgt; moved }) :: !outcomes
          | None -> outcomes := (i, Unrepaired cause) :: !outcomes
        end
    done;
    if !changed then begin
      persist_health t;
      reconcile t
    end;
    List.rev !outcomes

  (* ---- construction, snapshots ---- *)

  let open_db ?(initial_buckets = 1024)
      ?(chunk_bytes = default_chunk_bytes)
      ?(spill_threshold = default_spill_threshold)
      ?(admission_budget = default_admission_budget)
      ?(clear_flush_threshold = default_clear_flush_threshold) regions =
    if Array.length regions = 0 then raise (Invalid_shards 0);
    if initial_buckets <= 0 then
      raise (Romulus_db.Invalid_buckets initial_buckets);
    if chunk_bytes < min_chunk_bytes then
      invalid_arg
        (Printf.sprintf "Sharded_db.open_db: chunk_bytes %d < minimum %d"
           chunk_bytes min_chunk_bytes);
    if spill_threshold <= 0 then
      invalid_arg "Sharded_db.open_db: spill_threshold must be positive";
    if admission_budget <= 0 then
      invalid_arg "Sharded_db.open_db: admission_budget must be positive";
    if clear_flush_threshold <= 0 then
      invalid_arg "Sharded_db.open_db: clear_flush_threshold must be positive";
    let n = Array.length regions in
    (* Per-shard open + classification.  Opening runs engine recovery in
       salvage mode, so content damage surfaces here: a shard whose
       engine mounts is re-scrubbed to decide Healthy vs Degraded; a
       shard whose engine refuses to mount is quarantined with a typed
       cause — except shard 0, which anchors the routing table, the
       intents and the health record: without it there is no store to
       degrade, so its failure is the typed fatal {!Shard_open_failed}. *)
    let open_engine region =
      let p = P.open_region region in
      let map = Map_.open_or_create ~initial_buckets p ~root:db_root in
      let s = { p; map; region } in
      let h =
        match (P.scrub_salvage p : Romulus.Engine.scrub_report).unrepairable
        with
        | [] -> Healthy
        | (offset, state) :: _ -> Degraded (Unrepairable_media { offset; state })
      in
      (s, h)
    in
    let shard_arr = Array.make n None in
    let health_arr = Array.make n Healthy in
    (match open_engine regions.(0) with
    | s, h ->
      shard_arr.(0) <- Some s;
      health_arr.(0) <- h
    | exception (Pmem.Region.Crash_point as e) -> raise e
    | exception e -> raise (Shard_open_failed { shard = 0; cause = e }));
    for i = 1 to n - 1 do
      match open_engine regions.(i) with
      | s, h ->
        shard_arr.(i) <- Some s;
        health_arr.(i) <- h
      | exception (Pmem.Region.Crash_point as e) -> raise e
      | exception Romulus.Engine.Unrepairable { offset; state } ->
        health_arr.(i) <- Quarantined (Unrepairable_media { offset; state })
      | exception Romulus.Engine.Recovery_error msg ->
        health_arr.(i) <- Quarantined (Open_failed msg)
      | exception Pmem.Region.Media_error { offset; _ } ->
        health_arr.(i) <-
          Quarantined
            (Open_failed
               (Printf.sprintf "media error at offset %d while opening" offset))
      | exception e ->
        health_arr.(i) <- Quarantined (Open_failed (Printexc.to_string e))
    done;
    let config =
      { initial_buckets; chunk_bytes; spill_threshold; admission_budget;
        clear_flush_threshold }
    in
    let proto =
      { config; next_batch_id = 1; pending = Hashtbl.create 16;
        clearable_mirrors = Array.make n []; clearable_flips = Array.make n [];
        live_flips = Hashtbl.create 8; in_flight = Array.make n 0 }
    in
    let router =
      { epoch = 0; n_slots = slots_per_shard * n;
        assignment = Array.init (slots_per_shard * n) (fun s -> s mod n);
        migration = None }
    in
    let t =
      { shard_arr; region_arr = Array.copy regions; health_arr;
        batch = None; proto; router }
    in
    (* Merge the durable record: every verdict above was freshly
       recomputed from the media (rot is persistent), so only the
       non-recomputable [Evacuated] verdict is taken from disk. *)
    let saved = load_health t in
    (match saved with
    | None -> ()
    | Some sv ->
      Array.iteri
        (fun i h ->
          if i < n then
            match h with
            | Quarantined (Evacuated _) -> t.health_arr.(i) <- h
            | _ -> ())
        sv);
    Array.iteri
      (fun i h ->
        if h <> Healthy then begin
          tick_health t i h;
          Fault.hit
            (match h with
            | Degraded _ -> fp_health_degraded
            | _ -> fp_health_quarantined)
        end)
      t.health_arr;
    (* refresh the durable record when the medium disagrees with it
       (fresh stores with all shards healthy stay metadata-free) *)
    (match saved with
    | None -> if Array.exists (fun h -> h <> Healthy) t.health_arr then
        persist_health t
    | Some sv -> if sv <> t.health_arr then persist_health t);
    reconcile t;
    t

  let save_to_files t base =
    Array.iteri
      (fun i region ->
        Pmem.Region.save_to_file region
          (Pmem.Region.shard_snapshot_path base ~shard:i))
      t.region_arr

  let open_from_files ?fence ?initial_buckets ?chunk_bytes
      ?spill_threshold ?admission_budget ?clear_flush_threshold ~shards base =
    if shards <= 0 then raise (Invalid_shards shards);
    (* validate the requested count against the file family before any
       region is opened: a snapshot family saved by an elastic store has
       one file per shard it had grown to, and opening a strict subset
       (or asking for more) would silently mis-route *)
    let found =
      let rec scan i =
        if Sys.file_exists (Pmem.Region.shard_snapshot_path base ~shard:i)
        then scan (i + 1)
        else i
      in
      scan 0
    in
    if found <> shards then raise (Shard_mismatch { requested = shards; found });
    let regions =
      Array.init shards (fun i ->
          (* a snapshot file that cannot even be loaded gives no region
             bytes to quarantine over, so the failure is typed and
             names the shard; content-level damage inside a loadable
             file is classified by [open_db] instead *)
          try
            Pmem.Region.load_from_file ?fence
              (Pmem.Region.shard_snapshot_path base ~shard:i)
          with
          | Pmem.Region.Crash_point as e -> raise e
          | e -> raise (Shard_open_failed { shard = i; cause = e }))
    in
    open_db ?initial_buckets ?chunk_bytes ?spill_threshold
      ?admission_budget ?clear_flush_threshold regions
end

(* The default sharded store: RomulusLog per shard, as in RomulusDB. *)
module Default = Make (Romulus.Logged)
