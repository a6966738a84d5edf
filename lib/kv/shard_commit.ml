(* The cross-shard commit protocol: all-or-nothing write batches across
   shards by *decentralized presumed abort*, with admission control.

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
   shard 0's root slot [intent_slot]; a store that still holds such a
   record (crashed mid-batch under that protocol) is refused at open
   rather than replayed.  A batch that touches a single shard (always
   the case with one shard) skips the protocol and runs as that shard's
   lone transaction, exactly as in Romulus_db.

   This module owns the mirror, flip and chunk layouts, the protocol's
   volatile state (batch ids, pending undo entries, live flips) and each
   shard's lazy-CLEAR queues and admission charge. *)

open Shard

(* Crash-window failpoints.  The campaign arms one of these with a
   simulated power-off to kill inside a protocol window, between the
   per-shard commits, and inside recovery's mirror resolution. *)
let fp_mirror_applied = Fault.site "sharded.d.mirror_applied"
let fp_flip_written = Fault.site "sharded.d.flip_written"
let fp_mirror_cleared = Fault.site "sharded.d.mirror_cleared"
let fp_rollback_undone = Fault.site "sharded.d.rollback_undone"
let fp_recover_resolved = Fault.site "sharded.recover.mirror_resolved"

(* chunk-chain windows: after each streamed chunk commit, between the
   last chunk and the seal transaction, and after recovery
   garbage-collects an unsealed chain *)
let fp_chunk_written = Fault.site "sharded.chunk.written"
let fp_seal_window = Fault.site "sharded.chunk.seal_window"
let fp_chunk_gc = Fault.site "sharded.chunk.gc"

(* Mirror payload: shard count, the slice's ops, then undo entries with
   a per-entry validity byte ('\001' live, '\000' invalidated by a racing
   single-key write) and the key's pre-batch value.  Returns the
   payload plus each undo key's validity-byte offset *relative to the
   payload start*, so a racing write can invalidate its entry with a
   one-byte durable store. *)
let encode_mirror ~nshards ~ops ~undo =
  let b = Buffer.create 256 in
  Buffer.add_int64_le b (Int64.of_int nshards);
  add_kv_list b ops;
  Buffer.add_int64_le b (Int64.of_int (List.length undo));
  let valid_offs =
    List.map
      (fun (k, v) ->
        let off = Buffer.length b in
        Buffer.add_char b '\001';
        add_str b k;
        add_opt b v;
        (k, off))
      undo
  in
  (Buffer.contents b, valid_offs)

(* Tag '\002' once marked an undo image spilled out of the chain into a
   record of its own, whose offset and length followed.  That format is
   retired and its images are no longer resolved: one that a rollback
   would replay ([live]) is refused by name rather than reported as
   truncated, and any other is skipped, since nothing reads it. *)
let take_undo_image pr ~live =
  if pr.pos < String.length pr.payload && pr.payload.[pr.pos] = '\002'
  then begin
    if live then
      raise
        (Romulus.Engine.Recovery_error
           "sharded mirror: undo image in the retired spilled-image format; \
            it cannot be rolled back");
    pr.pos <- pr.pos + 1;
    ignore (take_int pr "spilled-image" : int);
    ignore (take_int pr "spilled-image" : int);
    None
  end
  else take_opt pr "undo"

(* Returns (nshards, ops, undo) where each undo entry carries its
   validity flag.  [replay] says the still-valid undo images are to be
   rolled back. *)
let decode_mirror ~replay payload =
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
        (valid, k, take_undo_image pr ~live:(replay && valid)))
  in
  (nshards, ops, undo)

module Make (P : SHARD_PTM) = struct
  module S = Shard.Make (P)
  module R = Shard_route.Make (P)
  module Map_ = S.Map_

  (* A still-valid undo entry of an in-flight batch, consulted by racing
     single-key writes: [pu_valid] is the absolute offset of the entry's
     validity byte, which lives inside the payload chunk at [pu_chunk]
     of shard [pu_shard]'s mirror — the chunk whose CRC an invalidation
     must refresh. *)
  type pending_undo = { pu_shard : int; pu_chunk : int; pu_valid : int }

  (* The protocol's volatile state, shared by every handle of one store.
     Lost at a crash by definition — the recovery reconciliation pass
     rebuilds the persistent truth and [reset] empties this. *)
  type t = {
    mutable next_batch_id : int;
    pending : (string, pending_undo) Hashtbl.t;
    (* batch id -> (coordinator, flip_off, mirrors still hooked) *)
    live_flips : (int, int * int * int ref) Hashtbl.t;
  }

  let create () =
    { next_batch_id = 1; pending = Hashtbl.create 16;
      live_flips = Hashtbl.create 8 }

  (* forget the volatile state before reconciliation frees records *)
  let reset set c =
    Hashtbl.reset c.pending;
    Hashtbl.reset c.live_flips;
    Array.iter
      (fun sh ->
        sh.S.clear_mirrors <- [];
        sh.clear_flips <- [];
        sh.in_flight <- 0)
      set.S.all

  (* mirror record: next | batch id | coordinator | participant mask |
     sealed | payload length | chunk-chain head | spill-list head.
     The payload itself always lives in the chunk chain (a single chunk
     on the fast path); [sealed] is 0 while the chain is streaming and
     flipped to 1 in the transaction that applies the slice, so
     sealed <=> slice applied and an unsealed chain is garbage for
     recovery to collect.  The spill-list head is reserved: no mirror
     written today has one, but a legacy chain's list is still freed. *)
  let mirror_hdr = 64

  let m_next = 0
  let m_id = 8
  let m_coord = 16
  let m_mask = 24
  let m_sealed = 32
  let m_plen = 40
  let m_chunks = 48
  let m_spills = 56

  (* chunk record: a blob record (next | byte length | crc32 | bytes) *)
  let chunk_hdr = 24

  (* flip record: next | batch id | participant mask *)
  let flip_size = 24

  let f_id = 8
  let f_mask = 16

  let tick_back set i =
    S.tick set i (fun st ->
        st.Pmem.Stats.rolled_back <- st.Pmem.Stats.rolled_back + 1)

  let tick_chunk set i =
    S.tick set i (fun st ->
        st.Pmem.Stats.chunks_written <- st.Pmem.Stats.chunks_written + 1)

  let apply_op (s : S.engine) (k, v) =
    match v with
    | Some v -> ignore (Map_.put s.map k v : bool)
    | None -> ignore (Map_.remove s.map k : bool)

  (* A single-key write to shard [i] that races an in-flight cross-shard
     batch on the same key must not be overwritten by that batch's
     rollback: inside the write's own transaction the batch's undo entry
     for the key is invalidated (one byte in the mirror), so neither the
     inline abort path nor crash recovery will replay the stale
     pre-image. *)
  let write set c i k v =
    let s = S.rw set i in
    match Hashtbl.find_opt c.pending k with
    | None -> apply_op s (k, v)
    | Some pu ->
      let sp = (S.raw set pu.pu_shard).p in
      P.update_tx sp (fun () ->
          P.store_bytes sp pu.pu_valid "\000";
          (* the validity byte lives inside a CRC-protected chunk:
             refresh the chunk's CRC in the same transaction so a later
             rollback read of the chain still verifies *)
          S.refresh_crc sp ~hdr:chunk_hdr pu.pu_chunk;
          apply_op s (k, v));
      Hashtbl.remove c.pending k

  (* stable split of [ops] (oldest first) into per-shard groups,
     ascending shard index, preserving operation order within a shard *)
  let group_by_shard set r ops =
    let by = List.map (fun ((k, _) as op) -> (R.shard_of_key r k, op)) ops in
    List.filter_map
      (fun i ->
        match List.filter (fun (j, _) -> j = i) by with
        | [] -> None
        | slice -> Some (i, List.map snd slice))
      (List.init (S.count set) Fun.id)

  (* [slice]'s mirror payload for its shard [s], with the current image
     of every distinct key of the slice as its undo entry, oldest
     first *)
  let encode_slice set (s : S.engine) slice =
    let seen = Hashtbl.create 16 in
    let undo =
      List.filter_map
        (fun (k, _) ->
          if Hashtbl.mem seen k then None
          else begin
            Hashtbl.add seen k ();
            Some (k, Map_.get s.map k)
          end)
        slice
    in
    encode_mirror ~nshards:(S.count set) ~ops:slice ~undo

  (* reclaim a mirror together with its chunk chain (and a legacy
     mirror's spill list), and splice it out of the mirror list (inside
     an update tx); never reads payload bytes, so it is safe on unsealed
     chains *)
  let unhook_mirror p off =
    List.iter (P.free p) (S.list_offsets p (P.load p (off + m_chunks)));
    List.iter (P.free p) (S.list_offsets p (P.load p (off + m_spills)));
    S.unhook p ~slot:mirror_slot off

  (* ---- lazy CLEAR ---- *)

  (* Unhook every clearable record of shard [i] inside the caller's
     already-open transaction; the volatile bookkeeping is committed only
     by [finish_drain] after the transaction returns, so an abort (or a
     re-executing STM closure) leaves the plan intact. *)
  let drain_plan set i =
    let sh = S.get set i in
    (sh.clear_mirrors, sh.clear_flips)

  let drain_in_tx set i (mirrors, flips) =
    let p = (S.raw set i).p in
    List.iter (fun (off, _) -> unhook_mirror p off) mirrors;
    List.iter (fun off -> S.unhook p ~slot:flip_slot off) flips

  let finish_drain set c i (mirrors, flips) =
    let sh = S.get set i in
    sh.clear_mirrors <- [];
    sh.clear_flips <- [];
    let n = List.length mirrors + List.length flips in
    if n > 0 then
      S.tick set i (fun st ->
          st.Pmem.Stats.lazy_clears <- st.Pmem.Stats.lazy_clears + n);
    (* a batch whose last mirror is gone frees its flip for reclamation *)
    List.iter
      (fun (_, id) ->
        match Hashtbl.find_opt c.live_flips id with
        | None -> ()
        | Some (coord, flip_off, remaining) ->
          decr remaining;
          if !remaining = 0 then begin
            Hashtbl.remove c.live_flips id;
            let csh = S.get set coord in
            csh.clear_flips <- flip_off :: csh.clear_flips
          end)
      mirrors;
    if n > 0 then Fault.hit fp_mirror_cleared

  (* Run a protocol transaction that piggybacks shard [i]'s parked
     lazy-CLEAR drain.  If the combined transaction overflows the redo
     log, retry [f] alone — the records stay parked for a later flush —
     so reclamation can never fail a batch that would fit by itself
     (shrinking the chunk size cannot shrink the drain). *)
  let tx_with_drain set c i f =
    let s = S.raw set i in
    let (mirrors, flips) as plan = drain_plan set i in
    match
      P.update_tx s.p (fun () ->
          let r = f () in
          drain_in_tx set i plan;
          r)
    with
    | r ->
      finish_drain set c i plan;
      r
    | exception
        Romulus.Engine.Tx_aborted { cause = Romulus.Redo_log.Overflow _; _ }
      when mirrors <> [] || flips <> [] ->
      P.update_tx s.p f

  (* Dedicated reclamation transaction for one shard's parked records —
     the bound on the lazy-CLEAR queues.  Unlike the piggybacked drain,
     this pays its own transaction, so it only runs when asked
     ([flush_clears]) or when a queue reaches
     [default_clear_flush_threshold]. *)
  let flush_shard_clears set c i =
    let (mirrors, flips) as plan = drain_plan set i in
    if mirrors <> [] || flips <> [] then begin
      let s = S.raw set i in
      P.update_tx s.p (fun () -> drain_in_tx set i plan);
      S.tick set i (fun st ->
          st.Pmem.Stats.clear_flushes <- st.Pmem.Stats.clear_flushes + 1);
      finish_drain set c i plan
    end

  (* Two passes: draining a batch's last mirror releases its flip into
     the coordinator's queue, which the first pass may already have
     visited — the second leaves the store fully reclaimed. *)
  let flush_clears set c =
    for _ = 1 to 2 do
      for i = 0 to S.count set - 1 do
        flush_shard_clears set c i
      done
    done

  (* After a commit, flush any shard whose parked queue reached the
     threshold — including shards the batch never touched, so a
     write-quiet shard's stale mirrors are still reclaimed. *)
  let maybe_flush_clears set c =
    for i = 0 to S.count set - 1 do
      let sh = S.get set i in
      if
        List.length sh.clear_mirrors + List.length sh.clear_flips
        >= default_clear_flush_threshold
      then flush_shard_clears set c i
    done

  (* read and reassemble the payload of the *sealed* mirror at [off]
     (inside a transaction on [s]) *)
  let read_payload_in_tx (s : S.engine) off =
    let p = s.p in
    let plen = P.load p (off + m_plen) in
    if plen < 0 then S.record_error "mirror" "negative payload length";
    S.join_blobs ~what:"mirror" ~expect_len:plen
      (List.map
         (S.read_blob p ~hdr:chunk_hdr ~what:"mirror chunk" ~max_len:plen)
         (S.list_offsets p (P.load p (off + m_chunks))))

  (* replay the still-valid undo entries of the sealed mirror at [off]
     and reclaim it with its chunk chain, inside one transaction on
     shard [i]; reads the validity bytes back from the chain so racing
     invalidations are honored *)
  let rollback_mirror_tx set i off =
    let s = S.raw set i in
    P.update_tx s.p (fun () ->
        let payload = read_payload_in_tx s off in
        let _, _, undo = decode_mirror ~replay:true payload in
        List.iter (fun (valid, k, v) -> if valid then apply_op s (k, v)) undo;
        unhook_mirror s.p off)

  (* collect a partially-streamed (unsealed) chain: nothing of its slice
     was applied, so this only frees records — payload bytes are never
     decoded, which is what makes it safe on arbitrary chain prefixes *)
  let gc_mirror_tx set i off =
    let s = S.raw set i in
    P.update_tx s.p (fun () -> unhook_mirror s.p off)

  (* ---- PREPARE: one mirror per participant, fast or streamed ----

     Fast path (payload fits one chunk): one transaction allocates chunk
     and sealed mirror, hooks it, reclaims stale records and applies the
     slice — exactly one protocol transaction per participant, as before
     chunking.

     Streamed path: an *unsealed* mirror shell is hooked first; each
     payload chunk then commits in its own bounded transaction, linked
     into the shell as it goes; a final seal transaction flips [sealed]
     and applies the slice.  A crash anywhere before the seal leaves an
     unsealed chain that recovery collects as presumed abort; a runtime
     abort collects it inline.  Sealed <=> slice applied: the mirror
     invariant, at chain granularity. *)

  (* hook a fresh mirror header (inside an update tx on [s]) *)
  let hook_mirror (s : S.engine) ~id ~coord ~mask ~sealed ~plen ~chunks =
    let o = P.alloc s.p mirror_hdr in
    P.store s.p (o + m_next) (P.get_root s.p mirror_slot);
    P.store s.p (o + m_id) id;
    P.store s.p (o + m_coord) coord;
    P.store s.p (o + m_mask) mask;
    P.store s.p (o + m_sealed) sealed;
    P.store s.p (o + m_plen) plen;
    P.store s.p (o + m_chunks) chunks;
    P.store s.p (o + m_spills) 0;
    P.set_root s.p mirror_slot o;
    o

  (* The undo images are read here, right before this participant's
     PREPARE: a single-key write that lands after an earlier
     participant's PREPARE, on a key not yet pending, is then this
     mirror's pre-batch value.  Returns the mirror offset and, per undo
     key, the chunk holding its validity byte and that byte's absolute
     offset. *)
  let prepare_shard set c ~chunk_bytes i ~id ~coord ~mask slice =
    let s = S.raw set i in
    let payload, rel_offs = encode_slice set s slice in
    let plen = String.length payload in
    let hook = hook_mirror s ~id ~coord ~mask in
    (* the chain's chunk offsets in order; every piece but the last
       holds exactly [chunk_bytes] payload bytes *)
    let moff, chunks =
      if plen <= chunk_bytes then begin
        let moff, ch =
          tx_with_drain set c i (fun () ->
              let ch = S.write_blob s.p ~hdr:chunk_hdr ~first:0 payload in
              let o = hook ~sealed:1 ~plen ~chunks:ch in
              List.iter (apply_op s) slice;
              (o, ch))
        in
        tick_chunk set i;
        (moff, [ ch ])
      end
      else begin
        (* unsealed shell first: from here the chain is crash-visible and
           recovery (or the inline abort path) can always collect it *)
        let moff =
          tx_with_drain set c i (fun () -> hook ~sealed:0 ~plen:0 ~chunks:0)
        in
        try
          let link = ref (moff + m_chunks) in
          let chunks =
            List.map
              (fun piece ->
                let ch =
                  P.update_tx s.p (fun () ->
                      let ch = S.write_blob s.p ~hdr:chunk_hdr ~first:0 piece in
                      P.store s.p !link ch;
                      ch)
                in
                link := ch;
                tick_chunk set i;
                Fault.hit fp_chunk_written;
                ch)
              (Chunk.split ~chunk_bytes payload)
          in
          Fault.hit fp_seal_window;
          (* the seal: sealed <=> slice applied, atomically *)
          P.update_tx s.p (fun () ->
              P.store s.p (moff + m_plen) plen;
              P.store s.p (moff + m_sealed) 1;
              List.iter (apply_op s) slice);
          (moff, chunks)
        with
        | Pmem.Region.Crash_point ->
          (* dead machine: recovery collects the unsealed chain *)
          raise Pmem.Region.Crash_point
        | e ->
          (* runtime abort mid-stream: collect our own unsealed chain
             before re-raising to the batch-level abort handler *)
          gc_mirror_tx set i moff;
          raise e
      end
    in
    let chunks = Array.of_list chunks in
    ( moff,
      List.map
        (fun (k, rel) ->
          let ch = chunks.(rel / chunk_bytes) in
          (k, ch, ch + chunk_hdr + (rel mod chunk_bytes)))
        rel_offs )

  let cross_shard_batch set c ~chunk_bytes groups =
    let id = c.next_batch_id in
    c.next_batch_id <- id + 1;
    let coord = match groups with (i, _) :: _ -> i | [] -> assert false in
    let mask =
      List.fold_left (fun m (i, _) -> m lor (1 lsl (i land 61))) 0 groups
    in
    let applied = ref [] in
    (* keys whose pending-undo entries this batch registered *)
    let registered = ref [] in
    let unregister () =
      List.iter (fun k -> Hashtbl.remove c.pending k) !registered;
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
            prepare_shard set c ~chunk_bytes i ~id ~coord ~mask slice
          in
          applied := (i, moff) :: !applied;
          S.tick set i (fun st ->
              st.Pmem.Stats.intent_prepares <-
                st.Pmem.Stats.intent_prepares + 1);
          (* expose the undo entries to racing single-key writes *)
          List.iter
            (fun (k, coff, aoff) ->
              Hashtbl.replace c.pending k
                { pu_shard = i; pu_chunk = coff; pu_valid = aoff };
              registered := k :: !registered)
            valids;
          Fault.hit fp_mirror_applied)
        groups
    with
    | () -> (
      (* COMMIT: one flip transaction on the coordinator — the batch's
         durability point.  Also a piggyback opportunity for the
         coordinator's own stale records. *)
      let sc = S.raw set coord in
      let flip_off =
        tx_with_drain set c coord (fun () ->
            let o = P.alloc sc.p flip_size in
            P.store sc.p o (P.get_root sc.p flip_slot);
            P.store sc.p (o + f_id) id;
            P.store sc.p (o + f_mask) mask;
            P.set_root sc.p flip_slot o;
            o)
      in
      S.tick set coord (fun st ->
          st.Pmem.Stats.coordinator_flips <-
            st.Pmem.Stats.coordinator_flips + 1);
      unregister ();
      Fault.hit fp_flip_written;
      (* CLEAR is deferred: each mirror rides its shard's next PREPARE;
         the flip follows once every mirror is gone.  Queues are
         bounded: any shard past the flush threshold is drained by a
         dedicated transaction right away. *)
      let participants = !applied in
      Hashtbl.replace c.live_flips id
        (coord, flip_off, ref (List.length participants));
      List.iter
        (fun (i, off) ->
          let sh = S.get set i in
          sh.clear_mirrors <- (off, id) :: sh.clear_mirrors)
        participants;
      maybe_flush_clears set c)
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
          rollback_mirror_tx set i off;
          tick_back set i;
          Fault.hit fp_rollback_undone)
        !applied;
      unregister ();
      match e with
      | Romulus.Engine.Tx_aborted _ -> raise e
      | e -> raise (Romulus.Engine.Tx_aborted { cause = e; backtrace })

  (* ---- admission control ----

     Every cross-shard batch is charged its per-shard mirror footprint
     (the encoded payload length) against a volatile per-shard in-flight
     budget *before any persistent effect*.  A batch that does not fit
     fails at once with the typed [Overloaded] — raised directly, not
     wrapped in [Tx_aborted], because nothing was written.  Retrying is
     the caller's choice ({!with_overload_retry}). *)

  (* refuse with the typed [Overloaded], metered on shard [i] *)
  let overloaded set i =
    S.tick set i (fun st ->
        st.Pmem.Stats.overload_rejections <-
          st.Pmem.Stats.overload_rejections + 1);
    raise
      (Overloaded
         { shard = i; in_flight = (S.get set i).in_flight;
           budget = set.admission_budget })

  (* add [sign * c] to each charged shard's in-flight bytes *)
  let charge set ~sign charges =
    List.iter
      (fun (i, c) ->
        let sh = S.get set i in
        sh.in_flight <- sh.in_flight + (sign * c))
      charges

  let admit set charges =
    let budget = set.S.admission_budget in
    match
      List.find_opt (fun (i, c) -> (S.get set i).in_flight + c > budget) charges
    with
    | None -> charge set ~sign:1 charges
    | Some (i, _) -> overloaded set i

  (* Apply a write batch's operations (oldest first) all-or-nothing. *)
  let commit set r c ops =
    if ops <> [] then begin
      (* Epoch consistency: a batch whose keys touch slots inside an
         open transfer window cannot be grouped consistently under one
         epoch (its slices would interleave with the move stream), so it
         is refused with the typed [Overloaded] — retryable via
         {!with_overload_retry}; once the window closes the retry routes
         cleanly on the new epoch.  Batches on untouched slots group
         identically under both epochs and proceed. *)
      (match List.find_map (fun (k, _) -> R.moving r k) ops with
      | Some w -> overloaded set w.target
      | None -> ());
      match group_by_shard set r ops with
      | [] -> ()
      | [ (i, sops) ] ->
        (* one shard: a single ordinary transaction, no intent — exact
           Romulus_db semantics (and the only path with one shard) *)
        let s = S.rw set i in
        P.update_tx s.p (fun () -> List.iter (apply_op s) sops)
      | groups -> (
        (* every participant must accept writes before any intent or
           mirror is made durable: a batch never partially lands on the
           healthy subset of its shards *)
        List.iter (fun (i, _) -> ignore (S.rw set i : S.engine)) groups;
        (* the charge is each participant's payload length now; PREPARE
           encodes the payload again when it reads its undo images *)
        let charges =
          List.map
            (fun (i, slice) ->
              (i, String.length (fst (encode_slice set (S.raw set i) slice))))
            groups
        in
        admit set charges;
        Fun.protect
          ~finally:(fun () -> charge set ~sign:(-1) charges)
          (fun () ->
            (* A redo-log overflow inside PREPARE aborts cleanly (the
               batch-level handler already rolled every applied mirror
               back), so re-enter the chunked path with smaller chunks —
               bounding each protocol transaction — instead of surfacing
               the overflow.  When even [min_chunk_bytes] overflows (the
               slice itself is too wide for the redo log) the typed
               [Tx_aborted] carries the cause. *)
            let rec attempt chunk_bytes =
              try cross_shard_batch set c ~chunk_bytes groups
              with
              | Romulus.Engine.Tx_aborted
                  { cause = Romulus.Redo_log.Overflow _; _ }
                when chunk_bytes > min_chunk_bytes ->
                attempt (max min_chunk_bytes (chunk_bytes / 4))
            in
            attempt set.chunk_bytes))
    end

  (* ---- recovery ---- *)

  (* A batch intent left in shard 0's reserved slot by the retired
     centralized protocol cannot be replayed any more: refuse the store
     loudly instead of leaving that batch silently half-applied. *)
  let refuse_legacy_intent set =
    if S.read_root set 0 intent_slot <> 0 then
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
  let reconcile_mirrors set =
    let corrupt fmt =
      Printf.ksprintf
        (fun m -> raise (Romulus.Engine.Recovery_error ("sharded mirror " ^ m)))
        fmt
    in
    let n = S.count set in
    let skipped = ref false in
    (* all durable flips of reachable coordinators, keyed by
       (coordinator shard, batch id) *)
    let flips = Hashtbl.create 8 in
    for c = 0 to n - 1 do
      if S.engine_up set c then begin
        let p = (S.raw set c).p in
        P.read_tx p (fun () ->
            List.iter
              (fun off -> Hashtbl.replace flips (c, P.load p (off + f_id)) off)
              (S.list_offsets p (P.get_root p flip_slot)))
      end
    done;
    (* phase 1: resolve every hooked mirror.  Offsets are collected in
       one read pass per shard and stay valid as others are unhooked
       (a splice never moves surviving records), so a mirror left
       hooked on purpose cannot spin the walk. *)
    for i = 0 to n - 1 do
      if not (S.engine_up set i) then begin
        (* an evacuated shard is retired for good — its residual mirrors
           are abandoned with it and never block flip reclamation; any
           other down shard may come back via repair, so its unresolved
           mirrors park phase 2 *)
        match (S.get set i).health with
        | Quarantined (Evacuated _) -> ()
        | _ -> skipped := true
      end
      else begin
        let s = S.raw set i in
        let offs =
          P.read_tx s.p (fun () ->
              S.list_offsets s.p (P.get_root s.p mirror_slot))
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
                corrupt "names coordinator %d of %d" coord n;
              if sealed <> 0 && sealed <> 1 then
                corrupt "has bad seal word %d" sealed;
              if sealed = 0 then begin
                (* partially-streamed chain, never sealed: the slice was
                   never applied, so the whole chain is presumed-abort
                   garbage — collected without decoding a byte *)
                gc_mirror_tx set i head;
                tick_back set i;
                Fault.hit fp_chunk_gc
              end
              else if not (S.engine_up set coord) then
                (* coordinator down: commit vs abort is undecidable;
                   leave the sealed mirror hooked until after repair *)
                skipped := true
              else begin
                let payload =
                  P.read_tx s.p (fun () -> read_payload_in_tx s head)
                in
                let committed = Hashtbl.mem flips (coord, id) in
                let nshards, _, _ =
                  decode_mirror ~replay:(not committed) payload
                in
                (* mirrors may predate a split; only more-than-attached
                   is corrupt *)
                if nshards <= 0 || nshards > n then
                  corrupt "names %d shards, store has %d" nshards n;
                if committed then begin
                  (* committed: the slice is already applied *)
                  P.update_tx s.p (fun () -> unhook_mirror s.p head);
                  S.tick set i (fun st ->
                      st.Pmem.Stats.rolled_forward <-
                        st.Pmem.Stats.rolled_forward + 1)
                end
                else begin
                  rollback_mirror_tx set i head;
                  tick_back set i
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
              match (S.get set i).health with
              | Degraded _ -> skipped := true
              | _ -> raise e))
          offs
      end
    done;
    (* phase 2: with nothing skipped no mirror survives anywhere, so
       every flip is reclaimable; each is popped off the list head in a
       transaction of its own *)
    if not !skipped then
      for c = 0 to n - 1 do
        if S.engine_up set c then begin
          let p = (S.raw set c).p in
          List.iter
            (fun head ->
              P.update_tx p (fun () ->
                  P.set_root p flip_slot (P.load p head);
                  P.free p head))
            (P.read_tx p (fun () ->
                 S.list_offsets p (P.get_root p flip_slot)))
        end
      done

  (* Hooked protocol records across the whole store: every mirror and
     flip.  Committed batches leave theirs here until the lazy CLEAR
     reclaims them. *)
  let pending_intents set =
    let count p slot =
      P.read_tx p (fun () -> List.length (S.list_offsets p (P.get_root p slot)))
    in
    Array.fold_left
      (fun acc sh ->
        match sh.S.engine with
        | None -> acc
        | Some (e : S.engine) ->
          acc + count e.p mirror_slot + count e.p flip_slot)
      0 set.S.all
end
