(* ---- elastic sharding: live migration and evacuation ----

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

   The volatile window ({!Shard_route}) re-points the moving slots at
   the target as soon as the intent commits, so writes route on the
   new epoch (with per-key forwarding) and reads double-read.

   This module owns the cursor record and the tombstone map; the intent
   and the routing table belong to Shard_route, the evacuated verdict
   to Shard_health. *)

open Shard

(* migration windows: after each move batch's source transaction (keys
   deleted from the source, cursor durable, target not yet updated),
   after each move batch's target transaction, after recovery replays
   the durable cursor, and after the epoch-flip transaction (the
   migration's validity point); the intent windows are Shard_route's *)
let fp_mig_moved = Fault.site "sharded.migrate.batch_moved"
let fp_mig_applied = Fault.site "sharded.migrate.batch_applied"
let fp_mig_resumed = Fault.site "sharded.migrate.resumed"
let fp_mig_flip = Fault.site "sharded.migrate.epoch_flip"

(* evacuation windows: after an evacuation starts streaming, and after
   its combined route+health flip (the evacuation's validity point) *)
let fp_health_evacuate_start = Fault.site "sharded.health.evacuate_start"
let fp_health_evacuated = Fault.site "sharded.health.evacuated"

module Make (P : SHARD_PTM) = struct
  module S = Shard.Make (P)
  module R = Shard_route.Make (P)
  module H = Shard_health.Make (P)
  module Map_ = S.Map_

  (* cursor record: a blob record (epoch | len | crc | reserved | bytes)
     at the source's [cursor_slot] *)
  let cursor_hdr = 32

  let tick_mig_resumed set =
    S.tick set 0 (fun st ->
        st.Pmem.Stats.migrations_resumed <-
          st.Pmem.Stats.migrations_resumed + 1)

  let tick_mig_completed set =
    S.tick set 0 (fun st ->
        st.Pmem.Stats.migrations_completed <-
          st.Pmem.Stats.migrations_completed + 1)

  let tick_migrated set i n =
    S.tick set i (fun st ->
        st.Pmem.Stats.keys_migrated <- st.Pmem.Stats.keys_migrated + n)

  let tomb_map set target =
    Map_.open_or_create ~initial_buckets:set.S.initial_buckets
      (S.raw set target).p ~root:tomb_slot

  let tick_double_read set i =
    S.tick set i (fun st ->
        st.Pmem.Stats.double_reads <- st.Pmem.Stats.double_reads + 1)

  (* Double-read during a transfer window: a moving key may not have
     reached the target yet, so a target miss consults the tombstones
     (a racing delete is authoritative) and then the source. *)
  let get set (w : R.window) k =
    match Map_.get (S.raw set w.target).map k with
    | Some _ as r -> r
    | None ->
      tick_double_read set w.source;
      if Map_.mem w.tomb k then None else Map_.get (S.raw set w.source).map k

  let mem set (w : R.window) k =
    Map_.mem (S.raw set w.target).map k
    || begin
      tick_double_read set w.source;
      (not (Map_.mem w.tomb k)) && Map_.mem (S.raw set w.source).map k
    end

  (* A single-key write to a moving slot during a transfer window routes
     on the new epoch with per-key forwarding: the target transaction is
     authoritative (a put clears the key's tombstone, a delete plants
     one), then the stale source copy is removed in its own transaction.
     A crash between the two is harmless — the target copy (or the
     tombstone) shadows the source under double-read, and recovery's
     resumed move stream re-deletes the source copy without overwriting
     the target (insert-if-absent). *)
  let forward_write set (w : R.window) k v =
    let tgt = S.raw set w.target in
    let src = S.raw set w.source in
    (match v with
    | Some value ->
      P.update_tx tgt.p (fun () ->
          ignore (Map_.put tgt.map k value : bool);
          ignore (Map_.remove w.tomb k : bool))
    | None ->
      P.update_tx tgt.p (fun () ->
          ignore (Map_.remove tgt.map k : bool);
          ignore (Map_.put w.tomb k "" : bool)));
    if Map_.mem src.map k then
      P.update_tx src.p (fun () -> ignore (Map_.remove src.map k : bool))

  (* One target transaction inserting each of [kvs] the target lacks and
     no tombstone of [tomb] marks dead: a key already decided by a racing
     write (or by an earlier run of the same stream) is left alone, so
     replays are idempotent.  Returns the number inserted. *)
  let insert_absent (tgt : S.engine) ?tomb kvs =
    let dead k = match tomb with Some tb -> Map_.mem tb k | None -> false in
    P.update_tx tgt.p (fun () ->
        List.fold_left
          (fun n (k, v) ->
            if (not (Map_.mem tgt.map k)) && not (dead k) then begin
              ignore (Map_.put tgt.map k v : bool);
              n + 1
            end
            else n)
          0 kvs)

  (* Run [f] on consecutive batches of [kvs] whose cursor payload fits
     [chunk_bytes] (always at least one pair a batch). *)
  let rec in_batches ~chunk_bytes kvs f =
    let rec take acc size = function
      | [] -> (List.rev acc, [])
      | ((k, v) :: rest) as all ->
        let size = size + 17 + String.length k + String.length v in
        if acc <> [] && size > chunk_bytes then (List.rev acc, all)
        else take ((k, v) :: acc) size rest
    in
    if kvs <> [] then begin
      let batch, rest = take [] 8 kvs in
      f batch;
      in_batches ~chunk_bytes rest f
    end

  (* One bounded move batch: [moved] is (key, value) pairs still living
     in the source.  Source transaction: replace the cursor (free the
     previous batch's) and delete the keys; target transaction: insert
     each unless a racing write already decided the key.  Nothing may
     refuse the batch between the two: once the source transaction
     commits, the cursor is the keys' only home until the target
     transaction lands. *)
  let move_batch set (w : R.window) moved =
    let src = S.raw set w.source in
    let tgt = S.raw set w.target in
    let b = Buffer.create 256 in
    add_kv_list b (List.map (fun (k, v) -> (k, Some v)) moved);
    P.update_tx src.p (fun () ->
        S.replace_root src.p cursor_slot
          (S.write_blob src.p ~hdr:cursor_hdr ~first:w.epoch
             (Buffer.contents b));
        List.iter
          (fun (k, _) -> ignore (Map_.remove src.map k : bool))
          moved);
    Fault.hit fp_mig_moved;
    tick_migrated set w.target (insert_absent tgt ~tomb:w.tomb moved);
    Fault.hit fp_mig_applied

  (* the source's (key, value) pairs on [moving] slots *)
  let moving_pairs r (src : S.engine) moving =
    Map_.fold src.map
      (fun acc k v ->
        if moving.(R.slot_of_key r k) then (k, v) :: acc else acc)
      []

  (* Stream every source key of a moving slot to the target in bounded
     batches.  Keys a racing write touches mid-stream are skipped
     naturally: a forwarded put or delete removes its key from the
     source before the stream reaches it.  A final re-collection pass
     confirms the source is drained. *)
  let run_move_loop set r (w : R.window) =
    let src = S.raw set w.source in
    let rec pass () =
      let pending = moving_pairs r src w.moving in
      if pending <> [] then begin
        in_batches ~chunk_bytes:set.S.chunk_bytes pending (fun batch ->
            (* a racing write may have retired a key since collection *)
            let moved =
              List.filter (fun (k, _) -> Map_.mem src.map k) batch
            in
            if moved <> [] then move_batch set w moved);
        pass ()
      end
    in
    pass ()

  (* The migration's validity point: persist the routing table under the
     new epoch in one shard-0 transaction.  The volatile assignment was
     re-pointed when the window opened, so this only makes it durable. *)
  let flip_epoch set r (w : R.window) =
    R.persist set r ~epoch:w.epoch;
    R.close r ~epoch:w.epoch;
    tick_mig_completed set;
    Fault.hit fp_mig_flip

  (* Post-flip reclamation, idempotent (recovery re-runs it whole when a
     crash lands inside): finish any straggler source copies, free the
     cursor, clear the tombstones, and unhook the intent last — it is
     the durable evidence that reclamation may still be owed. *)
  let reclaim set r ~source ~target ~moving =
    let src = S.raw set source in
    let tgt = S.raw set target in
    let tomb = tomb_map set target in
    (* stale moving-slot copies left in the source: none in a crash-free
       run (the move stream deletes as it goes); after a crash, a copy
       whose key the target never decided is completed rather than
       dropped — exactly-once either way *)
    let stale = moving_pairs r src moving in
    if stale <> [] then begin
      if
        List.exists
          (fun (k, _) -> (not (Map_.mem tgt.map k)) && not (Map_.mem tomb k))
          stale
      then ignore (insert_absent tgt ~tomb stale : int);
      P.update_tx src.p (fun () ->
          List.iter
            (fun (k, _) -> ignore (Map_.remove src.map k : bool))
            stale)
    end;
    if S.read_root set source cursor_slot <> 0 then
      P.update_tx src.p (fun () -> S.replace_root src.p cursor_slot 0);
    let tkeys = Map_.fold tomb (fun acc k _ -> k :: acc) [] in
    if tkeys <> [] then
      P.update_tx tgt.p (fun () ->
          List.iter (fun k -> ignore (Map_.remove tomb k : bool)) tkeys);
    R.unhook_intent set

  (* Run a migration from an already-durable intent: open the window
     (moving slots route to the target from here), stream, flip,
     reclaim. *)
  let run_migration set r ~source ~target ~mepoch ~moving =
    let w =
      { R.source; target; epoch = mepoch; moving;
        tomb = tomb_map set target }
    in
    R.open_window r w;
    run_move_loop set r w;
    flip_epoch set r w;
    reclaim set r ~source ~target ~moving

  (* Make a migration intent durable and return the epoch it will flip
     to. *)
  let start_migration set r ~kind ~source ~target ~moving =
    let mepoch = R.write_intent set r ~kind ~source ~target ~moving in
    run_migration set r ~source ~target ~mepoch ~moving

  let check_resizable set r ~source =
    if Option.is_some r.R.window then
      invalid_arg "Sharded_db: a migration is already in progress";
    if source < 0 || source >= S.count set then
      invalid_arg (Printf.sprintf "Sharded_db: bad source shard %d" source)

  (* Split half of [source]'s slots (every other owned slot) onto a new
     shard opened over [region]; returns the new shard's index.  Online:
     reads and single-key writes proceed during the stream. *)
  let split set r ~source region =
    check_resizable set r ~source;
    (* the move stream reads and deletes from the source: Healthy only *)
    ignore (S.rw set source : S.engine);
    let owned = R.owned_slots r source in
    if List.length owned < 2 then
      invalid_arg
        (Printf.sprintf
           "Sharded_db.split_shard: shard %d owns %d slot(s), cannot split"
           source (List.length owned));
    let target = S.attach set region in
    let moving = R.slot_set r (List.filteri (fun i _ -> i land 1 = 1) owned) in
    start_migration set r ~kind:0 ~source ~target ~moving;
    target

  (* Move every slot of [source] onto [target]; the source region stays
     attached (it may anchor the routing directory or host protocol
     records) but owns no slots and holds no keys afterwards. *)
  let merge set r ~source ~target =
    check_resizable set r ~source;
    if target < 0 || target >= S.count set then
      invalid_arg (Printf.sprintf "Sharded_db: bad target shard %d" target);
    if target = source then
      invalid_arg "Sharded_db.merge_shards: source = target";
    (* both endpoints take writes during the stream: Healthy only *)
    ignore (S.rw set source : S.engine);
    ignore (S.rw set target : S.engine);
    let owned = R.owned_slots r source in
    if owned = [] then
      invalid_arg
        (Printf.sprintf "Sharded_db.merge_shards: shard %d owns no slots"
           source);
    start_migration set r ~kind:1 ~source ~target ~moving:(R.slot_set r owned)

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
  let collect_salvageable (src : S.engine) =
    let acc = ref [] in
    (try Map_.iter src.map (fun k v -> acc := (k, v) :: !acc)
     with Pmem.Region.Media_error _ -> ());
    List.rev !acc

  let run_evacuation set r ~source ~target ~mepoch ~moving =
    let src = S.raw set source in
    let tgt = S.raw set target in
    Fault.hit fp_health_evacuate_start;
    let kvs = collect_salvageable src in
    (* bounded insert-if-absent batches (idempotent on re-run): a moving
       key can only be written through the source, which refuses, so a
       key already present in the target was placed by this stream *)
    in_batches ~chunk_bytes:set.S.chunk_bytes kvs (fun batch ->
        let inserted = insert_absent tgt batch in
        S.tick set target (fun st ->
            st.Pmem.Stats.keys_evacuated <-
              st.Pmem.Stats.keys_evacuated + inserted));
    (* volatile route + verdict first (precedent: run_migration opening
       the window before its durable flip), then the atomic flip *)
    R.reassign r ~moving ~target;
    H.mark_evacuated set ~source ~target;
    let s0 = S.raw set 0 in
    P.update_tx s0.p (fun () ->
        R.persist_in_tx set r ~epoch:mepoch;
        H.persist_in_tx set);
    R.close r ~epoch:mepoch;
    tick_mig_completed set;
    S.tick set source (fun st ->
        st.Pmem.Stats.shards_evacuated <- st.Pmem.Stats.shards_evacuated + 1);
    Fault.hit fp_health_evacuated;
    (* retire the dying engine; residual source bytes are never touched
       again (its map still holds stale duplicates of the target's keys,
       which is why scans drop Evacuated shards) *)
    H.retire set source;
    R.unhook_intent set;
    List.length kvs

  let start_evacuation set r ~source ~target =
    if source = 0 then
      invalid_arg "Sharded_db: shard 0 anchors the store and cannot be \
                   evacuated";
    if R.migration_pending set then
      invalid_arg "Sharded_db: a migration is already in progress";
    if not (S.healthy set target) then
      invalid_arg
        (Printf.sprintf "Sharded_db: evacuation target %d is not healthy"
           target);
    let moving = R.slot_set r (R.owned_slots r source) in
    let mepoch = R.write_intent set r ~kind:2 ~source ~target ~moving in
    run_evacuation set r ~source ~target ~mepoch ~moving

  (* Recovery-side reconciliation of an in-flight migration.  Split and
     merge intents are rolled *forward* — but only when both endpoints
     are fully healthy: the move stream reads and deletes from the
     source and writes the target, so against rotten media it is
     *parked* instead (intent left hooked, window never opened, slots
     routing on the old epoch) until a repair pass heals the endpoints
     and re-drives this.  An evacuation intent (kind 2) re-runs the
     read-only salvage stream when the source engine is up and the
     target healthy; flipped, it owes only the intent unhook — the
     dying source is never written. *)
  let reconcile set r =
    match R.read_intent set r with
    | None -> ()
    | Some (kind, source, target, mepoch, moving) ->
      if kind = 2 then begin
        if r.epoch >= mepoch then begin
          (* routing and the Evacuated verdict flipped durably together;
             only the intent unhook is owed *)
          tick_mig_resumed set;
          R.unhook_intent set
        end
        else if Option.is_some (S.get set source).engine && S.healthy set target
        then begin
          tick_mig_resumed set;
          Fault.hit fp_mig_resumed;
          ignore (run_evacuation set r ~source ~target ~mepoch ~moving : int)
        end
        (* else parked: the salvage source is unopenable or the target is
           sick; a later repair pass re-drives the evacuation *)
      end
      else if not (S.healthy set source && S.healthy set target) then
        () (* parked split/merge; resumed by repair via reconcile *)
      else begin
        tick_mig_resumed set;
        if r.epoch >= mepoch then reclaim set r ~source ~target ~moving
        else begin
          let src = S.raw set source in
          let tgt = S.raw set target in
          let tomb = tomb_map set target in
          let coff = S.read_root set source cursor_slot in
          if coff <> 0 then begin
            let what = "migration cursor" in
            let cepoch, payload =
              P.read_tx src.p (fun () ->
                  let cepoch = P.load src.p coff in
                  let ((bytes, _) as piece) =
                    S.read_blob src.p ~hdr:cursor_hdr ~what ~max_len:max_int
                      coff
                  in
                  ( cepoch,
                    S.join_blobs ~what ~expect_len:(String.length bytes)
                      [ piece ] ))
            in
            if cepoch = mepoch then begin
              let kvs =
                take_kv_list { payload; pos = 0 } "migration-cursor"
                |> List.filter_map (fun (k, v) ->
                       Option.map (fun v -> (k, v)) v)
              in
              tick_migrated set target (insert_absent tgt ~tomb kvs)
            end
          end;
          Fault.hit fp_mig_resumed;
          run_migration set r ~source ~target ~mepoch ~moving
        end
      end
end
