(* ---- routing directory ----

   Keys route through a slot table: [route_hash k mod n_slots] picks a
   slot, the slot's assignment picks the shard.  [n_slots] is fixed at
   [slots_per_shard * initial shard count] when the store is first
   created; epoch 0 assigns slot [s] to shard [s mod n], which makes the
   epoch-0 route bit-for-bit the original hash-modulo route (because n
   divides n_slots, [(h mod n_slots) mod n = h mod n]).  Multi-shard
   stores pin the table durably at first open (so a crashed resize can
   never be confused about the pre-resize count); a 1-shard store writes
   no routing metadata at all until its first split.

   This module owns the volatile router and both shard-0 records that
   describe routing: the slot table ([route_slot]) and the migration
   intent ([mig_slot]). *)
let slots_per_shard = 8

(* migration windows: after the intent record commits, and after the
   intent unhook that ends every resize and evacuation *)
let fp_mig_intent = Fault.site "sharded.migrate.intent_open"
let fp_mig_reclaim = Fault.site "sharded.migrate.reclaimed"

open Shard

module Make (P : SHARD_PTM) = struct
  module S = Shard.Make (P)

  (* An open transfer window (the persistent truth is the intent
     record): moving slots already route to [target], reads double-read
     (target, then tombstones, then source), and [tomb] — a map in the
     target region — records keys a racing delete made authoritatively
     absent, so neither the move stream nor recovery can resurrect them
     from a stale source copy. *)
  type window = {
    source : int;
    target : int;
    epoch : int;
    moving : bool array; (* per slot *)
    tomb : S.Map_.t;
  }

  (* The routing directory's volatile image, shared by every handle.
     [epoch] counts completed resizes; an open window has already
     re-pointed [assignment] for the moving slots (the "new epoch"
     route). *)
  type t = {
    mutable epoch : int;
    mutable n_slots : int;
    mutable assignment : int array; (* slot -> shard *)
    mutable window : window option;
  }

  (* an empty router, for [load] to fill *)
  let create () = { epoch = 0; n_slots = 0; assignment = [||]; window = None }

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

  let slot_of_key r k = route_hash k mod r.n_slots
  let shard_of_key r k = r.assignment.(slot_of_key r k)

  (* the open window, when [k]'s slot is moving in it *)
  let moving r k =
    match r.window with
    | Some w when w.moving.(slot_of_key r k) -> Some w
    | _ -> None

  let owned_slots r shard =
    List.filter (fun s -> r.assignment.(s) = shard) (List.init r.n_slots Fun.id)

  (* a slot bitmap of [slots] *)
  let slot_set r slots =
    let moving = Array.make r.n_slots false in
    List.iter (fun s -> moving.(s) <- true) slots;
    moving

  let reassign r ~moving ~target =
    Array.iteri (fun s mv -> if mv then r.assignment.(s) <- target) moving

  (* from here the window's moving slots route to its target *)
  let open_window r w =
    r.window <- Some w;
    reassign r ~moving:w.moving ~target:w.target

  (* a resize flipped to [epoch]; no window is open *)
  let close r ~epoch =
    r.epoch <- epoch;
    r.window <- None

  let route_error fmt = Printf.ksprintf (S.record_error "routing") fmt

  (* Replace the persisted routing table (epoch | n_slots | shard count
     | assignment): alloc the new record, swing the root, free the old.
     Called at first open (multi-shard stores) and by each resize's
     epoch flip — a 1-shard store keeps this slot at 0 until it splits,
     staying bit-for-bit Romulus_db.  The in-tx variant runs inside a
     caller-owned shard-0 transaction so an evacuation can swing route
     and health atomically. *)
  let persist_in_tx set r ~epoch =
    let s0 = S.raw set 0 in
    let o = P.alloc s0.p (24 + (8 * r.n_slots)) in
    P.store s0.p o epoch;
    P.store s0.p (o + 8) r.n_slots;
    P.store s0.p (o + 16) (S.count set);
    Array.iteri (fun s a -> P.store s0.p (o + 24 + (8 * s)) a) r.assignment;
    S.replace_root s0.p route_slot o

  let persist set r ~epoch =
    let s0 = S.raw set 0 in
    P.update_tx s0.p (fun () -> persist_in_tx set r ~epoch)

  (* migration intent record: kind | source | target | new epoch |
     n_slots | one moving byte per slot *)
  let mig_hdr = 40

  (* Rebuild the volatile routing image from shard 0's persisted record,
     or the identity epoch-0 table when none was ever written.  Validated:
     a table naming a shard beyond the attached regions means the store
     was reopened without a region a completed split added. *)
  let load set r =
    let n = S.count set in
    let s0 = S.raw set 0 in
    let epoch, n_slots, assignment, pin =
      match S.read_root set 0 route_slot with
      | 0 ->
        (* No table was ever flipped.  Usually the identity layout over
           the attached regions — but a crash inside the *first*
           migration leaves an intent and no table, and the identity
           must then be computed over the pre-resize shard count, which
           the intent's slot count encodes (n_slots = slots_per_shard *
           original n). *)
        let n_slots =
          match S.read_root set 0 mig_slot with
          | 0 -> slots_per_shard * n
          | moff -> P.read_tx s0.p (fun () -> P.load s0.p (moff + 32))
        in
        if n_slots <= 0 || n_slots mod slots_per_shard <> 0 then
          route_error "bad slot count %d" n_slots;
        let base = n_slots / slots_per_shard in
        if base <= 0 || base > n then
          route_error "identity table over %d shards, store has %d regions"
            base n;
        (* Pin the identity table durably for multi-shard stores (1-shard
           stores stay metadata-free and bit-for-bit Romulus_db): a crash
           between a split's target-region attach and its intent commit
           must not let a later reopen-with-the-target-attached rebuild
           the identity over the wrong shard count.  Skipped while an
           intent is pending — the resumed migration's flip persists the
           final table itself. *)
        ( 0, n_slots, Array.init n_slots (fun s -> s mod base),
          base > 1 && S.read_root set 0 mig_slot = 0 )
      | off ->
        let epoch, n_slots, assignment =
          P.read_tx s0.p (fun () ->
              let epoch = P.load s0.p off in
              let n_slots = P.load s0.p (off + 8) in
              if epoch < 0 then route_error "bad epoch %d" epoch;
              if n_slots <= 0 || n_slots > slots_per_shard * 4096 then
                route_error "bad slot count %d" n_slots;
              ( epoch, n_slots,
                Array.init n_slots (fun s -> P.load s0.p (off + 24 + (8 * s)))
              ))
        in
        Array.iter
          (fun a ->
            if a < 0 || a >= n then
              route_error
                "table names shard %d, store has %d regions (reopen with \
                 every shard of the family attached)"
                a n)
          assignment;
        (epoch, n_slots, assignment, false)
    in
    r.epoch <- epoch;
    r.n_slots <- n_slots;
    r.assignment <- assignment;
    if pin then persist set r ~epoch:0;
    r.window <- None

  (* Make a migration intent durable (kind 0 = split, 1 = merge, 2 =
     evacuation) and return the epoch it will flip to. *)
  let write_intent set r ~kind ~source ~target ~moving =
    let mepoch = r.epoch + 1 in
    let s0 = S.raw set 0 in
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
    S.tick set 0 (fun st ->
        st.Pmem.Stats.migrations_started <-
          st.Pmem.Stats.migrations_started + 1);
    Fault.hit fp_mig_intent;
    mepoch

  let read_intent set r =
    let off = S.read_root set 0 mig_slot in
    if off = 0 then None
    else begin
      let s0 = S.raw set 0 in
      let kind, source, target, mepoch, n_slots, bitmap =
        P.read_tx s0.p (fun () ->
            let n_slots = P.load s0.p (off + 32) in
            if n_slots <= 0 || n_slots > slots_per_shard * 4096 then
              route_error "migration intent has bad slot count %d" n_slots;
            ( P.load s0.p off, P.load s0.p (off + 8), P.load s0.p (off + 16),
              P.load s0.p (off + 24), n_slots,
              P.load_bytes s0.p (off + mig_hdr) n_slots ))
      in
      let n = S.count set in
      if kind < 0 || kind > 2 then
        route_error "migration intent has bad kind %d" kind;
      if source < 0 || source >= n || target < 0 || target >= n then
        route_error
          "migration intent names shards %d->%d, store has %d regions \
           (reopen with the migration target's region attached)"
          source target n;
      if n_slots <> r.n_slots then
        route_error "migration intent has %d slots, table has %d" n_slots
          r.n_slots;
      if mepoch <> r.epoch && mepoch <> r.epoch + 1 then
        route_error "migration intent epoch %d does not follow table epoch %d"
          mepoch r.epoch;
      let moving = Array.init n_slots (fun s -> bitmap.[s] = '\001') in
      Some (kind, source, target, mepoch, moving)
    end

  (* A durable migration intent is still hooked. *)
  let migration_pending set = S.read_root set 0 mig_slot <> 0

  (* Unhook the migration intent, when one is hooked: the last step of
     every resize and evacuation. *)
  let unhook_intent set =
    (match S.read_root set 0 mig_slot with
    | 0 -> ()
    | ioff ->
      let s0 = S.raw set 0 in
      P.update_tx s0.p (fun () ->
          P.set_root s0.p mig_slot 0;
          P.free s0.p ioff));
    Fault.hit fp_mig_reclaim
end
