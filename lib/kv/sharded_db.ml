(* Sharded RomulusDB: the LevelDB interface of Romulus_db, hash-
   partitioned across N independent per-shard PTM instances.  One engine
   means one C-RW-WP writer lock and one flat-combining array, so update
   throughput is flat no matter how many domains run; with a shard per
   partition, unrelated updates commit concurrently and each shard
   amortizes its own batch under one set of persistence fences, while
   every shard keeps the paper's twin-copy 4-fence protocol intact.

   This facade composes Shard, Shard_route, Shard_commit, Shard_migrate
   and Shard_health, each the sole owner of its records and state. *)

include Shard

let slots_per_shard = Shard_route.slots_per_shard

(* after the reconciliation pass that ends a store-wide recovery *)
let fp_recover_reconciled = Fault.site "sharded.recover.reconciled"

module Make (P : SHARD_PTM) = struct
  module S = Shard.Make (P)
  module R = Shard_route.Make (P)
  module H = Shard_health.Make (P)
  module C = Shard_commit.Make (P)
  module M = Shard_migrate.Make (P)
  module Map_ = S.Map_

  (* A batch handle is a shallow copy of the store with [batch = Some _]:
     operations on it are buffered (newest first) instead of applied, so
     concurrent batches never share mutable state. *)
  type batch = { mutable ops : (string * string option) list }

  type t = {
    set : S.set;
    router : R.t;
    commit : C.t;
    batch : batch option;
  }

  type repair_outcome = H.repair_outcome =
    | Scrub_repaired
    | Snapshot_restored
    | Evacuated_keys of { target : int; moved : int }
    | Unrepaired of health_cause

  let shards t = S.count t.set
  let epoch t = t.router.epoch
  let route_slots t = t.router.n_slots
  let slot_of_key t k = R.slot_of_key t.router k
  let shard_of_slot t s = t.router.assignment.(s)
  let shard_of_key t k = R.shard_of_key t.router k
  let regions t = Array.map (fun sh -> sh.S.region) t.set.all

  let health t i =
    if i < 0 || i >= shards t then
      invalid_arg (Printf.sprintf "Sharded_db.health: bad shard %d" i);
    (S.get t.set i).health

  let stats t =
    Pmem.Stats.aggregate
      (Array.to_list (Array.map Pmem.Region.stats (regions t)))

  let no_batch t what =
    if t.batch <> None then
      invalid_arg ("Sharded_db: cannot " ^ what ^ " through a batch handle")

  (* ---- plain (non-batch) operations ---- *)

  let underlying_get t k =
    match R.moving t.router k with
    | Some w -> M.get t.set w k
    | None -> Map_.get (S.live t.set (shard_of_key t k)).map k

  let underlying_mem t k =
    match R.moving t.router k with
    | Some w -> M.mem t.set w k
    | None -> Map_.mem (S.live t.set (shard_of_key t k)).map k

  let write_direct t k v =
    match R.moving t.router k with
    | Some w -> M.forward_write t.set w k v
    | None -> C.write t.set t.commit (shard_of_key t k) k v

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
      (* the newest buffered operation on [k] *)
      match List.assoc_opt k b.ops with
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
        match List.assoc_opt k b.ops with
        | Some v -> Option.is_some v
        | None -> underlying_mem t k
      in
      b.ops <- (k, None) :: b.ops;
      existed

  let count t =
    let base = ref 0 in
    for i = 0 to shards t - 1 do
      match S.scan t.set i with
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
      List.iter
        (fun i ->
          let i = if reverse then n - 1 - i else i in
          match S.scan t.set i with None -> () | Some s -> g s)
        (List.init n Fun.id)
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
    let rec go i =
      if i = shards t then Ok ()
      else if not (S.healthy t.set i) then go (i + 1)
      else
        let s = S.raw t.set i in
        match Map_.check s.map with
        | Error e -> Error (Printf.sprintf "shard %d: %s" i e)
        | Ok () -> (
          match P.allocator_check s.p with
          | Error e -> Error (Printf.sprintf "shard %d allocator: %s" i e)
          | Ok () -> go (i + 1))
    in
    go 0

  let write_batch t f =
    match t.batch with
    | Some _ -> f t (* nested batch flattens, like a nested update_tx *)
    | None -> (
      let b = { ops = [] } in
      match f { t with batch = Some b } with
      | () -> C.commit t.set t.router t.commit (List.rev b.ops)
      | exception ((Romulus.Engine.Tx_aborted _ | Pmem.Region.Crash_point) as e)
        ->
        raise e
      | exception e ->
        (* the buffered operations are simply discarded; surface the same
           typed abort a Romulus_db batch (one update_tx) would *)
        let backtrace = Printexc.get_backtrace () in
        raise (Romulus.Engine.Tx_aborted { cause = e; backtrace }))

  let flush_clears t = C.flush_clears t.set t.commit
  let pending_intents t = C.pending_intents t.set

  (* ---- elastic sharding and evacuation ---- *)

  let split_shard t ~source region =
    no_batch t "resize";
    M.split t.set t.router ~source region

  let merge_shards t ~source ~target =
    no_batch t "resize";
    M.merge t.set t.router ~source ~target

  let start_evacuation t ~source ~target =
    no_batch t "evacuate";
    M.start_evacuation t.set t.router ~source ~target

  (* never true after recovery or a completed resize: reclamation
     unhooks the intent *)
  let migration_pending t = R.migration_pending t.set

  (* ---- recovery, reconciliation, repair, scrub ---- *)

  (* Reconciliation rebuilds the persistent truth, so the volatile
     protocol bookkeeping (which may hold offsets of records the pass
     just freed) is reset first.  Then a legacy intent (nothing may run
     over that store), the routing table (batch reconciliation may
     route), the commit protocol (per-key truth must be settled before
     keys are streamed between shards), then any in-flight migration —
     which is always completed, so handles never see an open window
     after recovery. *)
  let reconcile t =
    C.reset t.set t.commit;
    C.refuse_legacy_intent t.set;
    R.load t.set t.router;
    C.reconcile_mirrors t.set;
    M.reconcile t.set t.router

  let recover_shard t i =
    if i < 0 || i >= shards t then
      invalid_arg (Printf.sprintf "Sharded_db.recover_shard: bad shard %d" i);
    match (S.get t.set i).engine with
    | None ->
      raise
        (Shard_open_failed
           { shard = i;
             cause = Romulus.Engine.Recovery_error "engine is not open" })
    | Some s -> (
      try P.recover s.p with
      | Pmem.Region.Crash_point as e -> raise e
      | e -> raise (Shard_open_failed { shard = i; cause = e }))

  let recover ?(parallel = true) t =
    H.recover_all ~parallel t.set;
    reconcile t;
    Fault.hit fp_recover_reconciled

  let repair ?(retries = default_overload_retries)
      ?(base_ns = default_overload_base_ns) ?(seed = 0) ?snapshot_base
      ?target t =
    no_batch t "repair";
    H.repair ~retries ~base_ns ~seed ~snapshot_base ~target
      ~evacuate:(start_evacuation t)
      ~reconcile:(fun () -> reconcile t)
      t.set

  let media_spans t =
    Array.map
      (fun sh ->
        match sh.S.engine with None -> [] | Some s -> P.media_spans s.p)
      t.set.all

  (* Store-wide salvage scrub over every shard whose engine is open,
     with the tolerated data-loss lines of all shards concatenated
     (offsets are shard-relative — {!scrub_shards} keeps the
     attribution). *)
  let scrub t =
    Array.fold_left
      (fun (acc : Romulus.Engine.scrub_report) sh ->
        match sh.S.engine with
        | None -> acc
        | Some s ->
          let r = P.scrub_salvage s.p in
          { Romulus.Engine.scrubbed = acc.scrubbed + r.scrubbed;
            repaired = acc.repaired + r.repaired;
            unrepairable = acc.unrepairable @ r.unrepairable })
      { Romulus.Engine.scrubbed = 0; repaired = 0; unrepairable = [] }
      t.set.all

  (* Per-shard salvage scrub reports, one entry per open engine: each
     repaired or tolerated line is attributed to exactly the shard whose
     region holds it. *)
  let scrub_shards t =
    let acc = ref [] in
    Array.iteri
      (fun i sh ->
        match sh.S.engine with
        | None -> ()
        | Some s -> acc := (i, P.scrub_salvage s.p) :: !acc)
      t.set.all;
    List.rev !acc

  (* ---- construction, snapshots ---- *)

  let open_db ?(initial_buckets = 1024)
      ?(chunk_bytes = default_chunk_bytes)
      ?(admission_budget = default_admission_budget) regions =
    if Array.length regions = 0 then raise (Invalid_shards 0);
    if initial_buckets <= 0 then
      raise (Romulus_db.Invalid_buckets initial_buckets);
    if chunk_bytes < min_chunk_bytes then
      invalid_arg
        (Printf.sprintf "Sharded_db.open_db: chunk_bytes %d < minimum %d"
           chunk_bytes min_chunk_bytes);
    if admission_budget <= 0 then
      invalid_arg "Sharded_db.open_db: admission_budget must be positive";
    let set =
      { S.all = Array.mapi (H.open_shard ~initial_buckets) regions;
        initial_buckets; chunk_bytes; admission_budget }
    in
    H.adopt_saved set;
    let t =
      { set; router = R.create (); commit = C.create (); batch = None }
    in
    reconcile t;
    t

  let save_to_files t base =
    Array.iteri
      (fun i region ->
        Pmem.Region.save_to_file region
          (Pmem.Region.shard_snapshot_path base ~shard:i))
      (regions t)

  let open_from_files ?fence ?initial_buckets ?chunk_bytes ?admission_budget
      ~shards base =
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
    open_db ?initial_buckets ?chunk_bytes ?admission_budget regions
end

(* The default sharded store: RomulusLog per shard, as in RomulusDB. *)
module Default = Make (Romulus.Logged)
