(* Per-shard health verdicts and their shard-0 record, recovery and the
   repair driver: the only writer of a shard's verdict, engine and
   region once the store is open. *)

open Shard

(* health windows: after a shard's health transition is observed (its
   durable record may lag by one shard-0 transaction — recomputed
   deterministically at the next open either way) *)
let fp_health_degraded = Fault.site "sharded.health.degraded"
let fp_health_quarantined = Fault.site "sharded.health.quarantined"
let fp_health_repaired = Fault.site "sharded.health.repaired"
let fp_recover_shard_done = Fault.site "sharded.recover.shard_done"

(* ---- health record codec (PTM-independent) ----

   The per-shard verdicts persist as one length-prefixed record in
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

(* The verdict of one engine open or recovery: the data-loss lines it
   tolerated, or the exception that refused it.  [phase] names the step
   in a media-error cause; an exception no verdict covers goes to the
   caller's [unknown]. *)
let verdict ~phase ~unknown = function
  | Ok [] -> Healthy
  | Ok ((offset, state) :: _) -> Degraded (Unrepairable_media { offset; state })
  | Error (Romulus.Engine.Unrepairable { offset; state }) ->
    Quarantined (Unrepairable_media { offset; state })
  | Error (Romulus.Engine.Recovery_error msg) -> Quarantined (Open_failed msg)
  | Error (Pmem.Region.Media_error { offset; _ }) ->
    Quarantined
      (Open_failed (Printf.sprintf "media error at offset %d %s" offset phase))
  | Error e -> unknown e

module Make (P : SHARD_PTM) = struct
  module S = Shard.Make (P)
  module R = Shard_route.Make (P)

  type repair_outcome =
    | Scrub_repaired
    | Snapshot_restored
    | Evacuated_keys of { target : int; moved : int }
    | Unrepaired of health_cause

  let verdicts set = Array.map (fun sh -> sh.S.health) set.S.all

  let tick_health set i h =
    S.tick set i (fun st ->
        match h with
        | Healthy ->
          st.Pmem.Stats.health_repaired <- st.Pmem.Stats.health_repaired + 1
        | Degraded _ ->
          st.Pmem.Stats.health_degraded <- st.Pmem.Stats.health_degraded + 1
        | Quarantined _ ->
          st.Pmem.Stats.health_quarantined <-
            st.Pmem.Stats.health_quarantined + 1)

  (* a verdict [h] observed on shard [i]: metered, failpoint hit *)
  let observe set i h =
    tick_health set i h;
    Fault.hit
      (match h with
      | Healthy -> fp_health_repaired
      | Degraded _ -> fp_health_degraded
      | Quarantined _ -> fp_health_quarantined)

  (* ---- durable health record (shard 0, [health_slot]) ----

     Wholesale replace, like the routing table.  The record is a cache
     of deterministically recomputable verdicts (media rot is
     persistent), with one exception: [Quarantined (Evacuated _)] is
     authoritative — an evacuated shard's residual bytes may even scrub
     clean, but its keys live on the target now, so the verdict must
     survive reopen.  Layout: byte length | payload. *)
  let persist_in_tx set =
    let s0 = S.raw set 0 in
    let payload = encode_health (verdicts set) in
    let len = String.length payload in
    let o = P.alloc s0.p (8 + len) in
    P.store s0.p o len;
    P.store_bytes s0.p (o + 8) payload;
    S.replace_root s0.p health_slot o

  let persist set =
    let s0 = S.raw set 0 in
    P.update_tx s0.p (fun () -> persist_in_tx set)

  (* Record a health transition: volatile verdict, counter, failpoint,
     and (unless the caller batches several transitions under one
     [persist]) the durable record.  A crash between the failpoint and
     the durable write converges: verdicts are recomputed at the next
     open. *)
  let set_health ?(durable = true) set i h =
    let sh = S.get set i in
    if sh.health <> h then begin
      sh.health <- h;
      observe set i h;
      if durable then persist set
    end

  (* an evacuation's verdict, made durable by the caller's route flip *)
  let mark_evacuated set ~source ~target =
    let verdict = Quarantined (Evacuated { target }) in
    (S.get set source).health <- verdict;
    tick_health set source verdict

  (* detach an engine for good *)
  let retire set i = (S.get set i).engine <- None

  (* The shard opened over [region] as shard [i].  Opening runs engine
     recovery in salvage mode, so content damage surfaces here: a shard
     whose engine mounts is re-scrubbed to decide Healthy vs Degraded; a
     shard whose engine refuses to mount is quarantined with a typed
     cause — except shard 0, which anchors the routing table, the
     intents and the health record: without it there is no store to
     degrade, so its failure is the typed fatal {!Shard_open_failed}. *)
  let open_shard ~initial_buckets i region =
    let quarantine e = Quarantined (Open_failed (Printexc.to_string e)) in
    match
      let e = S.mount ~initial_buckets region in
      (e, (P.scrub_salvage e.p : Romulus.Engine.scrub_report).unrepairable)
    with
    | e, lines ->
      S.make region (Some e)
        (verdict ~phase:"while opening" ~unknown:quarantine (Ok lines))
    | exception (Pmem.Region.Crash_point as e) -> raise e
    | exception e when i = 0 ->
      raise (Shard_open_failed { shard = 0; cause = e })
    | exception e ->
      S.make region None
        (verdict ~phase:"while opening" ~unknown:quarantine (Error e))

  (* Merge the durable record into verdicts freshly recomputed from the
     media (rot is persistent): only the non-recomputable [Evacuated]
     verdict is taken from disk.  Each sick shard is metered, and the
     record refreshed when the medium disagrees with it (fresh stores
     with all shards healthy stay metadata-free). *)
  let adopt_saved set =
    let saved =
      match S.read_root set 0 health_slot with
      | 0 -> None
      | off ->
        let s0 = S.raw set 0 in
        P.read_tx s0.p (fun () ->
            let len = P.load s0.p off in
            if len < 0 then
              S.record_error "routing" "negative health record length";
            P.load_bytes s0.p (off + 8) len)
        |> decode_health |> Option.some
    in
    Option.iter
      (Array.iteri (fun i h ->
           match h with
           | Quarantined (Evacuated _) when i < S.count set ->
             (S.get set i).health <- h
           | _ -> ()))
      saved;
    Array.iteri
      (fun i sh -> if sh.S.health <> Healthy then observe set i sh.health)
      set.all;
    match saved with
    | None -> if Array.exists (fun h -> h <> Healthy) (verdicts set) then
        persist set
    | Some sv -> if sv <> verdicts set then persist set

  (* Per-shard engine recovery (salvage mode), fanned out across
     domains, classified into health verdicts instead of raised: shard
     0 failing is fatal ({!Shard_open_failed} — it anchors the store),
     any other failing shard is quarantined with its engine detached,
     and data-loss survivors come back Degraded.  A previously recorded
     [Evacuated] verdict is authoritative and never reclassified. *)
  let recover_all ~parallel set =
    let run (e : S.engine) () =
      try Ok (P.recover_salvage e.p) with x -> Error x
    in
    (* every recovery is started (one domain each) before the first is
       awaited, in shard order *)
    let start e =
      if parallel && S.count set > 1 then begin
        let d = Domain.spawn (run e) in
        fun () -> Domain.join d
      end
      else run e
    in
    let outcomes =
      Array.map (fun sh -> Option.map start sh.S.engine) set.all
      |> Array.map
           (Option.map (fun await ->
                let o = await () in
                Fault.hit fp_recover_shard_done;
                o))
    in
    (* a simulated machine crash is the whole store dying, not a shard
       fault; and without shard 0 there is nothing to degrade to *)
    Array.iter
      (function
        | Some (Error Pmem.Region.Crash_point) -> raise Pmem.Region.Crash_point
        | _ -> ())
      outcomes;
    let changed = ref false in
    Array.iteri
      (fun i o ->
        let sh = S.get set i in
        match (o, sh.health) with
        | Some (Error e), _ when i = 0 ->
          raise (Shard_open_failed { shard = 0; cause = e })
        | None, _ | _, Quarantined (Evacuated _) -> ()
        | Some o, prev ->
          let h =
            verdict ~phase:"during recovery" o ~unknown:(fun e ->
                raise (Shard_open_failed { shard = i; cause = e }))
          in
          (match h with
          | Quarantined _ -> sh.engine <- None
          | Healthy | Degraded _ -> ());
          if prev <> h then begin
            set_health ~durable:false set i h;
            changed := true
          end)
      outcomes;
    if !changed then persist set

  (* ---- the repair supervisor ---- *)

  (* Re-mount a detached engine over the shard's region; false when the
     region still refuses to open. *)
  let try_reopen set i =
    let sh = S.get set i in
    match sh.engine with
    | Some _ -> true
    | None -> (
      try
        sh.engine <-
          Some (S.mount ~initial_buckets:set.S.initial_buckets sh.region);
        true
      with
      | Pmem.Region.Crash_point as e -> raise e
      | _ -> false)

  (* R1: bounded scrub retries under the shared jittered-exponential
     backoff schedule.  Succeeds when a reopen+salvage-scrub pass comes
     back with nothing unrepairable (rot healed from a twin, or cleared
     at the source). *)
  let repair_scrub set i ~retries ~base_ns ~seed =
    let attempt () =
      S.tick set i (fun st ->
          st.Pmem.Stats.repair_attempts <- st.Pmem.Stats.repair_attempts + 1);
      try_reopen set i
      &&
      match P.scrub_salvage (S.raw set i).p with
      | { Romulus.Engine.unrepairable = []; _ } -> true
      | _ -> false
      | exception Pmem.Region.Crash_point -> raise Pmem.Region.Crash_point
      | exception _ -> false
    in
    retry_with_backoff ~retries ~base_ns ~seed ~done_:Fun.id attempt

  (* R2: replace the shard's region wholesale from its latest snapshot
     file, validated by a clean salvage scrub before it is adopted.
     Writes committed to the shard after the snapshot are lost — which
     is why this is strictly a fallback — and any batch the store owed
     the shard is re-settled by the reconciliation replay that follows
     repair. *)
  let repair_restore set i ~snapshot_base =
    match snapshot_base with
    | None -> false
    | Some base -> (
      let path = Pmem.Region.shard_snapshot_path base ~shard:i in
      Sys.file_exists path
      &&
      try
        let region = Pmem.Region.load_from_file path in
        let e = S.mount ~initial_buckets:set.S.initial_buckets region in
        match P.scrub_salvage e.p with
        | { Romulus.Engine.unrepairable = []; _ } ->
          let sh = S.get set i in
          sh.region <- region;
          sh.engine <- Some e;
          S.tick set i (fun st ->
              st.Pmem.Stats.repair_snapshot_restores <-
                st.Pmem.Stats.repair_snapshot_restores + 1);
          true
        | _ -> false
      with
      | Pmem.Region.Crash_point as e -> raise e
      | _ -> false)

  (* R3 target selection: an explicit healthy target, or the first
     healthy shard that is not the patient. *)
  let find_evac_target set i ~target =
    match target with
    | Some tgt ->
      if tgt < 0 || tgt >= S.count set then
        invalid_arg
          (Printf.sprintf "Sharded_db.repair: bad target shard %d" tgt);
      if tgt <> i && S.healthy set tgt then Some tgt else None
    | None ->
      List.find_opt
        (fun j -> j <> i && S.healthy set j)
        (List.init (S.count set) Fun.id)

  (* The self-healing driver, escalating per sick shard:
       R1 scrub retries (backoff), R2 snapshot restore, R3 [evacuate].
     Evacuation needs a readable source engine, a healthy target, shard
     0 to not be the patient, and no migration intent in flight; a
     shard nothing applies to keeps its verdict as [Unrepaired].  All
     verdict changes are persisted in one health record, then
     [reconcile] re-runs so work parked on the sick shards (batch
     intents, mirrors, migrations) settles on the healed store. *)
  let repair ~retries ~base_ns ~seed ~snapshot_base ~target ~evacuate
      ~reconcile set =
    let outcomes = ref [] in
    let changed = ref false in
    let healed i outcome =
      set_health ~durable:false set i Healthy;
      changed := true;
      outcomes := (i, outcome) :: !outcomes
    in
    for i = 0 to S.count set - 1 do
      match (S.get set i).health with
      | Healthy | Quarantined (Evacuated _) -> ()
      | Degraded cause | Quarantined cause ->
        if repair_scrub set i ~retries ~base_ns ~seed:(seed + i) then
          healed i Scrub_repaired
        else if i <> 0 && repair_restore set i ~snapshot_base then
          healed i Snapshot_restored
        else begin
          match
            if
              i = 0
              || Option.is_none (S.get set i).engine
              || R.migration_pending set
            then None
            else find_evac_target set i ~target
          with
          | Some tgt ->
            let moved = evacuate ~source:i ~target:tgt in
            changed := true;
            outcomes := (i, Evacuated_keys { target = tgt; moved }) :: !outcomes
          | None -> outcomes := (i, Unrepaired cause) :: !outcomes
        end
    done;
    if !changed then begin
      persist set;
      reconcile ()
    end;
    List.rev !outcomes
end
