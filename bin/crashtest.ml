(* crashtest — a configurable crash-injection campaign.

   Runs a workload (data structure or key-value store) on a chosen PTM,
   systematically or randomly crashing at instruction boundaries under
   adversarial cache-line policies, recovering, and checking structural
   invariants plus operation-level atomicity.  This is the repository's
   verification tool in CLI form:

     crashtest --ptm romLR --workload tree --rounds 500 --seed 7
     crashtest --ptm all --workload all --rounds 100
     crashtest --policy torn --rounds 200          # torn-word adversary
     crashtest --recovery-crashes 3                # crash recovery itself
     crashtest --ptm romL --failpoint engine.commit.cpy_published
     crashtest --inject-exn --rounds 25            # exception injection
     crashtest --list-failpoints

   --inject-exn switches from crash injection to exception injection:
   every raise-capable failpoint site reachable from the selected PTM is
   armed, per round, to raise Fault.Injected instead of powering the
   machine off, and the campaign asserts the abort contract — a typed
   Engine.Tx_aborted at the caller, the aborted transaction invisible
   against the sequential oracle, allocator metadata intact, recovery a
   byte-level no-op, and a follow-up transaction from another thread
   slot committing. *)

open Cmdliner

module type PTM = sig
  include Romulus.Ptm_intf.S

  val recover : t -> unit
  val recover_salvage : t -> (int * string) list
  val allocator_check : t -> (unit, string) result
  val scrub : t -> Romulus.Engine.scrub_report
  val scrub_salvage : t -> Romulus.Engine.scrub_report
  val media_spans : t -> (int * int) list
end

let ptms : (string * (module PTM)) list =
  [ ("rom", (module Romulus.Basic));
    ("romL", (module Romulus.Logged));
    ("romLR", (module Romulus.Lr));
    ("mne", (module Baselines.Redolog));
    ("pmdk", (module Baselines.Undolog)) ]

type outcome = {
  rounds : int;
  crashes : int;
  recovery_crashes : int;
  failures : string list;
}

(* One workload campaign: run [rounds] batches of random operations with a
   random crash trap (or a named failpoint) armed; after each crash,
   recover — optionally crashing the recovery itself, [recovery_crashes]
   levels deep — and check invariants + a shadow model. *)
let run_campaign (module P : PTM) ~workload ~rounds ~seed ~verbose ~policy
    ~recovery_crashes ~failpoint =
  let rng = Workload.Keygen.create ~seed () in
  let region = Pmem.Region.create ~size:(1 lsl 20) () in
  let p = P.open_region region in
  let failures = ref [] in
  let crashes = ref 0 in
  let rec_crashes = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let pick_policy salt =
    match policy with
    | `Drop -> Pmem.Region.Drop_all
    | `Keep -> Pmem.Region.Keep_all
    | `Random -> Pmem.Region.Random_subset (seed + salt)
    | `Torn -> Pmem.Region.Torn_words (seed + salt)
    | `Mix -> (
      match Workload.Keygen.int rng 4 with
      | 0 -> Pmem.Region.Drop_all
      | 1 -> Pmem.Region.Keep_all
      | 2 -> Pmem.Region.Torn_words (seed + salt)
      | _ -> Pmem.Region.Random_subset (seed + salt))
  in
  (* the workload exposes: apply one op (given a shadow model), and a
     checker run after each recovery *)
  let module M = struct
    module L = Pds.Linked_list.Make (P)
    module T = Pds.Rb_tree.Make (P)
    module H = Pds.Hash_map.Make (P)
  end in
  let shadow : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* create the structures before any trap is armed: a crash during lazy
     creation would poison the thunk *)
  let list_ = M.L.create p ~root:0 in
  let tree = M.T.create p ~root:1 in
  let map = M.H.create ~initial_buckets:8 p ~root:2 in
  let key () = Workload.Keygen.int rng 200 in
  let apply_op () =
    let k = key () in
    match workload with
    | `List ->
      if Workload.Keygen.bool rng then (
        ignore (M.L.add list_ k);
        Hashtbl.replace shadow k k)
      else (
        ignore (M.L.remove list_ k);
        Hashtbl.remove shadow k)
    | `Tree ->
      if Workload.Keygen.bool rng then (
        ignore (M.T.put tree k (k * 3));
        Hashtbl.replace shadow k (k * 3))
      else (
        ignore (M.T.remove tree k);
        Hashtbl.remove shadow k)
    | `Map ->
      if Workload.Keygen.bool rng then (
        ignore (M.H.put map k (k * 5));
        Hashtbl.replace shadow k (k * 5))
      else (
        ignore (M.H.remove map k);
        Hashtbl.remove shadow k)
  in
  let check round =
    let structural =
      match workload with
      | `List -> M.L.check list_
      | `Tree -> M.T.check tree
      | `Map -> M.H.check map
    in
    (match structural with
     | Ok () -> ()
     | Error e -> fail "round %d: structural: %s" round e);
    (* the persistent contents must be the shadow model, except for the
       single operation in flight at the crash (atomic either way) *)
    let mine =
      match workload with
      | `List ->
        M.L.fold list_ (fun acc k -> (k, k) :: acc) []
      | `Tree -> M.T.fold tree (fun acc k v -> (k, v) :: acc) []
      | `Map -> M.H.fold map (fun acc k v -> (k, v) :: acc) []
    in
    let theirs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) shadow [] in
    let diff =
      List.length
        (List.filter (fun kv -> not (List.mem kv theirs)) mine)
      + List.length
          (List.filter (fun kv -> not (List.mem kv mine)) theirs)
    in
    if diff > 1 then fail "round %d: %d divergences from the model" round diff
  in
  (* Recover, crashing the recovery itself up to [recovery_crashes] levels
     deep: each level arms a fresh trap inside the running recovery, the
     injected crash is resolved under an adversarial policy, and recovery
     restarts — the final attempt runs to completion untrapped.  Recovery
     idempotence is exactly what makes this converge. *)
  let rec recover_nested round level =
    if level < recovery_crashes then begin
      Pmem.Region.set_trap region (Workload.Keygen.int rng 60);
      match P.recover p with
      | () -> Pmem.Region.clear_trap region
      | exception Pmem.Region.Crash_point ->
        incr rec_crashes;
        Pmem.Region.crash region (pick_policy ((round * 17) + level));
        recover_nested round (level + 1)
    end
    else P.recover p
  in
  for round = 1 to rounds do
    (match failpoint with
     | None -> Pmem.Region.set_trap region (Workload.Keygen.int rng 400)
     | Some site ->
       Fault.arm ~skip:(Workload.Keygen.int rng 8) site (fun () ->
           Pmem.Region.kill region));
    (try
       (try
          for _ = 1 to 4 do
            apply_op ()
          done;
          Pmem.Region.clear_trap region;
          Fault.disarm ()
        with Pmem.Region.Crash_point ->
          incr crashes;
          Fault.disarm ();
          Pmem.Region.crash region (pick_policy round);
          recover_nested round 0;
          (* the in-flight operation may or may not have committed: resync
             the shadow for the key it touched by trusting the structure *)
          let resync k =
            let v =
              match workload with
              | `List ->
                if M.L.contains list_ k then Some k else None
              | `Tree -> M.T.get tree k
              | `Map -> M.H.get map k
            in
            match v with
            | Some v -> Hashtbl.replace shadow k v
            | None -> Hashtbl.remove shadow k
          in
          for k = 0 to 199 do
            resync k
          done);
       check round
     with Romulus.Engine.Recovery_error e ->
       fail "round %d: recovery refused a legitimate crash state: %s" round e);
    if verbose && round mod 100 = 0 then
      Printf.printf "  ... %d/%d rounds, %d crashes (%d during recovery)\n%!"
        round rounds !crashes !rec_crashes
  done;
  { rounds;
    crashes = !crashes;
    recovery_crashes = !rec_crashes;
    failures = !failures }

(* ---- exception-injection campaign ---- *)

(* Which raise-capable sites a PTM can actually reach: the engine and
   combiner sites belong to the Romulus variants, the STM/undo-log sites
   to their baselines, and the allocator sites to everyone. *)
let site_applicable ~ptm site =
  let prefixes =
    match ptm with
    | "rom" -> [ "engine."; "rom."; "palloc." ]
    | "romL" -> [ "engine."; "romL."; "palloc." ]
    | "romLR" -> [ "engine."; "palloc." ]
    | "mne" -> [ "mne."; "palloc." ]
    | "pmdk" -> [ "pmdk."; "palloc." ]
    | _ -> []
  in
  List.exists (fun prefix -> String.starts_with ~prefix site) prefixes

(* One exception-injection campaign: [site] is armed each round to raise
   [Fault.Injected] (after a random number of skipped visits) while a
   batch of random update operations runs.  The abort contract checked
   after every round:

     (a) the caller observed a typed Engine.Tx_aborted whose cause is
         the injected exception — never a bare Injected, Failure or
         Invalid_argument;
     (b) the structure agrees with the sequential shadow oracle
         *exactly* (no crash happened, so not even one in-flight
         operation may diverge) and the allocator is structurally sound;
     (c) recovery right after an abort is a byte-level no-op on the
         persistent image (the abort already restored everything);
     (d) a follow-up update transaction from a different thread slot
         commits and is visible — no lock is still held, no combiner
         slot stranded. *)
let run_inject_campaign (module P : PTM) ~workload ~rounds ~seed ~verbose
    ~site =
  let rng = Workload.Keygen.create ~seed () in
  let region = Pmem.Region.create ~size:(1 lsl 20) () in
  let p = P.open_region region in
  let failures = ref [] in
  let injected = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let module M = struct
    module L = Pds.Linked_list.Make (P)
    module T = Pds.Rb_tree.Make (P)
    module H = Pds.Hash_map.Make (P)
  end in
  let shadow : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let list_ = M.L.create p ~root:0 in
  let tree = M.T.create p ~root:1 in
  let map = M.H.create ~initial_buckets:8 p ~root:2 in
  let key () = Workload.Keygen.int rng 200 in
  let apply_op () =
    let k = key () in
    match workload with
    | `List ->
      if Workload.Keygen.bool rng then (
        ignore (M.L.add list_ k);
        Hashtbl.replace shadow k k)
      else (
        ignore (M.L.remove list_ k);
        Hashtbl.remove shadow k)
    | `Tree ->
      if Workload.Keygen.bool rng then (
        ignore (M.T.put tree k (k * 3));
        Hashtbl.replace shadow k (k * 3))
      else (
        ignore (M.T.remove tree k);
        Hashtbl.remove shadow k)
    | `Map ->
      if Workload.Keygen.bool rng then (
        ignore (M.H.put map k (k * 5));
        Hashtbl.replace shadow k (k * 5))
      else (
        ignore (M.H.remove map k);
        Hashtbl.remove shadow k)
  in
  let check_exact round =
    (match
       match workload with
       | `List -> M.L.check list_
       | `Tree -> M.T.check tree
       | `Map -> M.H.check map
     with
     | Ok () -> ()
     | Error e -> fail "round %d: structural: %s" round e);
    let mine =
      match workload with
      | `List -> M.L.fold list_ (fun acc k -> (k, k) :: acc) []
      | `Tree -> M.T.fold tree (fun acc k v -> (k, v) :: acc) []
      | `Map -> M.H.fold map (fun acc k v -> (k, v) :: acc) []
    in
    let theirs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) shadow [] in
    let diff =
      List.length (List.filter (fun kv -> not (List.mem kv theirs)) mine)
      + List.length (List.filter (fun kv -> not (List.mem kv mine)) theirs)
    in
    if diff > 0 then
      fail "round %d: aborted transaction visible: %d divergences" round diff
  in
  (* warm-up, un-armed: populate the structures so that removes actually
     free chunks and allocations are served from the bins — otherwise
     the allocator sites are unreachable in early rounds *)
  for _ = 1 to 32 do
    apply_op ()
  done;
  (* A round counts only when the armed site actually fired (frees, bin
     reuse and batch shapes are workload-dependent); attempts are capped
     so a genuinely unreachable site still fails loudly. *)
  let round = ref 0 in
  let attempts = ref 0 in
  let max_attempts = rounds * 50 in
  while !round < rounds && !attempts < max_attempts do
    incr attempts;
    Fault.arm ~skip:(Workload.Keygen.int rng 2) site (fun () ->
        raise (Fault.Injected site));
    let before_fires = !injected in
    for _ = 1 to 4 do
      match apply_op () with
      | () -> ()
      | exception Romulus.Engine.Tx_aborted { cause = Fault.Injected s; _ }
        when String.equal s site ->
        incr injected
      | exception e ->
        fail "attempt %d: fault at %s escaped untyped: %s" !attempts site
          (Printexc.to_string e)
    done;
    Fault.disarm ();
    if !injected > before_fires then begin
      incr round;
      let round = !round in
      check_exact round;
      (match P.allocator_check p with
       | Ok () -> ()
       | Error e -> fail "round %d: allocator: %s" round e);
      let before = Pmem.Region.persistent_snapshot region in
      P.recover p;
      let after = Pmem.Region.persistent_snapshot region in
      if not (String.equal before after) then
        fail "round %d: recovery after an abort changed the persistent image"
          round;
      (* a fresh domain takes a different thread slot: its commit proves
         no lock is still held and no combiner request is stranded *)
      (match
         Domain.join
           (Domain.spawn (fun () ->
                Sync_prims.Tid.with_slot (fun _ ->
                    P.update_tx p (fun () -> P.set_root p 63 round))))
       with
       | () -> ()
       | exception e ->
         fail "round %d: follow-up commit failed: %s" round
           (Printexc.to_string e));
      if P.read_tx p (fun () -> P.get_root p 63) <> round then
        fail "round %d: follow-up transaction not visible" round;
      if verbose && round mod 50 = 0 then
        Printf.printf "  ... %d/%d rounds, %d injected aborts\n%!" round
          rounds !injected
    end
  done;
  if !round < rounds then
    fail "site %s fired only %d/%d times in %d attempts" site !round rounds
      !attempts;
  { rounds = !round;
    crashes = !injected;
    recovery_crashes = 0;
    failures = !failures }

(* ---- media-rot scrub campaign ---- *)

(* Differential scrub-and-repair campaign.  A victim and a control PTM
   run the same deterministic workload and settle to identical durable
   images; rot is injected into the victim's used persistent spans; then
   the victim restarts.  Twin-copy designs must come back byte-identical
   to the control; single-image baselines must surface every fault as a
   typed error — silently returning corrupt data is the only sin.  A
   sub-campaign crashes *inside the repair window* (failpoint kills on
   engine.scrub.* plus an instruction-trap sweep over recovery) under
   all four line-fate policies and requires convergence all the same. *)
let run_scrub_campaign (module P : PTM) ~workload ~rounds ~seed ~verbose
    ~rot_rates =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let repaired_total = ref 0 in
  let detections = ref 0 in
  let window_crashes = ref 0 in
  let module L = Pds.Linked_list.Make (P) in
  let module T = Pds.Rb_tree.Make (P) in
  let module H = Pds.Hash_map.Make (P) in
  (* Build a region, run [ops] deterministic update operations, and
     return readers.  Identical [wseed] => byte-identical images. *)
  let build ~wseed =
    let region = Pmem.Region.create ~size:(1 lsl 20) () in
    let p = P.open_region region in
    let list_ = L.create p ~root:0 in
    let tree = T.create p ~root:1 in
    let map = H.create ~initial_buckets:8 p ~root:2 in
    let rng = Workload.Keygen.create ~seed:wseed () in
    let shadow : (int, int) Hashtbl.t = Hashtbl.create 64 in
    for _ = 1 to 64 do
      let k = Workload.Keygen.int rng 200 in
      match workload with
      | `List ->
        if Workload.Keygen.bool rng then (
          ignore (L.add list_ k);
          Hashtbl.replace shadow k k)
        else (
          ignore (L.remove list_ k);
          Hashtbl.remove shadow k)
      | `Tree ->
        if Workload.Keygen.bool rng then (
          ignore (T.put tree k (k * 3));
          Hashtbl.replace shadow k (k * 3))
        else (
          ignore (T.remove tree k);
          Hashtbl.remove shadow k)
      | `Map ->
        if Workload.Keygen.bool rng then (
          ignore (H.put map k (k * 5));
          Hashtbl.replace shadow k (k * 5))
        else (
          ignore (H.remove map k);
          Hashtbl.remove shadow k)
    done;
    let readback () =
      List.sort compare
        (match workload with
         | `List -> L.fold list_ (fun acc k -> (k, k) :: acc) []
         | `Tree -> T.fold tree (fun acc k v -> (k, v) :: acc) []
         | `Map -> H.fold map (fun acc k v -> (k, v) :: acc) [])
    in
    let structural () =
      match workload with
      | `List -> L.check list_
      | `Tree -> T.check tree
      | `Map -> H.check map
    in
    let expected =
      List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) shadow [])
    in
    (region, p, readback, structural, expected)
  in
  (* Settle to a durable resting image with every line clean: power off,
     recover, power off again (the second recovery below then starts
     from rot at rest, exactly the deployment scenario). *)
  let settle region p =
    Pmem.Region.crash region Pmem.Region.Drop_all;
    P.recover p;
    Pmem.Region.crash region Pmem.Region.Drop_all
  in
  (* Corrupt back-copy lines only where the main-copy twin is still
     sound: rotting both twins of one line is unrepairable by design and
     not what this campaign asserts. *)
  let corrupt_back_unpaired region spans ~salt =
    match spans with
    | [ (mbase, mspan); (bbase, _) ] when mspan > 0 ->
      let line_size = Pmem.Region.line_size region in
      let twin_d = (bbase - mbase) / line_size in
      let bl = (bbase + mspan - 1) / line_size in
      if Pmem.Region.media_ok region ~line:(bl - twin_d) then
        Pmem.Region.corrupt_line ~seed:salt region ~line:bl;
      let bl2 = bbase / line_size in
      if bl2 <> bl && Pmem.Region.media_ok region ~line:(bl2 - twin_d) then
        Pmem.Region.corrupt_bits region ~seed:salt ~off:(bl2 * line_size)
          ~len:line_size ~flips:3
    | _ -> ()
  in
  let snapshot = Pmem.Region.persistent_snapshot in
  for round = 1 to rounds do
    let wseed = seed + (1009 * round) in
    (* ---- rot differential, one run per rate ---- *)
    List.iteri
      (fun ri rate ->
        let salt = wseed + (97 * ri) in
        let vregion, victim, vread, vcheck, expected = build ~wseed in
        let cregion, control, _, _, _ = build ~wseed in
        settle vregion victim;
        settle cregion control;
        if not (String.equal (snapshot vregion) (snapshot cregion)) then
          fail "round %d: victim and control diverged before injection"
            round;
        let spans = P.media_spans victim in
        let twin = List.length spans = 2 in
        let rotted =
          match spans with
          | (base, span) :: _ when span > 0 ->
            Pmem.Region.inject_rot ~off:base ~len:span vregion
              (Pmem.Region.Media_rot { seed = salt; rate })
          | _ -> 0
        in
        if twin then corrupt_back_unpaired vregion spans ~salt;
        P.recover control;
        if twin then begin
          (* twin-copy: restart must repair everything and come back
             byte-identical to the never-rotted control *)
          match P.recover victim with
          | exception e ->
            fail "round %d rate %g: recovery refused repairable rot: %s"
              round rate (Printexc.to_string e)
          | () ->
            let s = Pmem.Region.stats vregion in
            repaired_total := !repaired_total + s.Pmem.Stats.repaired_lines;
            if not (String.equal (snapshot vregion) (snapshot cregion))
            then
              fail "round %d rate %g: image differs from control after \
                    scrub (%d lines rotted)"
                round rate rotted;
            (match vcheck () with
             | Ok () -> ()
             | Error e ->
               fail "round %d rate %g: structural: %s" round rate e);
            if vread () <> expected then
              fail "round %d rate %g: data differs from the oracle" round
                rate;
            let rep = P.scrub victim in
            if rep.Romulus.Engine.repaired <> 0 then
              fail "round %d rate %g: second scrub repaired %d more lines"
                round rate rep.Romulus.Engine.repaired
        end
        else begin
          (* single image: every fault must surface typed — recovery,
             scrub, or the reads themselves — never as silent garbage *)
          match P.recover victim with
          | exception Pmem.Region.Media_error _ -> incr detections
          | exception Romulus.Engine.Unrepairable _ -> incr detections
          | () ->
            (match P.scrub victim with
             | exception Romulus.Engine.Unrepairable _ -> incr detections
             | (_ : Romulus.Engine.scrub_report) -> ());
            (match vread () with
             | exception Pmem.Region.Media_error _ -> incr detections
             | got ->
               if got <> expected then
                 fail "round %d rate %g: SILENT corruption: %d rotted \
                       lines, reads diverged with no typed error"
                   round rate rotted)
        end)
      rot_rates;
    (* ---- crashes inside the repair window (twin-copy designs) ---- *)
    let vregion, victim, _, _, _ = build ~wseed in
    let cregion, control, _, _, _ = build ~wseed in
    settle vregion victim;
    settle cregion control;
    P.recover victim;
    P.recover control;
    if List.length (P.media_spans victim) = 2 then begin
      let oracle = snapshot cregion in
      let mbase, mspan = List.hd (P.media_spans victim) in
      let line = (mbase + mspan - 1) / Pmem.Region.line_size vregion in
      let converged what policy =
        if not (String.equal (snapshot vregion) oracle) then
          fail "round %d: %s under %s left a diverged image" round what
            policy
      in
      List.iter
        (fun (pname, policy) ->
          (* failpoint kills: power off right at the detection point and
             right after the repairing fence *)
          List.iter
            (fun site ->
              Pmem.Region.corrupt_line vregion ~line;
              Fault.arm site (fun () -> Pmem.Region.kill vregion);
              (match P.recover victim with
               | () -> fail "round %d: %s did not fire" round site
               | exception Pmem.Region.Crash_point ->
                 incr window_crashes;
                 Pmem.Region.crash vregion policy;
                 P.recover victim);
              Fault.disarm ();
              converged site pname)
            [ "engine.scrub.bad_line"; "engine.scrub.repaired" ];
          (* instruction-trap sweep over the whole repairing recovery *)
          let k = ref 0 in
          let completed = ref false in
          while not !completed do
            Pmem.Region.corrupt_line vregion ~line;
            Pmem.Region.set_trap vregion !k;
            (match P.recover victim with
             | () ->
               Pmem.Region.clear_trap vregion;
               completed := true
             | exception Pmem.Region.Crash_point ->
               incr window_crashes;
               Pmem.Region.crash vregion policy;
               P.recover victim);
            converged (Printf.sprintf "trap %d" !k) pname;
            incr k;
            if !k > 5_000 then begin
              fail "round %d: repair-window sweep did not terminate" round;
              completed := true
            end
          done)
        [ ("drop_all", Pmem.Region.Drop_all);
          ("keep_all", Pmem.Region.Keep_all);
          ("random", Pmem.Region.Random_subset (wseed + 5));
          ("torn_words", Pmem.Region.Torn_words (wseed + 131)) ]
    end;
    if verbose then
      Printf.printf
        "  ... %d/%d seeds, %d repaired, %d detections, %d window crashes\n%!"
        round rounds !repaired_total !detections !window_crashes
  done;
  { rounds;
    crashes = !repaired_total;
    recovery_crashes = !window_crashes;
    failures = !failures }

(* ---- sharded cross-shard commit campaign ---- *)

(* Differential all-or-nothing campaign for the sharded store's
   cross-shard commit protocol.  Each round builds fresh
   [nshards]-shard stores over the selected PTM, seeds them, then
   crashes a cross-shard write batch several ways — an instruction trap
   at a random point on every shard's region in turn, failpoint kills
   inside each protocol window, and a crash inside the parallel
   recovery fan-out — resolving every power-off under the selected
   line-fate policy.  After each reopen the oracle requires the batch
   to be exactly all-or-nothing, untouched committed keys to survive,
   and every shard to pass its structural and allocator checks.

   The protocol is the decentralized presumed-abort one with lazy
   CLEAR.  The failpoint windows: kills after each mirror+apply (expect
   presumed abort), after the coordinator flip (expect roll-forward),
   inside the lazy CLEAR piggyback of a *second* batch (the first batch
   must stay applied), and inside recovery's mirror-resolution loop
   (reconciliation must be idempotent) — always killing the
   coordinator's own region, the adversarial case.  The Stats protocol
   counters are asserted so the campaign proves the protocol actually
   ran. *)
let run_sharded_campaign (module P : PTM) ~nshards ~rounds ~seed ~verbose
    ~policy =
  let module SD = Kv.Sharded_db.Make (P) in
  let rng = Workload.Keygen.create ~seed () in
  let failures = ref [] in
  let crashes = ref 0 in
  let rec_crashes = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let pick_policy salt =
    match policy with
    | `Drop -> Pmem.Region.Drop_all
    | `Keep -> Pmem.Region.Keep_all
    | `Random -> Pmem.Region.Random_subset (seed + salt)
    | `Torn -> Pmem.Region.Torn_words (seed + salt)
    | `Mix -> (
      match Workload.Keygen.int rng 4 with
      | 0 -> Pmem.Region.Drop_all
      | 1 -> Pmem.Region.Keep_all
      | 2 -> Pmem.Region.Torn_words (seed + salt)
      | _ -> Pmem.Region.Random_subset (seed + salt))
  in
  let key i = Printf.sprintf "key%03d" i in
  let value i = Printf.sprintf "value-%04d" i in
  (* enough distinct keys that the batch always spans several shards *)
  let batch_ops =
    [ ("batch-a", Some "A"); ("batch-b", Some "B"); ("batch-c", Some "C");
      ("batch-d", Some "D"); ("batch-e", Some "E"); ("batch-f", Some "F");
      (key 1, Some "overwritten"); (key 2, None) ]
  in
  let fresh () =
    let rs =
      Array.init nshards (fun _ -> Pmem.Region.create ~size:(1 lsl 19) ())
    in
    let db = SD.open_db ~initial_buckets:8 rs in
    for i = 0 to 11 do
      SD.put db (key i) (value i)
    done;
    (rs, db)
  in
  let crash_all rs p = Array.iter (fun r -> Pmem.Region.crash r p) rs in
  let run_batch db =
    SD.write_batch db (fun b ->
        List.iter
          (fun (k, v) ->
            match v with
            | Some v -> SD.put b k v
            | None -> ignore (SD.delete b k))
          batch_ops)
  in
  (* all-or-nothing oracle; [expect] pins the outcome where the protocol
     makes it deterministic (kills before the COMMIT flip roll back,
     kills after it roll forward) *)
  let oracle what db ~expect =
    (match SD.check db with
     | Ok () -> ()
     | Error e -> fail "%s: check: %s" what e);
    let applied = SD.get db "batch-a" = Some "A" in
    (match expect with
     | Some want when want <> applied ->
       fail "%s: expected the batch %s, found it %s" what
         (if want then "applied" else "rolled back")
         (if applied then "applied" else "rolled back")
     | _ -> ());
    List.iter
      (fun (k, v) ->
        let got = SD.get db k in
        let want =
          if applied then v
          else if k = key 1 then Some (value 1)
          else if k = key 2 then Some (value 2)
          else None
        in
        if got <> want then fail "%s: half-applied batch at %s" what k)
      batch_ops;
    for i = 3 to 11 do
      if SD.get db (key i) <> Some (value i) then
        fail "%s: lost committed key %s" what (key i)
    done
  in
  (* sanity once per campaign: the batch really is cross-shard, and a
     clean run ticks the protocol counters *)
  let coordinator =
    let _, db = fresh () in
    let groups =
      List.sort_uniq compare
        (List.map (fun (k, _) -> SD.shard_of_key db k) batch_ops)
    in
    if List.length groups < 2 then
      fail "batch spans %d shard(s); campaign needs a cross-shard batch"
        (List.length groups);
    run_batch db;
    let st = SD.stats db in
    if st.Pmem.Stats.intent_prepares = 0 then
      fail "clean batch ticked no intent PREPAREs";
    if st.Pmem.Stats.coordinator_flips = 0 then
      fail "clean batch ticked no COMMIT flips";
    List.hd groups
  in
  for round = 1 to rounds do
    let salt = round * 31 in
    (* (a) instruction trap at a random point on each shard's region *)
    for t = 0 to nshards - 1 do
      let rs, db = fresh () in
      Pmem.Region.set_trap rs.(t) (1 + Workload.Keygen.int rng 400);
      (match run_batch db with
       | () -> Pmem.Region.clear_trap rs.(t)
       | exception Pmem.Region.Crash_point -> incr crashes);
      crash_all rs (pick_policy (salt + t));
      let db = SD.open_db ~initial_buckets:8 rs in
      oracle (Printf.sprintf "round %d trap shard %d" round t) db
        ~expect:None
    done;
    (* (b) failpoint kills in each protocol window, on the batch
       coordinator's region.  [prep] runs before the site is armed (the
       lazy-CLEAR window needs a committed batch already parked);
       [check_stats] asserts the reopened store's protocol counters. *)
    let windows =
      [ ( "sharded.d.mirror_applied",
          Some (Workload.Keygen.int rng 2),
          (fun _ -> ()), Some false,
          fun st -> st.Pmem.Stats.rolled_back > 0 );
        ( "sharded.d.flip_written", None,
          (fun _ -> ()), Some true,
          fun st -> st.Pmem.Stats.rolled_forward > 0 );
        ( "sharded.d.mirror_cleared", None,
          (* park a committed batch first, then kill inside the next
             batch's piggybacked reclamation: the committed batch must
             stay applied *)
          (fun db -> run_batch db), Some true,
          fun st -> st.Pmem.Stats.intent_prepares > 0 ) ]
    in
    List.iter
      (fun (site, skip, prep, expect, check_stats) ->
        let rs, db = fresh () in
        prep db;
        let fired = ref false in
        Fault.arm ?skip site (fun () ->
            fired := true;
            Pmem.Region.kill rs.(coordinator));
        let completed =
          match run_batch db with
          | () ->
            Fault.disarm ();
            true
          | exception Pmem.Region.Crash_point ->
            incr crashes;
            Fault.disarm ();
            false
        in
        if not !fired then
          fail "round %d: %s did not fire" round site
        else begin
          (* a post-durability-point kill may let run_batch return
             normally (the lazy flip window ends the protocol on the
             coordinator); the power-off still happened, so the same
             crash + reopen + oracle applies *)
          ignore completed;
          crash_all rs (pick_policy (salt + 7));
          let db = SD.open_db ~initial_buckets:8 rs in
          oracle (Printf.sprintf "round %d %s" round site) db ~expect;
          if SD.pending_intents db <> 0 then
            fail "round %d %s: records left hooked after recovery" round
              site;
          if not (check_stats (SD.stats db)) then
            fail "round %d %s: protocol counters did not move" round site
        end)
      windows;
    (* (c) crash inside the parallel recovery fan-out *)
    let rs, db = fresh () in
    Pmem.Region.set_trap rs.(0) (1 + Workload.Keygen.int rng 300);
    (match run_batch db with
     | () -> Pmem.Region.clear_trap rs.(0)
     | exception Pmem.Region.Crash_point -> incr crashes);
    crash_all rs (pick_policy (salt + 11));
    let t = Workload.Keygen.int rng nshards in
    Pmem.Region.set_trap rs.(t) (1 + Workload.Keygen.int rng 40);
    (match SD.recover ~parallel:true db with
     | () -> Pmem.Region.clear_trap rs.(t)
     | exception Pmem.Region.Crash_point ->
       incr rec_crashes;
       crash_all rs (pick_policy (salt + 13));
       SD.recover ~parallel:true db);
    oracle (Printf.sprintf "round %d parallel recovery" round) db
      ~expect:None;
    (* (d) crash inside the reconciliation pass itself: wreck a batch,
       then kill a shard right as recovery resolves a mirror; the next
       recovery must converge *)
    let rs, db = fresh () in
    Pmem.Region.set_trap rs.(coordinator) (1 + Workload.Keygen.int rng 300);
    (match run_batch db with
     | () -> Pmem.Region.clear_trap rs.(coordinator)
     | exception Pmem.Region.Crash_point -> incr crashes);
    crash_all rs (pick_policy (salt + 17));
    let t = Workload.Keygen.int rng nshards in
    Fault.arm "sharded.recover.mirror_resolved" (fun () ->
        Pmem.Region.kill rs.(t));
    (match SD.recover ~parallel:false db with
     | () -> Fault.disarm ()
     | exception Pmem.Region.Crash_point ->
       incr rec_crashes;
       Fault.disarm ();
       crash_all rs (pick_policy (salt + 19));
       SD.recover ~parallel:false db);
    oracle (Printf.sprintf "round %d reconciliation crash" round) db
      ~expect:None;
    if SD.pending_intents db <> 0 then
      fail "round %d: reconciliation crash left records hooked" round;
    if verbose then
      Printf.printf "  ... %d/%d rounds, %d crashes (%d during recovery)\n%!"
        round rounds !crashes !rec_crashes
  done;
  { rounds;
    crashes = !crashes;
    recovery_crashes = !rec_crashes;
    failures = !failures }

(* ---- chunked intent-streaming campaign ---- *)

(* Crash campaign for the chunked mirror chains.  Stores run with
   deliberately small [chunk_bytes]/[spill_threshold] and the cross-shard
   batch overwrites ~700-byte values with ~900-byte ones, so every
   PREPARE streams a multi-chunk CRC-protected chain and spills every
   undo image.  Per round: an instruction trap at a random point on
   every shard in turn; failpoint kills mid-chain, at a spill, in the
   seal window (a complete but unsealed chain must be collected as
   presumed-abort garbage), and after the coordinator flip
   (roll-forward with parked chains); and a kill inside recovery's
   chain GC itself, which must converge when recovery is crashed and
   rerun.  The oracle requires the batch to be
   exactly all-or-nothing — a torn large value is the failure this
   campaign exists to catch — and every reopen to leave zero hooked
   records.  A sanity pass per campaign asserts the degradation
   counters actually move: chunks_written, chunks_spilled,
   clear_flushes (via an explicit drain) and overload_rejections (via
   an undersized admission budget refusing the batch with the typed
   Overloaded and no persistent effect). *)
let run_chunked_campaign (module P : PTM) ~nshards ~rounds ~seed ~verbose
    ~policy =
  let module SD = Kv.Sharded_db.Make (P) in
  let rng = Workload.Keygen.create ~seed () in
  let failures = ref [] in
  let crashes = ref 0 in
  let rec_crashes = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let pick_policy salt =
    match policy with
    | `Drop -> Pmem.Region.Drop_all
    | `Keep -> Pmem.Region.Keep_all
    | `Random -> Pmem.Region.Random_subset (seed + salt)
    | `Torn -> Pmem.Region.Torn_words (seed + salt)
    | `Mix -> (
      match Workload.Keygen.int rng 4 with
      | 0 -> Pmem.Region.Drop_all
      | 1 -> Pmem.Region.Keep_all
      | 2 -> Pmem.Region.Torn_words (seed + salt)
      | _ -> Pmem.Region.Random_subset (seed + salt))
  in
  let chunk_bytes = 256 in
  let spill_threshold = 192 in
  let nkeys = 8 in
  let key i = Printf.sprintf "blob%02d" i in
  let big tag len =
    String.init len (fun i -> Char.chr ((tag + (7 * i)) land 0xff))
  in
  let old_v i = big (3 + i) 700 in
  let new_v i = big (101 + i) 900 in
  let fresh_v = big 77 700 in
  let fresh ?admission_budget () =
    let rs =
      Array.init nshards (fun _ -> Pmem.Region.create ~size:(1 lsl 19) ())
    in
    let db =
      SD.open_db ~initial_buckets:8 ~chunk_bytes ~spill_threshold
        ?admission_budget rs
    in
    for i = 0 to nkeys - 1 do
      SD.put db (key i) (old_v i)
    done;
    (rs, db)
  in
  let reopen rs =
    SD.open_db ~initial_buckets:8 ~chunk_bytes ~spill_threshold rs
  in
  let crash_all rs p = Array.iter (fun r -> Pmem.Region.crash r p) rs in
  let run_batch db =
    SD.write_batch db (fun b ->
        for i = 0 to nkeys - 1 do
          SD.put b (key i) (new_v i)
        done;
        SD.put b "fresh-blob" fresh_v)
  in
  (* all-or-nothing over large values: any torn byte fails the equality *)
  let oracle what db ~expect =
    (match SD.check db with
     | Ok () -> ()
     | Error e -> fail "%s: check: %s" what e);
    let applied = SD.get db (key 0) = Some (new_v 0) in
    (match expect with
     | Some want when want <> applied ->
       fail "%s: expected the batch %s, found it %s" what
         (if want then "applied" else "rolled back")
         (if applied then "applied" else "rolled back")
     | _ -> ());
    for i = 0 to nkeys - 1 do
      let want = if applied then new_v i else old_v i in
      if SD.get db (key i) <> Some want then
        fail "%s: torn or half-applied value at %s" what (key i)
    done;
    (match (SD.get db "fresh-blob", applied) with
     | Some v, true when v = fresh_v -> ()
     | None, false -> ()
     | _, _ -> fail "%s: fresh key disagrees with the batch outcome" what);
    if SD.pending_intents db <> 0 then
      fail "%s: records left hooked after recovery" what
  in
  (* sanity once per campaign: the batch crosses shards, chains really
     stream and spill, an explicit drain ticks clear_flushes, and an
     undersized admission budget refuses the batch typed and untouched *)
  let coordinator =
    let _, db = fresh () in
    let groups =
      List.sort_uniq compare
        (SD.shard_of_key db "fresh-blob"
         :: List.init nkeys (fun i -> SD.shard_of_key db (key i)))
    in
    if List.length groups < 2 then
      fail "batch spans %d shard(s); campaign needs a cross-shard batch"
        (List.length groups);
    run_batch db;
    let st = SD.stats db in
    if st.Pmem.Stats.chunks_written < 2 * List.length groups then
      fail "clean batch streamed only %d chunks over %d shards"
        st.Pmem.Stats.chunks_written (List.length groups);
    if st.Pmem.Stats.chunks_spilled < nkeys then
      fail "clean batch spilled only %d undo images (want >= %d)"
        st.Pmem.Stats.chunks_spilled nkeys;
    SD.flush_clears db;
    let st = SD.stats db in
    if st.Pmem.Stats.clear_flushes = 0 then
      fail "explicit drain ticked no clear_flushes";
    if SD.pending_intents db <> 0 then
      fail "flush_clears left %d records parked" (SD.pending_intents db);
    for i = 0 to nkeys - 1 do
      if SD.get db (key i) <> Some (new_v i) then
        fail "clean chunked batch lost %s" (key i)
    done;
    let _, db = fresh ~admission_budget:256 () in
    (match run_batch db with
     | () -> fail "a 256-byte admission budget admitted a multi-KB batch"
     | exception Kv.Sharded_db.Overloaded _ -> ()
     | exception e ->
       fail "admission refusal escaped untyped: %s" (Printexc.to_string e));
    if (SD.stats db).Pmem.Stats.overload_rejections = 0 then
      fail "refused batch ticked no overload_rejections";
    for i = 0 to nkeys - 1 do
      if SD.get db (key i) <> Some (old_v i) then
        fail "refused batch touched %s" (key i)
    done;
    if SD.pending_intents db <> 0 then
      fail "refused batch left records hooked";
    List.hd groups
  in
  for round = 1 to rounds do
    let salt = round * 41 in
    (* (a) instruction trap at a random point on each shard's region *)
    for t = 0 to nshards - 1 do
      let rs, db = fresh () in
      Pmem.Region.set_trap rs.(t) (1 + Workload.Keygen.int rng 1200);
      (match run_batch db with
       | () -> Pmem.Region.clear_trap rs.(t)
       | exception Pmem.Region.Crash_point -> incr crashes);
      crash_all rs (pick_policy (salt + t));
      let db = reopen rs in
      oracle (Printf.sprintf "round %d trap shard %d" round t) db
        ~expect:None
    done;
    (* (b) failpoint kills: the coordinator's region is powered off from
       inside the window; every pre-flip kill must roll back, the
       post-flip one must roll forward.  The skip on the streaming sites
       moves the kill along the chain (and across participants — the
       counter is global), so torn chains of every length face every
       policy over the rounds. *)
    let windows =
      [ ( "sharded.chunk.written", Some (Workload.Keygen.int rng 4),
          Some false, fun st -> st.Pmem.Stats.rolled_back > 0 );
        ( "sharded.chunk.spilled", Some (Workload.Keygen.int rng 3),
          Some false, fun st -> st.Pmem.Stats.rolled_back > 0 );
        ( "sharded.chunk.seal_window", Some (Workload.Keygen.int rng 2),
          Some false, fun st -> st.Pmem.Stats.rolled_back > 0 );
        ( "sharded.d.flip_written", None, Some true,
          fun st -> st.Pmem.Stats.rolled_forward > 0 ) ]
    in
    List.iter
      (fun (site, skip, expect, check_stats) ->
        let rs, db = fresh () in
        let fired = ref false in
        Fault.arm ?skip site (fun () ->
            fired := true;
            Pmem.Region.kill rs.(coordinator));
        (match run_batch db with
         | () -> Fault.disarm ()
         | exception Pmem.Region.Crash_point ->
           incr crashes;
           Fault.disarm ());
        if not !fired then fail "round %d: %s did not fire" round site
        else begin
          crash_all rs (pick_policy (salt + 7));
          let db = reopen rs in
          oracle (Printf.sprintf "round %d %s" round site) db ~expect;
          if not (check_stats (SD.stats db)) then
            fail "round %d %s: protocol counters did not move" round site
        end)
      windows;
    (* (c) a complete-but-unsealed chain (seal-window kill), then a
       crash inside recovery's chain GC itself: the rerun must converge
       on the rolled-back image — collection is idempotent *)
    let rs, db = fresh () in
    Fault.arm "sharded.chunk.seal_window" (fun () ->
        Pmem.Region.kill rs.(coordinator));
    (match run_batch db with
     | () ->
       Fault.disarm ();
       fail "round %d: seal-window kill did not fire" round
     | exception Pmem.Region.Crash_point ->
       incr crashes;
       Fault.disarm ());
    crash_all rs (pick_policy (salt + 11));
    let gc_fired = ref false in
    let t = Workload.Keygen.int rng nshards in
    Fault.arm "sharded.chunk.gc" (fun () ->
        gc_fired := true;
        Pmem.Region.kill rs.(t));
    let db =
      match reopen rs with
      | db ->
        Fault.disarm ();
        db
      | exception Pmem.Region.Crash_point ->
        incr rec_crashes;
        Fault.disarm ();
        crash_all rs (pick_policy (salt + 13));
        reopen rs
    in
    if not !gc_fired then
      fail "round %d: chain-GC window did not fire" round;
    oracle (Printf.sprintf "round %d chain-GC crash" round) db
      ~expect:(Some false);
    if verbose then
      Printf.printf "  ... %d/%d rounds, %d crashes (%d during recovery)\n%!"
        round rounds !crashes !rec_crashes
  done;
  { rounds;
    crashes = !crashes;
    recovery_crashes = !rec_crashes;
    failures = !failures }

(* ---- the elastic-sharding migration campaign ----

   Crash-safe online split/merge: every round seeds an [nshards]-store,
   then kills it mid-resize — with an instruction trap at a random
   primitive on every region (including the split's target), with
   failpoint kills inside each sharded.migrate.* window (intent durable,
   after a move batch's source transaction — the keys' only home is the
   CRC-protected cursor — after its target transaction, after the epoch
   flip, and after reclamation), with a second crash inside recovery's
   migration resume, and with a racing single-key write fired between
   the two halves of a move batch.  The oracle after every reopen:
   [check] passes, every seeded key is present exactly once (the raced
   key at the racing value), no migration intent is left hooked, and a
   durable intent implies the resize completed (epoch advanced,
   exactly one completion ever counted). *)

let run_migrate_campaign (module P : PTM) ~nshards ~rounds ~seed ~verbose
    ~policy =
  let module SD = Kv.Sharded_db.Make (P) in
  let rng = Workload.Keygen.create ~seed () in
  let failures = ref [] in
  let crashes = ref 0 in
  let rec_crashes = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let pick_policy salt =
    match policy with
    | `Drop -> Pmem.Region.Drop_all
    | `Keep -> Pmem.Region.Keep_all
    | `Random -> Pmem.Region.Random_subset (seed + salt)
    | `Torn -> Pmem.Region.Torn_words (seed + salt)
    | `Mix -> (
      match Workload.Keygen.int rng 4 with
      | 0 -> Pmem.Region.Drop_all
      | 1 -> Pmem.Region.Keep_all
      | 2 -> Pmem.Region.Torn_words (seed + salt)
      | _ -> Pmem.Region.Random_subset (seed + salt))
  in
  let nkeys = 48 in
  let key i = Printf.sprintf "mig%03d" i in
  let value i = Printf.sprintf "v-%04d-%s" i (String.make (i mod 40) 'x') in
  (* the chunk floor forces every split into a multi-batch move stream *)
  let chunk_bytes = Kv.Sharded_db.min_chunk_bytes in
  let region () = Pmem.Region.create ~size:(1 lsl 19) () in
  let fresh () =
    let rs = Array.init nshards (fun _ -> region ()) in
    let db = SD.open_db ~initial_buckets:8 ~chunk_bytes rs in
    for i = 0 to nkeys - 1 do
      SD.put db (key i) (value i)
    done;
    (rs, db)
  in
  let reopen rs = SD.open_db ~initial_buckets:8 ~chunk_bytes rs in
  let crash_all rs p = Array.iter (fun r -> Pmem.Region.crash r p) rs in
  (* [racing]: the raced key and the value its durable racing write must
     have pinned; [epoch]: the exact post-recovery epoch when the crash
     window guarantees one (a trap may land before the intent commits,
     so trap sweeps accept either outcome) *)
  let oracle what db ?epoch ?racing () =
    (match SD.check db with
     | Ok () -> ()
     | Error e -> fail "%s: check: %s" what e);
    let seen = Hashtbl.create 64 in
    SD.iter db (fun k v ->
        if Hashtbl.mem seen k then fail "%s: key %s present twice" what k;
        Hashtbl.replace seen k v);
    for i = 0 to nkeys - 1 do
      let want =
        match racing with
        | Some (rk, rv) when rk = key i -> rv
        | _ -> Some (value i)
      in
      match (want, Hashtbl.find_opt seen (key i)) with
      | Some w, Some got when got = w -> ()
      | None, None -> ()
      | Some _, None -> fail "%s: lost key %s" what (key i)
      | None, Some _ -> fail "%s: raced delete of %s resurrected" what (key i)
      | Some _, Some got ->
        fail "%s: wrong value at %s (%d bytes)" what (key i)
          (String.length got)
    done;
    if SD.migration_pending db then
      fail "%s: migration intent left hooked after recovery" what;
    (match epoch with
     | Some e when SD.epoch db <> e ->
       fail "%s: epoch %d after recovery, want %d" what (SD.epoch db) e
     | _ ->
       if SD.epoch db < 0 || SD.migration_pending db then
         fail "%s: inconsistent routing after recovery" what)
  in
  let mig_sites =
    [ "sharded.migrate.intent_open"; "sharded.migrate.batch_moved";
      "sharded.migrate.batch_applied"; "sharded.migrate.epoch_flip";
      "sharded.migrate.reclaimed" ]
  in
  (* kill inside the named window of [resize ()]; the victim region is
     the one every pre-reclaim phase touches promptly, so arming it is
     guaranteed to land — the reclaimed site is the resize's last region
     access and crashes at the site itself *)
  let kill_in_window ~site ~skip ~victim resize =
    let fired = ref false in
    if site = "sharded.migrate.reclaimed" then
      Fault.arm ~skip:0 site (fun () ->
          fired := true;
          raise Pmem.Region.Crash_point)
    else
      Fault.arm ~skip site (fun () ->
          fired := true;
          Pmem.Region.kill victim);
    (match resize () with
     | () -> Fault.disarm ()
     | exception Pmem.Region.Crash_point -> incr crashes);
    !fired
  in
  for round = 1 to rounds do
    let salt = round * 53 in
    (* (a) instruction trap at a random primitive on every region, the
       split's freshly-formatted target included *)
    for t = 0 to nshards do
      let rs, db = fresh () in
      let r2 = region () in
      let all = Array.append rs [| r2 |] in
      let src = Workload.Keygen.int rng nshards in
      Pmem.Region.set_trap all.(t) (1 + Workload.Keygen.int rng 2500);
      (match SD.split_shard db ~source:src r2 with
       | (_ : int) -> Pmem.Region.clear_trap all.(t)
       | exception Pmem.Region.Crash_point -> incr crashes);
      crash_all all (pick_policy (salt + t));
      let db = reopen all in
      oracle (Printf.sprintf "round %d trap region %d" round t) db ()
    done;
    (* (b) failpoint kills across the migration windows, with a skip
       that walks the kill along the move stream; pre-flip windows also
       face a second crash inside recovery's resume.  The stream's
       length depends on how many keys sit on the source's moving
       slots, so when a batch-site skip outlives the stream the split
       just completes — hold it to the clean-split oracle and re-arm
       shallower (then on other sources) instead of failing; the
       unconditional windows must still fire first try *)
    List.iter
      (fun site ->
        let batch_site =
          site = "sharded.migrate.batch_moved"
          || site = "sharded.migrate.batch_applied"
        in
        let rec attempt skip tries =
        let rs, db = fresh () in
        let r2 = region () in
        let all = Array.append rs [| r2 |] in
        let src = Workload.Keygen.int rng nshards in
        let fired =
          kill_in_window ~site ~skip ~victim:all.(src) (fun () ->
              ignore (SD.split_shard db ~source:src r2 : int))
        in
        if not fired then begin
          oracle
            (Printf.sprintf "round %d %s unfired at skip %d" round site skip)
            db ~epoch:1 ();
          if skip > 0 then attempt (skip - 1) tries
          else if batch_site && tries < nshards then attempt 0 (tries + 1)
          else fail "round %d: %s did not fire" round site
        end
        else begin
          crash_all all (pick_policy (salt + 7));
          let resumes =
            site = "sharded.migrate.intent_open"
            || site = "sharded.migrate.batch_moved"
            || site = "sharded.migrate.batch_applied"
          in
          let crash_recovery = resumes && Workload.Keygen.int rng 2 = 0 in
          let db =
            if crash_recovery then begin
              Fault.arm "sharded.migrate.resumed" (fun () ->
                  Pmem.Region.kill all.(src));
              match reopen all with
              | db ->
                Fault.disarm ();
                fail "round %d %s: recovery resume window did not fire"
                  round site;
                db
              | exception Pmem.Region.Crash_point ->
                incr rec_crashes;
                Fault.disarm ();
                crash_all all (pick_policy (salt + 9));
                reopen all
            end
            else reopen all
          in
          let what = Printf.sprintf "round %d %s" round site in
          oracle what db ~epoch:1 ();
          let st = SD.stats db in
          if resumes && st.Pmem.Stats.migrations_resumed < 1 then
            fail "%s: recovery never resumed the migration" what;
          if st.Pmem.Stats.migrations_completed <> 1 then
            fail "%s: %d completions counted, want exactly 1" what
              st.Pmem.Stats.migrations_completed;
          if st.Pmem.Stats.keys_migrated = 0 then
            fail "%s: no keys counted as migrated" what
        end
        in
        let skip = if batch_site then Workload.Keygen.int rng 3 else 0 in
        attempt skip 0)
      mig_sites;
    (* (c) a racing single-key write fired between the two halves of a
       move batch — durable before the (optional) kill, so it must
       survive the stream, the crash, and the resumed migration.  As in
       (b), a stream shorter than the skip (or a source with no moving
       keys) leaves the window unfired: retry shallower, then on other
       sources *)
    let kill_after = Workload.Keygen.int rng 2 = 0 in
    let delete_race = Workload.Keygen.int rng 3 = 0 in
    let rec race_attempt skip tries =
      let rs, db = fresh () in
      let r2 = region () in
      let all = Array.append rs [| r2 |] in
      let src = Workload.Keygen.int rng nshards in
      let raced = ref None in
      Fault.arm ~skip "sharded.migrate.batch_moved" (fun () ->
          (* prefer a key the open window routes to the new shard: its
             write takes the forwarding path.  The seeded keys spread
             over every slot, so one almost always exists; any key
             keeps the race meaningful otherwise. *)
          let target = nshards in
          let rec pick i =
            if i >= nkeys then key (Workload.Keygen.int rng nkeys)
            else if SD.shard_of_key db (key i) = target then key i
            else pick (i + 1)
          in
          let rk = pick 0 in
          if delete_race then begin
            ignore (SD.delete db rk : bool);
            raced := Some (rk, None)
          end
          else begin
            SD.put db rk "raced";
            raced := Some (rk, Some "raced")
          end;
          if kill_after then Pmem.Region.kill all.(src));
      (match SD.split_shard db ~source:src r2 with
       | (_ : int) -> Fault.disarm ()
       | exception Pmem.Region.Crash_point ->
         incr crashes;
         Fault.disarm ());
      match !raced with
      | None ->
        if skip > 0 then race_attempt (skip - 1) tries
        else if tries < nshards then race_attempt 0 (tries + 1)
        else fail "round %d: racing window did not fire" round
      | Some racing ->
        crash_all all (pick_policy (salt + 11));
        let db = reopen all in
        oracle
          (Printf.sprintf "round %d racing %s%s" round
             (if delete_race then "delete" else "put")
             (if kill_after then "+kill" else ""))
          db ~epoch:1 ~racing ()
    in
    race_attempt (Workload.Keygen.int rng 2) 0;
    (* (d) merge: grow, then kill inside a random window of the shrink;
       recovery must land on epoch 2 with the merged shard empty *)
    let rs, db = fresh () in
    let r2 = region () in
    let all = Array.append rs [| r2 |] in
    let src = Workload.Keygen.int rng nshards in
    let born = SD.split_shard db ~source:src r2 in
    let site = List.nth mig_sites (Workload.Keygen.int rng 5) in
    let back = Workload.Keygen.int rng nshards in
    let fired =
      kill_in_window ~site ~skip:0 ~victim:all.(born) (fun () ->
          SD.merge_shards db ~source:born ~target:back)
    in
    let merge_checks what db =
      oracle what db ~epoch:2 ();
      for s = 0 to SD.route_slots db - 1 do
        if SD.shard_of_slot db s = born then
          fail "%s: merged shard still owns slot %d" what s
      done;
      if (SD.stats db).Pmem.Stats.migrations_completed <> 2 then
        fail "%s: %d completions counted, want exactly 2" what
          (SD.stats db).Pmem.Stats.migrations_completed
    in
    if not fired then begin
      (* only the batch windows can go unvisited, and only when the
         split moved no keys, so the merge streams none back — the
         merge then completed clean and its post-state must hold live *)
      if site = "sharded.migrate.batch_moved"
         || site = "sharded.migrate.batch_applied"
      then merge_checks (Printf.sprintf "round %d merge %s unfired" round site) db
      else fail "round %d: merge %s did not fire" round site
    end
    else begin
      crash_all all (pick_policy (salt + 13));
      merge_checks (Printf.sprintf "round %d merge %s" round site) (reopen all)
    end;
    if verbose then
      Printf.printf "  ... %d/%d rounds, %d crashes (%d during recovery)\n%!"
        round rounds !crashes !rec_crashes
  done;
  { rounds;
    crashes = !crashes;
    recovery_crashes = !rec_crashes;
    failures = !failures }

(* ---- quarantine / self-healing campaign ---- *)

(* Differential fault-isolation campaign for the per-shard health
   machinery.  Every scenario seeds and settles a victim store plus an
   undamaged control with identical content, rots both twins of a line
   deep inside one shard (never shard 0) at rest, and reopens: the
   classification must file the sick shard as Degraded or Quarantined
   while every healthy slot serves byte-identical to the control, and
   every operation the verdict forbids fails with the typed
   Shard_unavailable naming the sick shard — never a wrong value, never
   a leaked Tx_aborted, never a silent miss.  Repair must then
   converge: with a snapshot on disk the shard is restored and the
   store returns to all-Healthy; without one the supervisor evacuates
   the salvageable keys onto a healthy shard, after which every
   survivor is served exactly once (scan and point reads agree) and the
   retired verdict survives further crash-recoveries.  A third scenario
   kills a region at the sharded.health.* failpoints — inside open's
   classification, before the evacuation copies anything, and after its
   epoch flip but before reclamation — resolves the power-off under the
   selected --policy, and requires the rerun to reach the same end
   state. *)
let run_quarantine_campaign (module P : PTM) ~nshards ~rounds ~seed ~verbose
    ~policy =
  let module SD = Kv.Sharded_db.Make (P) in
  let rng = Workload.Keygen.create ~seed () in
  let failures = ref [] in
  let crashes = ref 0 in
  let rec_crashes = ref 0 in
  let evacs = ref 0 in
  let restores = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let pick_policy salt =
    match policy with
    | `Drop -> Pmem.Region.Drop_all
    | `Keep -> Pmem.Region.Keep_all
    | `Random -> Pmem.Region.Random_subset (seed + salt)
    | `Torn -> Pmem.Region.Torn_words (seed + salt)
    | `Mix -> (
      match Workload.Keygen.int rng 4 with
      | 0 -> Pmem.Region.Drop_all
      | 1 -> Pmem.Region.Keep_all
      | 2 -> Pmem.Region.Torn_words (seed + salt)
      | _ -> Pmem.Region.Random_subset (seed + salt))
  in
  let nkeys = 48 in
  let key i = Printf.sprintf "qkey%03d" i in
  let value i = Printf.sprintf "qvalue-%04d" i in
  let crash_all rs p = Array.iter (fun r -> Pmem.Region.crash r p) rs in
  (* a settled store: seeded, crashed clean and reopened, so every line
     is durably fenced and at-rest rot is the only damage *)
  let fresh () =
    let rs =
      Array.init nshards (fun _ -> Pmem.Region.create ~size:(1 lsl 19) ())
    in
    let db = SD.open_db ~initial_buckets:8 rs in
    for i = 0 to nkeys - 1 do
      SD.put db (key i) (value i)
    done;
    crash_all rs Pmem.Region.Drop_all;
    (rs, SD.open_db ~initial_buckets:8 rs)
  in
  (* the undamaged control; its routing doubles as the pre-damage
     routing oracle (the victim is built identically) *)
  let _, control = fresh () in
  let sick_of round = 1 + ((seed + round) mod (nshards - 1)) in
  (* rot the deepest used line of [sick] — both twins for a twin-copy
     engine, the single image otherwise: unrepairable damage that still
     leaves the engine mountable *)
  let rot db rs sick =
    match (SD.media_spans db).(sick) with
    | (mbase, mspan) :: rest ->
      let ls = Pmem.Region.line_size rs.(sick) in
      let delta = mspan - ls in
      Pmem.Region.corrupt_line rs.(sick) ~line:((mbase + delta) / ls);
      (match rest with
       | (bbase, _) :: _ ->
         Pmem.Region.corrupt_line rs.(sick) ~seed:99
           ~line:((bbase + delta) / ls)
       | [] -> ())
    | [] -> fail "shard %d reported no media spans" sick
  in
  (* (a)+(b): healthy slots byte-identical to the control; operations
     the sick shard's verdict forbids refused with the typed error *)
  let availability what db ~sick =
    (match SD.health db sick with
     | Kv.Sharded_db.Healthy ->
       fail "%s: rot left shard %d Healthy" what sick
     | _ -> ());
    for i = 0 to nkeys - 1 do
      let k = key i in
      let want = SD.get control k in
      if SD.shard_of_key db k <> sick then begin
        match SD.get db k with
        | got ->
          if got <> want then fail "%s: healthy slot %s diverged" what k
        | exception e ->
          fail "%s: healthy slot %s raised %s" what k (Printexc.to_string e)
      end
      else begin
        (match SD.get db k with
         | got -> (
           match SD.health db sick with
           | Kv.Sharded_db.Quarantined _ ->
             fail "%s: quarantined slot %s served %s" what k
               (match got with None -> "a miss" | Some _ -> "a value")
           | _ ->
             if got <> want then fail "%s: degraded read %s diverged" what k)
         | exception Kv.Sharded_db.Shard_unavailable { shard; _ } -> (
           if shard <> sick then
             fail "%s: %s blamed shard %d, not %d" what k shard sick;
           match SD.health db sick with
           | Kv.Sharded_db.Degraded _ ->
             fail "%s: degraded read %s refused" what k
           | _ -> ())
         | exception Pmem.Region.Media_error _ -> (
           (* a Degraded shard surfaces an actually lost line as the
              typed media error; a Quarantined one must not be read *)
           match SD.health db sick with
           | Kv.Sharded_db.Quarantined _ ->
             fail "%s: quarantined slot %s leaked Media_error" what k
           | _ -> ())
         | exception e ->
           fail "%s: sick slot %s leaked %s" what k (Printexc.to_string e));
        match SD.put db k "must-not-land" with
        | () -> fail "%s: write to sick shard %d was accepted" what sick
        | exception Kv.Sharded_db.Shard_unavailable { shard; _ } ->
          if shard <> sick then
            fail "%s: write to %s blamed shard %d" what k shard
        | exception e ->
          fail "%s: write to sick shard leaked %s" what (Printexc.to_string e)
      end
    done;
    (* a healthy-slot write must still land (and is restored, so later
       byte-identity checks stay meaningful) *)
    (match
       let wk = ref None in
       for i = nkeys - 1 downto 0 do
         if SD.shard_of_key db (key i) <> sick then wk := Some (key i)
       done;
       !wk
     with
     | Some k -> (
       SD.put db k "touched";
       if SD.get db k <> Some "touched" then
         fail "%s: healthy-slot write did not land" what;
       match SD.get control k with
       | Some v -> SD.put db k v
       | None -> ignore (SD.delete db k : bool))
     | None -> fail "%s: every key routed to the sick shard" what);
    if (SD.stats db).Pmem.Stats.unavailable_rejections = 0 then
      fail "%s: probes ticked no unavailable_rejections" what
  in
  (* (c): the end state after repair — either all-Healthy with full
     byte-identity, or a retired (evacuated) shard with every survivor
     served exactly once *)
  let converged what db ~sick =
    (match SD.check db with
     | Ok () -> ()
     | Error e -> fail "%s: check: %s" what e);
    match SD.health db sick with
    | Kv.Sharded_db.Healthy ->
      for i = 0 to nkeys - 1 do
        let k = key i in
        if SD.get db k <> SD.get control k then
          fail "%s: repaired store diverged at %s" what k
      done
    | Kv.Sharded_db.Quarantined (Kv.Sharded_db.Evacuated { target }) -> (
      for s = 0 to SD.route_slots db - 1 do
        if SD.shard_of_slot db s = sick then
          fail "%s: slot %d still routed to the evacuated shard" what s
      done;
      (match SD.health db target with
       | Kv.Sharded_db.Healthy -> ()
       | _ -> fail "%s: evacuation target %d is not healthy" what target);
      let seen = Hashtbl.create 64 in
      SD.iter db (fun k _ ->
          if Hashtbl.mem seen k then fail "%s: scan served %s twice" what k;
          Hashtbl.replace seen k ());
      for i = 0 to nkeys - 1 do
        let k = key i in
        match SD.get db k with
        | Some v ->
          if Some v <> SD.get control k then
            fail "%s: survivor %s diverged" what k;
          if not (Hashtbl.mem seen k) then
            fail "%s: get serves %s but the scan missed it" what k
        | None ->
          (* lost to the rotten line: acceptable only for a key that
             lived on the evacuated shard *)
          if SD.shard_of_key control k <> sick then
            fail "%s: lost healthy-shard key %s" what k;
          if Hashtbl.mem seen k then
            fail "%s: scan serves the dropped key %s" what k
        | exception e ->
          fail "%s: %s raised %s after evacuation" what k
            (Printexc.to_string e)
      done;
      (* a write to a formerly-sick key lands on the adopting shard *)
      let k = key 0 in
      SD.put db k "post-evac";
      if SD.get db k <> Some "post-evac" then
        fail "%s: post-evacuation write lost" what;
      match SD.get control k with
      | Some v -> SD.put db k v
      | None -> ignore (SD.delete db k : bool))
    | _ -> fail "%s: repair did not converge (shard %d still sick)" what sick
  in
  for round = 1 to rounds do
    let salt = round * 31 in
    let sick = sick_of round in
    (* (A) degraded shard with a snapshot on disk: restore, all-Healthy *)
    let rs, db = fresh () in
    let base =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "crashtest-quarantine-%d-%d" seed round)
    in
    SD.save_to_files db base;
    rot db rs sick;
    crash_all rs (pick_policy salt);
    let db = SD.open_db ~initial_buckets:8 rs in
    let what = Printf.sprintf "round %d restore" round in
    availability what db ~sick;
    let outcomes = SD.repair ~seed:(seed + salt) ~snapshot_base:base db in
    (match List.assoc_opt sick outcomes with
     | Some SD.Snapshot_restored -> incr restores
     | Some SD.Scrub_repaired -> ()
     | o ->
       fail "%s: repair returned %s" what
         (match o with
          | None -> "no verdict for the sick shard"
          | Some (SD.Evacuated_keys _) -> "an evacuation, snapshot ignored"
          | _ -> "Unrepaired"));
    converged what db ~sick;
    Array.iteri
      (fun i _ ->
        let path = Pmem.Region.shard_snapshot_path base ~shard:i in
        if Sys.file_exists path then Sys.remove path)
      rs;
    (* (B) same damage, no snapshot: the supervisor evacuates *)
    let rs, db = fresh () in
    rot db rs sick;
    crash_all rs (pick_policy (salt + 7));
    let db = SD.open_db ~initial_buckets:8 rs in
    let what = Printf.sprintf "round %d evacuate" round in
    availability what db ~sick;
    (match List.assoc_opt sick (SD.repair ~seed:(seed + salt + 1) db) with
     | Some (SD.Evacuated_keys { target = _; moved }) ->
       incr evacs;
       let st = SD.stats db in
       if st.Pmem.Stats.shards_evacuated = 0 then
         fail "%s: shards_evacuated did not tick" what;
       if st.Pmem.Stats.keys_evacuated <> moved then
         fail "%s: keys_evacuated=%d but the verdict moved %d" what
           st.Pmem.Stats.keys_evacuated moved
     | Some SD.Scrub_repaired -> ()
     | Some SD.Snapshot_restored ->
       fail "%s: restored without a snapshot" what
     | Some (SD.Unrepaired _) | None ->
       fail "%s: supervisor gave up on an evacuable shard" what);
    converged what db ~sick;
    if SD.pending_intents db <> 0 then
      fail "%s: records left hooked after evacuation" what;
    (* the retired verdict and the surviving keys are durable *)
    crash_all rs (pick_policy (salt + 9));
    let db = SD.open_db ~initial_buckets:8 rs in
    converged (what ^ " reopened") db ~sick;
    (* (C) kill a region at the sharded.health.* failpoints, then rerun *)
    let rs, db = fresh () in
    rot db rs sick;
    crash_all rs (pick_policy (salt + 11));
    (* c1: crash while open_db files the shard's verdict (the kill takes
       out shard 0, the anchor the verdict is being persisted to) *)
    Fault.arm "sharded.health.degraded" (fun () -> Pmem.Region.kill rs.(0));
    let db =
      match SD.open_db ~initial_buckets:8 rs with
      | db ->
        Fault.disarm ();
        db
      | exception Pmem.Region.Crash_point ->
        incr crashes;
        Fault.disarm ();
        crash_all rs (pick_policy (salt + 12));
        SD.open_db ~initial_buckets:8 rs
    in
    availability (Printf.sprintf "round %d health crash" round) db ~sick;
    (* c2/c3: crash before the evacuation copies anything durable, or
       after its epoch flip but before reclamation *)
    let site =
      if round mod 2 = 0 then "sharded.health.evacuate_start"
      else "sharded.health.evacuated"
    in
    let victim = Workload.Keygen.int rng nshards in
    Fault.arm site (fun () -> Pmem.Region.kill rs.(victim));
    (match SD.repair ~seed:(seed + salt + 2) db with
     | (_ : (int * SD.repair_outcome) list) -> Fault.disarm ()
     | exception Pmem.Region.Crash_point ->
       incr crashes;
       incr rec_crashes;
       Fault.disarm ());
    crash_all rs (pick_policy (salt + 13));
    let db = SD.open_db ~initial_buckets:8 rs in
    let what = Printf.sprintf "round %d %s" round site in
    (match SD.health db sick with
     | Kv.Sharded_db.Healthy -> fail "%s: reopen lost the verdict" what
     | Kv.Sharded_db.Quarantined (Kv.Sharded_db.Evacuated _) ->
       (* the flip landed before the kill; recovery finished the job *)
       ()
     | _ -> (
       (* nothing durable yet: the rerun must converge *)
       match
         List.assoc_opt sick (SD.repair ~seed:(seed + salt + 3) db)
       with
       | Some (SD.Evacuated_keys _) | Some SD.Scrub_repaired -> ()
       | _ -> fail "%s: rerun repair did not converge" what));
    converged what db ~sick;
    if SD.pending_intents db <> 0 then
      fail "%s: records left hooked after a crashed repair" what;
    if verbose then
      Printf.printf "  ... %d/%d rounds, %d crashes (%d during repair)\n%!"
        round rounds !crashes !rec_crashes
  done;
  if !restores = 0 then fail "snapshot-restore path never exercised";
  if !evacs = 0 then fail "evacuation path never exercised";
  { rounds;
    crashes = !crashes;
    recovery_crashes = !rec_crashes;
    failures = !failures }

(* ---- group-commit front-end campaign ---- *)

(* Crash campaign for the async group-commit front-end (Group_commit):
   per round and per ack mode (Sync / Batch_sync / Async, window 4 so a
   short stream spans several drain windows), a stream of single-key
   puts runs with an instruction trap armed on a random shard's region,
   then the machine powers off under the selected --policy and the raw
   sharded store is reopened.  The oracle: every entry below the
   front-end's durability watermark (read after the crash — the
   watermark only advances once a window's engine transaction has
   committed) must survive with its exact value, the survivors on every
   shard queue must form a clean prefix of the submission order (a
   window settles as one engine transaction, so a lost entry can never
   be followed by a durable one), and no key may ever come back torn.
   In Sync mode every put that returned is below the watermark, which
   is the "acked-Sync writes survive any crash" guarantee.  Cross-shard
   batches get the same treatment on the cross queue, plus a clean-path
   determinism check per round: three batches submitted back-to-back
   must settle as ONE shared intent (one coordinator flip, two merged
   intents) in the deferred-ack modes and as three separate flips under
   per-tx Sync. *)
let run_group_campaign (module P : PTM) ~nshards ~rounds ~seed ~verbose
    ~policy =
  let module SD = Kv.Sharded_db.Make (P) in
  let module F = Kv.Group_commit.Make (P) in
  let rng = Workload.Keygen.create ~seed () in
  let failures = ref [] in
  let crashes = ref 0 in
  let rec_crashes = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let pick_policy salt =
    match policy with
    | `Drop -> Pmem.Region.Drop_all
    | `Keep -> Pmem.Region.Keep_all
    | `Random -> Pmem.Region.Random_subset (seed + salt)
    | `Torn -> Pmem.Region.Torn_words (seed + salt)
    | `Mix -> (
      match Workload.Keygen.int rng 4 with
      | 0 -> Pmem.Region.Drop_all
      | 1 -> Pmem.Region.Keep_all
      | 2 -> Pmem.Region.Torn_words (seed + salt)
      | _ -> Pmem.Region.Random_subset (seed + salt))
  in
  let base_key i = Printf.sprintf "base%02d" i in
  let skey i = Printf.sprintf "g%03d" i in
  let crash_all rs p = Array.iter (fun r -> Pmem.Region.crash r p) rs in
  let window = 4 in
  let modes =
    [ ("sync", Kv.Group_commit.Sync);
      ("batch", Kv.Group_commit.Batch_sync { txs = 3; bytes = 1 lsl 16 });
      ("async", Kv.Group_commit.Async) ]
  in
  let fresh () =
    let rs =
      Array.init nshards (fun _ -> Pmem.Region.create ~size:(1 lsl 19) ())
    in
    let db = SD.open_db ~initial_buckets:8 rs in
    for i = 0 to 7 do
      SD.put db (base_key i) "settled"
    done;
    (rs, db)
  in
  (* Survivors of [subs] (submission order) must be a prefix no shorter
     than the durable floor, with exact values — never a torn or
     re-ordered suffix.  The floor is the queue's watermark minus its
     settled-with-failure entries: the watermark counts every settled
     entry, and on the dead region a whole window settles as failures,
     but everything that settled with a value committed its engine
     transaction before the power-off and must come back. *)
  let check_prefix what ~floor db subs =
    let n = Array.length subs in
    let rec cut i =
      if i >= n then n
      else if SD.get db (fst subs.(i)) = Some (snd subs.(i)) then cut (i + 1)
      else i
    in
    let c = cut 0 in
    if c < floor then
      fail "%s: %d entries durable before the crash but only %d survived"
        what floor c;
    for i = c to n - 1 do
      let k, _ = subs.(i) in
      match SD.get db k with
      | None -> ()
      | Some got ->
        fail "%s: suffix entry %s survived (%S) beyond the cut %d" what k
          got c
    done;
    for i = 0 to 7 do
      if SD.get db (base_key i) <> Some "settled" then
        fail "%s: lost settled key %s" what (base_key i)
    done
  in
  let reopen what rs =
    let db = SD.open_db ~initial_buckets:8 rs in
    (match SD.check db with
     | Ok () -> ()
     | Error e -> fail "%s: check: %s" what e);
    if SD.pending_intents db <> 0 then
      fail "%s: records left hooked after recovery" what;
    db
  in
  (* three keys on one shard and three on another, so every cross batch
     really spans two participants *)
  let cross_keys db =
    let probe i = Printf.sprintf "x%03d" i in
    let sa = SD.shard_of_key db (probe 0) in
    let rec collect i ~on n acc =
      if n = 0 then List.rev acc
      else if i > 999 then failwith "group campaign: key space too small"
      else if (SD.shard_of_key db (probe i) = sa) = on then
        collect (i + 1) ~on (n - 1) (probe i :: acc)
      else collect (i + 1) ~on n acc
    in
    (collect 0 ~on:true 3 [], collect 0 ~on:false 3 [])
  in
  for round = 1 to rounds do
    let salt = round * 37 in
    List.iteri
      (fun mi (mname, ack) ->
        let what = Printf.sprintf "round %d %s" round mname in
        (* (a) single-key stream crashed mid-drain.  [failed] counts the
           settled-with-failure entries per queue: deferred failures
           from {!F.failures} (retained when the drain raised) plus, in
           Sync mode, the raising put itself (its failure is answered
           to the submitter, never deferred). *)
        let rs, db = fresh () in
        let fe = F.attach ~window ~ack db in
        let t = Workload.Keygen.int rng nshards in
        let subs = Array.make nshards [] in
        let failed = Array.make (nshards + 1) 0 in
        let last_shard = ref 0 in
        Pmem.Region.set_trap rs.(t)
          (1 + Workload.Keygen.int rng 600);
        let stream () =
          for i = 0 to 23 do
            let k = skey i in
            let v = Printf.sprintf "sv%d-%d" round i in
            let s = SD.shard_of_key db k in
            subs.(s) <- (k, v) :: subs.(s);
            last_shard := s;
            F.put fe k v
          done;
          F.flush fe
        in
        (match stream () with
         | () -> Pmem.Region.clear_trap rs.(t)
         | exception Pmem.Region.Crash_point ->
           incr crashes;
           if ack = Kv.Group_commit.Sync then
             failed.(!last_shard) <- failed.(!last_shard) + 1);
        List.iter
          (fun (qi, _, _) -> failed.(qi) <- failed.(qi) + 1)
          (F.failures fe);
        let floors =
          Array.init nshards (fun s ->
              max 0 (F.watermark fe s - failed.(s)))
        in
        crash_all rs (pick_policy (salt + mi));
        let db = reopen (what ^ " stream") rs in
        for s = 0 to nshards - 1 do
          check_prefix
            (Printf.sprintf "%s stream shard %d" what s)
            ~floor:floors.(s) db
            (Array.of_list (List.rev subs.(s)))
        done;
        (* (b) clean cross-batch merge: the shared-intent determinism *)
        let _rs, db = fresh () in
        let fe = F.attach ~window ~ack db in
        let ka, kb = cross_keys db in
        let st0 = Pmem.Stats.snapshot (SD.stats db) in
        List.iteri
          (fun j (a, b') ->
            F.write_batch fe (fun db ->
                SD.put db a (Printf.sprintf "ca%d" j);
                SD.put db b' (Printf.sprintf "cb%d" j)))
          (List.combine ka kb);
        F.flush fe;
        let d = Pmem.Stats.since ~now:(SD.stats db) ~past:st0 in
        let flips = d.Pmem.Stats.coordinator_flips in
        let merged = d.Pmem.Stats.merged_intents in
        (match ack with
         | Kv.Group_commit.Sync ->
           if flips <> 3 || merged <> 0 then
             fail "%s: per-tx sync batches flips=%d merged=%d (want 3/0)"
               what flips merged
         | _ ->
           if flips <> 1 || merged <> 2 then
             fail "%s: merged batches flips=%d merged=%d (want 1/2)" what
               flips merged);
        List.iteri
          (fun j (a, b') ->
            if SD.get db a <> Some (Printf.sprintf "ca%d" j)
               || SD.get db b' <> Some (Printf.sprintf "cb%d" j)
            then fail "%s: clean cross batch %d not applied" what j)
          (List.combine ka kb);
        (* (c) cross batches crashed mid-protocol: all-or-nothing per
           batch, prefix over the cross queue *)
        let rs, db = fresh () in
        let fe = F.attach ~window ~ack db in
        let ka, kb = cross_keys db in
        let t = Workload.Keygen.int rng nshards in
        Pmem.Region.set_trap rs.(t)
          (1 + Workload.Keygen.int rng 400);
        let run () =
          List.iteri
            (fun j (a, b') ->
              F.write_batch fe (fun db ->
                  SD.put db a (Printf.sprintf "ka%d-%d" round j);
                  SD.put db b' (Printf.sprintf "kb%d-%d" round j)))
            (List.combine ka kb);
          F.flush fe
        in
        let cross_failed = ref 0 in
        (match run () with
         | () -> Pmem.Region.clear_trap rs.(t)
         | exception Pmem.Region.Crash_point ->
           incr crashes;
           if ack = Kv.Group_commit.Sync then incr cross_failed);
        List.iter
          (fun (qi, _, _) -> if qi = nshards then incr cross_failed)
          (F.failures fe);
        let cfloor = max 0 (F.watermark fe nshards - !cross_failed) in
        crash_all rs (pick_policy (salt + mi + 5));
        let db = reopen (what ^ " cross") rs in
        let applied =
          List.mapi
            (fun j (a, b') ->
              let ga = SD.get db a = Some (Printf.sprintf "ka%d-%d" round j)
              and gb =
                SD.get db b' = Some (Printf.sprintf "kb%d-%d" round j)
              in
              if ga <> gb then
                fail "%s: cross batch %d half-applied" what j;
              ga && gb)
            (List.combine ka kb)
        in
        let rec cut i = function
          | true :: rest -> cut (i + 1) rest
          | rest ->
            if List.mem true rest then
              fail "%s: cross suffix batch survived beyond the cut" what;
            i
        in
        let c = cut 0 applied in
        if c < cfloor then
          fail "%s: %d cross batches durable before the crash but only %d \
                survived"
            what cfloor c)
      modes;
    (* (d) crash the recovery of a crashed stream itself: reopening after
       a second power-off must converge to the same prefix contract *)
    let rs, db = fresh () in
    let fe = F.attach ~window ~ack:Kv.Group_commit.Async db in
    let t = Workload.Keygen.int rng nshards in
    Pmem.Region.set_trap rs.(t) (1 + Workload.Keygen.int rng 300);
    let subs = Array.make nshards [] in
    (match
       for i = 0 to 15 do
         let k = skey i in
         let v = Printf.sprintf "rv%d-%d" round i in
         let s = SD.shard_of_key db k in
         subs.(s) <- (k, v) :: subs.(s);
         F.put fe k v
       done;
       F.flush fe
     with
     | () -> Pmem.Region.clear_trap rs.(t)
     | exception Pmem.Region.Crash_point -> incr crashes);
    let failed = Array.make (nshards + 1) 0 in
    List.iter
      (fun (qi, _, _) -> failed.(qi) <- failed.(qi) + 1)
      (F.failures fe);
    let floors =
      Array.init nshards (fun s -> max 0 (F.watermark fe s - failed.(s)))
    in
    crash_all rs (pick_policy (salt + 23));
    let u = Workload.Keygen.int rng nshards in
    Pmem.Region.set_trap rs.(u) (1 + Workload.Keygen.int rng 60);
    let db =
      match SD.open_db ~initial_buckets:8 rs with
      | db ->
        Pmem.Region.clear_trap rs.(u);
        db
      | exception Pmem.Region.Crash_point ->
        incr rec_crashes;
        crash_all rs (pick_policy (salt + 29));
        reopen (Printf.sprintf "round %d rec-crash" round) rs
    in
    for s = 0 to nshards - 1 do
      check_prefix
        (Printf.sprintf "round %d rec-crash shard %d" round s)
        ~floor:floors.(s) db
        (Array.of_list (List.rev subs.(s)))
    done;
    if verbose then
      Printf.printf "  ... %d/%d rounds, %d crashes (%d during recovery)\n%!"
        round rounds !crashes !rec_crashes
  done;
  { rounds;
    crashes = !crashes;
    recovery_crashes = !rec_crashes;
    failures = !failures }

(* ---- command line ---- *)

let ptm_arg =
  let doc = "PTM to test: rom, romL, romLR, mne, pmdk, or all." in
  Arg.(value & opt string "all" & info [ "ptm" ] ~docv:"PTM" ~doc)

let workload_arg =
  let doc = "Workload: list, tree, map, or all." in
  Arg.(value & opt string "all" & info [ "workload" ] ~docv:"W" ~doc)

let rounds_arg =
  let doc = "Rounds per campaign (each round runs 4 ops with a crash trap)." in
  Arg.(value & opt int 200 & info [ "rounds" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let policy_arg =
  let doc =
    "Cache-line fate policy at each crash: drop (no unfenced line \
     persists), keep (every one does), random (per-line coin), torn \
     (per-8-byte-word coin — the torn-word adversary), or mix (rotate \
     through all of them)."
  in
  Arg.(
    value
    & opt (enum [ ("drop", `Drop); ("keep", `Keep); ("random", `Random);
                  ("torn", `Torn); ("mix", `Mix) ])
        `Mix
    & info [ "policy" ] ~docv:"POLICY" ~doc)

let recovery_crashes_arg =
  let doc =
    "Crash the recovery itself up to $(docv) levels deep after every \
     injected crash (recovery must be idempotent)."
  in
  Arg.(value & opt int 0 & info [ "recovery-crashes" ] ~docv:"K" ~doc)

let failpoint_arg =
  let doc =
    "Arm the named failpoint site instead of the instruction-counting \
     trap; see --list-failpoints for the registered names."
  in
  Arg.(
    value & opt (some string) None & info [ "failpoint" ] ~docv:"SITE" ~doc)

let inject_exn_arg =
  let doc =
    "Exception-injection mode: instead of crashing, every raise-capable \
     failpoint site reachable from the selected PTMs raises a typed \
     Fault.Injected, and each round asserts the abort contract (typed \
     error, aborted transaction invisible, allocator sound, recovery a \
     byte-level no-op, follow-up transaction from another thread slot \
     commits).  Combine with --failpoint to sweep a single site."
  in
  Arg.(value & flag & info [ "inject-exn" ] ~doc)

let scrub_arg =
  let doc =
    "Media-rot scrub campaign: inject silent corruption at rest into the \
     used persistent spans, restart, and require twin-copy PTMs to \
     recover byte-identical to an uncorrupted control while single-image \
     baselines surface every fault as a typed error.  Also crashes \
     inside the repair window (engine.scrub.* failpoints plus a trap \
     sweep) under every line-fate policy.  --rounds is the number of \
     seeds swept."
  in
  Arg.(value & flag & info [ "scrub" ] ~doc)

let rot_rates_arg =
  let doc =
    "Comma-separated per-line rot probabilities for the scrub campaign."
  in
  Arg.(
    value
    & opt string "0.002,0.01,0.05"
    & info [ "rot-rates" ] ~docv:"R1,R2,.." ~doc)

let shards_arg =
  let doc =
    "Sharded-store campaign over $(docv) hash shards (0 disables): crash \
     a cross-shard write batch under the presumed-abort commit protocol \
     with instruction traps on every shard, failpoint kills of the \
     coordinator's region after a participant's mirror+apply (expect \
     presumed abort), after the COMMIT flip (expect roll-forward) and \
     inside the lazy-CLEAR piggyback of a second batch (the first must \
     stay applied), a crash inside the parallel recovery fan-out, and \
     a crash inside recovery's mirror-resolution loop (reconciliation \
     must converge when crashed and rerun), resolving each power-off \
     under the selected --policy.  The oracle requires every batch to \
     be all-or-nothing.  --rounds is the number of seeds swept."
  in
  Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N" ~doc)

let chunked_arg =
  let doc =
    "With --shards, drive the chunked intent-streaming campaign instead: \
     stores run with deliberately small chunk/spill knobs so every \
     cross-shard PREPARE streams a multi-chunk CRC-protected mirror \
     chain and spills its undo images, and the windows kill mid-chain, \
     at a spill, in the seal window (a complete but unsealed chain is \
     presumed-abort garbage), after the coordinator flip (roll-forward \
     with parked chains), and inside recovery's chain GC itself."
  in
  Arg.(value & flag & info [ "chunked" ] ~doc)

let quarantine_arg =
  let doc =
    "With --shards (>= 2), drive the fault-isolation campaign instead: \
     rot both twins of a line inside one shard of a settled store at \
     rest, reopen, and require every healthy slot to serve \
     byte-identical to an undamaged control while the operations the \
     sick shard's verdict forbids fail with the typed Shard_unavailable \
     naming that shard — never a wrong value, never a leaked abort.  \
     Repair must converge: snapshot restore back to all-Healthy when a \
     snapshot exists, evacuation of every salvageable key exactly once \
     otherwise, with kills at the sharded.health.* failpoints (inside \
     open's classification and both evacuation windows) crash-resolved \
     under --policy and rerun to the same end state."
  in
  Arg.(value & flag & info [ "quarantine" ] ~doc)

let migrate_arg =
  let doc =
    "With --shards (>= 2), drive the elastic-sharding migration campaign \
     instead: every round crashes an online shard split/merge with \
     instruction traps on every region (the split's freshly-formatted \
     target included), failpoint kills inside each sharded.migrate.* \
     window (intent open, after a move batch's source and target \
     transactions, after the epoch flip, after reclamation), a second \
     crash inside recovery's migration resume, and a racing single-key \
     write fired between the two halves of a move batch.  The oracle \
     requires every key present exactly once after recovery, the raced \
     key at the racing value, and a durable intent to always complete \
     (resume, never roll back)."
  in
  Arg.(value & flag & info [ "migrate" ] ~doc)

let group_arg =
  let doc =
    "With --shards (>= 2), drive the async group-commit front-end \
     campaign instead: streams of single-key puts and cross-shard \
     batches run through the Group_commit submission queues in every \
     ack mode (per-tx Sync, Batch_sync, Async; window 4), crashed with \
     instruction traps mid-drain and during recovery, each power-off \
     resolved under --policy.  The oracle: every entry below the \
     durability watermark survives with its exact value (in Sync mode \
     that is every acknowledged write), survivors on every queue form \
     a clean prefix of submission order — a loss is always a watermark \
     suffix, never a torn or re-ordered one — and three back-to-back \
     cross batches settle as ONE shared intent (one coordinator flip, \
     two merged intents) in the deferred-ack modes versus three flips \
     under per-tx Sync."
  in
  Arg.(value & flag & info [ "group" ] ~doc)

let list_failpoints_arg =
  let doc =
    "Print every registered failpoint site (raise-capable ones marked) \
     and exit."
  in
  Arg.(value & flag & info [ "list-failpoints" ] ~doc)

let verbose_arg =
  let doc = "Progress output." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let main ptm workload rounds seed policy recovery_crashes failpoint
    inject_exn scrub rot_rates_str nshards chunked quarantine migrate group
    list_failpoints verbose =
  if list_failpoints then begin
    List.iter
      (fun s ->
        if Fault.can_raise s then Printf.printf "%s  [raise-capable]\n" s
        else print_endline s)
      (Fault.sites ());
    exit 0
  end;
  (match failpoint with
   | Some site when not (Fault.is_site site) ->
     Printf.eprintf "unknown failpoint %S; registered sites:\n" site;
     List.iter (Printf.eprintf "  %s\n") (Fault.sites ());
     exit 2
   | _ -> ());
  let selected_ptms =
    if ptm = "all" then ptms
    else
      match List.assoc_opt ptm ptms with
      | Some m -> [ (ptm, m) ]
      | None -> failwith ("unknown PTM " ^ ptm)
  in
  let workloads =
    match workload with
    | "all" -> [ ("list", `List); ("tree", `Tree); ("map", `Map) ]
    | "list" -> [ ("list", `List) ]
    | "tree" -> [ ("tree", `Tree) ]
    | "map" -> [ ("map", `Map) ]
    | w -> failwith ("unknown workload " ^ w)
  in
  if migrate && nshards < 2 then begin
    Printf.eprintf "--migrate needs --shards >= 2 (a 1-shard store has no \
                    pre-pinned routing table to resume from)\n";
    exit 2
  end;
  if quarantine && nshards < 2 then begin
    Printf.eprintf "--quarantine needs --shards >= 2 (quarantining the \
                    only shard leaves nothing to keep serving)\n";
    exit 2
  end;
  if group && nshards < 2 then begin
    Printf.eprintf "--group needs --shards >= 2 (the cross-queue merge \
                    needs at least two participants)\n";
    exit 2
  end;
  let failed = ref false in
  if nshards > 0 then
    (* the sharded campaign has its own cross-shard workload; the
       --workload selection does not apply *)
    List.iter
      (fun (pname, m) ->
        let o =
          if group then begin
            Printf.printf "%-6s x %d-shard group-commit: %!" pname nshards;
            run_group_campaign m ~nshards ~rounds ~seed ~verbose ~policy
          end
          else if migrate then begin
            Printf.printf "%-6s x %d-shard elastic-migrate: %!" pname nshards;
            run_migrate_campaign m ~nshards ~rounds ~seed ~verbose ~policy
          end
          else if quarantine then begin
            Printf.printf "%-6s x %d-shard fault-isolation: %!" pname nshards;
            run_quarantine_campaign m ~nshards ~rounds ~seed ~verbose ~policy
          end
          else if chunked then begin
            Printf.printf "%-6s x %d-shard chunked-stream: %!" pname nshards;
            run_chunked_campaign m ~nshards ~rounds ~seed ~verbose ~policy
          end
          else begin
            Printf.printf "%-6s x %d-shard presumed-abort: %!" pname nshards;
            run_sharded_campaign m ~nshards ~rounds ~seed ~verbose ~policy
          end
        in
        if o.failures = [] then
          Printf.printf "OK (%d seeds, %d crash-recoveries, %d crashes \
                         inside recovery)\n%!"
            o.rounds o.crashes o.recovery_crashes
        else begin
          failed := true;
          Printf.printf "FAILED (%d issues)\n" (List.length o.failures);
          List.iter (fun f -> Printf.printf "    %s\n" f) o.failures
        end)
      selected_ptms
  else if scrub then begin
    let rot_rates =
      try
        List.map float_of_string
          (List.filter
             (fun s -> s <> "")
             (String.split_on_char ',' rot_rates_str))
      with Failure _ ->
        Printf.eprintf "unparsable --rot-rates %S\n" rot_rates_str;
        exit 2
    in
    if rot_rates = [] then begin
      Printf.eprintf "--rot-rates must name at least one rate\n";
      exit 2
    end;
    List.iter
      (fun (pname, m) ->
        List.iter
          (fun (wname, w) ->
            Printf.printf "%-6s x %-5s x scrub: %!" pname wname;
            let o =
              run_scrub_campaign m ~workload:w ~rounds ~seed ~verbose
                ~rot_rates
            in
            if o.failures = [] then
              Printf.printf
                "OK (%d seeds x %d rates, %d lines repaired, %d \
                 repair-window crashes)\n%!"
                o.rounds (List.length rot_rates) o.crashes
                o.recovery_crashes
            else begin
              failed := true;
              Printf.printf "FAILED (%d issues)\n" (List.length o.failures);
              List.iter (fun f -> Printf.printf "    %s\n" f) o.failures
            end)
          workloads)
      selected_ptms
  end
  else if inject_exn then
    (* exception-injection sweep: PTMs x workloads x raise-capable sites *)
    let sweep_sites =
      match failpoint with
      | Some site ->
        if not (Fault.can_raise site) then begin
          Printf.eprintf "site %S is not raise-capable; sweepable sites:\n"
            site;
          List.iter (Printf.eprintf "  %s\n") (Fault.raise_sites ());
          exit 2
        end;
        [ site ]
      | None -> Fault.raise_sites ()
    in
    List.iter
      (fun (pname, m) ->
        List.iter
          (fun (wname, w) ->
            List.iter
              (fun site ->
                if site_applicable ~ptm:pname site then begin
                  Printf.printf "%-6s x %-5s x %-28s: %!" pname wname site;
                  let o =
                    run_inject_campaign m ~workload:w ~rounds ~seed ~verbose
                      ~site
                  in
                  if o.failures = [] then
                    Printf.printf "OK (%d rounds, %d injected aborts)\n%!"
                      o.rounds o.crashes
                  else begin
                    failed := true;
                    Printf.printf "FAILED (%d issues)\n"
                      (List.length o.failures);
                    List.iter (fun f -> Printf.printf "    %s\n" f) o.failures
                  end
                end)
              sweep_sites)
          workloads)
      selected_ptms
  else
    List.iter
      (fun (pname, m) ->
        List.iter
          (fun (wname, w) ->
            Printf.printf "%-6s x %-5s: %!" pname wname;
            let o =
              run_campaign m ~workload:w ~rounds ~seed ~verbose ~policy
                ~recovery_crashes ~failpoint
            in
            if o.failures = [] then begin
              Printf.printf "OK (%d rounds, %d crash-recoveries" o.rounds
                o.crashes;
              if o.recovery_crashes > 0 then
                Printf.printf ", %d crashes inside recovery"
                  o.recovery_crashes;
              Printf.printf ")\n%!"
            end
            else begin
              failed := true;
              Printf.printf "FAILED (%d issues)\n" (List.length o.failures);
              List.iter (fun f -> Printf.printf "    %s\n" f) o.failures
            end)
          workloads)
      selected_ptms;
  if !failed then exit 1

let cmd =
  let doc = "crash-injection campaigns against the Romulus PTMs" in
  let info = Cmd.info "crashtest" ~doc in
  Cmd.v info
    Term.(const main $ ptm_arg $ workload_arg $ rounds_arg $ seed_arg
          $ policy_arg $ recovery_crashes_arg $ failpoint_arg
          $ inject_exn_arg $ scrub_arg $ rot_rates_arg $ shards_arg
          $ chunked_arg $ quarantine_arg $ migrate_arg $ group_arg
          $ list_failpoints_arg $ verbose_arg)

let () =
  Printexc.register_printer (function
    | Kv.Sharded_db.Shard_open_failed { shard; cause } ->
      Some
        (Printf.sprintf "Sharded_db.Shard_open_failed { shard = %d; cause = %s }"
           shard (Printexc.to_string cause))
    | Kv.Sharded_db.Shard_unavailable { shard; _ } ->
      Some (Printf.sprintf "Sharded_db.Shard_unavailable { shard = %d }" shard)
    | _ -> None);
  exit (Cmd.eval cmd)
