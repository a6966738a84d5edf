(* What every part of the sharded store shares (Sharded_db re-exports
   the public part) and, in [Make], the one record kept per shard with
   its availability gates and the generic record helpers. *)

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
   per-shard snapshot-load failure, [recover_shard] its engine's, and
   shard 0 — fatal, because it anchors routing and health — its open
   failure. *)
exception Shard_open_failed of { shard : int; cause : exn }

(* ---- reserved root slots ----

   [db_root] anchors each shard's map, as in Romulus_db.  The others sit
   far from it, and none is touched before the first cross-shard batch
   or resize, so a 1-shard store stays bit-for-bit identical to
   Romulus_db.  [intent_slot] held the retired centralized protocol's
   batch record (shard 0); it stays reserved so the other slots keep
   their numbers, and a non-zero value is refused at open.
   [mirror_slot] and [flip_slot] head each shard's mirror and flip
   lists.  [route_slot] (shard 0) holds the persisted routing table;
   [mig_slot] (shard 0) the single migration intent record;
   [cursor_slot] (the migration source) the current move batch's
   CRC-protected cursor; [tomb_slot] (the migration target) anchors the
   tombstone map; [health_slot] (shard 0) the per-shard health record. *)
let db_root = 0
let intent_slot = Romulus.Ptm_intf.root_slots - 1
let mirror_slot = Romulus.Ptm_intf.root_slots - 2
let flip_slot = Romulus.Ptm_intf.root_slots - 3
let route_slot = Romulus.Ptm_intf.root_slots - 4
let mig_slot = Romulus.Ptm_intf.root_slots - 5
let cursor_slot = Romulus.Ptm_intf.root_slots - 6
let tomb_slot = Romulus.Ptm_intf.root_slots - 7
let health_slot = Romulus.Ptm_intf.root_slots - 8

(* ---- typed-backoff retry around [Overloaded] ----

   Deterministic: the sleep schedule is a pure function of
   [retries]/[base_ns]/[seed] (exponential growth, xorshift jitter), so
   tests can assert the exact schedule and crash campaigns stay
   reproducible.  Shared by the repair driver's scrub retries and
   exposed for clients whose cross-shard batches may be refused by
   admission control or by an in-flight migration window. *)
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

(* Call [attempt], and again after each wait of the schedule until [done_]
   accepts its result; the last attempt's result stands. *)
let retry_with_backoff ~retries ~base_ns ~seed ?(on_wait = fun _ -> ())
    ~done_ attempt =
  let rec go = function
    | [] -> attempt ()
    | wait :: rest ->
      let r = attempt () in
      if done_ r then r
      else begin
        on_wait wait;
        backoff_wait_ns wait;
        go rest
      end
  in
  go (overload_backoff_schedule ~retries ~base_ns ~seed)

let with_overload_retry ?(retries = default_overload_retries)
    ?(base_ns = default_overload_base_ns) ?(seed = 0) ?on_wait f =
  match
    retry_with_backoff ~retries ~base_ns ~seed ?on_wait
      ~done_:(function Ok _ -> true | Error _ -> false)
      (fun () -> try Ok (f ()) with Overloaded _ as e -> Error e)
  with
  | Ok v -> v
  | Error e -> raise e

(* Chunked mirror streaming: a mirror whose payload exceeds [chunk_bytes]
   is written as a linked chain of CRC-protected chunks, one engine
   transaction each, and only becomes meaningful when a final seal
   transaction flips the mirror's [sealed] word and applies the slice —
   unsealed chains are garbage-collected as presumed abort.  A shard's
   lazy-CLEAR queue is drained by a dedicated transaction once it holds
   [default_clear_flush_threshold] records. *)
let min_chunk_bytes = 128

let default_chunk_bytes = 16 * 1024
let default_admission_budget = 4 * 1024 * 1024
let default_clear_flush_threshold = 32

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

(* ---- record serialization (PTM-independent) ----

   All lengths are 64-bit little-endian; a value option carries a
   presence tag so "put empty string" and "delete" stay distinct. *)

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

module type SHARD_PTM = sig
  include Romulus.Ptm_intf.S

  val recover : t -> unit
  val recover_salvage : t -> (int * string) list
  val scrub : t -> Romulus.Engine.scrub_report
  val scrub_salvage : t -> Romulus.Engine.scrub_report
  val media_spans : t -> (int * int) list
  val allocator_check : t -> (unit, string) result
end

module Make (P : SHARD_PTM) = struct
  module Map_ = Str_hash_map.Make (P)

  (* A mounted shard engine and the store's map at [db_root]. *)
  type engine = { p : P.t; map : Map_.t }

  (* Everything the store keeps per shard.  Each mutable field has one
     writer: [region], [engine] and [health] belong to Shard_health, the
     lazy-CLEAR queues and the admission charge to Shard_commit. *)
  type t = {
    mutable region : Pmem.Region.t; (* always set, even when down *)
    (* [None] when the engine could not be opened or recovered *)
    mutable engine : engine option;
    mutable health : health;
    (* committed-batch mirrors awaiting a piggybacked unhook, as
       (mirror offset, batch id) *)
    mutable clear_mirrors : (int * int) list;
    (* flip offsets whose batches have no mirror left *)
    mutable clear_flips : int list;
    (* payload bytes of batches inside the commit protocol, charged by
       admission control (volatile by design: a crash empties the
       protocol) *)
    mutable in_flight : int;
  }

  (* The shards in index order — grown only by [attach] — and the
     sizing knobs fixed at open. *)
  type set = {
    mutable all : t array;
    initial_buckets : int;
    chunk_bytes : int;
    admission_budget : int;
  }

  let make region engine health =
    { region; engine; health; clear_mirrors = []; clear_flips = [];
      in_flight = 0 }

  (* Mount an engine over [region], with the store's map at [db_root]
     (created on a fresh region). *)
  let mount ~initial_buckets region =
    let p = P.open_region region in
    { p; map = Map_.open_or_create ~initial_buckets p ~root:db_root }

  (* Open a fresh region as the next shard index (formatting it under
     its own engine). *)
  let attach set region =
    let e = mount ~initial_buckets:set.initial_buckets region in
    set.all <- Array.append set.all [| make region (Some e) Healthy |];
    Array.length set.all - 1

  let count set = Array.length set.all
  let get set i = set.all.(i)

  (* Tick shard [i]'s counters through its region, so they attach to the
     right shard even when its engine is down. *)
  let tick set i f = f (Pmem.Region.stats set.all.(i).region)

  (* ---- availability gates ----

     [raw]: the engine, for protocol/recovery machinery that has already
     established the shard is reachable.  [live]: read availability
     (Healthy and Degraded serve reads; Degraded reads of an actually
     lost line still surface [Media_error] — damage is never silently
     blessed).  [rw]: write availability (Healthy only).  Each rejection
     is metered on the refusing shard and raises the typed
     {!Shard_unavailable} carrying that shard's verdict. *)

  let unavailable set i =
    tick set i (fun st ->
        st.Pmem.Stats.unavailable_rejections <-
          st.Pmem.Stats.unavailable_rejections + 1);
    let cause =
      match set.all.(i).health with
      | Degraded c | Quarantined c -> c
      | Healthy -> Open_failed "shard engine is not open"
    in
    raise (Shard_unavailable { shard = i; cause })

  let raw set i =
    match set.all.(i).engine with Some e -> e | None -> unavailable set i

  let live set i =
    match set.all.(i).health with
    | Healthy | Degraded _ -> raw set i
    | Quarantined _ -> unavailable set i

  let rw set i =
    match set.all.(i).health with
    | Healthy -> raw set i
    | Degraded _ | Quarantined _ -> unavailable set i

  (* The shard can participate in recovery-side reconciliation: its
     engine is open and it is not quarantined. *)
  let engine_up set i =
    let sh = set.all.(i) in
    Option.is_some sh.engine
    && (match sh.health with Quarantined _ -> false | _ -> true)

  let healthy set i =
    let sh = set.all.(i) in
    Option.is_some sh.engine && sh.health = Healthy

  (* Full scans drop an evacuated shard (its residual map is a stale
     duplicate of its target's keys) but refuse — typed, loudly — on any
     other quarantined shard: a scan must never silently miss keys. *)
  let scan set i =
    match set.all.(i).health with
    | Quarantined (Evacuated _) -> None
    | Healthy | Degraded _ -> Some (raw set i)
    | Quarantined _ -> unavailable set i

  let read_root set i slot =
    let p = (raw set i).p in
    P.read_tx p (fun () -> P.get_root p slot)

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

  (* the offsets of a linked list's records from [head] on, in list
     order (inside a tx) *)
  let list_offsets p head =
    let rec go acc off =
      if off = 0 then List.rev acc else go (off :: acc) (P.load p off)
    in
    go [] head

  (* swing root [slot] to the record [o] (or 0) and free the record it
     held (inside an update tx) *)
  let replace_root p slot o =
    let old = P.get_root p slot in
    P.set_root p slot o;
    if old <> 0 then P.free p old

  (* ---- CRC-sealed blob records ----

     A mirror chunk (next | len | crc | bytes) and the migration cursor
     (epoch | len | crc | 0 | bytes) share one layout past their first
     word: the byte length at [c_len], its CRC-32 at [c_crc], and the
     bytes after a header of [hdr] bytes whose remaining words are
     zero. *)

  let c_len = 8
  let c_crc = 16

  let record_error what msg =
    raise (Romulus.Engine.Recovery_error ("sharded " ^ what ^ ": " ^ msg))

  (* one unlinked blob record holding [bytes] behind the first word
     [first] (inside an update tx) *)
  let write_blob p ~hdr ~first bytes =
    let len = String.length bytes in
    let o = P.alloc p (hdr + len) in
    P.store p o first;
    P.store p (o + c_len) len;
    P.store p (o + c_crc) (Chunk.crc bytes);
    for w = 3 to (hdr / 8) - 1 do
      P.store p (o + (8 * w)) 0
    done;
    P.store_bytes p (o + hdr) bytes;
    o

  (* the blob record at [o] read back (inside a tx) as a {!Chunk.join}
     piece — its bytes and stored CRC — with the length checked against
     [max_len]; [join_blobs] verifies every piece's CRC and the total
     length.  Errors name the record kind [what]. *)
  let read_blob p ~hdr ~what ~max_len o =
    let len = P.load p (o + c_len) in
    if len < 0 || len > max_len then record_error what "length out of range";
    let stored = P.load p (o + c_crc) in
    (P.load_bytes p (o + hdr) len, stored)

  let join_blobs ~what ~expect_len pieces =
    match Chunk.join ~expect_len pieces with
    | Ok payload -> payload
    | Error msg -> record_error what msg

  (* refresh the CRC of the blob at [o] after an in-place edit (in tx) *)
  let refresh_crc p ~hdr o =
    let bytes = P.load_bytes p (o + hdr) (P.load p (o + c_len)) in
    P.store p (o + c_crc) (Chunk.crc bytes)
end
