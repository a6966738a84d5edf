(* The benchmark's workloads, written once over a PTM wrapper (see
   [Shim]) and instantiated twice: over [Shim.Capture] for the untraced
   run and over [Shim.Traced] for the traced one.

   Every workload uses 16-byte [Keygen.level_key] keys, 100-byte values,
   uniform keys, the [Fence.dram] profile (no injected delay: fence cost
   shows only as a count) and closed-loop clients.  Each keeps a model of
   the writes it has seen acknowledged; [verify] compares the store with
   it key by key after the benchmark has crashed and reopened the
   regions. *)

let key_bytes = 16
let value_bytes = 100

type workload = Kv_update | Kv_read_2d | Shard_group

let workloads =
  [ ("kv_update", Kv_update); ("kv_read_2d", Kv_read_2d);
    ("shard_group", Shard_group) ]

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then
      v.a <- Array.append v.a (Array.make (max 4096 v.n) 0);
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let clear v =
    v.a <- [||];
    v.n <- 0

  let concat vs =
    let a = Array.concat (List.map (fun v -> Array.sub v.a 0 v.n) vs) in
    { a; n = Array.length a }
end

(* Per-client counters of one measured phase.  Latencies are in ns. *)
type client = {
  reads : Vec.t;
  writes : Vec.t;
  mutable ops : int;       (* attempted, including failed *)
  mutable failed : int;    (* raised or refused *)
  mutable bad : int;       (* reads that contradict the model *)
  mutable error : string;  (* first failure or contradiction *)
  mutable gets : int;
  mutable get_loads : int; (* region loads during gets (traced only) *)
  mutable cross : int;     (* cross-shard batches issued *)
  mutable depth_sum : int; (* group-commit queue depth before each op (traced only) *)
}

let new_client () =
  { reads = Vec.create (); writes = Vec.create (); ops = 0; failed = 0;
    bad = 0; error = ""; gets = 0; get_loads = 0; cross = 0; depth_sum = 0 }

let note c msg = if c.error = "" then c.error <- msg

let fail c e =
  c.failed <- c.failed + 1;
  note c ("operation raised " ^ Printexc.to_string e)

let contradict c msg =
  c.bad <- c.bad + 1;
  note c msg

(* When a phase ends: at a deadline, or after a number of ops per client. *)
type stop = Until of int | Ops of int

let going stop c last =
  match stop with Until d -> last < d | Ops n -> c.ops < n

type phase = {
  clients : client array;
  elapsed_ns : int;
  stats : Pmem.Stats.t;  (* counters accumulated over the phase, all regions *)
}

type store = {
  regions : Pmem.Region.t array;
  run : [ `Seconds of float | `Ops of int ] -> traced:bool -> round:int -> phase;
  space_amp : unit -> float;
  reopen : unit -> unit;  (* open_db over the (crashed) regions *)
  verify : unit -> string option;  (* first disagreement with the model *)
}

(* A 100-byte value for key [i] at version [ver].  Its first 16 bytes
   name both, so a reader can tell whose write it saw; the rest is a
   seeded filler. *)
let filler_len = 64 + value_bytes - 16

let make_value filler i ver =
  let b = Bytes.create value_bytes in
  Bytes.blit_string (Printf.sprintf "%08d%08d" i ver) 0 b 0 16;
  Bytes.blit_string filler ((i + ver) land 63) b 16 (value_bytes - 16);
  Bytes.unsafe_to_string b

let version_of v = int_of_string_opt (String.sub v 8 8)

let loads regions =
  Array.fold_left (fun a r -> a + (Pmem.Region.stats r).Pmem.Stats.loads) 0 regions

let stats_of regions =
  Pmem.Stats.aggregate (Array.to_list (Array.map Pmem.Region.stats regions))

(* Run [clients] closed-loop clients, client 0 on the calling domain and
   the others on fresh domains, all released at once. *)
let run_clients ~regions ~clients limit body =
  let states = Array.init clients (fun _ -> new_client ()) in
  let go = Atomic.make false in
  let stop = ref (Ops 0) in
  let client c () =
    Sync_prims.Tid.with_slot (fun _ ->
        while not (Atomic.get go) do Domain.cpu_relax () done;
        body c !stop states.(c))
  in
  let doms = List.init (clients - 1) (fun c -> Domain.spawn (client (c + 1))) in
  let s0 = Pmem.Stats.snapshot (stats_of regions) in
  let t0 = Trace.now () in
  (stop :=
     match limit with
     | `Seconds s -> Until (t0 + int_of_float (s *. 1e9))
     | `Ops n -> Ops n);
  Atomic.set go true;
  client 0 ();
  List.iter Domain.join doms;
  (states, t0, s0)

let finish ~regions (states, t0, s0) =
  let elapsed_ns = Trace.now () - t0 in
  { clients = states; elapsed_ns;
    stats = Pmem.Stats.since ~now:(stats_of regions) ~past:s0 }

(* The op stream of client [c] in measured round [round]. *)
let client_seed ~seed ~round c = (seed * 7919) + (round * 104729) + c + 1

let fresh_region size = Pmem.Region.create ~fence:Pmem.Fence.dram ~size ()

module Make (P : Shim.S) = struct
  module Db = Kv.Romulus_db.Make (P)
  module Sd = Kv.Sharded_db.Make (P)
  module Front = Kv.Group_commit.Make (P)

  let open_traced f = Trace.with_span Trace.Open_db f

  (* Twice each engine's used span (main and back), per live user byte. *)
  let space_amp ~keys () =
    let used =
      List.fold_left
        (fun a h -> a + (2 * Romulus.Engine.used_span (P.engine h)))
        0 (P.opened ())
    in
    float_of_int used /. float_of_int (keys * (key_bytes + value_bytes))

  (* RomulusDB with [clients] clients.  Client [c] writes only the keys
     [i] with [i mod clients = c] and reads all of them, so it knows the
     exact value of its own keys and checks that the versions it sees of
     the others never go back. *)
  let kv ~keys ~clients ~put_pct ~region_size ~seed =
    let rng = Workload.Keygen.create ~seed () in
    let filler = Workload.Keygen.value rng filler_len in
    let region = fresh_region region_size in
    let regions = [| region |] in
    P.forget ();
    let db = ref (Db.open_db region) in
    let key = Array.init keys Workload.Keygen.level_key in
    let model = Array.init keys (fun i -> make_value filler i 0) in
    Array.iteri (fun i v -> Db.put !db key.(i) v) model;
    let body traced round c stop st =
      let rng = Workload.Keygen.create ~seed:(client_seed ~seed ~round c) () in
      let seen = Array.make keys 0 in
      let own = (keys - c + clients - 1) / clients in
      let last = ref 0 in
      while going stop st !last do
        if Workload.Keygen.int rng 100 < put_pct then begin
          let i = (Workload.Keygen.int rng own * clients) + c in
          let ver = (match version_of model.(i) with Some v -> v | None -> 0) + 1 in
          let v = make_value filler i ver in
          let t0 = Trace.now () in
          let id = Trace.open_at Trace.Op_put t0 in
          (match Db.put !db key.(i) v with
           | () ->
             let t1 = Trace.now () in
             Trace.close_at id t1;
             last := t1;
             Vec.push st.writes (t1 - t0);
             model.(i) <- v
           | exception e ->
             last := Trace.now ();
             Trace.close_at id !last;
             fail st e)
        end
        else begin
          let i = Workload.Keygen.int rng keys in
          let l0 = if traced then loads regions else 0 in
          let t0 = Trace.now () in
          let id = Trace.open_at Trace.Op_get t0 in
          match Db.get !db key.(i) with
          | r ->
            let t1 = Trace.now () in
            Trace.close_at id t1;
            last := t1;
            Vec.push st.reads (t1 - t0);
            st.gets <- st.gets + 1;
            if traced then st.get_loads <- st.get_loads + loads regions - l0;
            (match r with
             | Some v when i mod clients = c ->
               if not (String.equal v model.(i)) then
                 contradict st (Printf.sprintf "get %d: not the value last written" i)
             | Some v -> (
               match version_of v with
               | Some ver
                 when ver >= seen.(i) && String.equal v (make_value filler i ver) ->
                 seen.(i) <- ver
               | _ -> contradict st (Printf.sprintf "get %d: stale or foreign value" i))
             | None -> contradict st (Printf.sprintf "get %d: missing" i))
          | exception e ->
            last := Trace.now ();
            Trace.close_at id !last;
            fail st e
        end;
        st.ops <- st.ops + 1
      done
    in
    let run limit ~traced ~round =
      finish ~regions (run_clients ~regions ~clients limit (body traced round))
    in
    let reopen () =
      P.forget ();
      db := open_traced (fun () -> Db.open_db region)
    in
    let verify () =
      let bad = ref None in
      let err m = if !bad = None then bad := Some m in
      Array.iteri
        (fun i k ->
          match Db.get !db k with
          | Some v when String.equal v model.(i) -> ()
          | _ -> err (Printf.sprintf "key %d lost its acknowledged value" i))
        key;
      if Db.count !db <> keys then
        err (Printf.sprintf "%d keys, expected %d" (Db.count !db) keys);
      (match Db.check !db with Ok () -> () | Error m -> err m);
      !bad
    in
    { regions; run; space_amp = space_amp ~keys; reopen; verify }

  (* Sharded_db behind Group_commit with Batch_sync acks and one client.
     A write counts as done when the front-end's ack mark for its queue
     passes its sequence number; only then does it enter the model.  A
     key touched by a write that failed, or whose outcome is unknown,
     becomes loose: from then on any of its versions between the last
     acknowledged and the last submitted one is accepted. *)
  type pending = { q : int; seq : int; t0 : int; writes : (int * int) list }

  let group ~keys ~shards ~region_size ~seed =
    let rng = Workload.Keygen.create ~seed () in
    let filler = Workload.Keygen.value rng filler_len in
    let regions = Array.init shards (fun _ -> fresh_region region_size) in
    P.forget ();
    let sd = ref (Sd.open_db regions) in
    let key = Array.init keys Workload.Keygen.level_key in
    let acked = Array.make keys 0 in  (* acknowledged version per key *)
    let latest = Array.make keys 0 in  (* submitted version per key *)
    let loose = Array.make keys false in
    let drop writes = List.iter (fun (i, _) -> loose.(i) <- true) writes in
    (* Whether [v] may be key [i]'s value: once everything has settled
       ([exact]) the acknowledged version, while writes are in flight the
       last submitted one; for a loose key any version between the two. *)
    let holds ~exact i v =
      match v with
      | Some v when not loose.(i) ->
        String.equal v (make_value filler i (if exact then acked.(i) else latest.(i)))
      | Some v -> (
        match version_of v with
        | Some ver ->
          ver >= acked.(i) && ver <= latest.(i)
          && String.equal v (make_value filler i ver)
        | None -> false)
      | None -> false
    in
    Array.iteri (fun i k -> Sd.put !sd k (make_value filler i 0)) key;
    let attach db =
      Front.attach ~window:32
        ~ack:(Kv.Group_commit.Batch_sync { txs = 32; bytes = 64 * 1024 })
        db
    in
    let front = ref (attach !sd) in
    let body traced round c stop st =
      let front = !front in
      let rng = Workload.Keygen.create ~seed:(client_seed ~seed ~round c) () in
      let nq = Front.queues front in
      let cross_q = nq - 1 in
      let pend = Array.init nq (fun _ -> Queue.create ()) in
      let settle t1 =
        for q = 0 to nq - 1 do
          let pq = pend.(q) in
          if not (Queue.is_empty pq) then begin
            let mark = Front.acked front q in
            while (not (Queue.is_empty pq)) && (Queue.peek pq).seq < mark do
              let e = Queue.pop pq in
              if List.exists (fun (q', s, _) -> q' = q && s = e.seq)
                   (Front.failures front)
              then begin
                fail st (Failure "deferred write failed");
                drop e.writes
              end
              else begin
                Vec.push st.writes (t1 - e.t0);
                List.iter (fun (i, ver) -> acked.(i) <- max acked.(i) ver) e.writes
              end
            done
          end
        done
      in
      let bump i =
        latest.(i) <- latest.(i) + 1;
        (i, latest.(i))
      in
      let submit kind q writes f =
        let seq = Front.submitted front q in
        let t0 = Trace.now () in
        let id = Trace.open_at kind t0 in
        (match f () with
         | () -> Queue.push { q; seq; t0; writes } pend.(q)
         | exception e -> fail st e; drop writes);
        let t1 = Trace.now () in
        Trace.close_at id t1;
        t1
      in
      let last = ref 0 in
      while going stop st !last do
        if traced then st.depth_sum <- st.depth_sum + Front.pending front;
        let r = Workload.Keygen.int rng 100 in
        let t1 =
          if r < 70 then begin
            let i, ver = bump (Workload.Keygen.int rng keys) in
            let k = key.(i) and v = make_value filler i ver in
            submit Trace.Op_put (Sd.shard_of_key !sd k) [ (i, ver) ] (fun () ->
                Front.put front k v)
          end
          else if r < 95 then begin
            let i = Workload.Keygen.int rng keys in
            let l0 = if traced then loads regions else 0 in
            let t0 = Trace.now () in
            let id = Trace.open_at Trace.Op_get t0 in
            match Front.get front key.(i) with
            | got ->
              let t1 = Trace.now () in
              Trace.close_at id t1;
              Vec.push st.reads (t1 - t0);
              st.gets <- st.gets + 1;
              if traced then st.get_loads <- st.get_loads + loads regions - l0;
              if not (holds ~exact:false i got) then
                contradict st (Printf.sprintf "get %d: not the value last written" i);
              t1
            | exception e ->
              let t1 = Trace.now () in
              Trace.close_at id t1;
              fail st e;
              t1
          end
          else begin
            (* four distinct keys on at least two shards *)
            let rec pick acc =
              if List.length acc = 4 then
                let sh = List.map (fun i -> Sd.shard_of_key !sd key.(i)) acc in
                if List.for_all (( = ) (List.hd sh)) sh then pick [] else acc
              else
                let i = Workload.Keygen.int rng keys in
                pick (if List.mem i acc then acc else i :: acc)
            in
            let writes = List.map bump (pick []) in
            let kvs =
              List.map (fun (i, ver) -> (key.(i), make_value filler i ver)) writes
            in
            st.cross <- st.cross + 1;
            submit Trace.Op_batch cross_q writes (fun () ->
                Front.write_batch front (fun b ->
                    List.iter (fun (k, v) -> Sd.put b k v) kvs))
          end
        in
        settle t1;
        last := t1;
        st.ops <- st.ops + 1
      done;
      match Front.flush front with
      | () -> settle (Trace.now ())
      | exception e ->
        (* flush has dropped the failures its drain met, so the entries
           still pending may or may not have failed *)
        fail st e;
        Array.iter (fun pq -> Queue.iter (fun e -> drop e.writes) pq; Queue.clear pq) pend
    in
    let run limit ~traced ~round =
      finish ~regions (run_clients ~regions ~clients:1 limit (body traced round))
    in
    let reopen () =
      P.forget ();
      sd := open_traced (fun () -> Sd.open_db regions);
      front := attach !sd
    in
    let verify () =
      let bad = ref None in
      let err m = if !bad = None then bad := Some m in
      Array.iteri
        (fun i k ->
          if not (holds ~exact:true i (Sd.get !sd k)) then
            err (Printf.sprintf "key %d lost its acknowledged value" i))
        key;
      if Sd.count !sd <> keys then
        err (Printf.sprintf "%d keys, expected %d" (Sd.count !sd) keys);
      (match Sd.check !sd with Ok () -> () | Error m -> err m);
      !bad
    in
    { regions; run; space_amp = space_amp ~keys; reopen; verify }

  let setup w ~seed =
    match w with
    | Kv_update ->
      kv ~keys:16384 ~clients:1 ~put_pct:50 ~region_size:(16 lsl 20) ~seed
    | Kv_read_2d ->
      kv ~keys:1024 ~clients:2 ~put_pct:5 ~region_size:(1 lsl 20) ~seed
    | Shard_group ->
      group ~keys:4096 ~shards:4 ~region_size:(4 lsl 20) ~seed
end
