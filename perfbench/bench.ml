(* One benchmark run: set-up, a measured phase, then the oracle (crash
   every region with [Drop_all], reopen, compare with the model).  The
   untraced run reports the end-to-end metrics; the traced run reports
   the per-layer ones. *)

module Plain = Workloads.Make (Shim.Capture (Romulus.Logged))
module Traced = Workloads.Make (Shim.Traced (Romulus.Logged))

type metric = { name : string; value : float; unit_ : string; samples : int }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  error : string;  (* first problem found, "" when none *)
  slowdown : float;  (* median host slowdown over the untraced rounds *)
  metrics : metric list;
}

let m ?(samples = 1) name unit_ value = { name; value; unit_; samples }

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    a.(Array.length a / 2)

(* Latencies in ns, sorted. *)
let sorted vecs =
  let v = Workloads.Vec.concat vecs in
  let a = Array.sub v.a 0 v.n in
  Array.sort Int.compare a;
  a

(* Nearest-rank percentile of sorted ns latencies, in microseconds. *)
let pct_us a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let r = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    float_of_int a.(max 0 (min (n - 1) r)) /. 1e3

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let sum f (ph : Workloads.phase) = Array.fold_left (fun a c -> a + f c) 0 ph.clients
let ops ph = sum (fun c -> c.Workloads.ops) ph
let ops_per_s (ph : Workloads.phase) = ratio (ops ph) ph.elapsed_ns *. 1e9

let crash (st : Workloads.store) =
  Array.iter (fun r -> Pmem.Region.crash r Pmem.Region.Drop_all) st.regions

(* Crash every region and reopen, timing open_db; then check the store
   against the model. *)
let recover (st : Workloads.store) =
  crash st;
  let t0 = Trace.now () in
  st.reopen ();
  let ns = float_of_int (Trace.now () - t0) in
  (ns, st.verify ())

(* Correct when every oracle check passed and no read contradicted the
   model; with the ops attempted and failed, and the first problem seen. *)
let outcome phases verdicts =
  let clients =
    List.concat_map (fun (ph : Workloads.phase) -> Array.to_list ph.clients) phases
  in
  let total f = List.fold_left (fun a c -> a + f c) 0 clients in
  let error =
    match List.find_map Fun.id verdicts with
    | Some e -> e
    | None -> (
      match List.find_opt (fun c -> c.Workloads.error <> "") clients with
      | Some c -> c.error
      | None -> "")
  in
  ( List.for_all Option.is_none verdicts && total (fun c -> c.Workloads.bad) = 0,
    total (fun c -> c.Workloads.ops),
    total (fun c -> c.Workloads.failed),
    error )

let setups = 15
(* The measured time is split into [rounds] consecutive rounds on the same
   store, after an unmeasured warm-up round a tenth as long as the whole;
   each end-to-end figure is the median of its per-round values, so a
   disturbed stretch does not move it.  Every time is taken in host-speed
   adjusted form: its wall time divided by [Host.slowdown] measured just
   before and after it. *)
let rounds = 40

(* A measured round with its latencies reduced to percentiles and then
   dropped, so that memory stays bounded by one round. *)
type round = {
  phase : Workloads.phase;
  slow : float;  (* host slowdown over the round *)
  rate : float;  (* ops per second of adjusted time *)
  writes : int;
  w50 : float;
  w99 : float;
  reads : int;
  r50 : float;
  r99 : float;
}

(* [f ()] with its wall time in ns and the host slowdown over it: the
   geometric mean of the slowdowns measured just before it (the last one,
   kept in [host]) and just after it (kept in [host] for the next). *)
let around host f =
  let t0 = Trace.now () in
  let v = f () in
  let ns = float_of_int (Trace.now () - t0) in
  let s1 = Host.slowdown () in
  let slow = sqrt (!host *. s1) in
  host := s1;
  (v, ns, slow)

let round (st : Workloads.store) ~host ~seconds r =
  let ph, _, slow =
    around host (fun () -> st.run (`Seconds seconds) ~traced:false ~round:r)
  in
  let lat f = sorted (List.map f (Array.to_list ph.clients)) in
  let w = lat (fun c -> c.Workloads.writes) and rd = lat (fun c -> c.Workloads.reads) in
  Array.iter
    (fun c -> Workloads.Vec.clear c.Workloads.writes; Workloads.Vec.clear c.reads)
    ph.clients;
  let lat_us a p = pct_us a p /. slow in
  { phase = ph; slow; rate = ops_per_s ph *. slow;
    writes = Array.length w; w50 = lat_us w 0.50; w99 = lat_us w 0.99;
    reads = Array.length rd; r50 = lat_us rd 0.50; r99 = lat_us rd 0.99 }

let untraced w ~seed ~seconds =
  let timed () =
    Gc.full_major ();
    let st, ns, slow = around (ref (Host.slowdown ())) (fun () -> Plain.setup w ~seed) in
    (st, ns /. slow /. 1e9)
  in
  (* only the last store is kept, so memory holds one store at a time *)
  let earlier = List.init (setups - 1) (fun _ -> snd (timed ())) in
  let st, last = timed () in
  let setup_s = median (last :: earlier) in
  Gc.full_major ();
  let host = ref (Host.slowdown ()) in
  let warmup = round st ~host ~seconds:(seconds /. 10.) 0 in
  (* each measured round ends with a crash and a timed recovery, so the
     recovery samples are spread over the run like the others *)
  let rs, recs =
    List.split
      (List.init rounds (fun r ->
           let x = round st ~host ~seconds:(seconds /. float_of_int rounds) (r + 1) in
           let (ns, verdict), _, slow = around host (fun () -> recover st) in
           (x, (ns /. slow, verdict))))
  in
  let space_amp = st.space_amp () in
  let correct, attempted, failed, error =
    outcome (List.map (fun r -> r.phase) (warmup :: rs)) (List.map snd recs)
  in
  let med f = median (List.map f rs) in
  let slowdown = med (fun r -> r.slow) in
  let total f = List.fold_left (fun a r -> a + f r) 0 rs in
  { correct; attempted; failed; error; slowdown;
    metrics =
      [ m ~samples:attempted "ops_per_s" "1/s" (med (fun r -> r.rate));
        m ~samples:(total (fun r -> r.writes)) "write_p50_us" "us" (med (fun r -> r.w50));
        m ~samples:(total (fun r -> r.writes)) "write_p99_us" "us" (med (fun r -> r.w99));
        m ~samples:(total (fun r -> r.reads)) "read_p50_us" "us" (med (fun r -> r.r50));
        m ~samples:(total (fun r -> r.reads)) "read_p99_us" "us" (med (fun r -> r.r99));
        m ~samples:rounds "recover_ms" "ms" (median (List.map fst recs) /. 1e6);
        m "space_amp" "B/B" space_amp;
        m ~samples:attempted "ok_frac" "frac" (1. -. ratio failed attempted);
        m ~samples:setups "setup_s" "s" setup_s ] }

(* Ops per client in the traced phase: a fixed count, so that on a
   single client every counter repeats exactly for a given seed. *)
let trace_ops = function
  | Workloads.Kv_update -> 20_000
  | Workloads.Kv_read_2d -> 200_000
  | Workloads.Shard_group -> 50_000

(* The traced phase alone: a fresh traced store, [ops] ops per client,
   then one crash and reopen.  Returns the per-layer metrics except the
   tracing overhead, the phase, the host slowdown over it and the
   oracle's verdict. *)
let traced_phase w ~seed ~ops:n =
  let st = Traced.setup w ~seed in
  Gc.full_major ();
  Trace.reset ();
  Trace.enabled := true;
  let ph, _, slow =
    around (ref (Host.slowdown ())) (fun () -> st.run (`Ops n) ~traced:true ~round:0)
  in
  Trace.enabled := false;
  let t = Trace.reduce () in
  Trace.reset ();
  Trace.enabled := true;
  let _, verdict = recover st in
  Trace.enabled := false;
  let r = Trace.reduce () in
  let ops = ops ph in
  let s = ph.stats in
  let c f = sum f ph in
  let grouped = w = Workloads.Shard_group in
  let open Trace in
  let per_tx a k = ratio a (count t k) /. 1e3 in
  let opens = count r Open_db in
  let metrics =
    [ m ~samples:(count t Free) "palloc.free_us" "us" (mean_us t Free);
      m ~samples:(count t Alloc) "palloc.alloc_us" "us" (mean_us t Alloc);
      m "palloc.frees_per_op" "1/op" (ratio (count t Free) ops);
      m ~samples:(count t Update_tx) "engine.commit_us" "us" (per_tx t.commit Update_tx);
      m "engine.txs_per_op" "1/op" (ratio s.commits ops);
      m "pmem.loads_per_op" "1/op" (ratio s.loads ops);
      m "pmem.stores_per_op" "1/op" (ratio s.stores ops);
      m "pmem.pwbs_per_op" "1/op" (ratio s.pwbs ops);
      m "pmem.fences_per_op" "1/op" (ratio (Pmem.Stats.fences s) ops);
      m "pmem.copy_bytes_per_op" "B/op" (ratio s.replicated_bytes ops);
      m "pmem.nvm_bytes_per_user_byte" "B/B" (ratio s.nvm_bytes s.user_bytes);
      m ~samples:(count t Update_tx) "sync.write_wait_us" "us" (per_tx t.wait_update Update_tx);
      m ~samples:(count t Read_tx) "sync.read_wait_us" "us" (per_tx t.wait_read Read_tx);
      m "sync.fc_batch" "1/tx" (ratio (count t Update_closure) s.commits);
      m ~samples:(count t Update_closure) "kv.map_write_us" "us" (mean_self_us t Update_closure);
      m ~samples:(count t Read_closure) "kv.map_read_us" "us" (mean_self_us t Read_closure);
      m "kv.loads_per_get" "1/op" (ratio (c (fun c -> c.get_loads)) (c (fun c -> c.gets)));
      m ~samples:ops "group.self_us" "us"
        (if grouped then
           ratio (List.fold_left (fun a k -> a + t.self.(index k)) 0 [ Op_put; Op_get; Op_batch ]) ops /. 1e3
         else 0.);
      m "group.mean_size" "1/tx" (ratio s.group_size_sum s.group_commits);
      m "group.queue_depth" "count" (ratio (c (fun c -> c.depth_sum)) ops);
      m "sharded.prepares_per_cross" "1/op" (ratio s.intent_prepares (c (fun c -> c.cross)));
      m "sharded.flips_per_cross" "1/op" (ratio s.coordinator_flips (c (fun c -> c.cross)));
      m "sharded.merged_per_cross" "1/op" (ratio s.merged_intents (c (fun c -> c.cross)));
      m ~samples:opens "recovery.engine_ms" "ms" (ratio r.dur.(index Open_region) opens /. 1e6);
      m ~samples:opens "recovery.kv_ms" "ms"
        (ratio (r.dur.(index Open_db) - r.dur.(index Open_region)) opens /. 1e6) ]
  in
  (metrics, ph, slow, verdict)

(* The untraced rounds of a traced run last [seconds / 2] in all and only
   give the rate against which the tracing overhead is taken. *)
let traced w ~seed ~seconds =
  let st = Plain.setup w ~seed in
  Gc.full_major ();
  let seconds = seconds /. 2. in
  let host = ref (Host.slowdown ()) in
  let warmup = round st ~host ~seconds:(seconds /. 10.) 0 in
  let rs =
    List.init rounds (fun r ->
        round st ~host ~seconds:(seconds /. float_of_int rounds) (r + 1))
  in
  let _, plain_verdict = recover st in
  let metrics, ph, slow, verdict = traced_phase w ~seed ~ops:(trace_ops w) in
  let plain = List.map (fun r -> r.phase) (warmup :: rs) in
  let correct, attempted, failed, error =
    outcome (ph :: plain) [ plain_verdict; verdict ]
  in
  let plain_rate = median (List.map (fun r -> r.rate) rs) in
  { correct; attempted; failed; error;
    slowdown = median (List.map (fun r -> r.slow) rs);
    metrics =
      metrics
      @ [ m "trace.overhead_frac" "frac" (1. -. (ops_per_s ph *. slow /. plain_rate)) ] }
