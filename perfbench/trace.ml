(* In-memory span recorder for the traced benchmark run.

   A span is (kind, start, stop, parent) with times from the monotonic
   clock.  Each domain appends to its own buffer, so recording takes no
   lock; a span id packs the buffer number and the index in it, so a
   parent may live on another domain (a flat-combining combiner runs the
   closures other domains submitted).  Spans stay in memory until the
   phase ends; [reduce] then folds them into per-kind totals, where a
   span's self time is its duration minus that of its direct children. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type kind =
  | Op_put          (* the benchmark's call into a store: one logical put *)
  | Op_get
  | Op_batch
  | Open_db         (* the benchmark's call to open_db (recovery) *)
  | Open_region     (* PTM open_region: engine format or recovery *)
  | Update_tx       (* outermost PTM update_tx: call to return *)
  | Update_closure  (* the closure passed to that update_tx *)
  | Read_tx
  | Read_closure
  | Nested_tx       (* update_tx/read_tx issued inside a running closure *)
  | Alloc
  | Free

let kinds =
  [| Op_put; Op_get; Op_batch; Open_db; Open_region; Update_tx;
     Update_closure; Read_tx; Read_closure; Nested_tx; Alloc; Free |]

let nkinds = Array.length kinds

let index = function
  | Op_put -> 0 | Op_get -> 1 | Op_batch -> 2 | Open_db -> 3
  | Open_region -> 4 | Update_tx -> 5 | Update_closure -> 6 | Read_tx -> 7
  | Read_closure -> 8 | Nested_tx -> 9 | Alloc -> 10 | Free -> 11

(* Set before any client domain starts and left alone while they run. *)
let enabled = ref false

let idx_bits = 40
let idx_mask = (1 lsl idx_bits) - 1

type buf = {
  id : int;
  mutable n : int;
  mutable kind : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable stack : int array;  (* open spans on this domain, innermost last *)
  mutable depth : int;
  mutable closures : int;     (* PTM closures running on this domain *)
}

let registry : buf list Atomic.t = Atomic.make []
let next_id = Atomic.make 0

let fresh () =
  let cap = 1024 in
  let b =
    { id = Atomic.fetch_and_add next_id 1; n = 0;
      kind = Array.make cap 0; start = Array.make cap 0;
      stop = Array.make cap 0; parent = Array.make cap 0;
      stack = Array.make 64 0; depth = 0; closures = 0 }
  in
  let rec add () =
    let l = Atomic.get registry in
    if not (Atomic.compare_and_set registry l (b :: l)) then add ()
  in
  add ();
  b

let key = Domain.DLS.new_key fresh

(* Drop every recorded span.  Only call with no other domain running. *)
let reset () =
  Atomic.set registry [];
  Atomic.set next_id 0;
  Domain.DLS.set key (fresh ())

let grow b =
  let cap = 2 * Array.length b.kind in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  b.kind <- ext b.kind;
  b.start <- ext b.start;
  b.stop <- ext b.stop;
  b.parent <- ext b.parent

let push b id =
  if b.depth = Array.length b.stack then
    b.stack <- Array.append b.stack (Array.make b.depth 0);
  b.stack.(b.depth) <- id;
  b.depth <- b.depth + 1

(* Open a span at time [t] as a child of [parent] (default: the innermost
   span open on this domain, or none); returns its id, or -1 when tracing
   is off. *)
let open_at ?parent k t =
  if not !enabled then -1
  else begin
    let b = Domain.DLS.get key in
    if b.n = Array.length b.kind then grow b;
    let i = b.n in
    b.n <- i + 1;
    b.kind.(i) <- index k;
    b.start.(i) <- t;
    b.stop.(i) <- t;
    b.parent.(i) <-
      (match parent with
       | Some p -> p
       | None -> if b.depth = 0 then -1 else b.stack.(b.depth - 1));
    let id = (b.id lsl idx_bits) lor i in
    push b id;
    id
  end

(* Close span [id], opened on this domain, at time [t]. *)
let close_at id t =
  if id >= 0 then begin
    let b = Domain.DLS.get key in
    b.stop.(id land idx_mask) <- t;
    b.depth <- b.depth - 1
  end

let with_span k f =
  if not !enabled then f ()
  else begin
    let id = open_at k (now ()) in
    match f () with
    | v -> close_at id (now ()); v
    | exception e -> close_at id (now ()); raise e
  end

(* True while a PTM closure runs on this domain: a transaction started
   now is nested in it. *)
let in_closure () = (Domain.DLS.get key).closures > 0

(* Run closure [f] of the transaction span [parent], which may have been
   opened on another domain. *)
let closure ~parent k f =
  let b = Domain.DLS.get key in
  let id = open_at ~parent k (now ()) in
  b.closures <- b.closures + 1;
  match f () with
  | v -> b.closures <- b.closures - 1; close_at id (now ()); v
  | exception e -> b.closures <- b.closures - 1; close_at id (now ()); raise e

(* ---- reduction ---- *)

type totals = {
  count : int array;      (* per kind *)
  dur : int array;        (* summed duration, ns *)
  self : int array;       (* summed self time, ns *)
  mutable wait_update : int;  (* update_tx call -> closure start *)
  mutable wait_read : int;    (* read_tx call -> closure start *)
  mutable commit : int;       (* last closure end -> update_tx return *)
}

let buffers () =
  let l = Atomic.get registry in
  let a = Array.make (List.length l) None in
  List.iter (fun b -> a.(b.id) <- Some b) l;
  Array.map Option.get a

let reduce () =
  let bufs = buffers () in
  let child = Array.map (fun b -> Array.make b.n 0) bufs in
  (* latest closure end per transaction span, for the commit time *)
  let closure_end = Array.map (fun b -> Array.make b.n (-1)) bufs in
  let t =
    { count = Array.make nkinds 0; dur = Array.make nkinds 0;
      self = Array.make nkinds 0; wait_update = 0; wait_read = 0;
      commit = 0 }
  in
  Array.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        let p = b.parent.(i) in
        if p >= 0 then begin
          let pb = p lsr idx_bits and pi = p land idx_mask in
          child.(pb).(pi) <- child.(pb).(pi) + (b.stop.(i) - b.start.(i));
          let k = kinds.(b.kind.(i)) in
          if k = Update_closure || k = Read_closure then begin
            let pbuf = bufs.(pb) in
            let first = closure_end.(pb).(pi) < 0 in
            if first then begin
              let wait = b.start.(i) - pbuf.start.(pi) in
              if k = Update_closure then t.wait_update <- t.wait_update + wait
              else t.wait_read <- t.wait_read + wait
            end;
            closure_end.(pb).(pi) <- max closure_end.(pb).(pi) b.stop.(i)
          end
        end
      done)
    bufs;
  Array.iteri
    (fun bi b ->
      for i = 0 to b.n - 1 do
        let k = b.kind.(i) in
        let d = b.stop.(i) - b.start.(i) in
        t.count.(k) <- t.count.(k) + 1;
        t.dur.(k) <- t.dur.(k) + d;
        t.self.(k) <- t.self.(k) + d - child.(bi).(i);
        if kinds.(k) = Update_tx && closure_end.(bi).(i) >= 0 then
          t.commit <- t.commit + b.stop.(i) - closure_end.(bi).(i)
      done)
    bufs;
  t

let count t k = t.count.(index k)

(* Mean duration / self time of a kind in microseconds; 0 when absent. *)
let per a n = if n = 0 then 0. else float_of_int a /. float_of_int n /. 1e3

let mean_us t k = per t.dur.(index k) (count t k)
let mean_self_us t k = per t.self.(index k) (count t k)
