(* PTM wrappers fed to the store functors at the boundaries the library
   already exposes ([Ptm_intf.S] for Romulus_db, [SHARD_PTM] for
   Sharded_db and Group_commit).

   [Capture] changes nothing but [open_region], which also remembers the
   handle so the benchmark can read each engine's used span; the
   untraced run uses it and pays no per-call cost.  [Traced] adds spans
   around the transaction entry points, their closures, and the
   allocator. *)

module type BASE = sig
  include Kv.Sharded_db.SHARD_PTM

  val engine : t -> Romulus.Engine.t
end

module type S = sig
  include BASE

  (* Handles opened since the last [forget], newest per region. *)
  val opened : unit -> t list
  val forget : unit -> unit
end

module Capture (P : BASE) = struct
  include P

  let handles : t list ref = ref []
  let forget () = handles := []
  let opened () = !handles

  let open_region r =
    let h = P.open_region r in
    handles := h :: List.filter (fun h' -> P.region h' != r) !handles;
    h
end

module Traced (P : BASE) = struct
  include Capture (P)

  let open_region r = Trace.with_span Trace.Open_region (fun () -> open_region r)

  let tx run kind closure_kind t f =
    if Trace.in_closure () then Trace.with_span Trace.Nested_tx (fun () -> run t f)
    else begin
      let id = Trace.open_at kind (Trace.now ()) in
      match run t (fun () -> Trace.closure ~parent:id closure_kind f) with
      | v -> Trace.close_at id (Trace.now ()); v
      | exception e -> Trace.close_at id (Trace.now ()); raise e
    end

  let update_tx t f = tx P.update_tx Trace.Update_tx Trace.Update_closure t f
  let read_tx t f = tx P.read_tx Trace.Read_tx Trace.Read_closure t f
  let alloc t n = Trace.with_span Trace.Alloc (fun () -> P.alloc t n)
  let free t p = Trace.with_span Trace.Free (fun () -> P.free t p)
end
