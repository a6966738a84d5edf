(** Timing for the benchmark harness: monotonic-clock elapsed time plus
    the virtual latency injected by a region's fence profile, so emulated
    STT-RAM/PCM costs are reported deterministically. *)

(** Monotonic clock reading in nanoseconds (arbitrary origin: only
    differences are meaningful). *)
val now_ns : unit -> float

(** Elapsed nanoseconds of [f ()], including the region's virtual
    delays. *)
val time_ns : ?region:Pmem.Region.t -> (unit -> unit) -> float

(** Mean cost of one call over [ops] iterations. *)
val ns_per_op : ?region:Pmem.Region.t -> ops:int -> (unit -> unit) -> float

(** Median of [runs] measurements of {!ns_per_op} (the paper reports the
    median of 5 runs). *)
val median_ns_per_op :
  ?region:Pmem.Region.t -> ?runs:int -> ops:int -> (unit -> unit) -> float
