(* How fast the host runs right now, from a fixed reference loop that
   uses none of the repository's code.

   The benchmark runs on a few virtual CPUs of a shared host.  Other
   tenants' load there slows the benchmark's own instructions (the
   guest's steal counter stays at a few percent), by up to a half, for
   stretches of tens of seconds, so two runs of the same code minutes
   apart can differ by that much.  The benchmark therefore times the
   reference loop just before and after each measured stretch and
   divides its wall times by the slowdown the loop shows against its
   nominal time.  A slower host slows the loop too and cancels out; a
   slower program does not touch it.

   The loop allocates 100-byte strings, stores them in a 4096-entry hash
   table and hashes them back: allocation, the garbage collector and
   hashing, as in the stores.  Of the loops tried on a 2-vCPU VM, it
   tracked the workloads best: over 6 runs each, the IQR/median of
   shard_group / kv_update ops_per_s was 0.19 / 0.16 unadjusted, 0.07 /
   0.04 adjusted by this loop, 0.15 / 0.10 by a chain of dependent loads
   through 8 MiB, and 0.09 / 0.07 by 8 MiB copies. *)

let sink = ref 0

let table : (int, string) Hashtbl.t =
  let t = Hashtbl.create 4096 in
  for k = 0 to 4095 do Hashtbl.replace t k "" done;
  t

let loop_ns () =
  let t0 = Trace.now () in
  let h = ref 0 in
  for k = 1 to 40_000 do
    let b = Bytes.make 100 (Char.unsafe_chr (k land 255)) in
    Bytes.blit_string "0123456789abcdef" 0 b (k land 63) 16;
    Hashtbl.replace table ((k * 7919) land 4095) (Bytes.unsafe_to_string b);
    h := !h + Hashtbl.hash (Hashtbl.find table ((k * 31) land 4095))
  done;
  sink := !sink + !h;
  float_of_int (Trace.now () - t0)

(* The loop's time on an unloaded host: about the quickest seen on a
   2-vCPU Xeon VM at 2.0 GHz.  It only sets the scale, so that on an
   unloaded host the adjusted times read about as the wall times do. *)
let nominal_ns = 6e6

(* How many times slower than nominal the host runs now. *)
let slowdown () = loop_ns () /. nominal_ns
