(* Command line of the benchmark binary (run.py builds it and passes these):

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints one line per metric, then the result as one JSON object on the
   last line.  Exits 1 when the oracle found a disagreement. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload (kv_update|kv_read_2d|shard_group) --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.
  and trace = ref false in
  let int s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := List.assoc_opt w Workloads.workloads;
      if !workload = None then usage ();
      parse rest
    | "--seed" :: n :: rest -> seed := int n; parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
       | Some v when v > 0. -> seconds := v
       | _ -> usage ());
      parse rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> false | "1" -> true | _ -> usage ());
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match !workload with Some w -> w | None -> usage () in
  let r =
    if !trace then Bench.traced w ~seed:!seed ~seconds:!seconds
    else Bench.untraced w ~seed:!seed ~seconds:!seconds
  in
  List.iter
    (fun (m : Bench.metric) ->
      Printf.printf "%-30s %14.6g %-6s samples=%d\n" m.name m.value m.unit_
        m.samples)
    r.metrics;
  Printf.printf
    "host slowdown %.4g (median over the untraced rounds; end-to-end times \
     are wall times divided by the slowdown around each)\n"
    r.slowdown;
  if r.error <> "" then Printf.printf "error: %s\n" r.error;
  let metric (m : Bench.metric) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics));
  exit (if r.correct then 0 else 1)
