(* Determinism self-test of the benchmark: with a single client, the
   traced phase's counters depend on the seed alone.  Two runs with one
   seed must agree exactly on every pmem.*, group.* and sharded.* count,
   and a run with another seed must differ in at least one. *)

open Perfbench

let counted name =
  List.exists (fun prefix -> String.starts_with ~prefix name)
    [ "pmem."; "group."; "sharded." ]
  && not (String.ends_with ~suffix:"_us" name)

let counts w ~seed ~ops =
  let metrics, _, _, verdict = Bench.traced_phase w ~seed ~ops in
  Option.iter (fun e -> failwith ("oracle: " ^ e)) verdict;
  List.filter_map
    (fun (m : Bench.metric) ->
      if counted m.name then Some (m.name, m.value) else None)
    metrics

let () =
  List.iter
    (fun (name, w, ops) ->
      let a = counts w ~seed:1 ~ops and b = counts w ~seed:1 ~ops in
      let c = counts w ~seed:2 ~ops in
      List.iter2
        (fun (n, x) (_, y) ->
          if x <> y then begin
            Printf.printf "%s: %s differs between runs with one seed: %g vs %g\n"
              name n x y;
            exit 1
          end)
        a b;
      if a = c then begin
        Printf.printf "%s: a different seed left every count unchanged\n" name;
        exit 1
      end;
      Printf.printf "%s: %d counts repeat for one seed and change with another\n"
        name (List.length a))
    [ ("kv_update", Workloads.Kv_update, 2_000);
      ("shard_group", Workloads.Shard_group, 3_000) ]
