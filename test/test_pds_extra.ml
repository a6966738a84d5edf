(* Tests for the extension containers the examples use (cell/array/
   string box, queue): model-based behaviour, structural invariants, and
   crash atomicity.  Run over RomulusLog, RomulusLR and the aborting STM
   baseline (which additionally exercises closure re-execution). *)

module R = Pmem.Region

module type PTM = sig
  include Romulus.Ptm_intf.S

  val recover : t -> unit
end

let region ?(size = 1 lsl 18) () = R.create ~size ()

module Make (P : PTM) = struct
  module B = Pds.Pbox.Make (P)
  module Q = Pds.Pqueue.Make (P)

  (* ---- Pbox ---- *)

  let test_cell () =
    let r = region () in
    let p = P.open_region r in
    let c = B.Cell.create p ~root:0 41 in
    Alcotest.(check int) "initial" 41 (B.Cell.get c);
    B.Cell.set c 7;
    Alcotest.(check int) "set" 7 (B.Cell.get c);
    Alcotest.(check int) "incr returns new" 8 (B.Cell.incr c);
    Alcotest.(check int) "update" 16 (B.Cell.update c (fun v -> v * 2));
    (* durability *)
    R.crash r R.Drop_all;
    P.recover p;
    let c = B.Cell.attach p ~root:0 in
    Alcotest.(check int) "survives crash" 16 (B.Cell.get c)

  let test_array () =
    let r = region () in
    let p = P.open_region r in
    let a = B.Array_.create p ~root:0 10 in
    Alcotest.(check int) "length" 10 (B.Array_.length a);
    Alcotest.(check int) "zero initialized" 0 (B.Array_.get a 3);
    B.Array_.set a 3 33;
    B.Array_.set a 7 77;
    B.Array_.swap a 3 7;
    Alcotest.(check int) "swapped 3" 77 (B.Array_.get a 3);
    Alcotest.(check int) "swapped 7" 33 (B.Array_.get a 7);
    Alcotest.check_raises "bounds"
      (Invalid_argument "Pbox.Array_: index 10 out of bounds [0, 10)")
      (fun () -> ignore (B.Array_.get a 10));
    B.Array_.fill a 5;
    Alcotest.(check (list int)) "filled" (List.init 10 (fun _ -> 5))
      (B.Array_.to_list a);
    R.crash r R.Drop_all;
    P.recover p;
    let a = B.Array_.attach p ~root:0 in
    Alcotest.(check int) "length after attach" 10 (B.Array_.length a);
    Alcotest.(check int) "contents survive" 5 (B.Array_.get a 9)

  let test_str_box () =
    let r = region () in
    let p = P.open_region r in
    let s = B.Str.create p ~root:0 "hello" in
    Alcotest.(check string) "initial" "hello" (B.Str.get s);
    B.Str.set s "a much longer replacement string";
    Alcotest.(check string) "replaced" "a much longer replacement string"
      (B.Str.get s);
    B.Str.set s "";
    Alcotest.(check string) "empty" "" (B.Str.get s);
    B.Str.set s "final";
    R.crash r R.Drop_all;
    P.recover p;
    let s = B.Str.attach p ~root:0 in
    Alcotest.(check string) "survives crash" "final" (B.Str.get s)

  (* ---- queue ---- *)

  let test_queue () =
    let r = region () in
    let p = P.open_region r in
    let q = Q.create p ~root:0 in
    Alcotest.(check (option int)) "dequeue empty" None (Q.dequeue q);
    Q.enqueue q 1;
    Q.enqueue q 2;
    Q.enqueue q 3;
    Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (Q.to_list q);
    Alcotest.(check (option int)) "dequeue" (Some 1) (Q.dequeue q);
    Alcotest.(check (option int)) "peek" (Some 2) (Q.peek q);
    (match Q.check q with Ok () -> () | Error e -> Alcotest.fail e);
    (* drain to empty and refill: tail handling *)
    ignore (Q.dequeue q);
    ignore (Q.dequeue q);
    Alcotest.(check bool) "drained" true (Q.is_empty q);
    (match Q.check q with Ok () -> () | Error e -> Alcotest.fail e);
    Q.enqueue q 9;
    Alcotest.(check (list int)) "refilled" [ 9 ] (Q.to_list q);
    R.crash r R.Drop_all;
    P.recover p;
    let q = Q.attach p ~root:0 in
    Alcotest.(check (list int)) "survives crash" [ 9 ] (Q.to_list q)

  let prop_queue_model =
    let open QCheck in
    Test.make ~count:30 ~name:(P.name ^ ": queue vs model")
      (* the queue grows with the op count (unlike the key-bounded
         structures), so bound the list size to keep a net-enqueue run
         within the arena — an overflow would make QCheck shrink a
         multi-thousand-element list, which takes effectively forever *)
      (list_of_size (Gen.int_bound 250) (option (int_bound 100)))
      (fun ops ->
        let r = region ~size:(1 lsl 20) () in
        let p = P.open_region r in
        let q = Q.create p ~root:0 in
        let model = Queue.create () in
        List.iter
          (fun op ->
            match op with
            | Some v ->
              Q.enqueue q v;
              Queue.add v model
            | None ->
              let mine = Q.dequeue q in
              let theirs = Queue.take_opt model in
              if mine <> theirs then
                QCheck.Test.fail_reportf "dequeue disagreed")
          ops;
        (match Q.check q with
         | Ok () -> ()
         | Error e -> QCheck.Test.fail_reportf "invariant: %s" e);
        Q.to_list q = List.of_seq (Queue.to_seq model))

  let suite =
    let tc = Alcotest.test_case in
    [ tc "cell" `Quick test_cell;
      tc "array" `Quick test_array;
      tc "string box" `Quick test_str_box;
      tc "queue" `Quick test_queue;
      QCheck_alcotest.to_alcotest prop_queue_model ]
end

module On_logged = Make (Romulus.Logged)
module On_lr = Make (Romulus.Lr)
module On_redolog = Make (Baselines.Redolog)

let () =
  Alcotest.run "pds-extra"
    [ ("on RomL", On_logged.suite);
      ("on RomLR", On_lr.suite);
      ("on Mnemosyne-like", On_redolog.suite) ]
