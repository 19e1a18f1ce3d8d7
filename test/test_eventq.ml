(* Unit tests for [Eventq], the binary-heap oracle the calendar queue
   is checked against: ordering, tie-breaking stability, growth, and
   clearing. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_empty () =
  let q = Eventq.create () in
  check "fresh queue is empty" true (Eventq.is_empty q);
  check_int "fresh queue length" 0 (Eventq.length q);
  check "no peek time" true (Eventq.peek_time q = None);
  check "pop on empty" true (Eventq.pop q = None)

let test_time_order () =
  let q = Eventq.create () in
  List.iter (fun t -> Eventq.add q ~time:t (int_of_float t)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = List.init 5 (fun _ -> match Eventq.pop q with Some (_, v) -> v | None -> -1) in
  Alcotest.(check (list int)) "ascending time order" [ 1; 2; 3; 4; 5 ] order

let test_fifo_ties () =
  let q = Eventq.create () in
  for i = 0 to 9 do
    Eventq.add q ~time:1.0 i
  done;
  let order = List.init 10 (fun _ -> match Eventq.pop q with Some (_, v) -> v | None -> -1) in
  Alcotest.(check (list int)) "same-time events pop in insertion order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] order

let test_interleaved_ties () =
  let q = Eventq.create () in
  Eventq.add q ~time:2.0 21;
  Eventq.add q ~time:1.0 11;
  Eventq.add q ~time:2.0 22;
  Eventq.add q ~time:1.0 12;
  let pop () = match Eventq.pop q with Some (_, v) -> v | None -> -1 in
  let order = List.init 4 (fun _ -> pop ()) in
  Alcotest.(check (list int)) "ties stable across interleaving"
    [ 11; 12; 21; 22 ] order

let test_peek_does_not_remove () =
  let q = Eventq.create () in
  Eventq.add q ~time:7.5 0;
  check "peek sees earliest" true (Eventq.peek_time q = Some 7.5);
  check_int "peek leaves element" 1 (Eventq.length q)

let test_growth () =
  let q = Eventq.create () in
  let n = 10_000 in
  for i = n downto 1 do
    Eventq.add q ~time:(float_of_int i) i
  done;
  check_int "all inserted" n (Eventq.length q);
  let prev = ref 0 in
  let sorted = ref true in
  for _ = 1 to n do
    match Eventq.pop q with
    | Some (_, v) ->
      if v < !prev then sorted := false;
      prev := v
    | None -> sorted := false
  done;
  check "large reverse-order insert pops sorted" true !sorted

let test_clear () =
  let q = Eventq.create () in
  Eventq.add q ~time:1.0 0;
  Eventq.add q ~time:2.0 1;
  Eventq.clear q;
  check "cleared queue is empty" true (Eventq.is_empty q)

(* Against a sorted-list oracle: (time, value) pairs in stable time
   order. Every case holds at least 22 entries, four levels of the
   4-ary heap, and half the times come from a palette of three, so
   siblings tie and the seq tie-break decides. *)
let prop_heap_sorts =
  QCheck.Test.make ~name:"eventq pops any insertion sequence in time order"
    ~count:200
    QCheck.(
      make
        ~print:Print.(list float)
        Gen.(
          list_size (int_range 22 200)
            (frequency
               [
                 (1, float_range 0.0 1000.0);
                 (1, map float_of_int (int_bound 2));
               ])))
    (fun times ->
      let q = Eventq.create () in
      List.iteri (fun i t -> Eventq.add q ~time:t i) times;
      let rec drain acc =
        match Eventq.pop q with
        | Some e -> drain (e :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      popped
      = List.stable_sort
          (fun (a, _) (b, _) -> Float.compare a b)
          (List.mapi (fun i t -> (t, i)) times))

let suites =
  [
    ( "eventq",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "time order" `Quick test_time_order;
        Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
        Alcotest.test_case "interleaved ties" `Quick test_interleaved_ties;
        Alcotest.test_case "peek" `Quick test_peek_does_not_remove;
        Alcotest.test_case "growth" `Quick test_growth;
        Alcotest.test_case "clear" `Quick test_clear;
        QCheck_alcotest.to_alcotest prop_heap_sorts;
      ] );
  ]
