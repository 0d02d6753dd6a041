(* Temporal substrate: slot arithmetic, availability algebra, pivot-slot
   laws (Lemma 4) and schedule generation sanity. *)

module S = Timetable.Slot
module A = Timetable.Availability
module W = Timetable.Window

let check = Alcotest.check

let test_slot_arithmetic () =
  check Alcotest.int "48 slots per day" 48 S.slots_per_day;
  check Alcotest.int "horizon" 336 (S.horizon ~days:7);
  let slot = S.of_day_time ~day:2 ~hour:9 ~minute:30 in
  check Alcotest.int "encoding" ((2 * 48) + 19) slot;
  check Alcotest.int "day_of" 2 (S.day_of slot);
  check (Alcotest.pair Alcotest.int Alcotest.int) "time_of" (9, 30) (S.time_of slot);
  check Alcotest.string "pretty" "d2 09:30" (S.to_string slot)

let test_availability () =
  let a = A.create ~horizon:20 in
  check Alcotest.int "starts busy" 0 (A.free_count a);
  A.set_free a 3 10;
  A.set_busy a 6 7;
  check Alcotest.bool "slot 5 free" true (A.available a 5);
  check Alcotest.bool "slot 6 busy" false (A.available a 6);
  check Alcotest.bool "window 3..5 free" true (A.window_free a ~start:3 ~len:3);
  check Alcotest.bool "window 4..7 blocked" false (A.window_free a ~start:4 ~len:4);
  check Alcotest.bool "window beyond horizon" false (A.window_free a ~start:18 ~len:3);
  check (Alcotest.list Alcotest.int) "windows of 3" [ 3; 8 ] (A.windows a ~len:3)

let test_common () =
  let a = A.create ~horizon:10 and b = A.create ~horizon:10 in
  A.set_free a 0 6;
  A.set_free b 4 9;
  let c = A.common [ a; b ] in
  check (Alcotest.list Alcotest.int) "intersection windows" [ 4 ] (A.windows c ~len:3);
  match A.run_around c 5 with
  | Some (lo, hi) ->
      check (Alcotest.pair Alcotest.int Alcotest.int) "run" (4, 6) (lo, hi)
  | None -> Alcotest.fail "expected a run"

let test_pivots () =
  (* 0-indexed pivots for m=3 over 12 slots: 2, 5, 8, 11. *)
  check (Alcotest.list Alcotest.int) "pivots m=3" [ 2; 5; 8; 11 ]
    (W.pivots ~horizon:12 ~m:3);
  check (Alcotest.list Alcotest.int) "pivots m=5" [ 4; 9 ] (W.pivots ~horizon:12 ~m:5);
  check (Alcotest.pair Alcotest.int Alcotest.int) "interval clipped at 0" (0, 4)
    (W.interval ~horizon:12 ~m:3 2);
  check (Alcotest.pair Alcotest.int Alcotest.int) "interval clipped at end" (9, 11)
    (W.interval ~horizon:12 ~m:3 11)

let window_arb =
  QCheck.make
    ~print:(fun (h, m, t) -> Printf.sprintf "horizon=%d m=%d start=%d" h m t)
    QCheck.Gen.(
      pair (6 -- 60) (2 -- 6) >>= fun (h, m) ->
      map (fun t -> (h, m, t)) (int_bound (max 0 (h - m))))

(* Lemma 4: every m-window contains exactly one pivot, and lies inside
   that pivot's interval. *)
let prop_pivot_law =
  Gen.qtest ~count:300 "every m-window holds exactly one pivot" window_arb
    (fun (horizon, m, start) ->
      let pivots = W.pivots ~horizon ~m in
      let inside = List.filter (fun t -> t >= start && t <= start + m - 1) pivots in
      match inside with
      | [ pivot ] ->
          let lo, hi = W.interval ~horizon ~m pivot in
          W.pivot_of ~m start = pivot && start >= lo && start + m - 1 <= hi
      | _ -> false)

let prop_windows_naive =
  let arb =
    QCheck.make
      ~print:(fun (h, runs, len) ->
        Printf.sprintf "h=%d len=%d runs=[%s]" h len
          (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) runs)))
      QCheck.Gen.(
        12 -- 40 >>= fun h ->
        let run = pair (int_bound (h - 1)) (1 -- 8) in
        triple (return h) (list_size (0 -- 4) run) (2 -- 5))
  in
  Gen.qtest ~count:300 "windows = naive scan" arb
    (fun (horizon, runs, len) ->
      let a = A.create ~horizon in
      List.iter (fun (lo, l) -> A.set_free a lo (min (horizon - 1) (lo + l - 1))) runs;
      let naive =
        List.filter
          (fun t ->
            List.for_all (fun o -> A.available a (t + o)) (List.init len Fun.id))
          (List.init (max 0 (horizon - len + 1)) Fun.id)
      in
      A.windows a ~len = naive)

let test_sched_gen_shapes () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun archetype ->
      let a = Timetable.Sched_gen.person rng ~days:7 ~archetype in
      let free = A.free_count a in
      let total = S.horizon ~days:7 in
      Alcotest.check Alcotest.bool
        (Timetable.Sched_gen.archetype_to_string archetype ^ " density sane")
        true
        (free > total / 10 && free < total))
    Timetable.Sched_gen.all_archetypes;
  let af = Timetable.Sched_gen.always_free ~days:2 in
  check Alcotest.int "always free" (S.horizon ~days:2) (A.free_count af)

let test_sio_roundtrip () =
  let rng = Random.State.make [| 13 |] in
  let schedules = Timetable.Sched_gen.population rng ~days:2 ~n:7 in
  let parsed = Timetable.Sio.of_string (Timetable.Sio.to_string schedules) in
  check Alcotest.int "same count" (Array.length schedules) (Array.length parsed);
  Array.iteri
    (fun i a ->
      check Alcotest.bool
        (Printf.sprintf "schedule %d preserved" i)
        true
        (A.equal a parsed.(i)))
    schedules

let test_sio_rejects_malformed () =
  let expect_failure s =
    match Timetable.Sio.of_string s with
    | exception Timetable.Sio.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected parse failure"
  in
  expect_failure "0: 101";
  expect_failure "# horizon 3\n0: 10";
  expect_failure "# horizon 3\n0: 1x1";
  expect_failure "# horizon 3\n1: 101";
  expect_failure "# horizon 3\nx: 101"

let test_population_determinism () =
  let p1 = Timetable.Sched_gen.population (Random.State.make [| 5 |]) ~days:3 ~n:10 in
  let p2 = Timetable.Sched_gen.population (Random.State.make [| 5 |]) ~days:3 ~n:10 in
  Array.iteri
    (fun i a ->
      check Alcotest.bool "same schedule" true (A.equal a p2.(i)))
    p1

(* [free_bits] equals a per-slot fold of [available] over every range
   of at most 62 slots of a 200-slot calendar: ranges inside one word,
   across the 62-slot word edges, and ending at the horizon.  An
   all-free calendar pins the top bit of a full 62-slot read. *)
let test_free_bits_per_slot () =
  let horizon = 200 in
  let rand = Random.State.make [| 28 |] in
  let a = A.create ~horizon in
  for t = 0 to horizon - 1 do
    if Random.State.bool rand then A.set_free a t t
  done;
  let all_free = A.create ~horizon in
  A.set_free all_free 0 (horizon - 1);
  check Alcotest.int "62 slots per read" 62 A.bits_per_word;
  List.iter
    (fun a ->
      for pos = 0 to horizon do
        for len = 0 to min A.bits_per_word (horizon - pos) do
          let expected = ref 0 in
          for i = len - 1 downto 0 do
            expected := (!expected lsl 1) lor if A.available a (pos + i) then 1 else 0
          done;
          if A.free_bits a ~pos ~len <> !expected then
            Alcotest.failf "free_bits ~pos:%d ~len:%d = %#x, slot by slot %#x" pos len
              (A.free_bits a ~pos ~len) !expected
        done
      done)
    [ a; all_free ];
  check Alcotest.int "a full read" ((1 lsl 62) - 1) (A.free_bits all_free ~pos:138 ~len:62);
  let rejects pos len =
    match A.free_bits a ~pos ~len with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "free_bits ~pos:%d ~len:%d accepted" pos len
  in
  rejects 0 63;
  rejects 150 51;
  rejects (-1) 2;
  rejects 3 (-1)

(* Slot 61 is the last of the first 62-slot word and 62 the first of
   the second; 123 and 124 are the next edge. *)
let test_word_edge_slots () =
  let a = A.create ~horizon:130 in
  List.iter (fun t -> A.set_free a t t) [ 0; 61; 62; 123; 124; 129 ];
  check Alcotest.int "six free" 6 (A.free_count a);
  check Alcotest.bool "slot 61 free" true (A.available a 61);
  check Alcotest.bool "slot 62 free" true (A.available a 62);
  check Alcotest.bool "slot 60 busy" false (A.available a 60);
  check Alcotest.bool "slot 63 busy" false (A.available a 63);
  A.set_busy a 61 61;
  check Alcotest.bool "slot 61 busy again" false (A.available a 61);
  check Alcotest.bool "slot 62 untouched" true (A.available a 62);
  check Alcotest.int "five free" 5 (A.free_count a);
  check (Alcotest.list Alcotest.int) "free slots" [ 0; 62; 123; 124; 129 ]
    (List.filter (A.available a) (List.init 130 Fun.id))

let test_slot_bounds () =
  let a = A.create ~horizon:10 in
  let out slot =
    Invalid_argument (Printf.sprintf "Timetable.Availability: slot %d out of [0,10)" slot)
  in
  Alcotest.check_raises "a slot at the horizon" (out 10) (fun () ->
      ignore (A.available a 10 : bool));
  Alcotest.check_raises "a negative slot" (out (-1)) (fun () ->
      ignore (A.available a (-1) : bool));
  Alcotest.check_raises "set_free past the horizon" (out 10) (fun () -> A.set_free a 5 10);
  Alcotest.check_raises "set_busy below 0" (out (-1)) (fun () -> A.set_busy a (-1) 3);
  check Alcotest.int "a rejected range writes nothing" 0 (A.free_count a);
  A.set_free a 12 3;
  check Alcotest.int "an empty range is not checked and changes nothing" 0
    (A.free_count a);
  Alcotest.check_raises "a negative horizon"
    (Invalid_argument "Timetable.Availability.create: negative horizon") (fun () ->
      ignore (A.create ~horizon:(-1) : A.t))

let run_c = Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int)

let test_ranges_and_runs () =
  let a = A.create ~horizon:40 in
  A.set_free a 5 20;
  check Alcotest.int "range count" 16 (A.free_count a);
  A.set_busy a 10 12;
  check Alcotest.int "after set_busy" 13 (A.free_count a);
  check run_c "run at 6" (Some (5, 9)) (A.run_around a 6);
  check run_c "run at 15" (Some (13, 20)) (A.run_around a 15);
  check run_c "busy slot" None (A.run_around a 11);
  check run_c "past the horizon" None (A.run_around a 40);
  check run_c "below 0" None (A.run_around a (-1));
  check Alcotest.bool "has a run of 8" true (A.has_run_in a ~len:8 ~lo:0 ~hi:39);
  check Alcotest.bool "no run of 9" false (A.has_run_in a ~len:9 ~lo:0 ~hi:39);
  check Alcotest.bool "a window that cuts a run shortens it" false
    (A.has_run_in a ~len:8 ~lo:14 ~hi:39);
  check Alcotest.bool "a window past both ends is clipped" true
    (A.has_run_in a ~len:8 ~lo:(-5) ~hi:100);
  check Alcotest.bool "length 0 always fits" true (A.has_run_in a ~len:0 ~lo:30 ~hi:2);
  (* A run across the first word edge. *)
  let b = A.create ~horizon:130 in
  A.set_free b 50 70;
  check run_c "across the edge" (Some (50, 70)) (A.run_around b 62);
  A.set_busy b 61 62;
  check run_c "up to the edge" (Some (50, 60)) (A.run_around b 55);
  check run_c "from past the edge" (Some (63, 70)) (A.run_around b 63);
  check Alcotest.bool "11 before the edge" true (A.has_run_in b ~len:11 ~lo:0 ~hi:129);
  check Alcotest.bool "not 12" false (A.has_run_in b ~len:12 ~lo:0 ~hi:129)

let test_window_free_at_horizon_end () =
  let a = A.create ~horizon:70 in
  A.set_free a 0 69;
  check Alcotest.int "all free" 70 (A.free_count a);
  check Alcotest.bool "the whole horizon" true (A.window_free a ~start:0 ~len:70);
  check Alcotest.bool "the last 10 slots" true (A.window_free a ~start:60 ~len:10);
  check Alcotest.bool "one slot past the end" false (A.window_free a ~start:61 ~len:10);
  check Alcotest.bool "an empty window at the end" true (A.window_free a ~start:70 ~len:0);
  check Alcotest.bool "a negative start" false (A.window_free a ~start:(-1) ~len:2);
  check run_c "one run" (Some (0, 69)) (A.run_around a 69);
  check (Alcotest.list Alcotest.int) "one window of 70" [ 0 ] (A.windows a ~len:70);
  A.set_busy a 0 69;
  check Alcotest.int "all busy" 0 (A.free_count a);
  check Alcotest.bool "the last slot busy" false (A.window_free a ~start:69 ~len:1)

(* An all-0xFF mask sets the bits past the horizon in its last byte;
   the decoder must drop them, so the calendar equals one built slot by
   slot and re-encodes with those bits clear. *)
let test_full_mask () =
  List.iter
    (fun horizon ->
      let name what = Printf.sprintf "horizon %d: %s" horizon what in
      let bytes = A.mask_bytes ~horizon in
      let a = A.of_mask (String.make bytes '\xff') ~pos:0 ~horizon in
      check Alcotest.int (name "free_count") horizon (A.free_count a);
      let b = A.create ~horizon in
      if horizon > 0 then A.set_free b 0 (horizon - 1);
      check Alcotest.bool (name "= set_free 0 (h-1)") true (A.equal a b);
      let buf = Buffer.create bytes in
      A.add_mask buf a;
      let expected =
        String.init bytes (fun i ->
            let bits = min 8 (horizon - (8 * i)) in
            Char.chr ((1 lsl bits) - 1))
      in
      check Alcotest.string (name "re-encoded") expected (Buffer.contents buf))
    [ 0; 1; 7; 8; 61; 62; 63; 124; 125; 336 ]

(* A calendar of horizon 1-150 from a list of free slots, so runs and
   word edges fall anywhere. *)
let calendar_arb =
  QCheck.make
    ~print:(fun (h, free) ->
      Printf.sprintf "horizon=%d free=[%s]" h
        (String.concat ";" (List.map string_of_int free)))
    QCheck.Gen.(
      1 -- 150 >>= fun h ->
      pair (return h) (list_size (0 -- 120) (int_bound (h - 1))))

let calendar_of (horizon, free) =
  let a = A.create ~horizon in
  List.iter (fun t -> A.set_free a t t) free;
  a

let prop_run_around_naive =
  Gen.qtest ~count:300 "run_around = naive scan" calendar_arb (fun ((horizon, _) as c) ->
      let a = calendar_of c in
      let naive t =
        if t < 0 || t >= horizon || not (A.available a t) then None
        else begin
          let lo = ref t and hi = ref t in
          while !lo > 0 && A.available a (!lo - 1) do
            decr lo
          done;
          while !hi < horizon - 1 && A.available a (!hi + 1) do
            incr hi
          done;
          Some (!lo, !hi)
        end
      in
      List.for_all
        (fun t -> A.run_around a t = naive t)
        (List.init (horizon + 2) (fun t -> t - 1)))

let prop_has_run_in_naive =
  Gen.qtest ~count:300 "has_run_in = naive scan" calendar_arb (fun ((horizon, _) as c) ->
      let a = calendar_of c in
      let naive ~len ~lo ~hi =
        let lo = max lo 0 and hi = min hi (horizon - 1) in
        len <= 0
        || List.exists
             (fun start ->
               List.for_all (fun o -> A.available a (start + o)) (List.init len Fun.id))
             (List.init (max 0 (hi - lo - len + 2)) (fun i -> lo + i))
      in
      List.for_all
        (fun len ->
          List.for_all
            (fun (lo, hi) -> A.has_run_in a ~len ~lo ~hi = naive ~len ~lo ~hi)
            [ (0, horizon - 1); (-3, horizon + 3); (horizon / 3, horizon / 2);
              (horizon / 2, horizon - 2); (5, 3) ])
        [ 0; 1; 2; 3; 5; 8; 13; 40; 62; 63 ])

let prop_common_conjunction =
  let arb =
    QCheck.make
      ~print:(fun (h, cals) ->
        Printf.sprintf "horizon=%d calendars=[%s]" h
          (String.concat " | "
             (List.map (fun l -> String.concat ";" (List.map string_of_int l)) cals)))
      QCheck.Gen.(
        1 -- 150 >>= fun h ->
        pair (return h) (list_size (1 -- 4) (list_size (0 -- 150) (int_bound (h - 1)))))
  in
  Gen.qtest ~count:300 "common = slot-wise conjunction" arb (fun (horizon, cals) ->
      let ts = List.map (fun free -> calendar_of (horizon, free)) cals in
      let first = A.copy (List.hd ts) in
      let c = A.common ts in
      A.horizon c = horizon
      && A.equal first (List.hd ts)
      && List.for_all
           (fun t -> A.available c t = List.for_all (fun a -> A.available a t) ts)
           (List.init horizon Fun.id))

(* Ranges set free and busy in turn, on horizons 0-200: the word-wise
   count and equality agree with slot-by-slot reads, so no bit past the
   horizon is ever set. *)
let prop_count_and_equal_per_slot =
  let arb =
    QCheck.make
      ~print:(fun (h, ops) ->
        Printf.sprintf "horizon=%d ops=[%s]" h
          (String.concat ";"
             (List.map
                (fun (free, lo, hi) ->
                  Printf.sprintf "%s %d-%d" (if free then "+" else "-") lo hi)
                ops)))
      QCheck.Gen.(
        0 -- 200 >>= fun h ->
        let op =
          triple bool (int_bound (max 0 (h - 1))) (int_bound (max 0 (h - 1)))
          >|= fun (free, a, b) -> (free, min a b, max a b)
        in
        pair (return h) (if h = 0 then return [] else list_size (0 -- 8) op))
  in
  Gen.qtest ~count:300 "free_count and equal = per-slot reads" arb (fun (horizon, ops) ->
      let a = A.create ~horizon in
      List.iter
        (fun (free, lo, hi) -> if free then A.set_free a lo hi else A.set_busy a lo hi)
        ops;
      let b = A.create ~horizon in
      let count = ref 0 in
      for t = 0 to horizon - 1 do
        if A.available a t then begin
          incr count;
          A.set_free b t t
        end
      done;
      A.free_count a = !count && A.equal a b && A.equal b a)

(* The byte mask round-trips at any horizon and offset, and bits past
   the horizon in its last byte are clear. *)
let prop_mask_roundtrip =
  Gen.qtest ~count:300 "mask round trip across word edges" calendar_arb
    (fun ((horizon, _) as c) ->
      let a = calendar_of c in
      let buf = Buffer.create 32 in
      Buffer.add_string buf "pad";
      A.add_mask buf a;
      let s = Buffer.contents buf in
      let last = Char.code s.[String.length s - 1] in
      String.length s = 3 + A.mask_bytes ~horizon
      && last lsr (horizon - (8 * (A.mask_bytes ~horizon - 1))) = 0
      && A.equal a (A.of_mask s ~pos:3 ~horizon))

let suite =
  [
    Alcotest.test_case "slot arithmetic" `Quick test_slot_arithmetic;
    Alcotest.test_case "availability windows" `Quick test_availability;
    Alcotest.test_case "common availability" `Quick test_common;
    Alcotest.test_case "pivot slots fixture" `Quick test_pivots;
    Alcotest.test_case "schedule generator shapes" `Quick test_sched_gen_shapes;
    Alcotest.test_case "schedule save/parse roundtrip" `Quick test_sio_roundtrip;
    Alcotest.test_case "schedule parse rejects malformed" `Quick test_sio_rejects_malformed;
    Alcotest.test_case "population determinism" `Quick test_population_determinism;
    Alcotest.test_case "free_bits = per-slot reads" `Quick test_free_bits_per_slot;
    Alcotest.test_case "single slots and free_count across the word edge" `Quick
      test_word_edge_slots;
    Alcotest.test_case "slot bounds and their message" `Quick test_slot_bounds;
    Alcotest.test_case "set_free and set_busy ranges, runs" `Quick test_ranges_and_runs;
    Alcotest.test_case "window_free at the horizon's end" `Quick
      test_window_free_at_horizon_end;
    Alcotest.test_case "an all-0xFF mask stops at the horizon" `Quick test_full_mask;
    prop_pivot_law;
    prop_windows_naive;
    prop_run_around_naive;
    prop_has_run_in_naive;
    prop_common_conjunction;
    prop_count_and_equal_per_slot;
    prop_mask_roundtrip;
  ]
