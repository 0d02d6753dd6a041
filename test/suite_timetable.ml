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
    prop_pivot_law;
    prop_windows_naive;
  ]
