(* The durable store: snapshot/WAL codecs under round-trip, fuzz and
   hostile-input tests; the crash-at-every-record recovery differential
   (recovered state == in-memory replay of the durable prefix, and a
   recovered service answers bit-identically to an uncrashed one); the
   cache epoch; client connect retry;
   and the env-gated [Store_*] half of the fault matrix (the root
   [@faults] alias replays each I/O crash plan through this suite). *)

open Stgq_core

let check = Alcotest.check
module G = QCheck.Gen

(* --- fault plan gating (same shape as suite_faultmatrix) ----------- *)

let specs =
  match Sys.getenv_opt "STGQ_FAULTS" with
  | None | Some "" -> []
  | Some raw -> (
      match Faultinject.parse raw with
      | Ok specs -> specs
      | Error msg -> failwith ("unparsable STGQ_FAULTS plan: " ^ msg))

let spec_for site =
  List.find_opt (fun (s : Faultinject.spec) -> s.site = site) specs

let store_sites =
  [
    Faultinject.Store_short_write;
    Faultinject.Store_bit_flip;
    Faultinject.Store_crash_rename;
    Faultinject.Store_crash_append;
    Faultinject.Store_crash_checkpoint;
  ]

(* With a store plan armed, every store I/O call can fire: the ordinary
   tests would consume one-shot plans nondeterministically, so they
   stand down and only the site-specific tests run. *)
let store_plan_armed =
  List.exists
    (fun (s : Faultinject.spec) -> List.mem s.site store_sites)
    specs

let unless_armed f () = if store_plan_armed then () else f ()

(* --- scratch directories ------------------------------------------- *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d = Printf.sprintf "store-test-%d-%d" (Unix.getpid ()) !dir_counter in
  (match Unix.mkdir d 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rm_rf d =
  if Sys.file_exists d && Sys.is_directory d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- fixtures ------------------------------------------------------ *)

let horizon = 12

let base_graph =
  Socgraph.Graph.of_edges 8
    [
      (0, 1, 1.); (1, 2, 1.); (2, 3, 2.); (0, 3, 1.5); (3, 4, 1.);
      (4, 5, 1.); (5, 6, 2.); (6, 7, 1.); (0, 2, 2.5); (2, 5, 1.2);
    ]

let mk_sched lo hi =
  let a = Timetable.Availability.create ~horizon in
  Timetable.Availability.set_free a lo hi;
  a

let base_state () =
  let schedules = Array.init 8 (fun v -> mk_sched 0 (11 - (v mod 3))) in
  Store.state_of_instance base_graph schedules

let set vertex avail = Store.Schedule_set { vertex; avail }

(* A representative mutation stream of calendar replacements.  Vertex 2
   is set twice, so a replay that reorders records lands elsewhere, and
   vertex 5 is set back to its base calendar. *)
let deltas () =
  [
    set 2 (mk_sched 3 7);
    set 1 (mk_sched 2 9);
    set 5 (mk_sched 1 11);
    set 0 (mk_sched 4 4);
    set 6 (mk_sched 0 5);
    set 2 (mk_sched 6 11);
    set 7 (Timetable.Availability.create ~horizon);
    set 3 (mk_sched 8 11);
    set 5 (mk_sched 0 9);
    set 4 (mk_sched 0 11);
  ]

let apply_all st ds =
  List.fold_left
    (fun st d ->
      match Store.apply_delta st d with
      | Ok st' -> st'
      | Error e -> Alcotest.failf "apply_delta: %s" e)
    st ds

let expect_state name a b =
  check Alcotest.bool (name ^ ": states equal") true (Store.state_equal a b)

let open_exn ?checkpoint_bytes ~init d =
  match Store.open_dir ?checkpoint_bytes ~init d with
  | Ok pair -> pair
  | Error e -> Alcotest.failf "open_dir: %s" (Store.string_of_error e)

let no_init () = Alcotest.fail "init must not run: a snapshot exists"

(* --- snapshot codec ------------------------------------------------ *)

let test_snapshot_roundtrip () =
  let st = apply_all (base_state ()) (deltas ()) in
  let bytes = Store.encode_snapshot st in
  (match Store.decode_snapshot ~file:"mem" bytes with
  | Ok st' -> expect_state "decode(encode)" st st'
  | Error e -> Alcotest.fail (Store.string_of_error e));
  with_dir @@ fun d ->
  let p = Filename.concat d "snap.stgq" in
  let n = Store.save_snapshot p st in
  check Alcotest.int "save returns the image size" (String.length bytes) n;
  (match Store.load_snapshot p with
  | Ok st' -> expect_state "load(save)" st st'
  | Error e -> Alcotest.fail (Store.string_of_error e));
  match Store.verify_snapshot p with
  | Ok info ->
      check Alcotest.int "si_bytes" n info.Store.si_bytes;
      check Alcotest.int "si_n" 8 info.Store.si_n;
      check Alcotest.int "si_m"
        (Socgraph.Graph.n_edges st.Store.graph)
        info.Store.si_m;
      check Alcotest.int "si_horizon" horizon info.Store.si_horizon
  | Error e -> Alcotest.fail (Store.string_of_error e)

let test_snapshot_empty () =
  (* zero vertices, zero schedules: the degenerate image round-trips *)
  let st = Store.state_of_instance (Socgraph.Graph.of_edges 0 []) [||] in
  match Store.decode_snapshot ~file:"mem" (Store.encode_snapshot st) with
  | Ok st' -> expect_state "empty" st st'
  | Error e -> Alcotest.fail (Store.string_of_error e)

let test_apply_delta () =
  let st = base_state () in
  let frozen = Store.copy_state st in
  (* the functional contract: inputs are never mutated *)
  (match Store.apply_delta st (set 0 (mk_sched 1 1)) with
  | Ok st' ->
      check Alcotest.bool "the replacement changed the copy" false
        (Store.state_equal st st')
  | Error e -> Alcotest.failf "replacement: %s" e);
  expect_state "input untouched" frozen st;
  let expect_err name d =
    match Store.apply_delta st d with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: invalid delta accepted" name
  in
  expect_err "oob vertex" (set 8 (mk_sched 0 0));
  expect_err "negative vertex" (set (-1) (mk_sched 0 0));
  expect_err "horizon mismatch" (set 0 (Timetable.Availability.create ~horizon:5))

(* --- calendar mask bytes ------------------------------------------- *)

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let to_hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let same_calendar a b =
  let h = Timetable.Availability.horizon a in
  h = Timetable.Availability.horizon b
  && List.for_all
       (fun i -> Timetable.Availability.available a i = Timetable.Availability.available b i)
       (List.init h Fun.id)

(* One calendar crosses the wire and reaches the disk as the same mask:
   ceil(horizon/8) bytes, slot [i] at bit [i land 7] of byte [i / 8],
   set = free.  Horizon 37 leaves the last byte partial.  The free slots
   {0, 3, 9, 10, 11, 17, 24, 31, 32, 36} give 09 0e 02 81 11; an
   all-free calendar gives ff ff ff ff 1f, so no bit past the horizon is
   set.  The bytes are spelled out, so any change to the layout, in
   either direction, fails here. *)
let test_calendar_mask_bytes () =
  let cal free =
    let a = Timetable.Availability.create ~horizon:37 in
    List.iter (fun i -> Timetable.Availability.set_free a i i) free;
    a
  in
  let sparse = cal [ 0; 3; 9; 10; 11; 17; 24; 31; 32; 36 ] in
  let full = cal (List.init 37 Fun.id) in
  let pinned name hex bytes = check Alcotest.string name hex (to_hex bytes) in
  let update = Proto.Update_schedule { vertex = 258; avail = sparse } in
  List.iter
    (fun (version, hex) ->
      let frame = Proto.encode_request ~version update in
      pinned (Printf.sprintf "v%d Update_schedule frame" version) hex frame;
      match Proto.decode_request (of_hex hex) with
      | Ok got ->
          check Alcotest.bool
            (Printf.sprintf "v%d frame decodes to its calendar" version)
            true (Proto.equal_request got update)
      | Error e -> Alcotest.fail (Proto.string_of_decode_error e))
    [
      (1, "0000000f01050000010200000025090e028111");
      (2, "0000000f02050000010200000025090e028111");
    ];
  let record_hex = "0000000f43fd84b801040000010200000025090e028111" in
  pinned "Schedule_set WAL record" record_hex
    (Store.encode_record (Store.Schedule_set { vertex = 258; avail = sparse }));
  (with_dir @@ fun d ->
   let wal = Filename.concat d "pinned.wal" in
   write_file wal (of_hex record_hex);
   match Store.replay_wal wal with
   | Ok { Store.deltas = [ Store.Schedule_set { vertex; avail } ]; _ } ->
       check Alcotest.int "record vertex" 258 vertex;
       check Alcotest.bool "record decodes to its calendar" true
         (same_calendar avail sparse)
   | Ok _ -> Alcotest.fail "expected one Schedule_set record"
   | Error e -> Alcotest.fail (Store.string_of_error e));
  let st =
    Store.state_of_instance (Socgraph.Graph.of_edges 2 [ (0, 1, 1.5) ]) [| sparse; full |]
  in
  let image = Store.encode_snapshot st in
  let section_hex =
    "02000000121c9a9f030000000200000025090e028111ffffffff1f"
  in
  let section_len = String.length section_hex / 2 in
  pinned "timetable section" section_hex
    (String.sub image (String.length image - section_len) section_len);
  match Store.decode_snapshot ~file:"mem" image with
  | Ok got ->
      check Alcotest.bool "the section decodes to its calendars" true
        (same_calendar got.Store.schedules.(0) sparse
        && same_calendar got.Store.schedules.(1) full)
  | Error e -> Alcotest.fail (Store.string_of_error e)

(* --- WAL codec + recovery ------------------------------------------ *)

let test_wal_roundtrip () =
  with_dir @@ fun d ->
  let ds = deltas () in
  let final = apply_all (base_state ()) ds in
  let t, r0 = open_exn ~init:base_state d in
  check Alcotest.int "fresh marker" (-1) r0.Store.r_snapshot_gen;
  check Alcotest.bool "fresh status" true
    (contains ~needle:"fresh" (Store.recovery_status r0));
  List.iter (Store.append t) ds;
  let wb = Store.wal_bytes t in
  check Alcotest.int "wal bytes = sum of records" wb
    (List.fold_left (fun a dl -> a + String.length (Store.encode_record dl)) 0 ds);
  Store.close t;
  (match Store.verify_wal (Store.wal_path ~dir:d ~gen:0) with
  | Ok n -> check Alcotest.int "verify counts records" (List.length ds) n
  | Error e -> Alcotest.fail (Store.string_of_error e));
  (match Store.replay_wal (Store.wal_path ~dir:d ~gen:0) with
  | Ok r ->
      check Alcotest.int "replay records" (List.length ds) r.Store.records;
      check Alcotest.int "replay valid bytes" wb r.Store.valid_bytes;
      check Alcotest.bool "no torn tail" true (r.Store.torn = None);
      expect_state "replayed deltas rebuild the state" final
        (apply_all (base_state ()) r.Store.deltas)
  | Error e -> Alcotest.fail (Store.string_of_error e));
  let t2, r2 = open_exn ~init:no_init d in
  Store.close t2;
  check Alcotest.int "recovered from gen 0" 0 r2.Store.r_snapshot_gen;
  check Alcotest.int "all records replayed" (List.length ds) r2.Store.r_replayed;
  expect_state "recovered state" final r2.Store.r_state

let test_checkpoint () =
  with_dir @@ fun d ->
  let t, _ = open_exn ~checkpoint_bytes:1 ~init:base_state d in
  let d1 = set 0 (mk_sched 2 2) in
  let st1 = apply_all (base_state ()) [ d1 ] in
  Store.append t d1;
  check Alcotest.bool "threshold crossed" true (Store.should_checkpoint t);
  Store.checkpoint t st1;
  check Alcotest.int "wal truncated" 0 (Store.wal_bytes t);
  check Alcotest.bool "gen 1 published" true
    (Sys.file_exists (Store.snapshot_path ~dir:d ~gen:1));
  check Alcotest.bool "gen 0 kept as fallback" true
    (Sys.file_exists (Store.snapshot_path ~dir:d ~gen:0));
  check Alcotest.bool "log rotated to gen 1" true
    (Sys.file_exists (Store.wal_path ~dir:d ~gen:1));
  check Alcotest.bool "gen 0 log kept as fallback" true
    (Sys.file_exists (Store.wal_path ~dir:d ~gen:0));
  let d2 = set 1 (mk_sched 0 2) in
  let st2 = apply_all st1 [ d2 ] in
  Store.append t d2;
  Store.checkpoint t st2;
  check Alcotest.bool "gen 2 published" true
    (Sys.file_exists (Store.snapshot_path ~dir:d ~gen:2));
  check Alcotest.bool "gen 0 pruned" false
    (Sys.file_exists (Store.snapshot_path ~dir:d ~gen:0));
  check Alcotest.bool "gen 0 log pruned" false
    (Sys.file_exists (Store.wal_path ~dir:d ~gen:0));
  Store.close t;
  let t3, r3 = open_exn ~init:no_init d in
  Store.close t3;
  check Alcotest.int "recovered from gen 2" 2 r3.Store.r_snapshot_gen;
  check Alcotest.int "nothing to replay" 0 r3.Store.r_replayed;
  expect_state "checkpointed state" st2 r3.Store.r_state

let test_torn_tail () =
  with_dir @@ fun d ->
  let ds = [ List.nth (deltas ()) 0; List.nth (deltas ()) 1 ] in
  let t, _ = open_exn ~init:base_state d in
  List.iter (Store.append t) ds;
  Store.close t;
  let wal = Store.wal_path ~dir:d ~gen:0 in
  let intact = read_file wal in
  (* a crashed append: half a header of garbage at the tail *)
  write_file wal (intact ^ "\222\173\190");
  (match Store.replay_wal wal with
  | Ok r ->
      check Alcotest.int "prefix records survive" 2 r.Store.records;
      check Alcotest.int "valid bytes = intact prefix" (String.length intact)
        r.Store.valid_bytes;
      check Alcotest.bool "tail reported torn" true (r.Store.torn <> None)
  | Error e -> Alcotest.fail (Store.string_of_error e));
  (match Store.verify_wal wal with
  | Error (Store.Corrupt c) ->
      check Alcotest.int "torn offset" (String.length intact) c.Store.offset
  | Ok _ -> Alcotest.fail "strict verify accepted a torn tail");
  (* recovery truncates the tail and the log is appendable again *)
  let t2, r2 = open_exn ~init:no_init d in
  check Alcotest.bool "recovery reports the torn tail" true
    (r2.Store.r_torn <> None);
  check Alcotest.int "durable prefix replayed" 2 r2.Store.r_replayed;
  expect_state "durable prefix state" (apply_all (base_state ()) ds)
    r2.Store.r_state;
  Store.append t2 (set 7 (mk_sched 1 1));
  Store.close t2;
  (match Store.verify_wal wal with
  | Ok n -> check Alcotest.int "appends extend the durable prefix" 3 n
  | Error e -> Alcotest.fail (Store.string_of_error e));
  (* a bit flip mid-log: replay stops at the first bad CRC *)
  let flipped = Bytes.of_string (read_file wal) in
  let off = String.length (Store.encode_record (List.nth ds 0)) + 9 in
  Bytes.set flipped off (Char.chr (Char.code (Bytes.get flipped off) lxor 0x01));
  write_file wal (Bytes.to_string flipped);
  match Store.replay_wal wal with
  | Ok r ->
      check Alcotest.int "replay stops at the first bad CRC" 1 r.Store.records;
      check Alcotest.bool "flip reported" true (r.Store.torn <> None)
  | Error e -> Alcotest.fail (Store.string_of_error e)

(* The differential gate: crash the log at every byte offset around
   every record boundary; recovery must land exactly on the in-memory
   replay of the durable prefix. *)
let test_crash_at_every_record () =
  with_dir @@ fun d ->
  let ds = deltas () in
  let t, _ = open_exn ~init:base_state d in
  List.iter (Store.append t) ds;
  Store.close t;
  let wal_bytes = read_file (Store.wal_path ~dir:d ~gen:0) in
  let snap_bytes = read_file (Store.snapshot_path ~dir:d ~gen:0) in
  (* record boundaries, in prefix order: boundary j = bytes holding the
     first j records *)
  let boundaries =
    List.rev
      (List.fold_left
         (fun acc dl ->
           match acc with
           | prev :: _ -> (prev + String.length (Store.encode_record dl)) :: acc
           | [] -> assert false)
         [ 0 ] ds)
  in
  let expected_prefix j = apply_all (base_state ()) (List.filteri (fun i _ -> i < j) ds) in
  let try_cut ~cut ~records =
    with_dir @@ fun d2 ->
    write_file (Store.snapshot_path ~dir:d2 ~gen:0) snap_bytes;
    write_file (Store.wal_path ~dir:d2 ~gen:0) (String.sub wal_bytes 0 cut);
    let t2, r2 = open_exn ~init:no_init d2 in
    Store.close t2;
    check Alcotest.int
      (Printf.sprintf "cut %d: durable prefix is %d record(s)" cut records)
      records r2.Store.r_replayed;
    expect_state (Printf.sprintf "cut %d" cut) (expected_prefix records)
      r2.Store.r_state
  in
  List.iteri
    (fun j b ->
      (* exactly at the boundary: a clean crash between appends *)
      try_cut ~cut:b ~records:j;
      (* one byte into the next header, and one byte short of the next
         boundary: torn mid-append, the tail must be dropped *)
      if j < List.length ds then begin
        try_cut ~cut:(b + 1) ~records:j;
        let next = List.nth boundaries (j + 1) in
        try_cut ~cut:(next - 1) ~records:j
      end)
    boundaries

(* The checkpoint crash window: generation g+1 is renamed into place
   but the crash lands before the log rotates.  For every prefix of the
   mutation stream, recovery must load the new image and replay ZERO
   deltas — the superseded wal-g must never be applied on top of the
   image that already contains it.  A calendar replacement applied twice
   lands on the same state, so the replay count, not the state, is what
   catches a double apply.  Then the fallback chain: rot the new image
   and recovery must rebuild the same state from gen g plus the
   per-generation logs. *)
let test_checkpoint_crash_window () =
  let ds = deltas () in
  for j = 0 to List.length ds do
    with_dir @@ fun d ->
    let prefix = List.filteri (fun i _ -> i < j) ds in
    let acked = apply_all (base_state ()) prefix in
    let t, _ = open_exn ~init:base_state d in
    List.iter (Store.append t) prefix;
    (match
       Faultinject.with_plan "store_crash_checkpoint@1" (fun () ->
           Store.checkpoint t acked)
     with
    | () -> Alcotest.fail "checkpoint crash plan did not fire"
    | exception Faultinject.Injected_fault _ -> ());
    Store.close t;
    (* the window on disk: snapshot-1 published, wal-0 intact, no wal-1 *)
    check Alcotest.bool
      (Printf.sprintf "prefix %d: new image published" j)
      true
      (Sys.file_exists (Store.snapshot_path ~dir:d ~gen:1));
    check Alcotest.bool
      (Printf.sprintf "prefix %d: log not yet rotated" j)
      false
      (Sys.file_exists (Store.wal_path ~dir:d ~gen:1));
    let t2, r2 = open_exn ~init:no_init d in
    check Alcotest.int
      (Printf.sprintf "prefix %d: loaded the published generation" j)
      1 r2.Store.r_snapshot_gen;
    check Alcotest.int
      (Printf.sprintf "prefix %d: zero deltas replayed (no double apply)" j)
      0 r2.Store.r_replayed;
    expect_state
      (Printf.sprintf "prefix %d: recovered == acked" j)
      acked r2.Store.r_state;
    (* appends land in the rotated-forward log and recover on top *)
    let extra = set 7 (mk_sched 4 4) in
    Store.append t2 extra;
    Store.close t2;
    let t3, r3 = open_exn ~init:no_init d in
    Store.close t3;
    check Alcotest.int
      (Printf.sprintf "prefix %d: post-crash append replays" j)
      1 r3.Store.r_replayed;
    expect_state
      (Printf.sprintf "prefix %d: acked + extra" j)
      (apply_all acked [ extra ])
      r3.Store.r_state;
    (* rot the new image: recovery falls back to gen 0 and rebuilds the
       same state from the per-generation log chain wal-0 ++ wal-1 *)
    write_file (Store.snapshot_path ~dir:d ~gen:1) "rot";
    let t4, r4 = open_exn ~init:no_init d in
    Store.close t4;
    check Alcotest.int
      (Printf.sprintf "prefix %d: fell back to gen 0" j)
      0 r4.Store.r_snapshot_gen;
    check Alcotest.int
      (Printf.sprintf "prefix %d: rotten image counted" j)
      1 r4.Store.r_snapshots_skipped;
    check Alcotest.int
      (Printf.sprintf "prefix %d: chain replays both logs" j)
      (j + 1) r4.Store.r_replayed;
    expect_state
      (Printf.sprintf "prefix %d: chain rebuilds acked + extra" j)
      (apply_all acked [ extra ])
      r4.Store.r_state
  done

(* Recovered state must serve bit-identical answers: solve the same
   query on an uncrashed service and on one rebuilt from recovery. *)
let test_recovered_answers () =
  with_dir @@ fun d ->
  let ds = deltas () in
  let final = apply_all (base_state ()) ds in
  let t, _ = open_exn ~init:base_state d in
  List.iter (Store.append t) ds;
  Store.close t;
  let t2, r2 = open_exn ~init:no_init d in
  Store.close t2;
  let service_of (st : Store.state) =
    Service.create
      {
        Query.social = { Query.graph = st.Store.graph; initiator = 0 };
        schedules = st.Store.schedules;
      }
  in
  let live = service_of final in
  let recovered = service_of r2.Store.r_state in
  let q = { Query.p = 3; s = 2; k = 2; m = 2 } in
  let q_sg = { Query.p = 3; s = 2; k = 2 } in
  List.iter
    (fun initiator ->
      let a = Gen.served (Service.stgq_r live ~initiator q) in
      let b = Gen.served (Service.stgq_r recovered ~initiator q) in
      check Alcotest.bool
        (Printf.sprintf "stgq answers identical (initiator %d)" initiator)
        true (a = b);
      let a = Gen.served (Service.sgq_r live ~initiator q_sg) in
      let b = Gen.served (Service.sgq_r recovered ~initiator q_sg) in
      check Alcotest.bool
        (Printf.sprintf "sgq answers identical (initiator %d)" initiator)
        true (a = b))
    [ 0; 3; 5 ]

(* --- decoder hardening --------------------------------------------- *)

let test_snapshot_truncation () =
  let bytes = Store.encode_snapshot (apply_all (base_state ()) (deltas ())) in
  for cut = 0 to String.length bytes - 1 do
    match Store.decode_snapshot ~file:"mem" (String.sub bytes 0 cut) with
    | Error (Store.Corrupt _) -> ()
    | Ok _ -> Alcotest.failf "strict prefix of %d byte(s) decoded" cut
  done

let test_wal_truncation () =
  with_dir @@ fun d ->
  let ds = deltas () in
  let t, _ = open_exn ~init:base_state d in
  List.iter (Store.append t) ds;
  Store.close t;
  let wal = read_file (Store.wal_path ~dir:d ~gen:0) in
  let boundaries =
    List.fold_left
      (fun acc dl ->
        match acc with
        | prev :: _ -> (prev + String.length (Store.encode_record dl)) :: acc
        | [] -> assert false)
      [ 0 ] ds
  in
  let probe = Filename.concat d "probe.wal" in
  for cut = 0 to String.length wal - 1 do
    write_file probe (String.sub wal 0 cut);
    match Store.verify_wal probe with
    | Ok _ when List.mem cut boundaries -> ()
    | Ok n ->
        Alcotest.failf "strict verify accepted a mid-record cut at %d (%d recs)"
          cut n
    | Error (Store.Corrupt _) when not (List.mem cut boundaries) -> ()
    | Error (Store.Corrupt c) ->
        Alcotest.failf "boundary cut at %d rejected: %s" cut c.Store.detail
  done

let snapshot_fuzz_bytes =
  lazy (Store.encode_snapshot (apply_all (base_state ()) (deltas ())))

let prop_snapshot_mutation =
  Gen.qtest ~count:300 "snapshot byte mutations never raise"
    (QCheck.make
       ~print:(fun (pos, byte) -> Printf.sprintf "byte %d := %d" pos byte)
       (fun st ->
         let bytes = Lazy.force snapshot_fuzz_bytes in
         (G.int_bound (String.length bytes - 1) st, G.int_bound 255 st)))
    (fun (pos, byte) ->
      let mutated = Bytes.of_string (Lazy.force snapshot_fuzz_bytes) in
      Bytes.set mutated pos (Char.chr byte);
      match Store.decode_snapshot ~file:"mem" (Bytes.to_string mutated) with
      | Ok _ | Error (Store.Corrupt _) -> true)

let prop_garbage_snapshot =
  Gen.qtest ~count:300 "random bytes never decode as a snapshot image"
    (QCheck.make ~print:(Printf.sprintf "%S") G.(string_size (int_bound 64)))
    (fun s ->
      match Store.decode_snapshot ~file:"mem" s with
      | Error (Store.Corrupt _) -> true
      | Ok st -> Store.state_equal st st (* unreachable for garbage < magic *))

let w32_be b v =
  for i = 3 downto 0 do
    Buffer.add_char b (Char.chr ((v lsr (i * 8)) land 0xFF))
  done

let section b tag payload =
  Buffer.add_char b (Char.chr tag);
  w32_be b (String.length payload);
  w32_be b (Store.crc32 payload);
  Buffer.add_string b payload

(* One WAL record around [payload]: its length, its CRC, the payload. *)
let wal_frame payload =
  let b = Buffer.create (8 + String.length payload) in
  w32_be b (String.length payload);
  w32_be b (Store.crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* Hostile declared lengths must be rejected against the bytes present
   before anything is allocated from them. *)
let test_hostile_lengths () =
  (* a graph section declaring ~4 GiB of payload *)
  let b = Buffer.create 32 in
  Buffer.add_string b "STGQSNAP\001";
  Buffer.add_char b '\001';
  w32_be b 0xFFFFFF00;
  w32_be b 0;
  (match Store.decode_snapshot ~file:"mem" (Buffer.contents b) with
  | Error (Store.Corrupt c) ->
      check Alcotest.bool "offset recorded" true (c.Store.offset > 0)
  | Ok _ -> Alcotest.fail "hostile section length decoded");
  (* a graph section declaring ~4e9 vertices under a valid CRC with
     zero edges: ~30 bytes on disk must not size O(n) vertex columns *)
  let hostile_n = Buffer.create 16 in
  w32_be hostile_n 0xFFFFFF00;
  w32_be hostile_n 0;
  let img_n = Buffer.create 64 in
  Buffer.add_string img_n "STGQSNAP\001";
  section img_n 1 (Buffer.contents hostile_n);
  (match Store.decode_snapshot ~file:"mem" (Buffer.contents img_n) with
  | Error (Store.Corrupt c) ->
      check Alcotest.bool "vertex cap named" true
        (contains ~needle:"cap" c.Store.detail)
  | Ok _ -> Alcotest.fail "hostile vertex count decoded");
  (* just over the cap is rejected, the cap itself is about bounding
     allocation, not the encodable range below it *)
  let over = Buffer.create 16 in
  w32_be over (Store.max_vertices + 1);
  w32_be over 0;
  let img_over = Buffer.create 64 in
  Buffer.add_string img_over "STGQSNAP\001";
  section img_over 1 (Buffer.contents over);
  (match Store.decode_snapshot ~file:"mem" (Buffer.contents img_over) with
  | Error (Store.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "vertex count over the cap decoded");
  (* a timetable section declaring a ~4e9-slot horizon under a valid
     CRC: the mask bytes are not present, so no bitset may be built *)
  let g = Buffer.create 16 in
  w32_be g 2;
  w32_be g 0;
  let tt = Buffer.create 16 in
  w32_be tt 2;
  w32_be tt 0xFFFFFF00;
  let img = Buffer.create 64 in
  Buffer.add_string img "STGQSNAP\001";
  section img 1 (Buffer.contents g);
  section img 2 (Buffer.contents tt);
  (match Store.decode_snapshot ~file:"mem" (Buffer.contents img) with
  | Error (Store.Corrupt c) ->
      check Alcotest.bool "truncation detail" true
        (contains ~needle:"truncated" c.Store.detail)
  | Ok _ -> Alcotest.fail "hostile horizon decoded");
  (* a WAL record declaring more than the 1 MiB cap is a torn tail for
     replay and corruption for strict verify *)
  with_dir @@ fun d ->
  let wal = Filename.concat d "wal.stgq" in
  let b = Buffer.create 16 in
  w32_be b ((1 lsl 20) + 1);
  w32_be b 0;
  write_file wal (Buffer.contents b);
  (match Store.replay_wal wal with
  | Ok r ->
      check Alcotest.int "no records" 0 r.Store.records;
      check Alcotest.bool "cap reported" true
        (match r.Store.torn with
        | Some c -> contains ~needle:"cap" c.Store.detail
        | None -> false)
  | Error e -> Alcotest.fail (Store.string_of_error e));
  (match Store.verify_wal wal with
  | Error (Store.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "strict verify accepted an over-cap record");
  (* the WAL twin of the hostile horizon: a Schedule_set to vertex 0
     declaring a ~4e9-slot horizon under a valid CRC, with no mask
     bytes, is refused before any calendar is sized from it *)
  write_file wal (wal_frame ("\001\004" ^ of_hex "00000000ffffff00"));
  List.iter
    (fun (reader, result) ->
      match result with
      | Error (Store.Corrupt c) ->
          check Alcotest.bool (reader ^ ": truncation detail") true
            (contains ~needle:"truncated" c.Store.detail)
      | Ok () -> Alcotest.failf "%s decoded a hostile record horizon" reader)
    [
      ("replay_wal", Result.map ignore (Store.replay_wal wal));
      ("verify_wal", Result.map ignore (Store.verify_wal wal));
    ]

(* Only ENOENT means "empty log": any other failure reading the log
   must surface as a typed error, never as an empty log — misreading an
   existing log as empty would position appends at offset 0 and
   overwrite durable records. *)
let test_wal_missing_vs_unreadable () =
  (match Store.replay_wal "store-test-definitely-absent.stgq" with
  | Ok r ->
      check Alcotest.int "absent file is an empty log" 0 r.Store.records;
      check Alcotest.bool "no torn tail" true (r.Store.torn = None)
  | Error e -> Alcotest.fail (Store.string_of_error e));
  (* a directory in the log's place opens but fails to read (EISDIR) *)
  with_dir @@ fun d ->
  (match Store.replay_wal d with
  | Error (Store.Corrupt c) ->
      check Alcotest.bool "read failure reported" true
        (contains ~needle:"cannot" c.Store.detail)
  | Ok _ -> Alcotest.fail "unreadable log read as an empty log");
  match Store.verify_wal d with
  | Error (Store.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "strict verify read an unreadable log as empty"

let test_recovery_refuses () =
  (* a directory whose only snapshot is rot: refuse, do not clobber *)
  (with_dir @@ fun d ->
   write_file (Store.snapshot_path ~dir:d ~gen:0) "garbage";
   match Store.open_dir ~init:no_init d with
   | Error (Store.Corrupt _) -> ()
   | Ok _ -> Alcotest.fail "opened a store with no valid snapshot");
  (* a delta log with no snapshot generation at all: the images were
     lost, so refuse to initialise over the stale log — and write
     nothing into the directory while refusing *)
  (with_dir @@ fun d ->
   write_file
     (Store.wal_path ~dir:d ~gen:0)
     (Store.encode_record (set 0 (mk_sched 1 1)));
   (match Store.open_dir ~init:no_init d with
   | Error (Store.Corrupt c) ->
       check Alcotest.bool "stale log named" true
         (contains ~needle:"no snapshot" c.Store.detail)
   | Ok _ -> Alcotest.fail "initialised over a stale delta log");
   check Alcotest.bool "no generation written while refusing" false
     (Sys.file_exists (Store.snapshot_path ~dir:d ~gen:0)));
  (* a broken log chain: the loaded generation's log is missing while a
     newer generation's log survives — state cannot be reconstructed *)
  (with_dir @@ fun d ->
   let t, _ = open_exn ~init:base_state d in
   Store.append t (set 0 (mk_sched 1 1));
   Store.checkpoint t (apply_all (base_state ()) [ set 0 (mk_sched 1 1) ]);
   Store.close t;
   (* snapshots 0+1, logs 0+1 exist; lose snapshot 1 and log 0 *)
   Sys.remove (Store.snapshot_path ~dir:d ~gen:1);
   Sys.remove (Store.wal_path ~dir:d ~gen:0);
   match Store.open_dir ~init:no_init d with
   | Error (Store.Corrupt c) ->
       check Alcotest.bool "chain break named" true
         (contains ~needle:"chain" c.Store.detail)
   | Ok _ -> Alcotest.fail "opened across a broken log chain");
  (* a WAL record with a valid CRC but invalid semantics: the writer
     never produced it, so recovery refuses with its offset *)
  with_dir @@ fun d ->
  let t, _ = open_exn ~init:base_state d in
  Store.close t;
  write_file
    (Store.wal_path ~dir:d ~gen:0)
    (Store.encode_record (set 7777 (mk_sched 0 0)));
  match Store.open_dir ~init:no_init d with
  | Error (Store.Corrupt c) ->
      check Alcotest.int "offset of the bad record" 0 c.Store.offset;
      check Alcotest.bool "detail names the range violation" true
        (contains ~needle:"out of range" c.Store.detail)
  | Ok _ -> Alcotest.fail "replayed a semantically invalid record"

(* Tags 1-3 once named an edge add, an edge removal and a slot flip.  No
   server wrote them, so a record that carries one, even under a valid
   CRC, is refused as corrupt, by recovery and by both log readers, at
   an offset inside that record. *)
let test_retired_tags_refused () =
  with_dir @@ fun d ->
  let t, _ = open_exn ~init:base_state d in
  Store.close t;
  let wal = Store.wal_path ~dir:d ~gen:0 in
  List.iter
    (fun (tag, body) ->
      let bytes = wal_frame ("\001" ^ String.make 1 (Char.chr tag) ^ of_hex body) in
      write_file wal bytes;
      let refused reader = function
        | Error (Store.Corrupt c) ->
            check Alcotest.bool
              (Printf.sprintf "%s names tag %d" reader tag)
              true
              (contains ~needle:(Printf.sprintf "unknown record tag %d" tag) c.Store.detail);
            check Alcotest.bool
              (Printf.sprintf "%s: tag %d's offset lies in the record" reader tag)
              true
              (c.Store.offset >= 0 && c.Store.offset < String.length bytes)
        | Ok () -> Alcotest.failf "%s accepted a record with retired tag %d" reader tag
      in
      refused "open_dir"
        (Result.map (fun (t, _) -> Store.close t) (Store.open_dir ~init:no_init d));
      refused "replay_wal" (Result.map ignore (Store.replay_wal wal));
      refused "verify_wal" (Result.map ignore (Store.verify_wal wal)))
    [
      (* edge add {0, 7} of weight 2.5 *)
      (1, "00000000000000074004000000000000");
      (* edge remove {1, 2} *)
      (2, "0000000100000002");
      (* slot flip: vertex 2, slot 3 *)
      (3, "0000000200000003");
    ]

(* --- engine epoch --------------------------------------------------- *)

let test_cache_epoch () =
  let path = Socgraph.Graph.of_edges 5 [ (0, 1, 1.); (1, 2, 1.); (2, 3, 1.); (3, 4, 1.) ] in
  let schedules = Array.init 5 (fun _ -> mk_sched 0 5) in
  let cache = Engine.Cache.create ~schedules path in
  check Alcotest.int "epoch starts at 0" 0 (Engine.Cache.epoch cache);
  Engine.Cache.set_schedule cache ~vertex:2 (mk_sched 1 3);
  check Alcotest.int "schedule edit bumps epoch" 1 (Engine.Cache.epoch cache)

(* --- client retry + healthz ---------------------------------------- *)

let fast_policy =
  { Resilience.default_policy with backoff_ms = 0.01; max_retries = 2 }

let base_ti () =
  let st = base_state () in
  {
    Query.social = { Query.graph = st.Store.graph; initiator = 0 };
    schedules = st.Store.schedules;
  }

let test_connect_retry () =
  (* unreachable endpoint: typed error after the retry allowance *)
  (match
     Server.Client.connect_retry ~policy:fast_policy
       (Server.Unix_path "store-test-no-such-dir/sock")
   with
  | Error msg ->
      check Alcotest.bool "error counts attempts" true
        (contains ~needle:"3 attempt(s)" msg)
  | Ok _ -> Alcotest.fail "connected to nothing");
  (* live endpoint: first attempt wins *)
  let service = Service.create (base_ti ()) in
  Suite_server.with_server service @@ fun addr ->
  match Server.Client.connect_retry ~policy:fast_policy addr with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          match Server.Client.hello c ~client:"suite-store" with
          | Ok _ -> ()
          | Error msg -> Alcotest.fail msg)

let test_healthz_recovery_field () =
  with_dir @@ fun d ->
  let t, recovery = open_exn ~init:base_state d in
  Store.close t;
  let baseline = Obs.snapshot () in
  let status () = "store: " ^ Store.recovery_status recovery in
  let code, _, body = Obs.Exposition.respond ~health:status ~baseline "/healthz" in
  check Alcotest.int "healthz is 200" 200 code;
  check Alcotest.bool "liveness line first" true
    (String.length body >= 3 && String.sub body 0 3 = "ok\n");
  check Alcotest.bool "recovery status reported" true
    (contains ~needle:"fresh store" body);
  (* without the hook the body is unchanged *)
  let _, _, plain = Obs.Exposition.respond ~baseline "/healthz" in
  check Alcotest.string "default body" "ok\n" plain

(* --- the wire: journal before ack ---------------------------------- *)

let test_wire_durability () =
  with_dir @@ fun d ->
  let service = Service.create (base_ti ()) in
  let init () =
    Store.state_of_instance (Service.graph service) (Service.schedules service)
  in
  let t, _ = open_exn ~init d in
  let config = { Server.default_config with store = Some t } in
  let edit = mk_sched 1 4 in
  (Suite_server.with_server ~config service @@ fun addr ->
   Suite_server.with_client addr @@ fun c ->
   (match
      Suite_server.request_exn c
        (Proto.Update_schedule { vertex = 3; avail = edit })
    with
   | Proto.Updated { vertex } -> check Alcotest.int "acked vertex" 3 vertex
   | resp -> Alcotest.failf "expected Updated, got %a" Proto.pp_response resp);
   (* an invalid edit is rejected before it can pollute the log *)
   match
     Suite_server.request_exn c
       (Proto.Update_schedule { vertex = 999; avail = edit })
   with
   | Proto.Failed (Proto.Bad_request _) -> ()
   | resp -> Alcotest.failf "expected Bad_request, got %a" Proto.pp_response resp);
  Store.close t;
  (* the acked edit survives: reopen and find it in the recovered state *)
  let t2, r2 = open_exn ~init:no_init d in
  Store.close t2;
  check Alcotest.int "one journalled record" 1 r2.Store.r_replayed;
  check Alcotest.bool "recovered calendar carries the edit" true
    (Timetable.Availability.equal r2.Store.r_state.Store.schedules.(3) edit);
  (* the recovered state is exactly what the live service holds... *)
  expect_state "recovered == live in-memory state" (init ()) r2.Store.r_state;
  (* ...and reverting the one acked edit lands back on the initial state *)
  expect_state "only vertex 3 changed" (base_state ())
    (apply_all r2.Store.r_state
       [ Store.Schedule_set { vertex = 3; avail = (base_state ()).Store.schedules.(3) } ])

let test_store_metrics () =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let appends = Obs.counter "store.wal.appends" in
  let replays = Obs.counter "store.replay.records" in
  let before_appends = Obs.Counter.value appends in
  let before_replays = Obs.Counter.value replays in
  with_dir @@ fun d ->
  let t, _ = open_exn ~init:base_state d in
  List.iter (Store.append t) (deltas ());
  Store.close t;
  check Alcotest.int "appends counted"
    (before_appends + List.length (deltas ()))
    (Obs.Counter.value appends);
  let t2, _ = open_exn ~init:no_init d in
  Store.close t2;
  check Alcotest.int "replayed records counted"
    (before_replays + List.length (deltas ()))
    (Obs.Counter.value replays)

(* --- the Store_* fault matrix (env-gated) -------------------------- *)

let test_fault_short_write () =
  match spec_for Faultinject.Store_short_write with
  | None -> ()
  | Some spec ->
      with_dir @@ fun d ->
      let p = Filename.concat d "snap.stgq" in
      let st = base_state () in
      (match Store.save_snapshot p st with
      | _ -> Alcotest.fail "short-write plan did not fire"
      | exception Faultinject.Injected_fault _ -> ());
      check Alcotest.bool "site fired" true
        (Faultinject.hits Faultinject.Store_short_write > 0);
      (* the crash happened before the rename: no image is visible *)
      check Alcotest.bool "no image published" false (Sys.file_exists p);
      (* the half-written temp file never verifies *)
      (match Store.load_snapshot (p ^ ".tmp") with
      | Error (Store.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "half-written temp file decoded");
      if not spec.persistent then begin
        let n = Store.save_snapshot p st in
        check Alcotest.bool "retry publishes" true (n > 0);
        match Store.load_snapshot p with
        | Ok st' -> expect_state "published image" st st'
        | Error e -> Alcotest.fail (Store.string_of_error e)
      end

let test_fault_crash_rename () =
  match spec_for Faultinject.Store_crash_rename with
  | None -> ()
  | Some spec ->
      with_dir @@ fun d ->
      let p = Filename.concat d "snap.stgq" in
      let st = base_state () in
      (match Store.save_snapshot p st with
      | _ -> Alcotest.fail "crash-rename plan did not fire"
      | exception Faultinject.Injected_fault _ -> ());
      check Alcotest.bool "site fired" true
        (Faultinject.hits Faultinject.Store_crash_rename > 0);
      (* crash after fsync, before rename: temp complete, image absent *)
      check Alcotest.bool "no image published" false (Sys.file_exists p);
      (match Store.load_snapshot (p ^ ".tmp") with
      | Ok st' -> expect_state "temp file was fully written" st st'
      | Error e -> Alcotest.fail (Store.string_of_error e));
      if not spec.persistent then begin
        ignore (Store.save_snapshot p st : int);
        match Store.load_snapshot p with
        | Ok st' -> expect_state "retry publishes" st st'
        | Error e -> Alcotest.fail (Store.string_of_error e)
      end

let test_fault_bit_flip () =
  match spec_for Faultinject.Store_bit_flip with
  | None -> ()
  | Some spec ->
      with_dir @@ fun d ->
      let stA = base_state () in
      let stB = apply_all (base_state ()) [ List.nth (deltas ()) 0 ] in
      (* newest generation takes the silent flip *)
      ignore (Store.save_snapshot (Store.snapshot_path ~dir:d ~gen:1) stA : int);
      check Alcotest.bool "site fired" true
        (Faultinject.hits Faultinject.Store_bit_flip > 0);
      (match Store.load_snapshot (Store.snapshot_path ~dir:d ~gen:1) with
      | Error (Store.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "flipped image passed its CRC");
      if spec.persistent then begin
        (* every image rots: recovery must refuse, not fabricate *)
        ignore (Store.save_snapshot (Store.snapshot_path ~dir:d ~gen:0) stB : int);
        match Store.open_dir ~init:no_init d with
        | Error (Store.Corrupt _) -> ()
        | Ok _ -> Alcotest.fail "opened on all-corrupt generations"
      end
      else begin
        (* older generation is intact: recovery falls back to it *)
        ignore (Store.save_snapshot (Store.snapshot_path ~dir:d ~gen:0) stB : int);
        let t, r = open_exn ~init:no_init d in
        Store.close t;
        check Alcotest.int "fell back to gen 0" 0 r.Store.r_snapshot_gen;
        check Alcotest.int "rotten generation counted" 1
          r.Store.r_snapshots_skipped;
        expect_state "fallback state" stB r.Store.r_state
      end

let test_fault_crash_append () =
  match spec_for Faultinject.Store_crash_append with
  | None -> ()
  | Some spec ->
      with_dir @@ fun d ->
      let t, _ = open_exn ~init:base_state d in
      let d1 = List.nth (deltas ()) 0 in
      (match Store.append t d1 with
      | () -> Alcotest.fail "crash-append plan did not fire"
      | exception Faultinject.Injected_fault _ -> ());
      check Alcotest.bool "site fired" true
        (Faultinject.hits Faultinject.Store_crash_append > 0);
      Store.close t;
      (* recovery: the torn record is dropped, state is the pre-crash
         durable prefix (nothing was acked, nothing is replayed) *)
      let t2, r2 = open_exn ~init:no_init d in
      check Alcotest.int "torn record not replayed" 0 r2.Store.r_replayed;
      check Alcotest.bool "torn tail reported" true (r2.Store.r_torn <> None);
      expect_state "durable prefix = snapshot" (base_state ()) r2.Store.r_state;
      if not spec.persistent then begin
        Store.append t2 d1;
        Store.close t2;
        let t3, r3 = open_exn ~init:no_init d in
        Store.close t3;
        check Alcotest.int "retried append replays" 1 r3.Store.r_replayed;
        expect_state "retried append recovered"
          (apply_all (base_state ()) [ d1 ])
          r3.Store.r_state
      end
      else Store.close t2

let test_fault_crash_checkpoint () =
  match spec_for Faultinject.Store_crash_checkpoint with
  | None -> ()
  | Some spec ->
      with_dir @@ fun d ->
      let t, _ = open_exn ~init:base_state d in
      let d1 = List.nth (deltas ()) 0 in
      Store.append t d1;
      let acked = apply_all (base_state ()) [ d1 ] in
      (match Store.checkpoint t acked with
      | () -> Alcotest.fail "crash-checkpoint plan did not fire"
      | exception Faultinject.Injected_fault _ -> ());
      check Alcotest.bool "site fired" true
        (Faultinject.hits Faultinject.Store_crash_checkpoint > 0);
      Store.close t;
      (* the published image is the durable truth; the superseded log
         must not be replayed on top of it *)
      let t2, r2 = open_exn ~init:no_init d in
      check Alcotest.int "loaded the published generation" 1
        r2.Store.r_snapshot_gen;
      check Alcotest.int "no double apply" 0 r2.Store.r_replayed;
      expect_state "recovered == acked" acked r2.Store.r_state;
      if not spec.persistent then begin
        (* the next checkpoint completes a full rotation *)
        let d2 = List.nth (deltas ()) 4 in
        Store.append t2 d2;
        let acked2 = apply_all acked [ d2 ] in
        Store.checkpoint t2 acked2;
        Store.close t2;
        let t3, r3 = open_exn ~init:no_init d in
        Store.close t3;
        check Alcotest.int "retry publishes the next generation" 2
          r3.Store.r_snapshot_gen;
        check Alcotest.int "nothing to replay after rotation" 0
          r3.Store.r_replayed;
        expect_state "checkpointed state" acked2 r3.Store.r_state
      end
      else Store.close t2

let suite =
  [
    Alcotest.test_case "snapshot round-trip" `Quick
      (unless_armed test_snapshot_roundtrip);
    Alcotest.test_case "empty snapshot" `Quick (unless_armed test_snapshot_empty);
    Alcotest.test_case "apply_delta semantics" `Quick
      (unless_armed test_apply_delta);
    Alcotest.test_case "calendar mask bytes pinned" `Quick
      (unless_armed test_calendar_mask_bytes);
    Alcotest.test_case "WAL round-trip + recovery" `Quick
      (unless_armed test_wal_roundtrip);
    Alcotest.test_case "checkpoint + prune" `Quick (unless_armed test_checkpoint);
    Alcotest.test_case "torn tail" `Quick (unless_armed test_torn_tail);
    Alcotest.test_case "crash at every record (differential)" `Quick
      (unless_armed test_crash_at_every_record);
    Alcotest.test_case "checkpoint crash window (differential)" `Quick
      (unless_armed test_checkpoint_crash_window);
    Alcotest.test_case "recovered answers bit-identical" `Quick
      (unless_armed test_recovered_answers);
    Alcotest.test_case "snapshot truncation" `Quick
      (unless_armed test_snapshot_truncation);
    Alcotest.test_case "WAL truncation" `Quick (unless_armed test_wal_truncation);
    (if store_plan_armed then
       Alcotest.test_case "snapshot mutations (skipped: plan armed)" `Quick
         (fun () -> ())
     else prop_snapshot_mutation);
    (if store_plan_armed then
       Alcotest.test_case "garbage snapshots (skipped: plan armed)" `Quick
         (fun () -> ())
     else prop_garbage_snapshot);
    Alcotest.test_case "hostile lengths" `Quick (unless_armed test_hostile_lengths);
    Alcotest.test_case "missing vs unreadable log" `Quick
      (unless_armed test_wal_missing_vs_unreadable);
    Alcotest.test_case "recovery refuses bad stores" `Quick
      (unless_armed test_recovery_refuses);
    Alcotest.test_case "retired record tags refused" `Quick
      (unless_armed test_retired_tags_refused);
    Alcotest.test_case "cache epoch" `Quick (unless_armed test_cache_epoch);
    Alcotest.test_case "connect retry" `Quick (unless_armed test_connect_retry);
    Alcotest.test_case "healthz recovery field" `Quick
      (unless_armed test_healthz_recovery_field);
    Alcotest.test_case "wire journal-before-ack" `Quick
      (unless_armed test_wire_durability);
    Alcotest.test_case "store metrics" `Quick (unless_armed test_store_metrics);
    Alcotest.test_case "fault: short write" `Quick test_fault_short_write;
    Alcotest.test_case "fault: crash before rename" `Quick
      test_fault_crash_rename;
    Alcotest.test_case "fault: bit flip" `Quick test_fault_bit_flip;
    Alcotest.test_case "fault: crash mid-append" `Quick test_fault_crash_append;
    Alcotest.test_case "fault: crash mid-checkpoint" `Quick
      test_fault_crash_checkpoint;
  ]
