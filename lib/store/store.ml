(* Crash-safe durable state: versioned snapshots + write-ahead delta
   log.  Byte layouts live in docs/PERSISTENCE.md; the decoder follows
   the Proto discipline — a bounds-checked cursor, every length from
   disk validated against the bytes actually present before anything is
   allocated from it, and every failure converted into a typed
   [Corrupt] carrying the file and byte offset.

   Durability protocol:
   - snapshots: encode whole image -> write temp file -> fsync ->
     atomic rename -> fsync directory.  A crash at any point leaves
     either the old generation or the new one, never a torn image.
   - WAL: one CRC-framed record per mutation, appended (and fsynced)
     before the in-memory edit lands.  A crash mid-append leaves a torn
     tail; recovery stops at the first bad CRC and truncates the tail
     so later appends extend the durable prefix.
   - each log is bound to a snapshot generation: [wal-NNNNNN.stgq]
     holds exactly the deltas appended on top of [snapshot-NNNNNN.stgq].
     A checkpoint publishes generation g+1 and then rotates the log, so
     a crash between those two steps leaves generation g+1 with no log
     of its own — recovery replays zero deltas, never the superseded
     log of generation g on top of the image that already contains it.

   The [Store_*] fault sites fire at exactly these seams so the
   [@faults] matrix can replay each crash deterministically. *)

type state = {
  graph : Socgraph.Graph.t;
  schedules : Timetable.Availability.t array;
}

type corrupt = { file : string; offset : int; detail : string }

type error = Corrupt of corrupt

let string_of_error (Corrupt { file; offset; detail }) =
  Printf.sprintf "%s: corrupt at byte %d: %s" file offset detail

let pp_error ppf e = Format.pp_print_string ppf (string_of_error e)

(* ------------------------------------------------------------------ *)
(* Metrics. *)

let m_appends = Obs.counter "store.wal.appends"

let m_replayed = Obs.counter "store.replay.records"

let m_checkpoints = Obs.counter "store.checkpoints"

let g_wal_bytes = Obs.gauge "store.wal.bytes"

let g_snapshot_bytes = Obs.gauge "store.snapshot.bytes"

let g_bytes_per_user = Obs.gauge "store.snapshot.bytes_per_user"

(* 0 fresh, 1 clean snapshot, 2 WAL replayed, 3 torn tail dropped,
   4 newest snapshot generation(s) rejected — see docs/PERSISTENCE.md. *)
let g_recovery_outcome = Obs.gauge "store.recovery.outcome"

let h_checkpoint = Obs.histogram "store.checkpoint.latency_ns"

let h_snapshot_load = Obs.histogram "store.snapshot.load_ns"

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected 0xEDB88320). *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_sub s pos len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub s 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* State algebra. *)

let horizon_of schedules =
  if Array.length schedules = 0 then 0
  else Timetable.Availability.horizon schedules.(0)

let state_of_instance graph schedules =
  Timetable.Availability.check_schedules ~n:(Socgraph.Graph.n_vertices graph) schedules;
  { graph; schedules }

let copy_state st =
  { st with schedules = Array.map Timetable.Availability.copy st.schedules }

let state_equal a b =
  Socgraph.Graph.n_vertices a.graph = Socgraph.Graph.n_vertices b.graph
  && Socgraph.Graph.edges a.graph = Socgraph.Graph.edges b.graph
  && Array.length a.schedules = Array.length b.schedules
  && Array.for_all2 Timetable.Availability.equal a.schedules b.schedules

type delta = Schedule_set of { vertex : int; avail : Timetable.Availability.t }

let apply_delta st (Schedule_set { vertex; avail }) =
  let n = Socgraph.Graph.n_vertices st.graph in
  if vertex < 0 || vertex >= n then
    Error (Printf.sprintf "schedule_set: vertex %d out of range [0,%d)" vertex n)
  else
    let h = Timetable.Availability.horizon st.schedules.(vertex) in
    if Timetable.Availability.horizon avail <> h then
      Error
        (Printf.sprintf "schedule_set: horizon %d, expected %d"
           (Timetable.Availability.horizon avail)
           h)
    else begin
      let schedules = Array.copy st.schedules in
      schedules.(vertex) <- Timetable.Availability.copy avail;
      Ok { st with schedules }
    end

(* ------------------------------------------------------------------ *)
(* Writers (big-endian, Proto discipline: range violations on the
   encoding side are programming errors and raise). *)

let w_u8 b v =
  if v < 0 || v > 0xFF then invalid_arg "Store: u8 out of range";
  Buffer.add_char b (Char.chr v)

let w_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Store: u32 out of range";
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (v land 0xFF))

let w_f64 b v =
  let bits = Int64.bits_of_float v in
  for i = 7 downto 0 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical bits (i * 8)) land 0xFF))
  done

(* ------------------------------------------------------------------ *)
(* Bounds-checked reader of [buf] up to [limit] (exclusive).  [buf] is
   the whole file and [pos] its absolute offset, so a section or record
   payload is read in place, by a reader whose [limit] ends it, and
   reports real offsets. *)

type reader = { rfile : string; buf : string; limit : int; mutable pos : int }

exception Fail of corrupt

let reader ~file bytes =
  { rfile = file; buf = bytes; limit = String.length bytes; pos = 0 }

(* The [len]-byte payload at [r.pos], which [r] then skips. *)
let payload r len =
  let p = { r with limit = r.pos + len } in
  r.pos <- r.pos + len;
  p

let fail r detail = raise (Fail { file = r.rfile; offset = r.pos; detail })

let need r n =
  let remaining = r.limit - r.pos in
  if n < 0 || n > remaining then
    fail r (Printf.sprintf "truncated: needed %d byte(s), %d available" n remaining)

let r_u8 r =
  need r 1;
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  need r 4;
  let b i = Char.code r.buf.[r.pos + i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  r.pos <- r.pos + 4;
  v

let r_f64 r =
  need r 8;
  let bits = ref 0L in
  for i = 0 to 7 do
    bits :=
      Int64.logor (Int64.shift_left !bits 8)
        (Int64.of_int (Char.code r.buf.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  Int64.float_of_bits !bits

(* ------------------------------------------------------------------ *)
(* Snapshot codec (docs/PERSISTENCE.md, "Snapshot layout"). *)

let magic = "STGQSNAP"

let format_version = 1

let tag_graph = 1

let tag_timetable = 2

let encode_graph_section g =
  let b = Buffer.create 4096 in
  let n = Socgraph.Graph.n_vertices g in
  w_u32 b n;
  w_u32 b (Socgraph.Graph.n_edges g);
  (* Row scan emits (v, u, w) with v < u in ascending lexicographic
     order — the canonical order [of_sorted_arrays] reloads without a
     sort — while never materialising the edge list. *)
  for v = 0 to n - 1 do
    Socgraph.Graph.iter_neighbors g v (fun u w ->
        if v < u then begin
          w_u32 b v;
          w_u32 b u;
          w_f64 b w
        end)
  done;
  Buffer.contents b

let encode_timetable_section schedules =
  let count = Array.length schedules in
  let horizon = horizon_of schedules in
  let b =
    Buffer.create (8 + (count * Timetable.Availability.mask_bytes ~horizon))
  in
  w_u32 b count;
  w_u32 b horizon;
  (* One byte mask per calendar (Timetable.Availability.add_mask), the
     layout Proto sends. *)
  Array.iter (Timetable.Availability.add_mask b) schedules;
  Buffer.contents b

let encode_snapshot st =
  let b = Buffer.create 65536 in
  Buffer.add_string b magic;
  w_u8 b format_version;
  let section tag payload =
    w_u8 b tag;
    w_u32 b (String.length payload);
    w_u32 b (crc32 payload);
    Buffer.add_string b payload
  in
  section tag_graph (encode_graph_section st.graph);
  section tag_timetable (encode_timetable_section st.schedules);
  Buffer.contents b

(* Decode one section header and return a payload reader.  The
   declared length is checked against the bytes present before the
   payload is read. *)
let r_section r ~expect_tag =
  let tag = r_u8 r in
  if tag <> expect_tag then
    fail r (Printf.sprintf "expected section tag %d, found %d" expect_tag tag);
  let len = r_u32 r in
  need r 4;
  let declared_crc = r_u32 r in
  need r len;
  let got_crc = crc32_sub r.buf r.pos len in
  if got_crc <> declared_crc then
    fail r
      (Printf.sprintf "section %d CRC mismatch: stored %08x, computed %08x" tag
         declared_crc got_crc);
  payload r len

(* [Graph.of_sorted_arrays] sizes O(n) degree/row columns from [n]
   before a single edge is read, so the vertex count must be bounded
   here: a ~30-byte image declaring n ~ 4e9 under a valid CRC would
   otherwise force multi-GiB allocations.  The cap is two orders of
   magnitude above the scale gates (1e5 users in _build/default/BENCH_scale.json). *)
let max_vertices = 1 lsl 24

let decode_graph_section p =
  let n = r_u32 p in
  if n > max_vertices then
    fail p
      (Printf.sprintf "vertex count %d exceeds the %d cap" n max_vertices);
  let m = r_u32 p in
  (* 16 bytes per edge; checked before the three columns exist. *)
  need p (16 * m);
  let us = Array.make (max 1 m) 0 in
  let vs = Array.make (max 1 m) 0 in
  let ws = Array.make (max 1 m) 0. in
  for i = 0 to m - 1 do
    let at = p.pos in
    let u = r_u32 p in
    let v = r_u32 p in
    let w = r_f64 p in
    let bad detail = raise (Fail { file = p.rfile; offset = at; detail }) in
    if u >= n || v >= n then
      bad (Printf.sprintf "edge (%d,%d) out of range [0,%d)" u v n);
    if u >= v then bad (Printf.sprintf "edge (%d,%d) not u < v" u v);
    if (not (Float.is_finite w)) || w <= 0. then
      bad (Printf.sprintf "edge (%d,%d) weight %g not positive" u v w);
    if i > 0 && (us.(i - 1) > u || (us.(i - 1) = u && vs.(i - 1) >= v)) then
      bad (Printf.sprintf "edge (%d,%d) breaks canonical order" u v);
    us.(i) <- u;
    vs.(i) <- v;
    ws.(i) <- w
  done;
  if p.pos <> p.limit then
    fail p (Printf.sprintf "%d trailing byte(s) in graph section" (p.limit - p.pos));
  let us = if m = 0 then [||] else us in
  let vs = if m = 0 then [||] else vs in
  let ws = if m = 0 then [||] else ws in
  match Socgraph.Graph.of_sorted_arrays ~n ~us ~vs ~ws with
  | g -> g
  | exception Invalid_argument msg -> fail p msg

let decode_timetable_section p ~n =
  let count = r_u32 p in
  if count <> n then
    fail p (Printf.sprintf "timetable has %d calendars for %d vertices" count n);
  let horizon = r_u32 p in
  let nbytes = Timetable.Availability.mask_bytes ~horizon in
  (* Hostile [horizon]/[count] are rejected here, before any calendar is
     sized from them: the masks must all be physically present.  The
     first check bounds [count] by the bytes on disk so the product
     below cannot overflow. *)
  if nbytes > 0 then need p count;
  need p (count * nbytes);
  let schedules =
    Array.init count (fun _ ->
        let a = Timetable.Availability.of_mask p.buf ~pos:p.pos ~horizon in
        p.pos <- p.pos + nbytes;
        a)
  in
  if p.pos <> p.limit then
    fail p (Printf.sprintf "%d trailing byte(s) in timetable section" (p.limit - p.pos));
  schedules

let decode_snapshot_reader r =
  need r (String.length magic + 1);
  if String.sub r.buf r.pos (String.length magic) <> magic then
    fail r "bad magic: not a stgq snapshot";
  r.pos <- r.pos + String.length magic;
  let v = r_u8 r in
  if v <> format_version then
    fail r (Printf.sprintf "snapshot format version %d, this build reads %d" v
              format_version);
  let gp = r_section r ~expect_tag:tag_graph in
  let graph = decode_graph_section gp in
  let tp = r_section r ~expect_tag:tag_timetable in
  let schedules =
    decode_timetable_section tp ~n:(Socgraph.Graph.n_vertices graph)
  in
  if r.pos <> r.limit then
    fail r (Printf.sprintf "%d trailing byte(s) after last section" (r.limit - r.pos));
  { graph; schedules }

let decode_snapshot ~file bytes =
  match decode_snapshot_reader (reader ~file bytes) with
  | state -> Ok state
  | exception Fail c -> Error (Corrupt c)
  | exception Out_of_memory ->
      (* Belt over the cap's braces: a hostile size that still provokes
         an allocation failure is corruption, not a crash. *)
      Error
        (Corrupt
           { file; offset = 0; detail = "allocation failure decoding image" })

type snapshot_info = { si_bytes : int; si_n : int; si_m : int; si_horizon : int }

(* ------------------------------------------------------------------ *)
(* File plumbing. *)

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

(* How a whole-file read ended.  [`Missing] is exactly ENOENT; every
   other failure — permissions, fd exhaustion, I/O error, a directory
   in the file's place — is [`Unreadable] and must never be conflated
   with an absent file: treating an unreadable log as empty would
   position later appends at offset 0 and silently overwrite the
   durable records underneath. *)
let read_file_raw path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Missing
  | exception Unix.Unix_error (e, _, _) ->
      `Unreadable
        (Corrupt
           { file = path; offset = 0;
             detail = "cannot open: " ^ Unix.error_message e })
  | fd ->
      Fun.protect
        ~finally:(fun () ->
          match Unix.close fd with
          | () -> ()
          | exception Unix.Unix_error _ -> ())
        (fun () ->
          match
            let size = (Unix.fstat fd).Unix.st_size in
            let buf = Bytes.create size in
            let rec go off =
              if off >= size then ()
              else
                match Unix.read fd buf off (size - off) with
                | 0 -> raise End_of_file
                | n -> go (off + n)
            in
            go 0;
            Bytes.unsafe_to_string buf
          with
          | s -> `Contents s
          | exception End_of_file ->
              `Unreadable
                (Corrupt
                   { file = path; offset = 0;
                     detail = "file shrank while reading" })
          | exception Unix.Unix_error (e, _, _) ->
              `Unreadable
                (Corrupt
                   { file = path; offset = 0;
                     detail = "cannot read: " ^ Unix.error_message e }))

let read_file path =
  match read_file_raw path with
  | `Contents s -> Ok s
  | `Missing ->
      Error
        (Corrupt
           { file = path; offset = 0; detail = "cannot open: no such file" })
  | `Unreadable e -> Error e

(* fsync of the containing directory makes the rename itself durable.
   Some filesystems refuse fsync on a directory fd; that only weakens
   the durability of the very latest rename, so refusal is tolerated. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (match Unix.fsync fd with () -> () | exception Unix.Unix_error _ -> ());
      (match Unix.close fd with () -> () | exception Unix.Unix_error _ -> ())

(* The bit-flip site does not raise out of the store: when armed, it
   silently corrupts the bytes about to hit the disk, modelling media
   rot the CRC layer must catch on the way back in. *)
let maybe_flip data =
  match Faultinject.fire Faultinject.Store_bit_flip with
  | () -> data
  | exception Faultinject.Injected_fault _ ->
      let b = Bytes.of_string data in
      let i = Bytes.length b / 2 in
      if Bytes.length b > 0 then
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      Bytes.unsafe_to_string b

let save_snapshot path st =
  let data = maybe_flip (encode_snapshot st) in
  let len = String.length data in
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  Fun.protect
    ~finally:(fun () ->
      match Unix.close fd with () -> () | exception Unix.Unix_error _ -> ())
    (fun () ->
      (match Faultinject.fire Faultinject.Store_short_write with
      | () -> write_all fd (Bytes.unsafe_of_string data) 0 len
      | exception (Faultinject.Injected_fault _ as e) ->
          (* Simulated crash mid-write: only a prefix reaches the disk. *)
          write_all fd (Bytes.unsafe_of_string data) 0 (len / 2);
          Unix.fsync fd;
          raise e);
      Unix.fsync fd);
  (* Crash here (before the rename) leaves only the temp file: the
     previous generation stays the durable truth. *)
  Faultinject.fire Faultinject.Store_crash_rename;
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path);
  Obs.Gauge.set g_snapshot_bytes len;
  let n = Socgraph.Graph.n_vertices st.graph in
  if n > 0 then Obs.Gauge.set g_bytes_per_user (len / n);
  len

let load_snapshot path =
  Obs.time_hist h_snapshot_load @@ fun () ->
  match read_file path with
  | Error e -> Error e
  | Ok bytes -> decode_snapshot ~file:path bytes

let verify_snapshot path =
  match load_snapshot path with
  | Error e -> Error e
  | Ok st ->
      Ok
        {
          si_bytes = String.length (encode_snapshot st);
          si_n = Socgraph.Graph.n_vertices st.graph;
          si_m = Socgraph.Graph.n_edges st.graph;
          si_horizon = horizon_of st.schedules;
        }

(* ------------------------------------------------------------------ *)
(* WAL codec (docs/PERSISTENCE.md, "Delta log layout"). *)

let max_record = 1 lsl 20

(* Tags 1-3 (edge add, edge remove, slot flip) are retired: no server
   wrote them, and a record that carries one is refused as unknown. *)
let rec_schedule_set = 4

let encode_record (Schedule_set { vertex; avail }) =
  let p = Buffer.create 32 in
  w_u8 p format_version;
  w_u8 p rec_schedule_set;
  w_u32 p vertex;
  w_u32 p (Timetable.Availability.horizon avail);
  Timetable.Availability.add_mask p avail;
  let payload = Buffer.contents p in
  if String.length payload > max_record then
    invalid_arg "Store.encode_record: record exceeds 1 MiB cap";
  let b = Buffer.create (8 + String.length payload) in
  w_u32 b (String.length payload);
  w_u32 b (crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

let decode_record_payload p =
  let v = r_u8 p in
  if v <> format_version then
    fail p (Printf.sprintf "record version %d, this build reads %d" v
              format_version);
  let tag = r_u8 p in
  if tag <> rec_schedule_set then
    fail p (Printf.sprintf "unknown record tag %d" tag);
  let vertex = r_u32 p in
  let horizon = r_u32 p in
  let nbytes = Timetable.Availability.mask_bytes ~horizon in
  need p nbytes;
  let avail = Timetable.Availability.of_mask p.buf ~pos:p.pos ~horizon in
  p.pos <- p.pos + nbytes;
  if p.pos <> p.limit then
    fail p (Printf.sprintf "%d trailing byte(s) in record" (p.limit - p.pos));
  Schedule_set { vertex; avail }

type replay = {
  deltas : delta list;
  records : int;
  valid_bytes : int;
  torn : corrupt option;
}

(* One frame at [r.pos].  [`Torn c] covers everything a crashed append
   or tail rot produces (truncation, hostile length, bad CRC): the
   bytes before this frame remain trustworthy.  A payload that fails to
   decode *under a valid CRC* is not a torn tail — the writer never
   produced it — so it raises [Fail] and the whole log is refused. *)
let decode_frame r =
  let start = r.pos in
  let remaining = r.limit - r.pos in
  if remaining < 8 then
    `Torn
      { file = r.rfile; offset = start;
        detail = Printf.sprintf "truncated record header (%d byte(s))" remaining }
  else begin
    let len = r_u32 r in
    let declared_crc = r_u32 r in
    if len > max_record then begin
      r.pos <- start;
      `Torn
        { file = r.rfile; offset = start;
          detail = Printf.sprintf "record length %d exceeds %d cap" len max_record }
    end
    else if len > r.limit - r.pos then begin
      let got = r.limit - r.pos in
      r.pos <- start;
      `Torn
        { file = r.rfile; offset = start;
          detail = Printf.sprintf "truncated record: %d of %d payload byte(s)" got len }
    end
    else begin
      let got_crc = crc32_sub r.buf r.pos len in
      if got_crc <> declared_crc then begin
        r.pos <- start;
        `Torn
          { file = r.rfile; offset = start;
            detail =
              Printf.sprintf "record CRC mismatch: stored %08x, computed %08x"
                declared_crc got_crc }
      end
      else `Record (decode_record_payload (payload r len), start)
    end
  end

(* Internal: decoded records with their starting offsets (recovery
   reports the offset when a record's semantics are invalid). *)
let replay_wal_records path =
  match read_file_raw path with
  | `Missing ->
      (* A store that has never appended has no log: empty, not corrupt.
         Only ENOENT qualifies — any other read failure propagates. *)
      Ok ([], { deltas = []; records = 0; valid_bytes = 0; torn = None })
  | `Unreadable e -> Error e
  | `Contents bytes -> (
      let r = reader ~file:path bytes in
      let rec go acc =
        if r.pos >= r.limit then (List.rev acc, None)
        else
          match decode_frame r with
          | `Record (d, off) -> go ((d, off) :: acc)
          | `Torn c -> (List.rev acc, Some c)
      in
      match go [] with
      | recs, torn ->
          let deltas = List.map fst recs in
          Ok
            ( recs,
              {
                deltas;
                records = List.length recs;
                valid_bytes = r.pos;
                torn;
              } )
      | exception Fail c -> Error (Corrupt c))

let replay_wal path =
  match replay_wal_records path with
  | Error e -> Error e
  | Ok (_, replay) -> Ok replay

let verify_wal path =
  match replay_wal_records path with
  | Error e -> Error e
  | Ok (_, { torn = Some c; _ }) -> Error (Corrupt c)
  | Ok (_, { records; _ }) -> Ok records

(* ------------------------------------------------------------------ *)
(* The store handle. *)

type t = {
  dir : string;
  mutable wal_fd : Unix.file_descr;
  mutable gen : int;
  mutable wbytes : int;
  checkpoint_bytes : int;
  lock : Mutex.t;
}

type recovery = {
  r_dir : string;
  r_snapshot_gen : int;
  r_snapshots_skipped : int;
  r_replayed : int;
  r_torn : corrupt option;
  r_state : state;
}

let recovery_status r =
  if r.r_snapshot_gen < 0 then "fresh store (generation 0 written)"
  else
    Printf.sprintf "recovered generation %d%s, replayed %d record(s)%s"
      r.r_snapshot_gen
      (if r.r_snapshots_skipped > 0 then
         Printf.sprintf " (%d newer generation(s) corrupt)" r.r_snapshots_skipped
       else "")
      r.r_replayed
      (match r.r_torn with
      | Some c -> Printf.sprintf ", torn tail dropped at byte %d" c.offset
      | None -> "")

let snapshot_path ~dir ~gen = Filename.concat dir (Printf.sprintf "snapshot-%06d.stgq" gen)

(* The log is bound to the snapshot generation it extends: [wal-g]
   holds exactly the deltas appended on top of [snapshot-g], so
   state(g) + wal-g = state(g+1) by construction and recovery can never
   replay a log over an image that already contains it. *)
let wal_path ~dir ~gen = Filename.concat dir (Printf.sprintf "wal-%06d.stgq" gen)

let gen_of ~prefix ~suffix name =
  let lp = String.length prefix and ls = String.length suffix in
  let ln = String.length name in
  if ln > lp + ls
     && String.sub name 0 lp = prefix
     && String.sub name (ln - ls) ls = suffix
  then int_of_string_opt (String.sub name lp (ln - lp - ls))
  else None

let gen_of_name = gen_of ~prefix:"snapshot-" ~suffix:".stgq"

let wal_gen_of_name = gen_of ~prefix:"wal-" ~suffix:".stgq"

let generations_by dir classify =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map classify
  |> List.sort (fun a b -> compare b a)

let generations dir = generations_by dir gen_of_name

let wal_generations dir = generations_by dir wal_gen_of_name

let mkdir_quiet dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let outcome_fresh = 0

let outcome_clean = 1

let outcome_replayed = 2

let outcome_torn = 3

let outcome_fallback = 4

let open_dir ?(checkpoint_bytes = 1 lsl 20) ~init dir =
  if checkpoint_bytes < 1 then
    invalid_arg "Store.open_dir: checkpoint_bytes must be >= 1";
  mkdir_quiet dir;
  (* Newest generation that verifies wins; rotten newer images are
     skipped (and counted) rather than taking the store down. *)
  let rec pick = function
    | [] -> None
    | gen :: rest -> (
        match load_snapshot (snapshot_path ~dir ~gen) with
        | Ok state -> Some (gen, state, 0)
        | Error _ -> (
            match pick rest with
            | Some (g, s, skipped) -> Some (g, s, skipped + 1)
            | None -> None))
  in
  let gens = generations dir in
  let base =
    match gens with
    | [] -> (
        (* No snapshot at all.  A leftover non-empty delta log means
           this was once a live store whose images were lost: replaying
           a stale log over [init ()] would fabricate state, so refuse
           before anything is written into the directory. *)
        let stale =
          List.filter
            (fun g ->
              match read_file_raw (wal_path ~dir ~gen:g) with
              | `Contents "" | `Missing -> false
              | `Contents _ | `Unreadable _ -> true)
            (wal_generations dir)
        in
        match stale with
        | g :: _ ->
            Error
              (Corrupt
                 {
                   file = wal_path ~dir ~gen:g;
                   offset = 0;
                   detail =
                     "delta log present but no snapshot generation: refusing \
                      to initialise over it";
                 })
        | [] ->
            let state = init () in
            let bytes = save_snapshot (snapshot_path ~dir ~gen:0) state in
            ignore (bytes : int);
            Ok (-1, 0, state, 0))
    | newest :: _ -> (
        match pick gens with
        | Some (gen, state, skipped) -> Ok (gen, gen, state, skipped)
        | None ->
            (* Snapshots exist but none verifies: refuse to clobber. *)
            Error
              (Corrupt
                 {
                   file = snapshot_path ~dir ~gen:newest;
                   offset = 0;
                   detail =
                     Printf.sprintf "no valid snapshot among %d generation(s)"
                       (List.length gens);
                 }))
  in
  match base with
  | Error e -> Error e
  | Ok (reported_gen, gen0, snap_state, skipped) -> (
      (* Replay the per-generation log chain upward from the loaded
         generation: wal-g is the log of snapshot g, and when recovery
         fell back past a rotten image the surviving logs reconstruct
         the durable prefix (state(g) + wal-g = state(g+1)).  Only the
         last log of the chain may carry a torn tail — a torn or
         missing log *followed by* a newer generation's log means the
         chain cannot be trusted, so the store refuses to open. *)
      let rec chain st g total =
        let wal = wal_path ~dir ~gen:g in
        match replay_wal_records wal with
        | Error e -> Error e
        | Ok (recs, replay) -> (
            let rec fold st = function
              | [] -> Ok st
              | (d, off) :: rest -> (
                  match apply_delta st d with
                  | Ok st' -> fold st' rest
                  | Error detail ->
                      Error (Corrupt { file = wal; offset = off; detail }))
            in
            match fold st recs with
            | Error e -> Error e
            | Ok st' ->
                let total = total + replay.records in
                if not (Sys.file_exists (wal_path ~dir ~gen:(g + 1))) then
                  Ok (st', g, total, replay)
                else if replay.torn <> None then
                  Error
                    (Corrupt
                       {
                         file = wal;
                         offset =
                           (match replay.torn with
                           | Some c -> c.offset
                           | None -> 0);
                         detail =
                           "torn log followed by a newer generation's log: \
                            chain broken";
                       })
                else if not (Sys.file_exists wal) then
                  Error
                    (Corrupt
                       {
                         file = wal;
                         offset = 0;
                         detail =
                           "log missing but a newer generation's log exists: \
                            chain broken";
                       })
                else chain st' (g + 1) total)
      in
      match chain snap_state gen0 0 with
      | Error e -> Error e
      | Ok (state, active_gen, replayed, active) ->
          let fd =
            Unix.openfile
              (wal_path ~dir ~gen:active_gen)
              [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
              0o644
          in
          (* Drop the torn tail so the next append extends the durable
             prefix instead of burying garbage. *)
          if active.torn <> None then Unix.ftruncate fd active.valid_bytes;
          ignore (Unix.lseek fd active.valid_bytes Unix.SEEK_SET : int);
          let t =
            {
              dir;
              wal_fd = fd;
              gen = active_gen;
              wbytes = active.valid_bytes;
              checkpoint_bytes;
              lock = Mutex.create ();
            }
          in
          Obs.Counter.add m_replayed replayed;
          Obs.Gauge.set g_wal_bytes t.wbytes;
          let outcome =
            if skipped > 0 then outcome_fallback
            else if active.torn <> None then outcome_torn
            else if replayed > 0 then outcome_replayed
            else if reported_gen < 0 then outcome_fresh
            else outcome_clean
          in
          Obs.Gauge.set g_recovery_outcome outcome;
          Obs.Events.emit ~kind:"store.recovery"
            [
              ("outcome", string_of_int outcome);
              ("snapshot_gen", string_of_int reported_gen);
              ("replayed", string_of_int replayed);
              ("snapshots_skipped", string_of_int skipped);
              ("torn_tail", string_of_bool (active.torn <> None));
            ];
          Ok
            ( t,
              {
                r_dir = dir;
                r_snapshot_gen = reported_gen;
                r_snapshots_skipped = skipped;
                r_replayed = replayed;
                r_torn = active.torn;
                r_state = state;
              } ))

let append ?(sync = true) t d =
  let record = maybe_flip (encode_record d) in
  let len = String.length record in
  Mutex.protect t.lock (fun () ->
      (match Faultinject.fire Faultinject.Store_crash_append with
      | () -> write_all t.wal_fd (Bytes.unsafe_of_string record) 0 len
      | exception (Faultinject.Injected_fault _ as e) ->
          (* Simulated crash mid-append: half a header hits the disk. *)
          write_all t.wal_fd (Bytes.unsafe_of_string record) 0 (min 5 len);
          Unix.fsync t.wal_fd;
          raise e);
      if sync then Unix.fsync t.wal_fd;
      t.wbytes <- t.wbytes + len;
      Obs.Counter.incr m_appends;
      Obs.Gauge.set g_wal_bytes t.wbytes)

let wal_bytes t = Mutex.protect t.lock (fun () -> t.wbytes)

let should_checkpoint t =
  Mutex.protect t.lock (fun () -> t.wbytes >= t.checkpoint_bytes)

let unlink_quiet path =
  match Unix.unlink path with
  | () -> ()
  | exception Unix.Unix_error _ -> ()

let checkpoint t state =
  Obs.time_hist h_checkpoint @@ fun () ->
  Mutex.protect t.lock (fun () ->
      let next = t.gen + 1 in
      let bytes = save_snapshot (snapshot_path ~dir:t.dir ~gen:next) state in
      ignore (bytes : int);
      (* Generation [next] is durable but the log bound to [t.gen] is
         still intact: a crash before the rotation below recovers from
         [next] with an absent [wal-next] — zero deltas, exactly the
         acked image, never the superseded log applied twice.  The
         site lets the [@faults] matrix replay this exact window. *)
      Faultinject.fire Faultinject.Store_crash_checkpoint;
      let fd =
        Unix.openfile
          (wal_path ~dir:t.dir ~gen:next)
          [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
          0o644
      in
      (match Unix.close t.wal_fd with
      | () -> ()
      | exception Unix.Unix_error _ -> ());
      t.wal_fd <- fd;
      t.wbytes <- 0;
      t.gen <- next;
      (* Keep the previous generation — image and its log — as the
         bit-rot fallback chain; prune everything older. *)
      List.iter
        (fun gen ->
          if gen < next - 1 then unlink_quiet (snapshot_path ~dir:t.dir ~gen))
        (generations t.dir);
      List.iter
        (fun gen ->
          if gen < next - 1 then unlink_quiet (wal_path ~dir:t.dir ~gen))
        (wal_generations t.dir);
      Obs.Counter.incr m_checkpoints;
      Obs.Gauge.set g_wal_bytes 0;
      Obs.Events.emit ~kind:"store.checkpoint"
        [
          ("generation", string_of_int next);
          ("snapshot_bytes", string_of_int bytes);
        ])

let close t =
  match Unix.close t.wal_fd with
  | () -> ()
  | exception Unix.Unix_error _ -> ()
