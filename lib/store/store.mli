(** Crash-safe durable state: versioned snapshots + a write-ahead delta
    log with verified recovery (docs/PERSISTENCE.md).

    A store is a directory holding numbered snapshot generations
    ([snapshot-NNNNNN.stgq]), each paired with the delta log of the
    mutations appended on top of it ([wal-NNNNNN.stgq]).  Snapshots
    are a versioned, length-prefixed, CRC32-checked binary image of the
    social graph + timetable, written via temp file + [fsync] + atomic
    rename so a crash never leaves a half-written generation visible.
    Every mutation is journalled to the WAL as one CRC-framed record
    {e before} the in-memory edit lands; recovery loads the newest valid
    snapshot, replays {e that generation's} log (walking surviving newer
    logs when it fell back past a rotten image), and tolerates a
    torn/truncated tail by stopping at the first bad CRC (the tail is
    then truncated so later appends extend the durable prefix, not
    garbage).  Binding each log to its generation closes the checkpoint
    crash window: a crash between publishing generation g+1 and rotating
    the log recovers from g+1 with zero deltas, never a double apply.

    Decoder discipline mirrors {!Proto}: every length from disk is
    checked against the bytes actually present {e before} any
    allocation, and every failure — truncation, hostile length, flipped
    bit, unknown tag, semantic violation — surfaces as a typed
    {!error} carrying the file and byte offset, never an exception.

    Fault sites: the [Store_*] cases of {!Faultinject.site} fire at the
    protocol's crash seams (short write, bit flip, crash-before-rename,
    crash-mid-append, crash-mid-checkpoint between publish and log
    rotation); the [@faults] matrix replays them and checks recovery
    lands exactly on the pre-crash durable prefix. *)

(* ------------------------------------------------------------------ *)
(** {1 State and deltas} *)

(** The durable world: the social graph plus one calendar per vertex. *)
type state = {
  graph : Socgraph.Graph.t;
  schedules : Timetable.Availability.t array;
}

(** [state_of_instance graph schedules] validates shape (one schedule
    per vertex, uniform horizon: {!Timetable.Availability.check_schedules})
    and packs a state.
    @raise Invalid_argument on shape violations. *)
val state_of_instance :
  Socgraph.Graph.t -> Timetable.Availability.t array -> state

(** Deep copy (the graph is immutable and shared; calendars are copied). *)
val copy_state : state -> state

(** Structural equality: same vertices, same edges and weights, same
    availability bits.  This is the relation the crash-recovery
    differential gate checks. *)
val state_equal : state -> state -> bool

(** One journalled mutation.  A calendar replacement is the only edit
    the served system makes, so it is the only record the log holds. *)
type delta =
  | Schedule_set of { vertex : int; avail : Timetable.Availability.t }
      (** replace one calendar (same horizon required) *)

(** [apply_delta state d] returns the successor state, or [Error detail]
    when the delta is invalid against [state] (vertex out of range,
    horizon mismatch).  The input state is not mutated. *)
val apply_delta : state -> delta -> (state, string) result

(* ------------------------------------------------------------------ *)
(** {1 Typed corruption} *)

type corrupt = {
  file : string;  (** path (or caller-supplied label) of the bad input *)
  offset : int;  (** byte offset of the first unusable byte *)
  detail : string;
}

type error = Corrupt of corrupt

val string_of_error : error -> string

val pp_error : Format.formatter -> error -> unit

(* ------------------------------------------------------------------ *)
(** {1 Snapshot codec} *)

(** [encode_snapshot state] is the byte image (docs/PERSISTENCE.md). *)
val encode_snapshot : state -> string

(** Hard cap on the vertex count a snapshot may declare (the decoder
    sizes O(n) structures from it before any edge is read). *)
val max_vertices : int

(** [decode_snapshot ~file bytes] — [file] only labels errors.  Never
    raises; hostile section lengths and vertex counts are checked
    against the bytes present (and {!max_vertices}) before any
    allocation, and a residual allocation failure is reported as
    corruption rather than escaping. *)
val decode_snapshot : file:string -> string -> (state, error) result

(** What {!verify_snapshot} reports without building the state. *)
type snapshot_info = {
  si_bytes : int;
  si_n : int;  (** vertices *)
  si_m : int;  (** edges *)
  si_horizon : int;
}

(** [save_snapshot path state] writes atomically (temp + [fsync] +
    rename, then directory [fsync]) and returns the byte size.
    @raise Unix.Unix_error on I/O failure,
    {!Faultinject.Injected_fault} under an armed [store_*] plan. *)
val save_snapshot : string -> state -> int

(** [load_snapshot path] reads and decodes; a missing file is
    [Error (Corrupt _)] like any other unusable input. *)
val load_snapshot : string -> (state, error) result

(** [verify_snapshot path] checks framing, CRCs and graph/timetable
    shape without retaining the state. *)
val verify_snapshot : string -> (snapshot_info, error) result

(* ------------------------------------------------------------------ *)
(** {1 WAL codec} *)

(** [encode_record d] is one CRC-framed log record. *)
val encode_record : delta -> string

(** Result of a tolerant log read: the decodable prefix, plus where and
    why decoding stopped when the tail was torn. *)
type replay = {
  deltas : delta list;  (** in append order *)
  records : int;
  valid_bytes : int;  (** length of the durable prefix *)
  torn : corrupt option;  (** [Some] when a tail was dropped *)
}

(** [replay_wal path] reads the log, stopping at the first bad CRC or
    truncated record (recovery semantics — a torn tail is data loss
    bounded by one append, not corruption).  A missing file (ENOENT,
    and only ENOENT — an unreadable file is a typed error, never an
    empty log) is an empty log.  Never raises on bad bytes. *)
val replay_wal : string -> (replay, error) result

(** [verify_wal path] is the strict read: any undecodable byte,
    including a torn tail, is [Error (Corrupt _)]. *)
val verify_wal : string -> (int, error) result

(* ------------------------------------------------------------------ *)
(** {1 The store: open/recover, journal, checkpoint} *)

type t

(** What recovery found and did. *)
type recovery = {
  r_dir : string;
  r_snapshot_gen : int;  (** generation loaded; [-1] = fresh store *)
  r_snapshots_skipped : int;  (** newer generations rejected as corrupt *)
  r_replayed : int;  (** WAL records folded into the state *)
  r_torn : corrupt option;  (** torn tail dropped (and truncated away) *)
  r_state : state;
}

(** One-line recovery summary, the [/healthz] field. *)
val recovery_status : recovery -> string

(** [open_dir ?checkpoint_bytes ~init dir] opens (creating the
    directory if needed) and recovers: load the newest snapshot
    generation that verifies, replay that generation's log over it
    (and, when a rotten newer image was skipped, the surviving newer
    logs in generation order), truncate any torn tail on the active
    log.  A fresh directory gets [init ()] as generation 0.  Errors are
    typed: an unusable WAL body (bad semantics under a valid CRC), a
    directory with snapshots of which none verify, a directory holding
    a delta log but no snapshot generation, or a broken log chain (a
    torn or missing log followed by a newer generation's log) refuse to
    open rather than silently clobbering or fabricating data.
    [checkpoint_bytes] (default 1 MiB) is the WAL size at which
    {!should_checkpoint} starts answering [true]. *)
val open_dir :
  ?checkpoint_bytes:int -> init:(unit -> state) -> string ->
  (t * recovery, error) result

(** [append ?sync t d] journals one mutation — call it {e before}
    applying the edit in memory, ack only after it returns.  [sync]
    (default [true]) forces the record to disk; pass [false] only where
    losing the tail is acceptable (bulk load, benchmarks).
    @raise Unix.Unix_error on I/O failure,
    {!Faultinject.Injected_fault} under an armed plan (the record is
    {e not} durable in that case). *)
val append : ?sync:bool -> t -> delta -> unit

(** Bytes currently in the WAL. *)
val wal_bytes : t -> int

(** Whether the WAL has outgrown the checkpoint threshold. *)
val should_checkpoint : t -> bool

(** [checkpoint t state] publishes [state] as the next snapshot
    generation, rotates the delta log to that generation, and prunes
    generations — image and log — older than the previous one (kept as
    the fallback chain {!open_dir} falls back to when the newest image
    rots).
    @raise Unix.Unix_error / {!Faultinject.Injected_fault} as
    {!save_snapshot}, plus the [store_crash_checkpoint] site between
    the publish and the log rotation.  A crash before the publish
    recovers from the previous generation + its intact log; a crash
    after it recovers from the new generation with zero deltas (the
    superseded log is never replayed on top of the image that contains
    it).  When an injected crash escapes this call, treat the handle as
    crashed: {!close} it and {!open_dir} again. *)
val checkpoint : t -> state -> unit

(** Close the WAL handle.  The store must not be used afterwards. *)
val close : t -> unit

(** {1 Internals exposed for tests} *)

(** [crc32 s] — IEEE 802.3 CRC32 of a whole string (the checksum every
    frame in this module carries). *)
val crc32 : string -> int

(** Snapshot path of generation [gen] under [dir]. *)
val snapshot_path : dir:string -> gen:int -> string

(** Path of the delta log bound to snapshot generation [gen]. *)
val wal_path : dir:string -> gen:int -> string
