(* Wire encoding for the query server (docs/PROTOCOL.md).

   Layout discipline: fixed-width big-endian integers, one-byte
   presence flags for options, u16-counted lists, and a bitmask for
   availability slabs.  The decoder reads through a bounds-checked
   cursor and converts every failure into a typed [decode_error]; the
   only allocation sized from wire data is the availability slab, and
   its byte count is checked against the remaining buffer *before* the
   slab is created, so a hostile length field can never out-allocate
   the frame that carried it.

   Versioning: every frame payload leads with its wire version; this
   build speaks [min_version .. version] and fields added after v1 are
   written/read only at the versions that know them ([Hello.speaks]
   and answer [trace_id] from v2).  The negotiated version of a
   connection is [min server_version client_speaks], carried in
   [Hello]/[Hello_ok], so an old client never sees bytes it cannot
   decode. *)

open Stgq_core

let version = 2
let min_version = 1
let max_frame = 1 lsl 20
let header_bytes = 4

type policy = {
  deadline_ms : float option;
  node_limit : int option;
  degrade : bool;
}

type request =
  | Hello of { client : string; speaks : int }
      (* [speaks]: highest wire version the client understands; assumed
         1 when the Hello itself arrived at v1 *)
  | Ping of string
  | Sgq of { initiator : int; q : Query.sgq; policy : policy option }
  | Stgq of { initiator : int; q : Query.stgq; policy : policy option }
  | Update_schedule of {
      vertex : int;
      avail : Timetable.Availability.t;
    }

type server_error =
  | Overloaded of { queue_depth : int; limit : int }
  | Degraded of { reason : Budget.reason; retries : int }
  | Unavailable of { message : string; retries : int }
  | Bad_request of { message : string }
  | Unsupported_version of { server_version : int }

type response =
  | Hello_ok of { version : int }
  | Pong of string
  | Sg_answer of {
      value : Query.sg_solution option;
      rung : Resilience.rung;
      gap : float option;
      retries : int;
      reason : Budget.reason option;
      certified : bool;
      trace_id : int;  (* server-assigned; 0 = none (and on v1 wires) *)
    }
  | Stg_answer of {
      value : Query.stg_solution option;
      rung : Resilience.rung;
      gap : float option;
      retries : int;
      reason : Budget.reason option;
      certified : bool;
      trace_id : int;  (* server-assigned; 0 = none (and on v1 wires) *)
    }
  | Updated of { vertex : int }
  | Failed of server_error

type decode_error =
  | Frame_too_large of { declared : int; limit : int }
  | Truncated of { needed : int; got : int }
  | Bad_version of { got : int }
  | Bad_tag of { context : string; tag : int }
  | Bad_value of { context : string; detail : string }
  | Trailing_bytes of { extra : int }

let string_of_decode_error = function
  | Frame_too_large { declared; limit } ->
      Printf.sprintf "frame too large: declared %d bytes, limit %d" declared
        limit
  | Truncated { needed; got } ->
      Printf.sprintf "truncated: needed %d more byte(s), %d available" needed
        got
  | Bad_version { got } ->
      Printf.sprintf
        "unsupported protocol version %d (this build speaks %d..%d)" got
        min_version version
  | Bad_tag { context; tag } ->
      Printf.sprintf "unknown tag %d for %s" tag context
  | Bad_value { context; detail } ->
      Printf.sprintf "bad value in %s: %s" context detail
  | Trailing_bytes { extra } ->
      Printf.sprintf "%d trailing byte(s) after message" extra

(* ------------------------------------------------------------------ *)
(* Writers.  Range violations are programming errors on the sending
   side, so they raise [Invalid_argument] rather than being typed. *)

let w_u8 b v =
  if v < 0 || v > 0xFF then invalid_arg "Proto: u8 out of range";
  Buffer.add_char b (Char.chr v)

let w_u16 b v =
  if v < 0 || v > 0xFFFF then invalid_arg "Proto: u16 out of range";
  Buffer.add_char b (Char.chr (v lsr 8));
  Buffer.add_char b (Char.chr (v land 0xFF))

let w_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Proto: u32 out of range";
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

let w_bool b v = w_u8 b (if v then 1 else 0)

let w_opt w b = function
  | None -> w_u8 b 0
  | Some v ->
      w_u8 b 1;
      w b v

let w_str8 b s =
  if String.length s > 0xFF then
    invalid_arg "Proto: identifier longer than 255 bytes";
  w_u8 b (String.length s);
  Buffer.add_string b s

let w_str16 b s =
  if String.length s > 0xFFFF then invalid_arg "Proto: string too long";
  w_u16 b (String.length s);
  Buffer.add_string b s

let w_list16 w b l =
  let n = List.length l in
  if n > 0xFFFF then invalid_arg "Proto: list too long";
  w_u16 b n;
  List.iter (w b) l

(* Availability: u32 horizon, then the calendar's byte mask
   ({!Timetable.Availability.add_mask}). *)
let w_avail b a =
  w_u32 b (Timetable.Availability.horizon a);
  Timetable.Availability.add_mask b a

let w_policy b (p : policy) =
  w_opt w_f64 b p.deadline_ms;
  w_opt w_u32 b p.node_limit;
  w_bool b p.degrade

let reason_tag = function
  | Budget.Deadline -> 1
  | Budget.Node_limit -> 2
  | Budget.Cancelled -> 3

let rung_tag = function
  | Resilience.Exact -> 1
  | Resilience.Anytime_best -> 2
  | Resilience.Heuristic -> 3

let w_sg_solution b (s : Query.sg_solution) =
  w_list16 w_u32 b s.attendees;
  w_f64 b s.total_distance

let w_stg_solution b (s : Query.stg_solution) =
  w_list16 w_u32 b s.st_attendees;
  w_f64 b s.st_total_distance;
  w_u32 b s.start_slot

let w_answer ~v w_value b value rung gap retries reason certified trace_id =
  w_opt w_value b value;
  w_u8 b (rung_tag rung);
  w_opt w_f64 b gap;
  w_u32 b retries;
  w_opt (fun b r -> w_u8 b (reason_tag r)) b reason;
  w_bool b certified;
  (* v2 field: a v1 peer stops reading at [certified], so the byte must
     not be on the wire at all. *)
  if v >= 2 then w_u32 b (trace_id land 0xFFFFFFFF)

let w_server_error b = function
  | Overloaded { queue_depth; limit } ->
      w_u8 b 1;
      w_u32 b queue_depth;
      w_u32 b limit
  | Degraded { reason; retries } ->
      w_u8 b 2;
      w_u8 b (reason_tag reason);
      w_u32 b retries
  | Unavailable { message; retries } ->
      w_u8 b 3;
      w_str16 b message;
      w_u32 b retries
  | Bad_request { message } ->
      w_u8 b 4;
      w_str16 b message
  | Unsupported_version { server_version } ->
      w_u8 b 5;
      w_u8 b server_version

let w_request ~v b = function
  | Hello { client; speaks } ->
      w_u8 b 1;
      w_str8 b client;
      if v >= 2 then w_u8 b speaks
  | Ping s ->
      w_u8 b 2;
      w_str16 b s
  | Sgq { initiator; q; policy } ->
      w_u8 b 3;
      w_u32 b initiator;
      w_u32 b q.Query.p;
      w_u32 b q.s;
      w_u32 b q.k;
      w_opt w_policy b policy
  | Stgq { initiator; q; policy } ->
      w_u8 b 4;
      w_u32 b initiator;
      w_u32 b q.Query.p;
      w_u32 b q.s;
      w_u32 b q.k;
      w_u32 b q.m;
      w_opt w_policy b policy
  | Update_schedule { vertex; avail } ->
      w_u8 b 5;
      w_u32 b vertex;
      w_avail b avail

let w_response ~v b = function
  | Hello_ok { version = hv } ->
      w_u8 b 1;
      w_u8 b hv
  | Pong s ->
      w_u8 b 2;
      w_str16 b s
  | Sg_answer { value; rung; gap; retries; reason; certified; trace_id } ->
      w_u8 b 3;
      w_answer ~v w_sg_solution b value rung gap retries reason certified
        trace_id
  | Stg_answer { value; rung; gap; retries; reason; certified; trace_id } ->
      w_u8 b 4;
      w_answer ~v w_stg_solution b value rung gap retries reason certified
        trace_id
  | Updated { vertex } ->
      w_u8 b 5;
      w_u32 b vertex
  | Failed err ->
      w_u8 b 6;
      w_server_error b err

let check_version v =
  if v < min_version || v > version then
    invalid_arg (Printf.sprintf "Proto: cannot encode at version %d" v)

let frame ~v payload_writer msg =
  check_version v;
  let b = Buffer.create 64 in
  w_u8 b v;
  payload_writer ~v b msg;
  let len = Buffer.length b in
  if len > max_frame then invalid_arg "Proto: frame exceeds max_frame";
  let out = Buffer.create (header_bytes + len) in
  w_u32 out len;
  Buffer.add_buffer out b;
  Buffer.contents out

let encode_request ?(version = version) m = frame ~v:version w_request m
let encode_response ?(version = version) m = frame ~v:version w_response m

(* ------------------------------------------------------------------ *)
(* Readers: a cursor over an immutable string; every primitive checks
   bounds and raises the internal [Fail], converted to a [result] at
   the entry points.  Nothing here allocates proportionally to a wire
   length before the corresponding bytes are known to be present. *)

exception Fail of decode_error

type reader = { buf : string; mutable pos : int }

let need r n =
  let remaining = String.length r.buf - r.pos in
  if n > remaining then raise (Fail (Truncated { needed = n; got = remaining }))

let r_u8 r =
  need r 1;
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u16 r =
  need r 2;
  let v = (Char.code r.buf.[r.pos] lsl 8) lor Char.code r.buf.[r.pos + 1] in
  r.pos <- r.pos + 2;
  v

let r_u32 r =
  need r 4;
  let v =
    (Char.code r.buf.[r.pos] lsl 24)
    lor (Char.code r.buf.[r.pos + 1] lsl 16)
    lor (Char.code r.buf.[r.pos + 2] lsl 8)
    lor Char.code r.buf.[r.pos + 3]
  in
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

let r_bool ~context r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | v ->
      raise
        (Fail (Bad_value { context; detail = Printf.sprintf "bool byte %d" v }))

let r_opt ~context read r =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (read r)
  | v ->
      raise
        (Fail
           (Bad_value { context; detail = Printf.sprintf "presence byte %d" v }))

let r_str8 r =
  let n = r_u8 r in
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let r_str16 r =
  let n = r_u16 r in
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let r_list16 read r =
  let n = r_u16 r in
  List.init n (fun _ -> read r)

let r_avail r =
  let horizon = r_u32 r in
  let nbytes = Timetable.Availability.mask_bytes ~horizon in
  (* The calendar below is sized from the wire; insist the frame
     actually carries the bytes first (OOM cap). *)
  need r nbytes;
  let a = Timetable.Availability.of_mask r.buf ~pos:r.pos ~horizon in
  r.pos <- r.pos + nbytes;
  a

let r_policy r =
  let deadline_ms = r_opt ~context:"policy.deadline_ms" r_f64 r in
  let node_limit = r_opt ~context:"policy.node_limit" r_u32 r in
  let degrade = r_bool ~context:"policy.degrade" r in
  { deadline_ms; node_limit; degrade }

let r_reason r =
  match r_u8 r with
  | 1 -> Budget.Deadline
  | 2 -> Budget.Node_limit
  | 3 -> Budget.Cancelled
  | tag -> raise (Fail (Bad_tag { context = "budget reason"; tag }))

let r_rung r =
  match r_u8 r with
  | 1 -> Resilience.Exact
  | 2 -> Resilience.Anytime_best
  | 3 -> Resilience.Heuristic
  | tag -> raise (Fail (Bad_tag { context = "rung"; tag }))

let r_sg_solution r =
  let attendees = r_list16 r_u32 r in
  let total_distance = r_f64 r in
  { Query.attendees; total_distance }

let r_stg_solution r =
  let st_attendees = r_list16 r_u32 r in
  let st_total_distance = r_f64 r in
  let start_slot = r_u32 r in
  { Query.st_attendees; st_total_distance; start_slot }

let r_answer ~v ~context r_value r =
  let value = r_opt ~context r_value r in
  let rung = r_rung r in
  let gap = r_opt ~context:"answer.gap" r_f64 r in
  let retries = r_u32 r in
  let reason = r_opt ~context:"answer.reason" r_reason r in
  let certified = r_bool ~context:"answer.certified" r in
  let trace_id = if v >= 2 then r_u32 r else 0 in
  (value, rung, gap, retries, reason, certified, trace_id)

let r_server_error r =
  match r_u8 r with
  | 1 ->
      let queue_depth = r_u32 r in
      let limit = r_u32 r in
      Overloaded { queue_depth; limit }
  | 2 ->
      let reason = r_reason r in
      let retries = r_u32 r in
      Degraded { reason; retries }
  | 3 ->
      let message = r_str16 r in
      let retries = r_u32 r in
      Unavailable { message; retries }
  | 4 ->
      let message = r_str16 r in
      Bad_request { message }
  | 5 ->
      let server_version = r_u8 r in
      Unsupported_version { server_version }
  | tag -> raise (Fail (Bad_tag { context = "server error"; tag }))

let r_request ~v r =
  match r_u8 r with
  | 1 ->
      let client = r_str8 r in
      let speaks = if v >= 2 then r_u8 r else 1 in
      Hello { client; speaks }
  | 2 -> Ping (r_str16 r)
  | 3 ->
      let initiator = r_u32 r in
      let p = r_u32 r in
      let s = r_u32 r in
      let k = r_u32 r in
      let policy = r_opt ~context:"sgq.policy" r_policy r in
      Sgq { initiator; q = { Query.p; s; k }; policy }
  | 4 ->
      let initiator = r_u32 r in
      let p = r_u32 r in
      let s = r_u32 r in
      let k = r_u32 r in
      let m = r_u32 r in
      let policy = r_opt ~context:"stgq.policy" r_policy r in
      Stgq { initiator; q = { Query.p; s; k; m }; policy }
  | 5 ->
      let vertex = r_u32 r in
      let avail = r_avail r in
      Update_schedule { vertex; avail }
  | tag -> raise (Fail (Bad_tag { context = "request"; tag }))

let r_response ~v r =
  match r_u8 r with
  | 1 -> Hello_ok { version = r_u8 r }
  | 2 -> Pong (r_str16 r)
  | 3 ->
      let value, rung, gap, retries, reason, certified, trace_id =
        r_answer ~v ~context:"sg_answer.value" r_sg_solution r
      in
      Sg_answer { value; rung; gap; retries; reason; certified; trace_id }
  | 4 ->
      let value, rung, gap, retries, reason, certified, trace_id =
        r_answer ~v ~context:"stg_answer.value" r_stg_solution r
      in
      Stg_answer { value; rung; gap; retries; reason; certified; trace_id }
  | 5 -> Updated { vertex = r_u32 r }
  | 6 -> Failed (r_server_error r)
  | tag -> raise (Fail (Bad_tag { context = "response"; tag }))

let decode_payload read payload =
  let r = { buf = payload; pos = 0 } in
  match
    let v = r_u8 r in
    if v < min_version || v > version then
      raise (Fail (Bad_version { got = v }));
    let msg = read ~v r in
    let extra = String.length r.buf - r.pos in
    if extra > 0 then raise (Fail (Trailing_bytes { extra }));
    msg
  with
  | msg -> Ok msg
  | exception Fail e -> Error e
  | exception e ->
      (* A decoder bug, not wire data; still never leaks an exception
         to the transport loop. *)
      Error (Bad_value { context = "decode"; detail = Printexc.to_string e })

let decode_request_payload p = decode_payload r_request p
let decode_response_payload p = decode_payload r_response p

let decode_frame_length header =
  let r = { buf = header; pos = 0 } in
  match r_u32 r with
  | len ->
      if len > max_frame then
        Error (Frame_too_large { declared = len; limit = max_frame })
      else Ok len
  | exception Fail e -> Error e

let decode_frame decode_p f =
  match decode_frame_length f with
  | Error e -> Error e
  | Ok len ->
      let body = String.length f - header_bytes in
      if body < len then
        Error (Truncated { needed = len - body; got = body })
      else if body > len then Error (Trailing_bytes { extra = body - len })
      else decode_p (String.sub f header_bytes len)

let decode_request f = decode_frame decode_request_payload f
let decode_response f = decode_frame decode_response_payload f

(* ------------------------------------------------------------------ *)
(* Equality and printing. *)

let equal_policy (a : policy) (b : policy) =
  Option.equal Float.equal a.deadline_ms b.deadline_ms
  && Option.equal Int.equal a.node_limit b.node_limit
  && Bool.equal a.degrade b.degrade

let equal_sg (a : Query.sg_solution) (b : Query.sg_solution) =
  List.equal Int.equal a.attendees b.attendees
  && Float.equal a.total_distance b.total_distance

let equal_stg (a : Query.stg_solution) (b : Query.stg_solution) =
  List.equal Int.equal a.st_attendees b.st_attendees
  && Float.equal a.st_total_distance b.st_total_distance
  && Int.equal a.start_slot b.start_slot

let equal_request (a : request) (b : request) =
  match (a, b) with
  | Hello x, Hello y ->
      String.equal x.client y.client && Int.equal x.speaks y.speaks
  | Ping x, Ping y -> String.equal x y
  | Sgq x, Sgq y ->
      Int.equal x.initiator y.initiator
      && x.q = y.q
      && Option.equal equal_policy x.policy y.policy
  | Stgq x, Stgq y ->
      Int.equal x.initiator y.initiator
      && x.q = y.q
      && Option.equal equal_policy x.policy y.policy
  | Update_schedule x, Update_schedule y ->
      Int.equal x.vertex y.vertex && Timetable.Availability.equal x.avail y.avail
  | (Hello _ | Ping _ | Sgq _ | Stgq _ | Update_schedule _), _ -> false

let equal_server_error (a : server_error) (b : server_error) =
  match (a, b) with
  | Overloaded x, Overloaded y ->
      Int.equal x.queue_depth y.queue_depth && Int.equal x.limit y.limit
  | Degraded x, Degraded y ->
      x.reason = y.reason && Int.equal x.retries y.retries
  | Unavailable x, Unavailable y ->
      String.equal x.message y.message && Int.equal x.retries y.retries
  | Bad_request x, Bad_request y -> String.equal x.message y.message
  | Unsupported_version x, Unsupported_version y ->
      Int.equal x.server_version y.server_version
  | ( ( Overloaded _ | Degraded _ | Unavailable _ | Bad_request _
      | Unsupported_version _ ),
      _ ) ->
      false

let equal_response (a : response) (b : response) =
  match (a, b) with
  | Hello_ok x, Hello_ok y -> Int.equal x.version y.version
  | Pong x, Pong y -> String.equal x y
  | Sg_answer x, Sg_answer y ->
      Option.equal equal_sg x.value y.value
      && x.rung = y.rung
      && Option.equal Float.equal x.gap y.gap
      && Int.equal x.retries y.retries
      && Option.equal (fun a b -> a = b) x.reason y.reason
      && Bool.equal x.certified y.certified
      && Int.equal x.trace_id y.trace_id
  | Stg_answer x, Stg_answer y ->
      Option.equal equal_stg x.value y.value
      && x.rung = y.rung
      && Option.equal Float.equal x.gap y.gap
      && Int.equal x.retries y.retries
      && Option.equal (fun a b -> a = b) x.reason y.reason
      && Bool.equal x.certified y.certified
      && Int.equal x.trace_id y.trace_id
  | Updated x, Updated y -> Int.equal x.vertex y.vertex
  | Failed x, Failed y -> equal_server_error x y
  | ( ( Hello_ok _ | Pong _ | Sg_answer _ | Stg_answer _ | Updated _
      | Failed _ ),
      _ ) ->
      false

let pp_policy ppf (p : policy) =
  Format.fprintf ppf "{deadline_ms=%a; node_limit=%a; degrade=%b}"
    (Format.pp_print_option Format.pp_print_float)
    p.deadline_ms
    (Format.pp_print_option Format.pp_print_int)
    p.node_limit p.degrade

let pp_avail ppf a =
  let h = Timetable.Availability.horizon a in
  Format.fprintf ppf "%d:" h;
  for i = 0 to h - 1 do
    Format.pp_print_char ppf
      (if Timetable.Availability.available a i then '1' else '0')
  done

let pp_request ppf = function
  | Hello { client; speaks } ->
      Format.fprintf ppf "Hello{client=%S; speaks=%d}" client speaks
  | Ping s -> Format.fprintf ppf "Ping %S" s
  | Sgq { initiator; q; policy } ->
      Format.fprintf ppf "Sgq{init=%d; p=%d; s=%d; k=%d; policy=%a}" initiator
        q.Query.p q.s q.k
        (Format.pp_print_option pp_policy)
        policy
  | Stgq { initiator; q; policy } ->
      Format.fprintf ppf "Stgq{init=%d; p=%d; s=%d; k=%d; m=%d; policy=%a}"
        initiator q.Query.p q.s q.k q.m
        (Format.pp_print_option pp_policy)
        policy
  | Update_schedule { vertex; avail } ->
      Format.fprintf ppf "Update_schedule{vertex=%d; avail=%a}" vertex pp_avail
        avail

let pp_reason ppf r =
  Format.pp_print_string ppf
    (match r with
    | Budget.Deadline -> "Deadline"
    | Budget.Node_limit -> "Node_limit"
    | Budget.Cancelled -> "Cancelled")

let pp_server_error ppf = function
  | Overloaded { queue_depth; limit } ->
      Format.fprintf ppf "Overloaded{depth=%d; limit=%d}" queue_depth limit
  | Degraded { reason; retries } ->
      Format.fprintf ppf "Degraded{reason=%a; retries=%d}" pp_reason reason
        retries
  | Unavailable { message; retries } ->
      Format.fprintf ppf "Unavailable{message=%S; retries=%d}" message retries
  | Bad_request { message } -> Format.fprintf ppf "Bad_request{%S}" message
  | Unsupported_version { server_version } ->
      Format.fprintf ppf "Unsupported_version{%d}" server_version

let pp_answer pp_value ppf
    (value, rung, gap, retries, reason, certified, trace_id) =
  Format.fprintf ppf
    "{value=%a; rung=%a; gap=%a; retries=%d; reason=%a; certified=%b; \
     trace_id=%d}"
    (Format.pp_print_option pp_value)
    value Resilience.pp_rung rung
    (Format.pp_print_option Format.pp_print_float)
    gap retries
    (Format.pp_print_option pp_reason)
    reason certified trace_id

let pp_response ppf = function
  | Hello_ok { version = v } -> Format.fprintf ppf "Hello_ok{version=%d}" v
  | Pong s -> Format.fprintf ppf "Pong %S" s
  | Sg_answer { value; rung; gap; retries; reason; certified; trace_id } ->
      Format.fprintf ppf "Sg_answer%a"
        (pp_answer Query.pp_sg_solution)
        (value, rung, gap, retries, reason, certified, trace_id)
  | Stg_answer { value; rung; gap; retries; reason; certified; trace_id } ->
      Format.fprintf ppf "Stg_answer%a"
        (pp_answer (fun ppf (s : Query.stg_solution) ->
             Format.fprintf ppf "{attendees=%a; dist=%g; start=%d}"
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
                  Format.pp_print_int)
               s.st_attendees s.st_total_distance s.start_slot))
        (value, rung, gap, retries, reason, certified, trace_id)
  | Updated { vertex } -> Format.fprintf ppf "Updated{vertex=%d}" vertex
  | Failed e -> Format.fprintf ppf "Failed(%a)" pp_server_error e
