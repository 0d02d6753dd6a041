(* lint: allow-file toplevel-state *)
(* Process-wide metric registry.  The registry and the enabled flag are
   deliberately process-global: metrics exist so that any layer can
   publish without threading handles through every API. *)

(* Domain-safety contract for the typed analysis: every global here is
   either Atomic, a per-domain shard indexed by [Domain.self ()], or
   guarded by [registry_lock] — cross-domain access is by design. *)
[@@@lint.domain_safe]

let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

let now_ns () = Unix.gettimeofday () *. 1e9

(* Record-path sharding: writers index by domain id so that domains
   rarely contend on one cache line.  Two domains may map to the same
   shard (ids are not bounded) — each shard is atomic, so that is a
   throughput concern, never a correctness one. *)
let n_shards = 16 (* power of two *)

let shard_index () = (Domain.self () :> int) land (n_shards - 1)

(* Monotone CAS max. *)
let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

module Counter = struct
  type t = {
    name : string;
    shards : int Atomic.t array;
  }

  let make name = { name; shards = Array.init n_shards (fun _ -> Atomic.make 0) }

  let name t = t.name

  let add t n =
    if Atomic.get enabled_flag then begin
      if n < 0 then invalid_arg "Obs.Counter.add: negative increment";
      ignore (Atomic.fetch_and_add t.shards.(shard_index ()) n : int)
    end

  let incr t = add t 1

  let value t = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t.shards

  let shard_values t = Array.map Atomic.get t.shards

  let reset t = Array.iter (fun a -> Atomic.set a 0) t.shards
end

module Gauge = struct
  type t = {
    name : string;
    level : int Atomic.t;
    high : int Atomic.t;
  }

  let make name = { name; level = Atomic.make 0; high = Atomic.make 0 }

  let name t = t.name

  let set t v =
    if Atomic.get enabled_flag then begin
      Atomic.set t.level v;
      atomic_max t.high v
    end

  let value t = Atomic.get t.level

  let high_water t = Atomic.get t.high

  let reset t =
    Atomic.set t.level 0;
    Atomic.set t.high 0
end

module Histogram = struct
  (* Bucket [i] counts samples whose whole-ns value lies in
     [2^i, 2^(i+1)) (bucket 0 additionally holds 0 ns).  62 buckets
     cover every non-negative OCaml int. *)
  let n_buckets = 62

  type t = {
    name : string;
    buckets : int Atomic.t array;
    count : int Atomic.t;
    sum_ns : int Atomic.t;
    max_ns : int Atomic.t;
  }

  let make name =
    {
      name;
      buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      sum_ns = Atomic.make 0;
      max_ns = Atomic.make 0;
    }

  let name t = t.name

  let bucket_of_ns v =
    if v <= 1 then 0
    else begin
      let i = ref 0 and rest = ref v in
      while !rest > 1 do
        incr i;
        rest := !rest lsr 1
      done;
      min (n_buckets - 1) !i
    end

  let observe t v =
    if Atomic.get enabled_flag then begin
      let ns = int_of_float (Float.max v 0.) in
      ignore (Atomic.fetch_and_add t.buckets.(bucket_of_ns ns) 1 : int);
      ignore (Atomic.fetch_and_add t.count 1 : int);
      ignore (Atomic.fetch_and_add t.sum_ns ns : int);
      atomic_max t.max_ns ns
    end

  let count t = Atomic.get t.count

  let sum t = float_of_int (Atomic.get t.sum_ns)

  let max_value t = float_of_int (Atomic.get t.max_ns)

  (* Upper bound of bucket [i]: one past the largest whole-ns value the
     bucket can hold. *)
  let bucket_upper i = Float.pow 2. (float_of_int (i + 1))

  let quantile t q =
    if not (Float.is_finite q) || q < 0. || q > 1. then
      invalid_arg "Obs.Histogram.quantile: q outside [0, 1]";
    let n = count t in
    if n = 0 then 0.
    else if q >= 1. then max_value t
    else begin
      let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let rec walk i cum =
        if i >= n_buckets then max_value t
        else
          let cum = cum + Atomic.get t.buckets.(i) in
          if cum >= rank then Float.min (bucket_upper i) (max_value t)
          else walk (i + 1) cum
      in
      walk 0 0
    end

  let reset t =
    Array.iter (fun a -> Atomic.set a 0) t.buckets;
    Atomic.set t.count 0;
    Atomic.set t.sum_ns 0;
    Atomic.set t.max_ns 0
end

(* ------------------------------------------------------------------ *)
(* External sources.  Sibling modules (Trace) keep their own state but
   want their counters in every snapshot and their buffers emptied by
   [reset]; they register suppliers here at module-init time to avoid a
   dependency cycle inside the wrapped library. *)

let external_counter_sources : (unit -> (string * int) list) list ref = ref []

let external_reset_hooks : (unit -> unit) list ref = ref []

let register_counter_source f =
  external_counter_sources := f :: !external_counter_sources

let register_reset_hook f = external_reset_hooks := f :: !external_reset_hooks

(* ------------------------------------------------------------------ *)
(* Registry.                                                           *)

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let registry_lock = Mutex.create ()

let intern name describe_kind project create =
  Mutex.lock registry_lock;
  let result =
    match Hashtbl.find_opt registry name with
    | Some m -> (
        match project m with
        | Some v -> Ok v
        | None ->
            Error
              (Printf.sprintf "Obs.%s: %S is registered as another metric kind"
                 describe_kind name))
    | None ->
        let v, m = create name in
        Hashtbl.replace registry name m;
        Ok v
  in
  Mutex.unlock registry_lock;
  match result with Ok v -> v | Error msg -> invalid_arg msg

let counter name =
  intern name "counter"
    (function M_counter c -> Some c | M_gauge _ | M_histogram _ -> None)
    (fun name ->
      let c = Counter.make name in
      (c, M_counter c))

let gauge name =
  intern name "gauge"
    (function M_gauge g -> Some g | M_counter _ | M_histogram _ -> None)
    (fun name ->
      let g = Gauge.make name in
      (g, M_gauge g))

let histogram name =
  intern name "histogram"
    (function M_histogram h -> Some h | M_counter _ | M_gauge _ -> None)
    (fun name ->
      let h = Histogram.make name in
      (h, M_histogram h))

let registered () =
  Mutex.lock registry_lock;
  let ms = Hashtbl.fold (fun _ m acc -> m :: acc) registry [] in
  Mutex.unlock registry_lock;
  ms

let reset () =
  List.iter
    (function
      | M_counter c -> Counter.reset c
      | M_gauge g -> Gauge.reset g
      | M_histogram h -> Histogram.reset h)
    (registered ());
  List.iter (fun f -> f ()) !external_reset_hooks

(* ------------------------------------------------------------------ *)
(* Timing helper.                                                      *)

let time_hist h f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now_ns () in
    match f () with
    | v ->
        Histogram.observe h (now_ns () -. t0);
        v
    | exception e ->
        Histogram.observe h (now_ns () -. t0);
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Snapshots.                                                          *)

type histogram_summary = {
  h_count : int;
  h_sum_ns : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
  h_max : float;
}

type gauge_reading = {
  g_value : int;
  g_high_water : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * gauge_reading) list;
  histograms : (string * histogram_summary) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (function
      | M_counter c -> counters := (Counter.name c, Counter.value c) :: !counters
      | M_gauge g ->
          gauges :=
            (Gauge.name g, { g_value = Gauge.value g; g_high_water = Gauge.high_water g })
            :: !gauges
      | M_histogram h ->
          histograms :=
            ( Histogram.name h,
              {
                h_count = Histogram.count h;
                h_sum_ns = Histogram.sum h;
                h_p50 = Histogram.quantile h 0.5;
                h_p90 = Histogram.quantile h 0.9;
                h_p99 = Histogram.quantile h 0.99;
                h_max = Histogram.max_value h;
              } )
            :: !histograms)
    (registered ());
  List.iter
    (fun source -> List.iter (fun kv -> counters := kv :: !counters) (source ()))
    !external_counter_sources;
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !histograms;
  }

(* ------------------------------------------------------------------ *)
(* Snapshot diffing.                                                   *)

let delta older newer =
  let counters =
    List.map
      (fun (name, v) ->
        let prev = Option.value ~default:0 (List.assoc_opt name older.counters) in
        (name, Stdlib.max 0 (v - prev)))
      newer.counters
  in
  let histograms =
    List.map
      (fun (name, h) ->
        match List.assoc_opt name older.histograms with
        | None -> (name, h)
        | Some p ->
            ( name,
              {
                h with
                h_count = Stdlib.max 0 (h.h_count - p.h_count);
                h_sum_ns = Float.max 0. (h.h_sum_ns -. p.h_sum_ns);
              } ))
      newer.histograms
  in
  { counters; gauges = newer.gauges; histograms }

(* ------------------------------------------------------------------ *)
(* Reporters.                                                          *)

let table s =
  let sections = ref [] in
  let add title header rows = if rows <> [] then sections := Report.table ~title ~header rows :: !sections in
  add "histograms" [ "histogram"; "count"; "p50"; "p90"; "p99"; "max"; "total" ]
    (List.map
       (fun (name, h) ->
         [
           name;
           string_of_int h.h_count;
           Report.ns h.h_p50;
           Report.ns h.h_p90;
           Report.ns h.h_p99;
           Report.ns h.h_max;
           Report.ns h.h_sum_ns;
         ])
       s.histograms);
  add "gauges" [ "gauge"; "value"; "high water" ]
    (List.map
       (fun (name, g) ->
         [ name; string_of_int g.g_value; string_of_int g.g_high_water ])
       s.gauges);
  add "counters" [ "counter"; "value" ]
    (List.map (fun (name, v) -> [ name; string_of_int v ]) s.counters);
  if !sections = [] then "(no metrics registered)"
  else String.concat "\n\n" !sections

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  add_escaped b s;
  Buffer.contents b

(* One buffer for the whole object: the flight recorder's event line is
   rendered on every query the plane observes. *)
let json_object fields =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_char b '"';
      add_escaped b k;
      Buffer.add_string b "\": ";
      Buffer.add_string b v)
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

let json s =
  let counters =
    json_object (List.map (fun (name, v) -> (name, string_of_int v)) s.counters)
  in
  let gauges =
    json_object
      (List.map
         (fun (name, g) ->
           ( name,
             json_object
               [
                 ("value", string_of_int g.g_value);
                 ("high_water", string_of_int g.g_high_water);
               ] ))
         s.gauges)
  in
  let histograms =
    json_object
      (List.map
         (fun (name, h) ->
           ( name,
             json_object
               [
                 ("count", string_of_int h.h_count);
                 ("sum_ns", Printf.sprintf "%.0f" h.h_sum_ns);
                 ("p50_ns", Printf.sprintf "%.0f" h.h_p50);
                 ("p90_ns", Printf.sprintf "%.0f" h.h_p90);
                 ("p99_ns", Printf.sprintf "%.0f" h.h_p99);
                 ("max_ns", Printf.sprintf "%.0f" h.h_max);
               ] ))
         s.histograms)
  in
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"counters\": %s," counters;
      Printf.sprintf "  \"gauges\": %s," gauges;
      Printf.sprintf "  \"histograms\": %s" histograms;
      "}";
    ]
