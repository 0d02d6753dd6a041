(** One person's availability over a slot horizon.

    A thin veneer over {!Bitset.t} (bit set = available) adding the
    window-algebra the query algorithms need. *)

type t

(** [create ~horizon] is an all-busy availability over [horizon] slots. *)
val create : horizon:int -> t

(** [of_bitset b] adopts [b] (no copy). *)
val of_bitset : Bitset.t -> t

(** [bits t] exposes the underlying bitset (shared, not a copy). *)
val bits : t -> Bitset.t

val horizon : t -> int
val copy : t -> t

(** [available t slot] tests one slot. *)
val available : t -> int -> bool

(** [set_free t lo hi] marks the inclusive slot range available. *)
val set_free : t -> int -> int -> unit

(** [set_busy t lo hi] marks the inclusive slot range unavailable. *)
val set_busy : t -> int -> int -> unit

(** [free_count t] is the number of available slots. *)
val free_count : t -> int

(** [window_free t ~start ~len] is [true] iff all of
    [start .. start+len-1] are available (and inside the horizon). *)
val window_free : t -> start:int -> len:int -> bool

(** [common ts] intersects the availabilities (same horizon required).
    @raise Invalid_argument on an empty list or mismatched horizons. *)
val common : t list -> t

(** [windows t ~len] lists every start slot of a fully-available window of
    [len] slots, in increasing order. *)
val windows : t -> len:int -> int list

(** [check_schedules ~n schedules] checks a whole world's calendars:
    one per vertex of an [n]-vertex graph, all on one horizon.  It reads
    all [n], so the places that install a world call it once: the engine
    cache, a solver that builds its own context, and the store.
    @raise Invalid_argument otherwise. *)
val check_schedules : n:int -> t array -> unit

(** [run_around t slot] is the maximal inclusive range of consecutive
    available slots containing [slot], if [slot] is available. *)
val run_around : t -> int -> (int * int) option

(** [has_run_in t ~len ~lo ~hi] tests for [len] consecutive available slots
    within the inclusive window [lo..hi]. *)
val has_run_in : t -> len:int -> lo:int -> hi:int -> bool

val pp : Format.formatter -> t -> unit
