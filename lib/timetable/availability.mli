(** One person's availability over a slot horizon: one bit per slot,
    set when the slot is free, packed {!bits_per_word} slots to an int,
    with the window algebra the query algorithms need.  Every slot
    argument is checked against the horizon. *)

type t

(** [create ~horizon] is an all-busy availability over [horizon] slots.
    @raise Invalid_argument if [horizon < 0]. *)
val create : horizon:int -> t

val horizon : t -> int
val copy : t -> t

(** [equal a b] is [true] iff [a] and [b] share a horizon and the same
    free slots. *)
val equal : t -> t -> bool

(** [available t slot] tests one slot.
    @raise Invalid_argument unless [0 <= slot < horizon t]. *)
val available : t -> int -> bool

(** The most slots one {!free_bits} call reads (62). *)
val bits_per_word : int

(** [free_bits t ~pos ~len] reads [len] slots from [pos] at once: bit
    [i] of the result is set iff slot [pos + i] is available, for
    [0 <= i < len], and its higher bits are clear.
    @raise Invalid_argument unless [0 <= len <= bits_per_word] and the
    slots lie inside the horizon. *)
val free_bits : t -> pos:int -> len:int -> int

(** [set_free t lo hi] marks the inclusive slot range available; it
    does nothing if [lo > hi].
    @raise Invalid_argument if [lo <= hi] and either end leaves the
    horizon. *)
val set_free : t -> int -> int -> unit

(** [set_busy t lo hi] marks the inclusive slot range unavailable, with
    the checks of {!set_free}. *)
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
    within the inclusive window [lo..hi], clipped to the horizon. *)
val has_run_in : t -> len:int -> lo:int -> hi:int -> bool

(** {1 Byte mask}

    The one byte layout of a calendar, on the wire and on disk:
    [mask_bytes ~horizon] bytes, slot [i] at bit [i land 7] (least
    significant first) of byte [i / 8], a set bit meaning free.  The
    horizon itself is framed by the caller. *)

(** [mask_bytes ~horizon] is [ceil (horizon / 8)]. *)
val mask_bytes : horizon:int -> int

(** [add_mask buf t] appends [t]'s mask to [buf]; bits past the horizon
    in the last byte are clear. *)
val add_mask : Buffer.t -> t -> unit

(** [of_mask s ~pos ~horizon] decodes the mask of a [horizon]-slot
    calendar that starts at byte [pos] of [s], ignoring bits past the
    horizon.  A decoder checks that the [mask_bytes ~horizon] bytes are
    present, and reports it in its own terms, before it calls this.
    @raise Invalid_argument if they are not. *)
val of_mask : string -> pos:int -> horizon:int -> t
