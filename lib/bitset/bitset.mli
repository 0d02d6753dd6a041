(** Dense, fixed-capacity bitsets.

    The temporal substrate stores one availability bit per time slot per
    person; SGQ/STGQ pruning needs fast intersection, population counts and
    run (consecutive-ones) queries over those vectors.  Bits are indexed
    from [0] to [length t - 1]. *)

type t

(** [create n] is a bitset of capacity [n] with all bits clear.
    @raise Invalid_argument if [n < 0]. *)
val create : int -> t

(** [length t] is the capacity given at creation. *)
val length : t -> int

(** [copy t] is an independent copy of [t]. *)
val copy : t -> t

(** [set t i] sets bit [i].  @raise Invalid_argument if out of range. *)
val set : t -> int -> unit

(** [clear t i] clears bit [i].  @raise Invalid_argument if out of range. *)
val clear : t -> int -> unit

(** [mem t i] is the value of bit [i].
    @raise Invalid_argument if out of range. *)
val mem : t -> int -> bool

(** The most bits one {!bits} call reads: 62, one less than an OCaml
    int's 63, so a word of [bits_per_word] bits is a non-negative int. *)
val bits_per_word : int

(** [bits t ~pos ~len] is the int whose bit [i] is bit [pos + i] of [t],
    for [0 <= i < len]; its higher bits are clear.  It reads at most two
    words, whatever [pos] is.
    @raise Invalid_argument unless [0 <= len <= bits_per_word] and
    [0 <= pos <= length t - len]. *)
val bits : t -> pos:int -> len:int -> int

(** [set_range t lo hi] sets every bit in the inclusive range [lo..hi].
    Does nothing if [lo > hi].  @raise Invalid_argument if out of range. *)
val set_range : t -> int -> int -> unit

(** [clear_range t lo hi] clears every bit in the inclusive range [lo..hi]. *)
val clear_range : t -> int -> int -> unit

(** [fill t b] sets every bit to [b]. *)
val fill : t -> bool -> unit

(** [count t] is the number of set bits. *)
val count : t -> int

(** [is_empty t] is [count t = 0], computed without a full count. *)
val is_empty : t -> bool

(** [equal a b] is structural equality (capacities must match for [true]). *)
val equal : t -> t -> bool

(** [inter a b] is a fresh bitset holding the intersection.
    @raise Invalid_argument if capacities differ. *)
val inter : t -> t -> t

(** [union a b] is a fresh bitset holding the union.
    @raise Invalid_argument if capacities differ. *)
val union : t -> t -> t

(** [diff a b] is a fresh bitset holding [a \ b].
    @raise Invalid_argument if capacities differ. *)
val diff : t -> t -> t

(** [inter_into ~dst a] replaces [dst] with [dst ∩ a] in place. *)
val inter_into : dst:t -> t -> unit

(** [subset a b] is [true] iff every bit of [a] is set in [b]. *)
val subset : t -> t -> bool

(** [inter_count a b] is [count (inter a b)] without allocating. *)
val inter_count : t -> t -> int

(** [iter f t] applies [f] to each set index in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [fold f t init] folds over set indices in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [to_list t] is the sorted list of set indices. *)
val to_list : t -> int list

(** [of_list n l] is a bitset of capacity [n] with exactly the indices of
    [l] set.  @raise Invalid_argument if an index is out of range. *)
val of_list : int -> int list -> t

(** [run_containing t i] is the maximal inclusive range [(lo, hi)] of
    consecutive set bits containing [i], or [None] when bit [i] is clear. *)
val run_containing : t -> int -> (int * int) option

(** [longest_run_in t lo hi] is the length of the longest run of set bits
    within the inclusive window [lo..hi] (clamped to capacity); [0] when the
    window contains no set bit. *)
val longest_run_in : t -> int -> int -> int

(** [has_run_of t ~len ~lo ~hi] is [true] iff some run of [len] consecutive
    set bits fits inside the inclusive window [lo..hi]. *)
val has_run_of : t -> len:int -> lo:int -> hi:int -> bool

(** [next_clear t i] is the smallest index [j >= i] with bit [j] clear, or
    [length t] if all bits from [i] on are set. *)
val next_clear : t -> int -> int

(** [prev_clear t i] is the largest index [j <= i] with bit [j] clear, or
    [-1] if all bits up to [i] are set. *)
val prev_clear : t -> int -> int

(** [pp] formats the bitset as a 0/1 string, bit 0 leftmost. *)
val pp : Format.formatter -> t -> unit
