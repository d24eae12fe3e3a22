(** Fixed-capacity mutable bit sets.

    Used for cache-line sharer sets and per-page TLB core sets. Capacity is
    fixed at creation; membership operations on out-of-range indices raise
    [Invalid_argument]. *)

type t

val create : int -> t
(** [create n] is an empty set over universe [0 .. n-1]. *)

val capacity : t -> int
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool

(** {!mem} without the bounds check — the caller must guarantee
    [0 <= i < capacity] (e.g. a core id against a set sized [ncores]). *)
val unsafe_mem : t -> int -> bool
val clear : t -> unit
val is_empty : t -> bool
val cardinal : t -> int
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val choose : t -> int option
(** [choose t] is the smallest member, if any. *)

val exists_other : t -> int -> bool
(** [exists_other t i] is [true] iff the set has a member other than [i]
    ([i] itself need not be a member). One mask pass over the words — the
    line-directory miss path's "any other sharer?" query. *)

val mem_range_other : t -> lo:int -> hi:int -> int -> bool
(** [mem_range_other t ~lo ~hi i]: does the set have a member in
    [\[lo, hi)] other than [i]? Mask arithmetic only — the miss path's
    "any other sharer on my socket?" query. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] adds every member of [src] to [dst]. The two sets
    must have the same capacity. *)

