(** The pure reference model for the cache-serving workload: a
    slot-array map plus an intrusive LRU list, mirroring a
    cache-fastmmap-style page-granular hash cache. Each key hashes to
    exactly one slot ([slot_of_key]); a set steals the slot from a
    colliding key (direct-mapped, like one-entry buckets). No simulation
    types anywhere — the workload replays every observable operation
    against this model and reports divergences. *)

type t

val create : slots:int -> t
(** @raise Invalid_argument if [slots <= 0]. *)

val slot_of_key : t -> int -> int

val get : t -> key:int -> int option
(** [Some value] iff the key's slot holds exactly this key; bumps the
    slot to most-recently-used on a hit. *)

val peek : t -> key:int -> int option
(** [get] without the recency bump (for presence checks that must not
    perturb the LRU order). *)

val set : t -> key:int -> value:int -> unit
(** Occupy the key's slot (evicting any colliding key) and bump it. *)

val delete : t -> key:int -> bool
(** Remove the key if its slot holds it; [true] iff it did. *)

val coldest : t -> n:int -> int list
(** Up to [n] resident slots, least-recently-used first — the eviction
    candidates an LRU sweep would pick. *)

val hottest : t -> int option
(** The most-recently-used resident slot (the resize target). *)

val evict_slot : t -> int -> unit
(** Forget the slot's entry, if any (mirror of a page eviction). *)

val clear : t -> unit
(** Forget everything (mirror of a truncate-to-zero compaction). *)
