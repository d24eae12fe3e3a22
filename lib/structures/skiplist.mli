(** Concurrent skip list with wait-free lookups and lock-free inserts and
    deletes (Herlihy & Shavit), as used by RadixVM's abandoned early design
    and by the Figure 6 comparison.

    The semantics here are an ordered int-keyed map; what the simulator
    measures is the cost structure: a lookup reads the cache line of every
    node it traverses, and an insert or delete *writes* the lines of its
    predecessor nodes at every level. Those interior-node writes are why
    unrelated operations on disjoint keys still contend — the effect
    Figure 6 quantifies and the radix tree eliminates.

    Tower heights are derived deterministically from the key so runs are
    reproducible. *)

type 'v t

val create : Ccsim.Core.t -> 'v t
(** [create core] is an empty list of at most 16 levels. *)

val find : Ccsim.Core.t -> 'v t -> int -> 'v option
val mem : Ccsim.Core.t -> 'v t -> int -> bool

val insert : Ccsim.Core.t -> 'v t -> int -> 'v -> unit
(** Insert or replace. *)

val remove : Ccsim.Core.t -> 'v t -> int -> bool
(** Remove; [false] if the key was absent. *)

val floor : Ccsim.Core.t -> 'v t -> int -> (int * 'v) option
(** Greatest binding with key <= the argument. *)

val length : 'v t -> int
val to_alist : 'v t -> (int * 'v) list
(** Uncharged, ascending (for tests). *)

val check_invariants : 'v t -> unit
