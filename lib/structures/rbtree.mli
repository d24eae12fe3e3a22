(** Imperative red-black tree keyed by int, with charged cache-line costs.

    Models Linux's VMA tree (section 2, Table 2): a balanced tree whose
    inserts and deletes perform rebalancing writes to interior nodes. Under
    the Linux baseline VM these run behind the address-space lock, so their
    cost shows up as hold time; the structure also provides the Table 2
    memory accounting (one ~200-byte VMA object per node). *)

type 'v t

val create : Ccsim.Core.t -> 'v t
val size : 'v t -> int
val find : Ccsim.Core.t -> 'v t -> int -> 'v option
val floor : Ccsim.Core.t -> 'v t -> int -> (int * 'v) option
(** Greatest binding with key <= the argument. *)

val ceiling : Ccsim.Core.t -> 'v t -> int -> (int * 'v) option
(** Least binding with key >= the argument. *)

val insert : Ccsim.Core.t -> 'v t -> int -> 'v -> unit
(** Insert or replace. *)

val remove : Ccsim.Core.t -> 'v t -> int -> bool
val to_alist : 'v t -> (int * 'v) list
(** Uncharged, ascending (for tests). *)

val check_invariants : 'v t -> unit
(** BST order, red nodes have black children, uniform black height. *)
