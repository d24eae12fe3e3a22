(** The compressed radix tree of mapping metadata (section 3.2).

    A fixed-depth radix tree indexed by virtual page number, like a
    hardware page table: by default four levels of 9 bits each (36-bit
    VPNs, 4 KB pages). Each node slot is [Empty], a [Folded] value standing
    for every page in the slot's subtree, or a link to a child node. Any
    subtree whose pages would all carry the same value is folded into a
    single slot, so vast unused ranges cost nothing and large uniform
    mappings are created in O(levels) writes.

    Concurrency follows the paper's plan exactly:
    - every slot carries a lock bit; operations lock the slots covering
      their range from left to right, so operations on overlapping ranges
      serialize at the leftmost overlapping page while operations on
      disjoint ranges touch disjoint cache lines (8 slots per line, so
      false sharing at range edges is modeled too);
    - locking an unexpanded region locks the covering interior slot;
      expansion (driven by writes that need finer granularity) creates a
      child whose slots are all locked by the expanding operation and whose
      contents replicate the folded value;
    - node liveness is tracked with Refcache: each node's count is its
      number of used slots plus transient traversal pins taken through the
      parent's weak reference ({!Refcache.tryget}), so an emptied node is
      reclaimed only after two quiescent epochs and can be revived in
      between. Collapsing (unlinking emptied nodes) is implemented behind
      [~collapse]; the paper's prototype ran with it off, and that is the
      default.

    Values are shared when folded: callers must treat a value read from the
    tree as immutable until they have replaced the page's slot with a fresh
    record ({!set_page}); after that the record is page-private and may be
    mutated in place. This is how the VM layer gives every page its own
    mapping metadata, as the paper prescribes.

    One deviation from the paper's locking fine print: after expanding a
    locked interior slot we keep the parent slot locked for the rest of the
    operation instead of handing the lock off to the child's slots and
    releasing the parent. This is strictly more conservative (it can only
    serialize racing operations that target the same expanding subtree,
    which the paper serializes anyway) and keeps unlock bookkeeping
    simple. *)

type 'v t

type 'v locked
(** A held range lock, returned by {!lock_range}. *)

val create :
  ?bits:int -> ?levels:int -> ?collapse:bool ->
  ?backend:Locks.Range_lock.kind -> ?partition:int ->
  Ccsim.Machine.t -> Refcnt.Refcache.t -> Ccsim.Core.t -> 'v t
(** [create machine rc core] builds an empty tree whose root is allocated
    by [core]. [bits] is the index width per level (default 9), [levels]
    the depth (default 4); the tree covers VPNs [0, 2^(bits*levels)).

    [backend] selects how {!lock_range} acquires (default
    [Radix_embedded], the paper's per-slot lock bits; [List_based] and
    [Global] delegate to {!Locks.Range_lock} and walk the tree lock-free
    under the external lock — these require [collapse = false]).

    [partition] (embedded backend only) enables DragonFly-style
    partitioning: a folded run whose slot spans more than [partition]
    pages and is only partially covered by the range being locked is
    split one level before locking, so concurrent faults into one huge
    mapping lock disjoint slots instead of serializing on the covering
    slot. [None] (the default) reproduces the paper's behavior exactly. *)

val max_vpn : 'v t -> int
(** One past the largest representable VPN. *)

val lock_range : 'v t -> Ccsim.Core.t -> lo:int -> hi:int -> 'v locked
(** Lock [lo, hi) (VPNs, [lo < hi]), left to right. Unexpanded subranges
    are locked at interior-slot granularity. *)

val unlock_range : 'v t -> Ccsim.Core.t -> 'v locked -> unit
(** Release a held range — also when the owning process died holding it
    and {!Radixvm.reap} frees it on the dead core's behalf. *)

val fill_range : 'v t -> Ccsim.Core.t -> 'v locked -> 'v -> unit
(** Set every page in the locked range to the (shared, folded) value.
    Requires the range to contain no mapped pages — the VM layer unmaps
    first ({!clear_range}), preserving munmap's TLB invariants. *)

val clear_range :
  'v t -> Ccsim.Core.t -> 'v locked -> (int * int * 'v) list
(** Unmap every page in the locked range. Returns the removed runs as
    [(first_vpn, page_count, value)] triples in ascending order — a folded
    run comes back as one triple, per-page entries as single-page runs. *)

val update_range : 'v t -> Ccsim.Core.t -> 'v locked -> f:('v -> 'v) -> unit
(** Replace every mapped page's value in the locked range: folded slots
    are rewritten in one slot write (with [f] applied once per slot),
    per-page slots individually. Partially covered folds are expanded
    first. Used by mprotect-style operations that transform metadata
    without unmapping. *)

val get_page : 'v t -> Ccsim.Core.t -> 'v locked -> int -> 'v option
(** The value covering one page of the locked range (folded or private). *)

val set_page : 'v t -> Ccsim.Core.t -> 'v locked -> int -> 'v -> unit
(** Give one page of the locked range its own value, expanding any folds
    down to the leaf so the page's slot is private. *)

val lookup : 'v t -> Ccsim.Core.t -> int -> 'v option
(** Lockless point query (the paper's lookup benchmark, Figure 7): charged
    reads down the tree, pinning nodes through their weak references. *)

val node_count : 'v t -> int
(** Allocated nodes (root included) — the Table 2 space metric. *)

val approx_bytes : 'v t -> int
(** Modeled tree memory: nodes times node size. *)

(** {2 Test support (uncharged)} *)

val peek : 'v t -> int -> 'v option
(** Uncharged lookup for oracles. *)

val fold_mapped : 'v t -> init:'a -> f:('a -> int -> 'v -> 'a) -> 'a
(** Uncharged fold over every mapped page in VPN order. *)

val check_invariants : 'v t -> unit
(** Raise [Failure] if structural invariants are violated: slot-use counts
    match Refcache true counts, no child appears in a leaf, folded slots
    have no children, every node's base/level are consistent. *)
