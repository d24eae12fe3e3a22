(** RadixVM: the paper's virtual memory system (section 3.4).

    An address space is a compressed radix tree of per-page mapping
    metadata ({!Radix}), physical pages and radix nodes are reclaimed
    through a scalable reference-counting scheme, and TLB shootdowns are
    targeted using per-core page tables ({!Mmu}).

    Operations follow the paper's concurrency plan: every operation locks
    the radix-tree slots covering its range left-to-right, so operations on
    non-overlapping ranges share no cache lines while overlapping
    operations serialize at the leftmost common page.

    - [mmap] locks the range, unmaps anything there (with shootdowns),
      writes folded mapping metadata, and unlocks: no physical pages are
      allocated.
    - [touch] is the user access path; on a software fault it locks the
      single page, allocates a frame if the page has none (privatizing the
      page's metadata record), installs the translation in the local core's
      page table and TLB, and records the core in the page's TLB set.
    - [munmap] locks the range, clears metadata while collecting frames and
      the set of cores that may cache translations, clears exactly those
      cores' page tables and TLBs (inter-processor interrupts only to
      cores that actually faulted the pages), unlocks, and then releases
      the frame references — so frames are freed only after every
      translation is gone.

    The functor parameter chooses the physical-page reference-counting
    scheme; Figure 8 runs the same benchmark over Refcache, a shared
    counter, and SNZI. Radix-tree nodes always use Refcache, as in the
    paper. *)

module Make (C : Refcnt.Counter_intf.S) : sig
  include Vm_intf.S

  val create_with :
    ?mmu:Page_table.kind ->
    ?rangelock:Locks.Range_lock.kind ->
    ?partition:int ->
    ?share_state:t ->
    Ccsim.Machine.t ->
    t
  (** [create_with machine] with [mmu] defaulting to [Per_core] (the
      paper's configuration; [Shared] gives the Figure 9 ablation), and
      the default radix geometry of {!Radix.create}. [rangelock] picks the
      range-lock backend (default [Radix_embedded]; see
      {!Locks.Range_lock}) and [partition] enables the embedded backend's
      huge-fold partitioning, both as in {!Radix.create}; forked children
      inherit both. [share_state] makes the new address space share
      another's Refcache, frame counters, and page cache — what processes
      of one system share ({!fork} uses it). *)

  val store : t -> Ccsim.Core.t -> vpn:int -> int -> Vm_types.access_result
  (** A user store carrying a value: like {!touch}, but records the word in
      the backing frame, so copy-on-write and page sharing are observable
      on real data. *)

  val load : t -> Ccsim.Core.t -> vpn:int -> int option
  (** A user load: [None] means the access faulted fatally. *)

  val fork : t -> Ccsim.Core.t -> t
  (** Duplicate the address space, Unix-fork style: file-backed pages stay
      shared through the page cache; anonymous pages become copy-on-write
      in both parent and child (the parent's writable translations are
      shot down so its next writes fault and copy). If it fails (see
      {!Vm_types.trap}) the parent is untouched — COW demotions undone,
      locks released — and the half-built child was destroyed: its tree
      emptied and every frame reference the copy had taken released. *)

  val destroy : t -> Ccsim.Core.t -> unit
  (** Unmap everything (process exit): every frame reference is dropped.
      Runs with fault injection suppressed — teardown never fails. *)

  val reap : t -> Ccsim.Core.t -> unit
  (** Recover from a crash ({!Ccsim.Fault.Injected_crash}): a crashed
      operation does not unwind — it leaves the tree mid-mutation with its
      range locks held and stashes a repair closure here. [reap t core]
      runs that repair (backing out the half-done mutation, force-releasing
      the dead process's range locks and, for a crashed fork, destroying
      the half-built child), then destroys the address space, reclaiming
      every frame through the refcounting layer. Siblings sharing state
      are untouched. [core] must
      be the core the process crashed on: lock releases must come from the
      acquiring core for the lock model's timestamps and the checker's
      per-core held-lock accounting to balance. Safe to call without a
      pending crash (plain teardown). Runs with injection suppressed. *)

  val crash_pending : t -> bool
  (** A crash happened in this address space and {!reap} has not yet run. *)

  val discard_page_tables : t -> Ccsim.Core.t -> unit
  (** Memory pressure: drop every per-core page table and TLB entry. The
      radix tree is the canonical mapping, so nothing is lost — subsequent
      accesses re-fault and rebuild (section 3.2's "page tables are
      cacheable memory"). *)

  val address_space_pages : t -> int
  (** One past the largest mappable VPN. *)

  val page_cache : t -> Page_cache.Make(C).t
  (** The file page cache shared by this address space's family. *)

  val cached_file_pages : t -> int
  (** Pages resident in the file page cache (for tests). *)

  val evict_file_page : t -> Ccsim.Core.t -> file:int -> page:int -> unit
  (** Drop the cache's reference on one file page (memory pressure). *)

  val mmap_shared_frame :
    t -> Ccsim.Core.t -> vpn:int -> npages:int -> pfn:int -> C.handle -> unit
  (** Map an existing physical frame (e.g. a shared library page or a
      forked page): takes one reference per page on the frame's counter.
      This is the Figure 8 workload's operation. *)

  val counters : t -> C.t
  (** The frame-counting subsystem (to create shared frames). *)

  val refcache : t -> Refcnt.Refcache.t
  (** The Refcache instance tracking radix nodes. *)

  val radix_nodes : t -> int
  val mmu : t -> Mmu.t

  val check_invariants : t -> unit
  (** Tree invariants plus, for every mapped page with a frame: no core's
      page table holds a writable translation of a read-only or COW page
      (under every page-table kind), and, under per-core tables, the
      page's TLB set covers every core whose TLB or page table holds its
      translation.
      @raise Vm_types.Invariant_violation on failure, with the subsystem
      ("radix" or "radixvm") and a description. *)
end

(** The paper's configuration: Refcache for physical pages too. *)
module Default : sig
  include module type of Make (Refcnt.Refcache_counter)
end
