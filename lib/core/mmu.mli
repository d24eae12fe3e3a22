(** The MMU abstraction (Table 1): hardware page tables plus per-core TLBs
    behind one interface, implemented for both per-core page tables (which
    enable targeted TLB shootdowns) and traditional shared page tables.

    [translate] is the hardware path of a user memory access: TLB hit, or
    TLB fill from the page table visible to the core (no kernel
    involvement), or a miss that the caller must turn into a software
    [pagefault]. [drop_for_core] is what a shootdown handler does on the
    target core: clear the page-table range and invalidate the TLB. *)

type t

(** Outcome of the hardware path of one memory access. *)
type translation =
  | Hit of int  (** translation present with sufficient permission *)
  | Miss  (** no translation visible: software page fault *)
  | Prot_fault of int
      (** translation present but read-only and the access is a write:
          software protection fault (COW or genuine violation) *)

val create : Ccsim.Machine.t -> Page_table.kind -> t

val asid : t -> int
(** The address-space id (from {!Ccsim.Obs.fresh_asid}: 0 for the
    machine's first MMU, 1 for its second, ...) tagging every TLB event
    this MMU's per-core TLBs emit; [Unmap_done] emitters must use
    the same id so the checker scopes staleness to one address space. *)

val kind : t -> Page_table.kind
val page_table : t -> Page_table.t

val translate : t -> Ccsim.Core.t -> vpn:int -> write:bool -> translation
(** TLB lookup, then hardware walk; fills the TLB on a walk hit. *)

val install :
  t -> Ccsim.Core.t -> vpn:int -> pfn:int -> writable:bool -> unit
(** Called at the end of a software page fault: fill the faulting core's
    page table and TLB. *)

val drop_for_core : t -> owner:int -> lo:int -> hi:int -> unit
(** Remove translations for [lo, hi) from core [owner]'s page table and
    TLB. *)

val drop_tlb_range : t -> owner:int -> lo:int -> hi:int -> unit
(** Invalidate core [owner]'s TLB entries for [lo, hi) without touching
    the page table (mprotect rewrites PTEs in place and only needs the
    stale cached permissions gone). *)

val discard_for_core : t -> owner:int -> unit
(** Drop core [owner]'s entire page table and TLB — the paper's
    memory-pressure story: RadixVM's page tables are caches of the radix
    tree and can be discarded wholesale; later accesses re-fault. *)

val tlb_mem : t -> core:int -> vpn:int -> bool
(** Does core [core]'s TLB cache [vpn]? (Uncharged; for invariant tests:
    after munmap returns, no TLB may cache the range.) *)

val pt_entry : t -> core:int -> vpn:int -> Page_table.pte option
(** Uncharged page-table read for tests. *)
