(** Hardware page tables, in the configurations of section 3.3.

    [Per_core] gives every core its own table: installs and walks touch
    only core-local cache lines, and the kernel learns exactly which cores
    have a translation (every core must software-fault a page before using
    it). [Shared] is the conventional single table: walks by any core read
    shared PTE lines, installs write them (8 PTEs per line — real false
    sharing), and the kernel cannot know which TLBs cached what.
    [Grouped g] shares one table among each group of [g] cores — the
    middle ground the paper suggests ("the kernel could reduce overhead by
    sharing page tables between small groups of cores"): per-group memory
    cost, and shootdowns targeted at group granularity.

    The table maps VPN -> PFN. Accounting (entries, page-table pages) backs
    the section 5.4 memory-overhead experiment. *)

type kind = Per_core | Shared | Grouped of int

type pte = { pfn : int; writable : bool }

type t

val create : Ccsim.Machine.t -> kind -> t
val kind : t -> kind

val find : t -> Ccsim.Core.t -> vpn:int -> pte option
(** Hardware walk by [core] (reads its own table when [Per_core]). *)

val find_packed : t -> Ccsim.Core.t -> vpn:int -> int
(** Allocation-free {!find} for the translation fast path: [-1] when
    absent, otherwise [pfn lsl 1 lor writable]. *)

val install : t -> Ccsim.Core.t -> vpn:int -> pfn:int -> writable:bool -> unit
(** Fill the PTE visible to [core]. *)

val clear_range :
  t -> owner:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** Remove the PTEs for vpns in [lo, hi) from core [owner]'s view
    ([owner] is ignored for [Shared]), calling [f vpn pfn] on each as it
    goes — ascending vpns for a narrow range, table slot order for a wide
    one; [f] must not install. The caller charges the cost (it happens
    inside shootdown handlers). *)

val entries : t -> int
(** Live PTEs, summed over per-core tables. *)

val pt_pages : t -> int
(** Page-table pages needed to hold the live PTEs (512 entries per page,
    counted per distinct leaf page, summed over per-core tables). *)

val bytes : t -> int
(** [pt_pages t * 4096]. *)

val peek : t -> owner:int -> vpn:int -> pte option
(** Uncharged PTE read of core [owner]'s view (for tests). *)
